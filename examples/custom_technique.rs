//! Extending the framework: plug a custom register-allocation technique into
//! the simulator by implementing `RegisterManager`.
//!
//! The example reimplements the conventional static/exclusive scheme from
//! scratch as a template: it shows the integration points a new technique
//! must cover — CTA admission, architected→physical translation, the
//! acquire/release hooks, and the ledger discipline that catches any
//! overlapping allocation immediately.
//!
//! ```sh
//! cargo run --release --example custom_technique
//! ```

use regmutex_repro::prelude::*;

use regmutex_isa::{ArchReg, CtaId, PhysReg, WarpId};
use regmutex_sim::manager::{AcquireResult, Ledger, RegisterManager};
use regmutex_sim::run_kernel;

/// A from-scratch static allocator: slot-indexed register blocks, claimed at
/// CTA admission, released at retirement.
struct MyStatic {
    rows_per_warp: u32,
    total_rows: u32,
}

impl MyStatic {
    fn new(cfg: &GpuConfig, regs: u16) -> Self {
        MyStatic {
            rows_per_warp: cfg.rows_per_warp(regs),
            total_rows: cfg.reg_rows_per_sm(),
        }
    }

    fn base(&self, w: WarpId) -> u32 {
        self.rows_per_warp * w.0
    }
}

impl RegisterManager for MyStatic {
    fn name(&self) -> &'static str {
        "my-static"
    }

    fn try_admit_cta(&mut self, ledger: &mut Ledger, _cta: CtaId, slots: &[WarpId]) -> bool {
        if slots
            .iter()
            .any(|w| (w.0 + 1) * self.rows_per_warp > self.total_rows)
        {
            return false;
        }
        for &w in slots {
            ledger.claim_range(self.base(w), self.rows_per_warp, w);
        }
        true
    }

    fn retire_cta(&mut self, ledger: &mut Ledger, _cta: CtaId, slots: &[WarpId]) {
        for &w in slots {
            ledger.release_range(self.base(w), self.rows_per_warp, w);
        }
    }

    fn try_acquire(&mut self, _l: &mut Ledger, _w: WarpId) -> AcquireResult {
        AcquireResult::NoOp
    }

    fn release(&mut self, _l: &mut Ledger, _w: WarpId) {}

    fn translate(&self, w: WarpId, reg: ArchReg) -> Option<PhysReg> {
        (u32::from(reg.0) < self.rows_per_warp).then(|| PhysReg(self.base(w) + u32::from(reg.0)))
    }

    fn on_warp_exit(&mut self, _l: &mut Ledger, _w: WarpId) {}
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = suite::by_name("MRI-Q").expect("known workload");
    let cfg = GpuConfig::gtx480();
    let regs = w.kernel.regs_per_thread;

    let stats = run_kernel(&cfg, &w.kernel, w.launch(), || {
        Box::new(MyStatic::new(&cfg, regs))
    })?;

    println!(
        "custom manager ran {} CTAs / {} warps in {} cycles (IPC {:.2}, checksum {:#x})",
        stats.ctas,
        stats.warps,
        stats.cycles,
        stats.ipc(),
        stats.checksum
    );
    Ok(())
}
