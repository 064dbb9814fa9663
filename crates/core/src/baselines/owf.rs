//! Resource Sharing with Owner-Warp-First scheduling (OWF) — the comparator
//! technique of Jatala et al., HPDC'16 \[7\], as modelled for Fig 9.
//!
//! Warp pairs share the registers whose architected index exceeds a
//! threshold `t`: each pair owns `2·t + (R − t)` physical registers. The
//! first warp of a pair to touch a shared register takes a hardware lock and
//! — the shortcoming the paper calls out — **holds it until the end of the
//! program**: there is no in-kernel release, so the partner stalls at its
//! first shared access until the owner exits. The Owner-Warp-First scheduler
//! optimization prioritizes lock owners so they finish (and release) sooner.

use regmutex_isa::{ArchReg, CtaId, Instr, PhysReg, WarpId};
use regmutex_sim::manager::{AcquireResult, Ledger, RegisterManager};
use regmutex_sim::GpuConfig;

/// OWF per-SM state.
#[derive(Debug, Clone)]
pub struct OwfManager {
    /// Sharing threshold `t`: indices below are private, at/above shared.
    threshold: u32,
    /// Architected registers per thread (`R`).
    regs: u32,
    total_rows: u32,
    nw: u32,
    /// Per pair: which warp owns the shared block (held to warp end).
    owner: Vec<Option<WarpId>>,
    /// Shared-block acquisitions (implicit, at first shared access).
    pub lock_acquisitions: u64,
}

impl OwfManager {
    /// Build an OWF manager with an explicit threshold.
    pub fn new(cfg: &GpuConfig, regs_per_thread: u16, threshold: u16) -> Self {
        let nw = cfg.max_warps_per_sm;
        assert!(nw.is_multiple_of(2), "OWF pairs need an even warp count");
        assert!(threshold < regs_per_thread || regs_per_thread == 0);
        OwfManager {
            threshold: u32::from(threshold),
            regs: u32::from(regs_per_thread),
            total_rows: cfg.reg_rows_per_sm(),
            nw,
            owner: vec![None; (nw / 2) as usize],
            lock_acquisitions: 0,
        }
    }

    /// Pick the sharing threshold that maximizes warp capacity (ties:
    /// largest `t`, i.e. the least sharing that still achieves it).
    pub fn choose_threshold(cfg: &GpuConfig, regs_per_thread: u16) -> u16 {
        let rows = cfg.reg_rows_per_sm();
        let r = u32::from(regs_per_thread);
        let mut best = (0u32, regs_per_thread.saturating_sub(2));
        for t in (2..r.saturating_sub(1)).rev() {
            let per_pair = r + t;
            let warps = ((rows / per_pair) * 2).min(cfg.max_warps_per_sm);
            if warps > best.0 {
                best = (warps, t as u16);
            }
        }
        best.1
    }

    /// Rows per warp pair: `2·t + (R − t) = R + t`.
    pub fn rows_per_pair(&self) -> u32 {
        self.regs + self.threshold
    }

    /// The configured threshold.
    pub fn threshold(&self) -> u16 {
        self.threshold as u16
    }

    /// Pairing is across the two halves of the warp-slot space (slot `i`
    /// with slot `i + Nw/2`). Since a CTA's warps occupy contiguous low
    /// slots (at most 16 of them), the two members of a pair can never
    /// belong to the same CTA — so the held-to-program-end lock can never
    /// deadlock against a CTA barrier the owner and the waiter both
    /// participate in.
    fn pair(&self, w: WarpId) -> u32 {
        w.0 % (self.nw / 2)
    }

    fn member(&self, w: WarpId) -> u32 {
        w.0 / (self.nw / 2)
    }

    fn pair_base(&self, pair: u32) -> u32 {
        pair * self.rows_per_pair()
    }

    fn private_rows(&self, w: WarpId) -> (u32, u32) {
        (
            self.pair_base(self.pair(w)) + self.member(w) * self.threshold,
            self.threshold,
        )
    }

    fn shared_rows(&self, pair: u32) -> (u32, u32) {
        (
            self.pair_base(pair) + 2 * self.threshold,
            self.regs - self.threshold,
        )
    }

    fn uses_shared(&self, instr: &Instr) -> bool {
        instr
            .srcs
            .iter()
            .chain(instr.dst.iter())
            .any(|r| u32::from(r.0) >= self.threshold)
    }
}

impl RegisterManager for OwfManager {
    fn name(&self) -> &'static str {
        "owf"
    }

    fn try_admit_cta(&mut self, ledger: &mut Ledger, _cta: CtaId, warp_slots: &[WarpId]) -> bool {
        let fits = warp_slots
            .iter()
            .all(|w| (self.pair(*w) + 1) * self.rows_per_pair() <= self.total_rows);
        if !fits {
            return false;
        }
        for &w in warp_slots {
            let (start, len) = self.private_rows(w);
            ledger.claim_range(start, len, w);
        }
        true
    }

    fn retire_cta(&mut self, ledger: &mut Ledger, _cta: CtaId, warp_slots: &[WarpId]) {
        for &w in warp_slots {
            let (start, len) = self.private_rows(w);
            ledger.release_range(start, len, w);
        }
    }

    fn try_acquire(&mut self, _ledger: &mut Ledger, _warp: WarpId) -> AcquireResult {
        AcquireResult::NoOp // OWF runs the unmodified kernel.
    }

    fn release(&mut self, _ledger: &mut Ledger, _warp: WarpId) {}

    fn pre_access(
        &mut self,
        ledger: &mut Ledger,
        warp: WarpId,
        instr: &Instr,
        _pc: u32,
        _now: u64,
    ) -> bool {
        if !self.uses_shared(instr) {
            return true;
        }
        let pair = self.pair(warp);
        match self.owner[pair as usize] {
            Some(o) if o == warp => true,
            Some(_) => false, // partner holds the lock until it finishes
            None => {
                self.owner[pair as usize] = Some(warp);
                self.lock_acquisitions += 1;
                let (start, len) = self.shared_rows(pair);
                ledger.claim_range(start, len, warp);
                true
            }
        }
    }

    fn pre_access_wake(&self, _now: u64) -> Option<u64> {
        // A refusal waits on the partner's lock, which only the partner's
        // exit frees, and an exit is an issue.
        None
    }

    fn translate(&self, warp: WarpId, reg: ArchReg) -> Option<PhysReg> {
        let x = u32::from(reg.0);
        if x < self.threshold {
            let (start, _) = self.private_rows(warp);
            Some(PhysReg(start + x))
        } else {
            let pair = self.pair(warp);
            if self.owner[pair as usize] == Some(warp) {
                let (start, _) = self.shared_rows(pair);
                Some(PhysReg(start + (x - self.threshold)))
            } else {
                None
            }
        }
    }

    fn on_warp_exit(&mut self, ledger: &mut Ledger, warp: WarpId) {
        // The one-time "release": only at the end of the program.
        let pair = self.pair(warp);
        if self.owner[pair as usize] == Some(warp) {
            self.owner[pair as usize] = None;
            let (start, len) = self.shared_rows(pair);
            ledger.release_range(start, len, warp);
        }
    }

    fn holds_extended(&self, warp: WarpId) -> bool {
        self.owner[self.pair(warp) as usize] == Some(warp)
    }

    fn storage_overhead_bits(&self) -> u64 {
        u64::from(self.nw / 2) // one lock bit per pair
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmutex_isa::Op;

    fn instr(dst: u16, srcs: &[u16]) -> Instr {
        Instr::new(
            Op::IAdd,
            Some(ArchReg(dst)),
            srcs.iter().map(|&s| ArchReg(s)).collect(),
        )
    }

    fn setup(regs: u16, t: u16) -> (OwfManager, Ledger) {
        let cfg = GpuConfig::gtx480();
        (
            OwfManager::new(&cfg, regs, t),
            Ledger::new(cfg.reg_rows_per_sm()),
        )
    }

    #[test]
    fn first_shared_access_takes_lock_forever() {
        // With Nw = 48, slot 0 pairs with slot 24 (cross-CTA pairing).
        let (mut m, mut l) = setup(24, 18);
        m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0)]);
        m.try_admit_cta(&mut l, CtaId(1), &[WarpId(24)]);
        // Private accesses never contend.
        assert!(m.pre_access(&mut l, WarpId(0), &instr(0, &[1]), 0, 0));
        assert!(m.pre_access(&mut l, WarpId(24), &instr(0, &[1]), 0, 0));
        // Warp 0 touches a shared register -> owns the lock.
        assert!(m.pre_access(&mut l, WarpId(0), &instr(20, &[0]), 1, 0));
        assert!(m.holds_extended(WarpId(0)));
        assert_eq!(m.lock_acquisitions, 1);
        // Partner stalls — and keeps stalling (no in-kernel release).
        assert!(!m.pre_access(&mut l, WarpId(24), &instr(20, &[0]), 1, 0));
        assert!(!m.pre_access(&mut l, WarpId(24), &instr(20, &[0]), 1, 10_000));
        // Only the owner's exit frees it.
        m.on_warp_exit(&mut l, WarpId(0));
        assert!(m.pre_access(&mut l, WarpId(24), &instr(20, &[0]), 1, 10_001));
    }

    #[test]
    fn translate_private_and_shared() {
        let (mut m, mut l) = setup(24, 18);
        // Slot 2 pairs with slot 26: pair 2, base = 2 × 42 = 84.
        // Warp 2 private [84,102), warp 26 private [102,120), shared [120,126).
        m.try_admit_cta(&mut l, CtaId(0), &[WarpId(2)]);
        m.try_admit_cta(&mut l, CtaId(1), &[WarpId(26)]);
        assert_eq!(m.translate(WarpId(2), ArchReg(1)), Some(PhysReg(85)));
        assert_eq!(m.translate(WarpId(26), ArchReg(1)), Some(PhysReg(103)));
        assert_eq!(m.translate(WarpId(26), ArchReg(18)), None);
        assert!(m.pre_access(&mut l, WarpId(26), &instr(18, &[]), 0, 0));
        assert_eq!(m.translate(WarpId(26), ArchReg(18)), Some(PhysReg(120)));
    }

    #[test]
    fn capacity_beats_static_for_hungry_kernels() {
        let cfg = GpuConfig::gtx480();
        // Static 44-reg kernels: 1024/44 = 23 warps. OWF with t=38:
        // rows/pair = 82 -> 12 pairs = 24 warps.
        let t = OwfManager::choose_threshold(&cfg, 44);
        let m = OwfManager::new(&cfg, 44, t);
        assert!(m.warp_capacity_for_test() >= 24);
    }

    #[test]
    fn choose_threshold_prefers_least_sharing_at_max_capacity() {
        let cfg = GpuConfig::gtx480();
        let t = OwfManager::choose_threshold(&cfg, 24);
        // Any t <= 18 gives rows/pair <= 42 -> 24 pairs = 48 warps (max);
        // the largest such t is picked.
        assert_eq!(t, 18);
    }

    #[test]
    fn storage_is_half_nw() {
        let (m, _) = setup(24, 18);
        assert_eq!(m.storage_overhead_bits(), 24);
    }

    #[test]
    fn admission_limited_by_pair_blocks() {
        let mut cfg = GpuConfig::gtx480();
        cfg.regs_per_sm = 42 * 32; // 42 rows: only pair 0 fits
        let mut m = OwfManager::new(&cfg, 24, 18);
        let mut l = Ledger::new(cfg.reg_rows_per_sm());
        assert!(m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0)]));
        // Slot 1 belongs to pair 1, whose block does not fit.
        assert!(!m.try_admit_cta(&mut l, CtaId(1), &[WarpId(1)]));
        // Slot 24 is pair 0's other member: fits.
        assert!(m.try_admit_cta(&mut l, CtaId(2), &[WarpId(24)]));
    }

    impl OwfManager {
        fn warp_capacity_for_test(&self) -> u32 {
            ((self.total_rows / self.rows_per_pair()) * 2).min(self.nw)
        }
    }
}
