//! Register File Virtualization (RFV) — the comparator technique of Jeon et
//! al., MICRO'15 \[3\], as modelled for Fig 9.
//!
//! RFV keeps a Register Renaming Table per SM: physical rows are allocated
//! on a register's first write (or first read, for kernel inputs) and
//! reclaimed at its compiler-annotated last use. CTAs are admitted beyond
//! the static register limit (residency is governed by the *average* live
//! demand), so occupancy rises; when the physical file runs dry a warp
//! stalls for a free row, and a persistent dry spell triggers an emergency
//! *register spill*: a victim warp's rows are evicted to memory and reloaded
//! lazily on next access (GPU-Shrink's spilling, charged a global-memory
//! round trip per reload). The price the paper emphasizes is hardware: the
//! RRT plus the availability mask cost 31,264 bits on the Fermi baseline —
//! 81× RegMutex's 384.

use std::collections::HashMap;

use regmutex_isa::{ArchReg, CtaId, Instr, PhysReg, WarpId};
use regmutex_sim::manager::{AcquireResult, Ledger, RegisterManager};
use regmutex_sim::GpuConfig;

/// RFV per-SM state.
#[derive(Debug, Clone)]
pub struct RfvManager {
    total_rows: u32,
    free: Vec<u32>,
    /// Renaming table: per warp slot, per architected register.
    map: Vec<Vec<Option<u32>>>,
    /// Per-pc last-use annotations from the compiler (original kernel).
    dead_after: std::sync::Arc<Vec<Vec<u16>>>,
    /// Rows assumed per warp for CTA admission (average live demand).
    admit_rows_per_warp: u32,
    admitted_warps: u32,
    /// Registers whose value was evicted and must be reloaded on access.
    spilled: HashMap<(u32, u16), Option<u64>>,
    /// First cycle of the current allocation dry spell, per warp slot.
    stall_since: Vec<Option<u64>>,
    /// Emergency spills performed (reported into stats by the runner).
    pub spill_events: u64,
    /// Rows evicted across all spill events.
    pub rows_spilled: u64,
    spill_trigger: u64,
    reload_latency: u64,
}

impl RfvManager {
    /// Build an RFV manager.
    ///
    /// `avg_live` is the kernel's mean live-register count (from liveness
    /// analysis); admission budgets `ceil(avg_live) + 2` rows per warp.
    pub fn new(
        cfg: &GpuConfig,
        dead_after: std::sync::Arc<Vec<Vec<u16>>>,
        regs_per_thread: u16,
        avg_live: f64,
    ) -> Self {
        let total_rows = cfg.reg_rows_per_sm();
        let admit = (avg_live.ceil() as u32 + 2).clamp(1, u32::from(regs_per_thread).max(1));
        RfvManager {
            total_rows,
            free: (0..total_rows).rev().collect(),
            map: vec![
                vec![None; usize::from(regs_per_thread.max(1))];
                cfg.max_warps_per_sm as usize
            ],
            dead_after,
            admit_rows_per_warp: admit,
            admitted_warps: 0,
            spilled: HashMap::new(),
            stall_since: vec![None; cfg.max_warps_per_sm as usize],
            spill_events: 0,
            rows_spilled: 0,
            spill_trigger: 400,
            reload_latency: u64::from(cfg.gmem_latency),
        }
    }

    /// Rows budgeted per warp at admission.
    pub fn admit_rows_per_warp(&self) -> u32 {
        self.admit_rows_per_warp
    }

    fn evict_victim(&mut self, ledger: &mut Ledger) -> bool {
        // Victim: the warp slot holding the most rows.
        let victim =
            (0..self.map.len()).max_by_key(|&s| self.map[s].iter().filter(|m| m.is_some()).count());
        let Some(victim) = victim else { return false };
        let count = self.map[victim].iter().filter(|m| m.is_some()).count();
        if count == 0 {
            return false;
        }
        for reg in 0..self.map[victim].len() {
            if let Some(row) = self.map[victim][reg].take() {
                ledger.release(row, WarpId(victim as u32));
                self.free.push(row);
                self.spilled.insert((victim as u32, reg as u16), None);
                self.rows_spilled += 1;
            }
        }
        self.spill_events += 1;
        true
    }

    /// Ensure `reg` of `warp` has a physical row; returns false to stall.
    /// (Dry-spell timing lives in [`RegisterManager::pre_access`], which
    /// sees the whole instruction's outcome.)
    fn ensure_mapped(&mut self, ledger: &mut Ledger, warp: WarpId, reg: u16, now: u64) -> bool {
        // Pending reload? (Nothing is spilled on most runs: skip the hash.)
        if !self.spilled.is_empty() {
            if let Some(ready) = self.spilled.get_mut(&(warp.0, reg)) {
                match ready {
                    None => {
                        *ready = Some(now + self.reload_latency);
                        return false;
                    }
                    Some(t) if now < *t => return false,
                    Some(_) => {
                        self.spilled.remove(&(warp.0, reg));
                    }
                }
            }
        }
        if self.map[warp.index()][usize::from(reg)].is_some() {
            return true;
        }
        match self.free.pop() {
            Some(row) => {
                ledger.claim(row, warp);
                self.map[warp.index()][usize::from(reg)] = Some(row);
                true
            }
            None => false,
        }
    }
}

impl RegisterManager for RfvManager {
    fn name(&self) -> &'static str {
        "rfv"
    }

    fn warp_capacity(&self) -> u32 {
        self.total_rows / self.admit_rows_per_warp
    }

    fn try_admit_cta(&mut self, _ledger: &mut Ledger, _cta: CtaId, warp_slots: &[WarpId]) -> bool {
        let new = self.admitted_warps + warp_slots.len() as u32;
        if new * self.admit_rows_per_warp > self.total_rows {
            return false;
        }
        self.admitted_warps = new;
        true
    }

    fn retire_cta(&mut self, ledger: &mut Ledger, _cta: CtaId, warp_slots: &[WarpId]) {
        for &w in warp_slots {
            // Safety net: free anything a warp left mapped.
            self.on_warp_exit(ledger, w);
        }
        self.admitted_warps -= warp_slots.len() as u32;
    }

    fn try_acquire(&mut self, _ledger: &mut Ledger, _warp: WarpId) -> AcquireResult {
        AcquireResult::NoOp // RFV runs the unmodified kernel.
    }

    fn release(&mut self, _ledger: &mut Ledger, _warp: WarpId) {}

    fn pre_access(
        &mut self,
        ledger: &mut Ledger,
        warp: WarpId,
        instr: &Instr,
        _pc: u32,
        now: u64,
    ) -> bool {
        for reg in instr.srcs.iter().chain(instr.dst.iter()) {
            if !self.ensure_mapped(ledger, warp, reg.0, now) {
                // The warp could not issue this instruction: track the dry
                // spell and, once it has lasted long enough with an empty
                // file, evict a victim so progress resumes (GPU-Shrink's
                // register spilling).
                let since = *self.stall_since[warp.index()].get_or_insert(now);
                if now.saturating_sub(since) >= self.spill_trigger
                    && self.free.is_empty()
                    && self.evict_victim(ledger)
                {
                    self.stall_since[warp.index()] = None;
                }
                return false;
            }
        }
        self.stall_since[warp.index()] = None;
        true
    }

    fn post_issue(&mut self, ledger: &mut Ledger, warp: WarpId, _instr: &Instr, pc: u32) {
        // Proactively release rows whose architected register just died.
        if let Some(dead) = self.dead_after.get(pc as usize) {
            for &reg in dead {
                if let Some(row) = self.map[warp.index()][usize::from(reg)].take() {
                    ledger.release(row, warp);
                    self.free.push(row);
                }
                if !self.spilled.is_empty() {
                    self.spilled.remove(&(warp.0, reg));
                }
            }
        }
    }

    fn translate(&self, warp: WarpId, reg: ArchReg) -> Option<PhysReg> {
        self.map[warp.index()][reg.index()].map(PhysReg)
    }

    fn on_warp_exit(&mut self, ledger: &mut Ledger, warp: WarpId) {
        for reg in 0..self.map[warp.index()].len() {
            if let Some(row) = self.map[warp.index()][reg].take() {
                ledger.release(row, warp);
                self.free.push(row);
            }
        }
        self.spilled.retain(|&(w, _), _| w != warp.0);
        self.stall_since[warp.index()] = None;
    }

    fn spill_count(&self) -> u64 {
        self.spill_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmutex_isa::Op;
    use std::sync::Arc;

    fn mk(cfg: &GpuConfig, regs: u16, dead: Vec<Vec<u16>>) -> (RfvManager, Ledger) {
        (
            RfvManager::new(cfg, Arc::new(dead), regs, 4.0),
            Ledger::new(cfg.reg_rows_per_sm()),
        )
    }

    fn instr(dst: u16, srcs: &[u16]) -> Instr {
        Instr::new(
            Op::IAdd,
            Some(ArchReg(dst)),
            srcs.iter().map(|&s| ArchReg(s)).collect(),
        )
    }

    #[test]
    fn rows_allocated_on_demand_and_freed_at_death() {
        let cfg = GpuConfig::test_tiny();
        // pc0 writes r0; pc1 reads r0 (dies) writes r1.
        let dead = vec![vec![], vec![0]];
        let (mut m, mut l) = mk(&cfg, 4, dead);
        assert!(m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0)]));
        let i0 = instr(0, &[]);
        assert!(m.pre_access(&mut l, WarpId(0), &i0, 0, 0));
        let free_after_first = l.free_rows();
        assert_eq!(free_after_first, cfg.reg_rows_per_sm() - 1);
        m.post_issue(&mut l, WarpId(0), &i0, 0);
        let i1 = instr(1, &[0]);
        assert!(m.pre_access(&mut l, WarpId(0), &i1, 1, 1));
        assert_eq!(l.free_rows(), cfg.reg_rows_per_sm() - 2);
        m.post_issue(&mut l, WarpId(0), &i1, 1); // r0 dies
        assert_eq!(l.free_rows(), cfg.reg_rows_per_sm() - 1);
        assert!(m.translate(WarpId(0), ArchReg(0)).is_none());
        assert!(m.translate(WarpId(0), ArchReg(1)).is_some());
    }

    #[test]
    fn admission_uses_average_demand_not_max() {
        let mut cfg = GpuConfig::test_tiny(); // 64 rows
        cfg.max_warps_per_sm = 16;
        // avg_live 4.0 -> 6 rows/warp -> 10 warps admit on 64 rows.
        let (mut m, mut l) = mk(&cfg, 32, vec![]);
        assert_eq!(m.admit_rows_per_warp(), 6);
        assert_eq!(m.warp_capacity(), 10);
        let slots: Vec<WarpId> = (0..10).map(WarpId).collect();
        assert!(m.try_admit_cta(&mut l, CtaId(0), &slots));
        assert!(!m.try_admit_cta(&mut l, CtaId(1), &[WarpId(10)]));
        // Static allocation of 32 regs/thread would admit only 2 warps.
    }

    #[test]
    fn dry_file_stalls_then_spills() {
        let mut cfg = GpuConfig::test_tiny();
        cfg.regs_per_sm = 2 * 32; // 2 rows only
        let dead = vec![vec![]; 8];
        let (mut m, mut l) = mk(&cfg, 4, dead);
        m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0), WarpId(1)]);
        assert!(m.pre_access(&mut l, WarpId(0), &instr(0, &[]), 0, 0));
        assert!(m.pre_access(&mut l, WarpId(0), &instr(1, &[]), 1, 1));
        // File dry: warp 1 stalls…
        assert!(!m.pre_access(&mut l, WarpId(1), &instr(0, &[]), 0, 2));
        // …after the trigger interval the stalling call evicts a victim…
        assert!(!m.pre_access(&mut l, WarpId(1), &instr(0, &[]), 0, 2 + 400));
        // …and the retry succeeds from the freed rows.
        assert!(m.pre_access(&mut l, WarpId(1), &instr(0, &[]), 0, 3 + 400));
        assert_eq!(m.spill_events, 1);
        assert_eq!(m.rows_spilled, 2);
        // Warp 0's registers are now spilled: access incurs a reload wait.
        // (r0 as both src and dst needs a single row, which is free.)
        assert!(!m.pre_access(&mut l, WarpId(0), &instr(0, &[0]), 2, 1000));
        // Not ready yet…
        assert!(!m.pre_access(&mut l, WarpId(0), &instr(0, &[0]), 2, 1001));
        // …ready after the reload latency.
        assert!(m.pre_access(
            &mut l,
            WarpId(0),
            &instr(0, &[0]),
            2,
            1000 + u64::from(cfg.gmem_latency)
        ));
    }

    #[test]
    fn warp_exit_frees_everything() {
        let cfg = GpuConfig::test_tiny();
        let (mut m, mut l) = mk(&cfg, 4, vec![vec![]; 4]);
        m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0)]);
        m.pre_access(&mut l, WarpId(0), &instr(0, &[]), 0, 0);
        m.pre_access(&mut l, WarpId(0), &instr(1, &[]), 1, 0);
        m.on_warp_exit(&mut l, WarpId(0));
        assert_eq!(l.free_rows(), cfg.reg_rows_per_sm());
        m.retire_cta(&mut l, CtaId(0), &[WarpId(0)]);
    }

    #[test]
    fn kernel_inputs_allocate_on_first_read() {
        let cfg = GpuConfig::test_tiny();
        let (mut m, mut l) = mk(&cfg, 4, vec![vec![]; 4]);
        m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0)]);
        // Read r3 before any write: a row is allocated for it.
        assert!(m.pre_access(&mut l, WarpId(0), &instr(0, &[3]), 0, 0));
        assert!(m.translate(WarpId(0), ArchReg(3)).is_some());
    }
}
