//! The RegMutex register manager (§III-B): issue-stage acquire/release over
//! a Shared Register Pool, driven by the compiler's `RegPlan`.

use regmutex_compiler::RegPlan;
use regmutex_isa::{ArchReg, CtaId, PhysReg, WarpId};
use regmutex_sim::fault::{HwFault, InjectOutcome};
use regmutex_sim::manager::{AcquireResult, Ledger, RegisterManager};
use regmutex_sim::GpuConfig;

use crate::hw::bitmask::{SectionLut, SrpBitmask, WarpStatusBitmask};
use crate::hw::mapping::RegMutexMapping;

/// RegMutex's per-SM allocation state: base sets statically assigned by warp
/// slot (`Y = X + |Bs| × Widx`), extended sets time-shared through SRP
/// sections tracked by the Fig 4 bitmask/LUT structures.
#[derive(Debug, Clone)]
pub struct RegMutexManager {
    mapping: RegMutexMapping,
    sections: u32,
    max_resident_warps: u32,
    status: WarpStatusBitmask,
    srp: SrpBitmask,
    lut: SectionLut,
}

impl RegMutexManager {
    /// Build the manager for one SM from the compiler's plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not fit the register file (the compiler's
    /// selection already guarantees it does).
    pub fn new(cfg: &GpuConfig, plan: &RegPlan) -> Self {
        let rows = cfg.reg_rows_per_sm();
        let srp_offset = plan.occupancy_warps * u32::from(plan.bs);
        let sections = plan.srp_sections;
        assert!(
            srp_offset + sections * u32::from(plan.es) <= rows,
            "plan exceeds the register file: {srp_offset} + {sections}x{} > {rows}",
            plan.es
        );
        let nw = cfg.max_warps_per_sm;
        RegMutexManager {
            mapping: RegMutexMapping {
                bs: u32::from(plan.bs),
                es: u32::from(plan.es),
                srp_offset,
            },
            sections,
            max_resident_warps: plan.occupancy_warps,
            status: WarpStatusBitmask::new(nw),
            srp: SrpBitmask::new(nw.min(64), sections),
            lut: SectionLut::new(nw),
        }
    }

    /// SRP sections this configuration provides.
    pub fn sections(&self) -> u32 {
        self.sections
    }

    /// Warps currently holding their extended set.
    pub fn holders(&self) -> u32 {
        self.status.count()
    }

    fn section_rows(&self, section: u32) -> (u32, u32) {
        (
            self.mapping.srp_offset + section * self.mapping.es,
            self.mapping.es,
        )
    }
}

impl RegisterManager for RegMutexManager {
    fn name(&self) -> &'static str {
        "regmutex"
    }

    fn warp_capacity(&self) -> u32 {
        self.max_resident_warps
    }

    fn try_admit_cta(&mut self, ledger: &mut Ledger, _cta: CtaId, warp_slots: &[WarpId]) -> bool {
        // A slot is feasible iff its base block lies inside the base segment
        // (equivalently: slot < occupancy_warps).
        if warp_slots.iter().any(|w| w.0 >= self.max_resident_warps) {
            return false;
        }
        for &w in warp_slots {
            ledger.claim_range(self.mapping.bs * w.0, self.mapping.bs, w);
        }
        true
    }

    fn retire_cta(&mut self, ledger: &mut Ledger, _cta: CtaId, warp_slots: &[WarpId]) {
        for &w in warp_slots {
            ledger.release_range(self.mapping.bs * w.0, self.mapping.bs, w);
        }
    }

    fn try_acquire(&mut self, ledger: &mut Ledger, warp: WarpId) -> AcquireResult {
        if self.status.get(warp.0) {
            // Nested acquires have no effect (§III).
            return AcquireResult::NoOp;
        }
        match self.srp.ffz() {
            Some(section) => {
                let (start, len) = self.section_rows(section);
                // Fallible claim: a stuck-low SRP bit makes FFZ re-grant an
                // owned section, and the ledger is the detector that catches
                // the resulting double allocation.
                if let Err(v) = ledger.try_claim_range(start, len, warp) {
                    return AcquireResult::Fault(v);
                }
                self.lut.set(warp.0, section);
                self.srp.set(section);
                self.status.set(warp.0);
                AcquireResult::Acquired
            }
            None => AcquireResult::Stalled,
        }
    }

    fn release(&mut self, ledger: &mut Ledger, warp: WarpId) {
        if !self.status.get(warp.0) {
            // Releases without a held set have no effect (§III).
            return;
        }
        let section = self.lut.get(warp.0);
        self.status.unset(warp.0);
        let (start, len) = self.section_rows(section);
        // Release what the LUT says the warp holds. Under fault injection
        // the entry may be corrupted, pointing at rows the warp never
        // owned; tolerating the mismatch leaks the warp's real section in
        // the ledger, so the next conflicting grant trips WrongOwner.
        let mut clean = true;
        for r in start..start + len {
            clean &= ledger.try_release(r, warp).is_ok();
        }
        if clean {
            self.srp.unset(section);
        }
    }

    fn translate(&self, warp: WarpId, reg: ArchReg) -> Option<PhysReg> {
        let lut_entry = self.status.get(warp.0).then(|| self.lut.get(warp.0));
        self.mapping
            .translate(warp.0, lut_entry, u32::from(reg.0))
            .map(PhysReg)
    }

    fn on_warp_exit(&mut self, ledger: &mut Ledger, warp: WarpId) {
        // Hardware safety net: a warp that somehow exits while holding its
        // extended set releases it.
        self.release(ledger, warp);
    }

    fn holds_extended(&self, warp: WarpId) -> bool {
        self.status.get(warp.0)
    }

    fn inject_hw_fault(&mut self, fault: &HwFault) -> InjectOutcome {
        match *fault {
            HwFault::CorruptLut { warp } => {
                // Only meaningful while the warp holds a section and there
                // is a *different* section to repoint at.
                if self.sections < 2 || !self.status.get(warp.0) {
                    return InjectOutcome::NotApplicable;
                }
                let cur = self.lut.get(warp.0);
                self.lut.set(warp.0, (cur + 1) % self.sections);
                InjectOutcome::Applied
            }
            HwFault::StuckSrpSet { section } => {
                if self.sections == 0 {
                    return InjectOutcome::NotApplicable;
                }
                self.srp.force_stuck_set(section % self.sections);
                InjectOutcome::Applied
            }
            HwFault::StuckSrpClear => match self.srp.lowest_acquired(self.sections) {
                Some(s) => {
                    self.srp.force_stuck_clear(s);
                    InjectOutcome::Applied
                }
                None => InjectOutcome::NotApplicable,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> RegPlan {
        // The §III-A2 worked example: Bs=18, Es=6, 48-warp occupancy,
        // 26 SRP sections on the 1024-row Fermi file.
        RegPlan {
            bs: 18,
            es: 6,
            total_regs: 24,
            srp_sections: 26,
            occupancy_warps: 48,
        }
    }

    fn setup() -> (RegMutexManager, Ledger) {
        let cfg = GpuConfig::gtx480();
        let m = RegMutexManager::new(&cfg, &plan());
        let l = Ledger::new(cfg.reg_rows_per_sm());
        (m, l)
    }

    #[test]
    fn admission_respects_base_segment() {
        let (mut m, mut l) = setup();
        assert_eq!(m.warp_capacity(), 48);
        assert!(m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0), WarpId(47)]));
        assert!(!m.try_admit_cta(&mut l, CtaId(1), &[WarpId(48)]));
        assert_eq!(l.free_rows(), 1024 - 2 * 18);
    }

    #[test]
    fn acquire_release_cycle() {
        let (mut m, mut l) = setup();
        assert!(m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0)]));
        assert_eq!(m.try_acquire(&mut l, WarpId(0)), AcquireResult::Acquired);
        assert!(m.holds_extended(WarpId(0)));
        assert_eq!(m.holders(), 1);
        // Nested acquire is a no-op.
        assert_eq!(m.try_acquire(&mut l, WarpId(0)), AcquireResult::NoOp);
        m.release(&mut l, WarpId(0));
        assert!(!m.holds_extended(WarpId(0)));
        // Redundant release is a no-op.
        m.release(&mut l, WarpId(0));
        assert_eq!(m.holders(), 0);
    }

    #[test]
    fn acquires_exhaust_sections_then_stall() {
        let cfg = GpuConfig::gtx480();
        let p = RegPlan {
            srp_sections: 2,
            ..plan()
        };
        let mut m = RegMutexManager::new(&cfg, &p);
        let mut l = Ledger::new(cfg.reg_rows_per_sm());
        for w in 0..3u32 {
            assert!(m.try_admit_cta(&mut l, CtaId(w), &[WarpId(w)]));
        }
        assert_eq!(m.try_acquire(&mut l, WarpId(0)), AcquireResult::Acquired);
        assert_eq!(m.try_acquire(&mut l, WarpId(1)), AcquireResult::Acquired);
        assert_eq!(m.try_acquire(&mut l, WarpId(2)), AcquireResult::Stalled);
        m.release(&mut l, WarpId(0));
        assert_eq!(m.try_acquire(&mut l, WarpId(2)), AcquireResult::Acquired);
    }

    #[test]
    fn translate_base_and_extended() {
        let (mut m, mut l) = setup();
        assert!(m.try_admit_cta(&mut l, CtaId(0), &[WarpId(3)]));
        // Base: 3*18 + 5 = 59.
        assert_eq!(m.translate(WarpId(3), ArchReg(5)), Some(PhysReg(59)));
        // Extended without holding: unmapped.
        assert_eq!(m.translate(WarpId(3), ArchReg(18)), None);
        m.try_acquire(&mut l, WarpId(3));
        // Section 0: 864 + 0*6 + 0.
        assert_eq!(m.translate(WarpId(3), ArchReg(18)), Some(PhysReg(864)));
        assert_eq!(m.translate(WarpId(3), ArchReg(23)), Some(PhysReg(869)));
    }

    #[test]
    fn exit_releases_held_section() {
        let (mut m, mut l) = setup();
        m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0)]);
        m.try_acquire(&mut l, WarpId(0));
        let free_before = l.free_rows();
        m.on_warp_exit(&mut l, WarpId(0));
        assert_eq!(l.free_rows(), free_before + 6);
        assert!(!m.holds_extended(WarpId(0)));
    }

    #[test]
    fn sections_are_reused_after_release() {
        let (mut m, mut l) = setup();
        m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0), WarpId(1)]);
        m.try_acquire(&mut l, WarpId(0));
        m.try_acquire(&mut l, WarpId(1));
        m.release(&mut l, WarpId(0));
        // Warp 1 still maps to section 1; a fresh acquire takes section 0.
        assert_eq!(m.translate(WarpId(1), ArchReg(18)), Some(PhysReg(870)));
        m.try_acquire(&mut l, WarpId(0));
        assert_eq!(m.translate(WarpId(0), ArchReg(18)), Some(PhysReg(864)));
    }

    #[test]
    fn corrupt_lut_repoints_translation() {
        let (mut m, mut l) = setup();
        m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0)]);
        assert_eq!(m.try_acquire(&mut l, WarpId(0)), AcquireResult::Acquired);
        assert_eq!(m.translate(WarpId(0), ArchReg(18)), Some(PhysReg(864)));
        assert_eq!(
            m.inject_hw_fault(&HwFault::CorruptLut { warp: WarpId(0) }),
            InjectOutcome::Applied
        );
        // The LUT now points at section 1, whose rows warp 0 never claimed:
        // the ledger rejects the access.
        let phys = m.translate(WarpId(0), ArchReg(18)).unwrap();
        assert_eq!(phys, PhysReg(870));
        assert!(l.check(phys.0, WarpId(0)).is_err());
    }

    #[test]
    fn corrupt_lut_not_applicable_without_holder() {
        let (mut m, mut l) = setup();
        m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0)]);
        assert_eq!(
            m.inject_hw_fault(&HwFault::CorruptLut { warp: WarpId(0) }),
            InjectOutcome::NotApplicable
        );
    }

    #[test]
    fn stuck_low_bit_double_grant_is_caught_as_fault() {
        let (mut m, mut l) = setup();
        m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0), WarpId(1)]);
        assert_eq!(m.try_acquire(&mut l, WarpId(0)), AcquireResult::Acquired);
        assert_eq!(
            m.inject_hw_fault(&HwFault::StuckSrpClear),
            InjectOutcome::Applied
        );
        // Warp 0's section now reads free; the re-grant to warp 1 collides
        // with warp 0's rows and the ledger reports the precise theft.
        match m.try_acquire(&mut l, WarpId(1)) {
            AcquireResult::Fault(regmutex_sim::LedgerViolation::WrongOwner {
                owner,
                accessor,
                ..
            }) => {
                assert_eq!(owner, WarpId(0));
                assert_eq!(accessor, WarpId(1));
            }
            other => panic!("expected WrongOwner fault, got {other:?}"),
        }
    }

    #[test]
    fn stuck_high_bit_loses_capacity() {
        let cfg = GpuConfig::gtx480();
        let p = RegPlan {
            srp_sections: 2,
            ..plan()
        };
        let mut m = RegMutexManager::new(&cfg, &p);
        let mut l = Ledger::new(cfg.reg_rows_per_sm());
        m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0), WarpId(1)]);
        assert_eq!(
            m.inject_hw_fault(&HwFault::StuckSrpSet { section: 0 }),
            InjectOutcome::Applied
        );
        // Section 0 reads busy forever: only one of the two sections is
        // grantable.
        assert_eq!(m.try_acquire(&mut l, WarpId(0)), AcquireResult::Acquired);
        assert_eq!(m.try_acquire(&mut l, WarpId(1)), AcquireResult::Stalled);
    }

    #[test]
    fn stuck_low_not_applicable_when_nothing_held() {
        let (mut m, _) = setup();
        assert_eq!(
            m.inject_hw_fault(&HwFault::StuckSrpClear),
            InjectOutcome::NotApplicable
        );
    }

    #[test]
    #[should_panic(expected = "plan exceeds the register file")]
    fn oversized_plan_panics() {
        let cfg = GpuConfig::gtx480();
        let p = RegPlan {
            bs: 21,
            es: 6,
            total_regs: 27,
            srp_sections: 10,
            occupancy_warps: 48, // 48*21 = 1008, + 60 > 1024
        };
        RegMutexManager::new(&cfg, &p);
    }
}
