//! Paired-warps specialization (§III-C).
//!
//! Instead of a communal pool, each *pair* of warp slots owns
//! `2·|Bs| + |Es|` physical registers: both warps' base sets plus one
//! extended set time-multiplexed between the two. This eliminates the SRP
//! bitmask and the LUT; a single `Nw/2`-bit mask tracks whether each pair's
//! extended set is in use. The trade-off the paper evaluates (Fig 12/13):
//! acquires only contend with one partner (higher success rate), but the
//! rigid 2-warp granularity can forgo occupancy the communal pool would
//! reach.

use regmutex_compiler::RegPlan;
use regmutex_isa::{ArchReg, CtaId, PhysReg, WarpId};
use regmutex_sim::fault::{HwFault, InjectOutcome};
use regmutex_sim::manager::{AcquireResult, Ledger, RegisterManager};
use regmutex_sim::GpuConfig;

/// Paired-warps RegMutex state.
#[derive(Debug, Clone)]
pub struct PairedWarpsManager {
    bs: u32,
    es: u32,
    total_rows: u32,
    nw: u32,
    /// Pair extended-set in-use bits (the only §III-C hardware structure).
    pair_in_use: u64,
    /// Which warp of each pair holds the set — simulation bookkeeping; real
    /// hardware infers the holder from warp state, it is not extra storage.
    holder: Vec<Option<WarpId>>,
}

impl PairedWarpsManager {
    /// Build the manager from the same compiler plan RegMutex uses.
    pub fn new(cfg: &GpuConfig, plan: &RegPlan) -> Self {
        let nw = cfg.max_warps_per_sm;
        assert!(
            nw <= 64 && nw.is_multiple_of(2),
            "paired mode needs an even Nw <= 64"
        );
        PairedWarpsManager {
            bs: u32::from(plan.bs),
            es: u32::from(plan.es),
            total_rows: cfg.reg_rows_per_sm(),
            nw,
            pair_in_use: 0,
            holder: vec![None; (nw / 2) as usize],
        }
    }

    /// Rows one pair occupies: `2·|Bs| + |Es|`.
    pub fn rows_per_pair(&self) -> u32 {
        2 * self.bs + self.es
    }

    fn pair(&self, w: WarpId) -> u32 {
        w.0 / 2
    }

    fn pair_base(&self, pair: u32) -> u32 {
        pair * self.rows_per_pair()
    }

    fn base_rows(&self, w: WarpId) -> (u32, u32) {
        let off = self.pair_base(self.pair(w)) + (w.0 % 2) * self.bs;
        (off, self.bs)
    }

    fn ext_rows(&self, pair: u32) -> (u32, u32) {
        (self.pair_base(pair) + 2 * self.bs, self.es)
    }
}

impl RegisterManager for PairedWarpsManager {
    fn name(&self) -> &'static str {
        "regmutex-paired"
    }

    fn warp_capacity(&self) -> u32 {
        ((self.total_rows / self.rows_per_pair()) * 2).min(self.nw)
    }

    fn try_admit_cta(&mut self, ledger: &mut Ledger, _cta: CtaId, warp_slots: &[WarpId]) -> bool {
        // Every slot's pair block (including the shared extended rows) must
        // fit in the register file.
        let fits = warp_slots
            .iter()
            .all(|w| (self.pair(*w) + 1) * self.rows_per_pair() <= self.total_rows);
        if !fits {
            return false;
        }
        for &w in warp_slots {
            let (start, len) = self.base_rows(w);
            ledger.claim_range(start, len, w);
        }
        true
    }

    fn retire_cta(&mut self, ledger: &mut Ledger, _cta: CtaId, warp_slots: &[WarpId]) {
        for &w in warp_slots {
            let (start, len) = self.base_rows(w);
            ledger.release_range(start, len, w);
        }
    }

    fn try_acquire(&mut self, ledger: &mut Ledger, warp: WarpId) -> AcquireResult {
        let pair = self.pair(warp);
        if self.holder[pair as usize] == Some(warp) {
            return AcquireResult::NoOp;
        }
        if self.pair_in_use & (1 << pair) != 0 {
            return AcquireResult::Stalled;
        }
        let (start, len) = self.ext_rows(pair);
        // Fallible claim: under fault injection the pair bit can be cleared
        // while the partner still owns the rows — the ledger catches the
        // double grant.
        if let Err(v) = ledger.try_claim_range(start, len, warp) {
            return AcquireResult::Fault(v);
        }
        self.pair_in_use |= 1 << pair;
        self.holder[pair as usize] = Some(warp);
        AcquireResult::Acquired
    }

    fn release(&mut self, ledger: &mut Ledger, warp: WarpId) {
        let pair = self.pair(warp);
        if self.holder[pair as usize] != Some(warp) {
            return;
        }
        self.holder[pair as usize] = None;
        let (start, len) = self.ext_rows(pair);
        // Tolerate mismatched rows (possible only under fault injection,
        // when the holder record was corrupted): the pair bit then stays
        // set and the real owner's rows stay claimed, so the fault surfaces
        // as a stuck pair or a ledger violation instead of a panic.
        let mut clean = true;
        for r in start..start + len {
            clean &= ledger.try_release(r, warp).is_ok();
        }
        if clean {
            self.pair_in_use &= !(1 << pair);
        }
    }

    fn translate(&self, warp: WarpId, reg: ArchReg) -> Option<PhysReg> {
        let x = u32::from(reg.0);
        if x < self.bs {
            let (start, _) = self.base_rows(warp);
            Some(PhysReg(start + x))
        } else {
            let pair = self.pair(warp);
            if self.holder[pair as usize] == Some(warp) {
                let (start, _) = self.ext_rows(pair);
                Some(PhysReg(start + (x - self.bs)))
            } else {
                None
            }
        }
    }

    fn on_warp_exit(&mut self, ledger: &mut Ledger, warp: WarpId) {
        self.release(ledger, warp);
    }

    fn holds_extended(&self, warp: WarpId) -> bool {
        self.holder[self.pair(warp).index()] == Some(warp)
    }

    fn inject_hw_fault(&mut self, fault: &HwFault) -> InjectOutcome {
        let pairs = self.nw / 2;
        match *fault {
            // The paired analog of a corrupted LUT entry: the holder record
            // flips to the partner, so the real holder loses its extended
            // mapping (NoMapping on its next extended access).
            HwFault::CorruptLut { warp } => {
                let pair = self.pair(warp);
                if self.holder[pair.index()] != Some(warp) {
                    return InjectOutcome::NotApplicable;
                }
                self.holder[pair.index()] = Some(WarpId(warp.0 ^ 1));
                InjectOutcome::Applied
            }
            // Latch a free pair's in-use bit with no holder: both warps of
            // the pair stall on acquire forever.
            HwFault::StuckSrpSet { section } => {
                let pair = section % pairs.max(1);
                if self.pair_in_use & (1 << pair) != 0 {
                    return InjectOutcome::NotApplicable;
                }
                self.pair_in_use |= 1 << pair;
                InjectOutcome::Applied
            }
            // Clear the lowest held pair's bit and forget its holder: the
            // rows stay claimed, so a partner re-acquire trips WrongOwner
            // and the ex-holder's next extended access trips NoMapping.
            HwFault::StuckSrpClear => {
                match (0..pairs).find(|&p| self.holder[p.index()].is_some()) {
                    Some(p) => {
                        self.pair_in_use &= !(1 << p);
                        self.holder[p.index()] = None;
                        InjectOutcome::Applied
                    }
                    None => InjectOutcome::NotApplicable,
                }
            }
        }
    }
}

trait PairIndex {
    fn index(self) -> usize;
}

impl PairIndex for u32 {
    fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> RegPlan {
        RegPlan {
            bs: 18,
            es: 6,
            total_regs: 24,
            srp_sections: 26,
            occupancy_warps: 48,
        }
    }

    fn setup() -> (PairedWarpsManager, Ledger) {
        let cfg = GpuConfig::gtx480();
        (
            PairedWarpsManager::new(&cfg, &plan()),
            Ledger::new(cfg.reg_rows_per_sm()),
        )
    }

    #[test]
    fn rows_per_pair_and_capacity() {
        let (m, _) = setup();
        assert_eq!(m.rows_per_pair(), 42);
        // 1024 / 42 = 24 pairs = 48 warps (capped at Nw).
        assert_eq!(m.warp_capacity(), 48);
    }

    #[test]
    fn only_one_of_the_pair_may_hold() {
        let (mut m, mut l) = setup();
        assert!(m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0), WarpId(1)]));
        assert_eq!(m.try_acquire(&mut l, WarpId(0)), AcquireResult::Acquired);
        assert_eq!(m.try_acquire(&mut l, WarpId(1)), AcquireResult::Stalled);
        m.release(&mut l, WarpId(0));
        assert_eq!(m.try_acquire(&mut l, WarpId(1)), AcquireResult::Acquired);
    }

    #[test]
    fn different_pairs_do_not_contend() {
        let (mut m, mut l) = setup();
        m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0), WarpId(2)]);
        assert_eq!(m.try_acquire(&mut l, WarpId(0)), AcquireResult::Acquired);
        assert_eq!(m.try_acquire(&mut l, WarpId(2)), AcquireResult::Acquired);
    }

    #[test]
    fn release_by_non_holder_is_noop() {
        let (mut m, mut l) = setup();
        m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0), WarpId(1)]);
        m.try_acquire(&mut l, WarpId(0));
        m.release(&mut l, WarpId(1)); // partner never acquired
        assert!(m.holds_extended(WarpId(0)));
    }

    #[test]
    fn translate_segments() {
        let (mut m, mut l) = setup();
        m.try_admit_cta(&mut l, CtaId(0), &[WarpId(2), WarpId(3)]);
        // Pair 1 base: 42. Warp 2 base rows [42, 60); warp 3 [60, 78);
        // extended [78, 84).
        assert_eq!(m.translate(WarpId(2), ArchReg(0)), Some(PhysReg(42)));
        assert_eq!(m.translate(WarpId(3), ArchReg(0)), Some(PhysReg(60)));
        assert_eq!(m.translate(WarpId(3), ArchReg(18)), None);
        m.try_acquire(&mut l, WarpId(3));
        assert_eq!(m.translate(WarpId(3), ArchReg(18)), Some(PhysReg(78)));
        assert_eq!(m.translate(WarpId(2), ArchReg(18)), None);
    }

    #[test]
    fn admission_limited_by_pair_blocks() {
        // Shrink the file so only 2 pairs fit: slots 0..3 admit, slot 4 not.
        let mut cfg = GpuConfig::gtx480();
        cfg.regs_per_sm = 42 * 2 * 32; // 84 rows
        let mut m = PairedWarpsManager::new(&cfg, &plan());
        let mut l = Ledger::new(cfg.reg_rows_per_sm());
        assert!(m.try_admit_cta(
            &mut l,
            CtaId(0),
            &[WarpId(0), WarpId(1), WarpId(2), WarpId(3)]
        ));
        assert!(!m.try_admit_cta(&mut l, CtaId(1), &[WarpId(4)]));
    }

    #[test]
    fn corrupted_holder_loses_mapping_and_partner_regrant_faults() {
        let (mut m, mut l) = setup();
        m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0), WarpId(1)]);
        assert_eq!(m.try_acquire(&mut l, WarpId(0)), AcquireResult::Acquired);
        assert_eq!(
            m.inject_hw_fault(&HwFault::CorruptLut { warp: WarpId(0) }),
            InjectOutcome::Applied
        );
        // The real holder lost its extended mapping.
        assert_eq!(m.translate(WarpId(0), ArchReg(18)), None);
        // StuckSrpClear: forget the (corrupted) holder; the partner's
        // re-acquire collides with warp 0's still-claimed rows.
        assert_eq!(
            m.inject_hw_fault(&HwFault::StuckSrpClear),
            InjectOutcome::Applied
        );
        assert!(matches!(
            m.try_acquire(&mut l, WarpId(1)),
            AcquireResult::Fault(regmutex_sim::LedgerViolation::WrongOwner { .. })
        ));
    }

    #[test]
    fn stuck_pair_bit_starves_both_warps() {
        let (mut m, mut l) = setup();
        m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0), WarpId(1)]);
        assert_eq!(
            m.inject_hw_fault(&HwFault::StuckSrpSet { section: 0 }),
            InjectOutcome::Applied
        );
        assert_eq!(m.try_acquire(&mut l, WarpId(0)), AcquireResult::Stalled);
        assert_eq!(m.try_acquire(&mut l, WarpId(1)), AcquireResult::Stalled);
        // No holder exists, so releases cannot unstick the pair.
        m.release(&mut l, WarpId(0));
        assert_eq!(m.try_acquire(&mut l, WarpId(1)), AcquireResult::Stalled);
    }

    #[test]
    fn exit_releases_extended() {
        let (mut m, mut l) = setup();
        m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0), WarpId(1)]);
        m.try_acquire(&mut l, WarpId(0));
        m.on_warp_exit(&mut l, WarpId(0));
        assert_eq!(m.try_acquire(&mut l, WarpId(1)), AcquireResult::Acquired);
    }
}
