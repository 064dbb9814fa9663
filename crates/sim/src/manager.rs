//! Register-file ownership ledger and the `RegisterManager` trait.
//!
//! A register manager decides how architected registers map to physical
//! register rows and when CTAs may be admitted. The baseline
//! [`StaticManager`] implements the conventional GPU scheme (§II): a warp's
//! whole register demand is reserved statically and exclusively via
//! `Y = X + Coeff × Widx`. RegMutex, paired-warps RegMutex, RFV, and OWF
//! implement this trait in the `regmutex` crate.
//!
//! The [`Ledger`] is an *invariant checker*, not a hardware structure: every
//! manager must claim rows before its warps touch them, and every register
//! access is validated against the ledger, so any overlapping allocation or
//! use-after-release in a manager is caught immediately.

use regmutex_isa::{ArchReg, CtaId, Instr, PhysReg, WarpId};

use crate::config::GpuConfig;
use crate::fault::{HwFault, InjectOutcome};

/// Violation reported by [`Ledger::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerViolation {
    /// The row is outside the register file.
    OutOfRange {
        /// Offending row.
        row: u32,
    },
    /// The row is not claimed by anyone.
    Unclaimed {
        /// Offending row.
        row: u32,
    },
    /// The row is claimed by a different warp.
    WrongOwner {
        /// Offending row.
        row: u32,
        /// Current owner.
        owner: WarpId,
        /// Accessor.
        accessor: WarpId,
    },
}

impl core::fmt::Display for LedgerViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LedgerViolation::OutOfRange { row } => write!(f, "row {row} out of range"),
            LedgerViolation::Unclaimed { row } => write!(f, "row {row} accessed while unclaimed"),
            LedgerViolation::WrongOwner {
                row,
                owner,
                accessor,
            } => {
                write!(f, "row {row} owned by {owner} accessed by {accessor}")
            }
        }
    }
}

impl std::error::Error for LedgerViolation {}

/// Ownership ledger over the SM's warp-granular register rows.
#[derive(Debug, Clone)]
pub struct Ledger {
    owner: Vec<Option<WarpId>>,
}

impl Ledger {
    /// A ledger for `rows` register rows, all free.
    pub fn new(rows: u32) -> Self {
        Ledger {
            owner: vec![None; rows as usize],
        }
    }

    /// Total rows.
    pub fn rows(&self) -> u32 {
        self.owner.len() as u32
    }

    /// Currently unclaimed rows.
    pub fn free_rows(&self) -> u32 {
        self.owner.iter().filter(|o| o.is_none()).count() as u32
    }

    /// Claim `row` for `warp`.
    ///
    /// # Panics
    ///
    /// Panics if the row is out of range or already claimed — that is a
    /// manager bug, not a recoverable condition.
    pub fn claim(&mut self, row: u32, warp: WarpId) {
        let slot = self
            .owner
            .get_mut(row as usize)
            .unwrap_or_else(|| panic!("claim of out-of-range row {row}"));
        assert!(
            slot.is_none(),
            "row {row} already owned by {} when claimed for {warp}",
            slot.unwrap()
        );
        *slot = Some(warp);
    }

    /// Claim a contiguous range `[start, start+len)` for `warp`.
    pub fn claim_range(&mut self, start: u32, len: u32, warp: WarpId) {
        for r in start..start + len {
            self.claim(r, warp);
        }
    }

    /// Fallible [`Ledger::claim`]: instead of panicking on an out-of-range or
    /// already-claimed row, report the violation. Used on paths where a
    /// conflicting claim may be the *injected fault itself* (e.g. a stuck SRP
    /// bit re-granting an owned section) and must surface as a structured
    /// error rather than an abort.
    ///
    /// # Errors
    ///
    /// [`LedgerViolation::OutOfRange`] or [`LedgerViolation::WrongOwner`]
    /// (the current owner, with `warp` as the accessor).
    pub fn try_claim(&mut self, row: u32, warp: WarpId) -> Result<(), LedgerViolation> {
        match self.owner.get_mut(row as usize) {
            None => Err(LedgerViolation::OutOfRange { row }),
            Some(Some(owner)) => Err(LedgerViolation::WrongOwner {
                row,
                owner: *owner,
                accessor: warp,
            }),
            Some(slot @ None) => {
                *slot = Some(warp);
                Ok(())
            }
        }
    }

    /// Fallible [`Ledger::claim_range`]. On failure no row of the range
    /// remains claimed (rows claimed before the conflict are rolled back).
    ///
    /// # Errors
    ///
    /// The violation from the first conflicting row.
    pub fn try_claim_range(
        &mut self,
        start: u32,
        len: u32,
        warp: WarpId,
    ) -> Result<(), LedgerViolation> {
        for r in start..start + len {
            if let Err(v) = self.try_claim(r, warp) {
                for done in start..r {
                    self.release(done, warp);
                }
                return Err(v);
            }
        }
        Ok(())
    }

    /// Fallible [`Ledger::release`].
    ///
    /// # Errors
    ///
    /// [`LedgerViolation::OutOfRange`], [`LedgerViolation::Unclaimed`], or
    /// [`LedgerViolation::WrongOwner`] when `warp` does not own the row.
    pub fn try_release(&mut self, row: u32, warp: WarpId) -> Result<(), LedgerViolation> {
        match self.owner.get_mut(row as usize) {
            None => Err(LedgerViolation::OutOfRange { row }),
            Some(None) => Err(LedgerViolation::Unclaimed { row }),
            Some(Some(owner)) if *owner != warp => Err(LedgerViolation::WrongOwner {
                row,
                owner: *owner,
                accessor: warp,
            }),
            Some(slot) => {
                *slot = None;
                Ok(())
            }
        }
    }

    /// Release `row`, verifying ownership.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range, unclaimed, or wrong-owner release.
    pub fn release(&mut self, row: u32, warp: WarpId) {
        let slot = self
            .owner
            .get_mut(row as usize)
            .unwrap_or_else(|| panic!("release of out-of-range row {row}"));
        assert_eq!(
            *slot,
            Some(warp),
            "row {row} released by {warp} but owned by {:?}",
            slot
        );
        *slot = None;
    }

    /// Release a contiguous range, verifying ownership.
    pub fn release_range(&mut self, start: u32, len: u32, warp: WarpId) {
        for r in start..start + len {
            self.release(r, warp);
        }
    }

    /// Validate that `warp` may access `row`.
    ///
    /// # Errors
    ///
    /// Returns the specific [`LedgerViolation`].
    pub fn check(&self, row: u32, warp: WarpId) -> Result<(), LedgerViolation> {
        match self.owner.get(row as usize) {
            None => Err(LedgerViolation::OutOfRange { row }),
            Some(None) => Err(LedgerViolation::Unclaimed { row }),
            Some(Some(o)) if *o != warp => Err(LedgerViolation::WrongOwner {
                row,
                owner: *o,
                accessor: warp,
            }),
            Some(Some(_)) => Ok(()),
        }
    }
}

/// Outcome of an issue-stage `acq.es`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireResult {
    /// A section was granted; the warp proceeds.
    Acquired,
    /// No section available; the warp waits and retries when scheduled.
    Stalled,
    /// The primitive is a no-op for this manager (baseline) or the warp
    /// already holds its extended set.
    NoOp,
    /// The grant conflicted with the ownership ledger — corrupted hardware
    /// state (a fault-injection outcome, never produced by healthy
    /// managers). The simulation aborts with the violation.
    Fault(LedgerViolation),
}

/// A register-allocation technique, as the SM sees it.
///
/// Methods that change allocation state receive the [`Ledger`] so the
/// simulator can verify ownership invariants for every technique uniformly.
///
/// `Send` is a supertrait so whole simulations — `Sm`s and the
/// `Box<dyn RegisterManager>`s inside them — can be dispatched to worker
/// threads by parallel experiment harnesses. Managers are plain data, so
/// implementations get it for free.
pub trait RegisterManager: Send {
    /// Short technique name for reports.
    fn name(&self) -> &'static str;

    /// Try to admit one CTA whose warps would occupy `warp_slots` (lowest
    /// free slots, ascending). On success the manager has claimed all rows
    /// the CTA's statically-allocated registers need and returns `true`.
    ///
    /// Contract: once this refuses, it keeps refusing until the next
    /// [`Self::retire_cta`]: the answer may depend only on state that
    /// admission and retirement change, never on issue-stage calls or the
    /// cycle. The SM relies on it and retries admission only at launch and
    /// after a retire (debug builds retry on every step and assert that
    /// nothing is admitted).
    fn try_admit_cta(&mut self, ledger: &mut Ledger, cta: CtaId, warp_slots: &[WarpId]) -> bool;

    /// Retire a CTA, releasing its static allocations. Warps have already
    /// exited (and released any dynamic allocations via [`Self::on_warp_exit`]).
    fn retire_cta(&mut self, ledger: &mut Ledger, cta: CtaId, warp_slots: &[WarpId]);

    /// Issue-stage handling of `acq.es`.
    fn try_acquire(&mut self, ledger: &mut Ledger, warp: WarpId) -> AcquireResult;

    /// Issue-stage handling of `rel.es`. Releasing while not holding the
    /// extended set must be a no-op (§III: redundant releases are allowed).
    fn release(&mut self, ledger: &mut Ledger, warp: WarpId);

    /// Called before an instruction with register operands issues. Managers
    /// with per-register dynamic allocation (RFV) allocate destination rows
    /// here; return `false` to stall the warp this cycle. Must be
    /// idempotent: the same instruction may be retried over several cycles.
    /// [`Self::pre_access_wake`] says when a refusal can next change.
    fn pre_access(
        &mut self,
        _ledger: &mut Ledger,
        _warp: WarpId,
        _instr: &Instr,
        _pc: u32,
        _now: u64,
    ) -> bool {
        true
    }

    /// Earliest cycle at which a [`Self::pre_access`] refusal at `now` could
    /// turn into a grant without any warp issuing in between; the
    /// cycle-skipping engine fast-forwards no further. `None` means only an
    /// issue (another warp's exit, say) can lift it. The default, `now + 1`,
    /// retries every cycle, which suits a refusal that depends on elapsed
    /// time (RFV counts stalled cycles before it spills) and forbids skipping
    /// past it.
    fn pre_access_wake(&self, now: u64) -> Option<u64> {
        Some(now + 1)
    }

    /// Called once when the instruction actually issues (after all checks).
    /// RFV frees last-use source registers here.
    fn post_issue(&mut self, _ledger: &mut Ledger, _warp: WarpId, _instr: &Instr, _pc: u32) {}

    /// Architected→physical mapping for an access by `warp`. `None` means
    /// the manager has no mapping for this register right now — the
    /// simulator treats that as a fatal technique bug.
    fn translate(&self, warp: WarpId, reg: ArchReg) -> Option<PhysReg>;

    /// A warp finished; drop any dynamic allocations it still holds.
    fn on_warp_exit(&mut self, ledger: &mut Ledger, warp: WarpId);

    /// True while the warp holds its extended/shared allocation (stats and
    /// owner-warp-first scheduling, which tries holders first).
    fn holds_extended(&self, _warp: WarpId) -> bool {
        false
    }

    /// Extra storage bits this technique adds to the baseline SM (§III-B1).
    fn storage_overhead_bits(&self) -> u64 {
        0
    }

    /// Emergency register spills this manager performed (RFV only).
    fn spill_count(&self) -> u64 {
        0
    }

    /// Corrupt this manager's *hardware* state in place (fault injection):
    /// flip a LUT entry, latch an SRP bit, etc. Managers without the
    /// targeted structure return [`InjectOutcome::Unsupported`]; managers
    /// with it return [`InjectOutcome::NotApplicable`] when current state
    /// makes the fault meaningless (e.g. corrupting the LUT entry of a warp
    /// that holds nothing) so the injector can retry later.
    fn inject_hw_fault(&mut self, _fault: &HwFault) -> InjectOutcome {
        InjectOutcome::Unsupported
    }

    /// True when this manager's behaviour depends only on the *sequence* of
    /// issue-stage calls it receives, never on how many stalled cycles pass
    /// between them. The cycle-skipping engine may only fast-forward through
    /// a fully stalled interval while every manager is steady; the fault
    /// injector reports `false` while any fault is still armed or a delayed
    /// release is in flight, forcing the exact tick loop through those
    /// windows so event-count triggers fire on the same cycle either way.
    fn steady(&self) -> bool {
        true
    }
}

/// The conventional scheme: registers statically and exclusively reserved
/// for the warp's lifetime with the `Y = X + Coeff × Widx` mapping (§II).
#[derive(Debug, Clone)]
pub struct StaticManager {
    /// Rows per warp = per-thread registers rounded to the allocation
    /// granularity (`Coeff`).
    coeff: u32,
    total_rows: u32,
}

impl StaticManager {
    /// Baseline manager for a kernel using `regs_per_thread` registers.
    pub fn new(cfg: &GpuConfig, regs_per_thread: u16) -> Self {
        StaticManager {
            coeff: cfg.rows_per_warp(regs_per_thread),
            total_rows: cfg.reg_rows_per_sm(),
        }
    }

    /// The per-warp row coefficient (`Coeff`).
    pub fn coeff(&self) -> u32 {
        self.coeff
    }

    fn base(&self, warp: WarpId) -> u32 {
        self.coeff * warp.0
    }
}

impl RegisterManager for StaticManager {
    fn name(&self) -> &'static str {
        "baseline-static"
    }

    fn try_admit_cta(&mut self, ledger: &mut Ledger, _cta: CtaId, warp_slots: &[WarpId]) -> bool {
        // Slot-indexed mapping: a slot is register-feasible iff its whole
        // block lies inside the register file.
        if self.coeff > 0 {
            let fits = warp_slots
                .iter()
                .all(|w| (w.0 + 1) * self.coeff <= self.total_rows);
            if !fits {
                return false;
            }
        }
        for &w in warp_slots {
            ledger.claim_range(self.base(w), self.coeff, w);
        }
        true
    }

    fn retire_cta(&mut self, ledger: &mut Ledger, _cta: CtaId, warp_slots: &[WarpId]) {
        for &w in warp_slots {
            ledger.release_range(self.base(w), self.coeff, w);
        }
    }

    fn try_acquire(&mut self, _ledger: &mut Ledger, _warp: WarpId) -> AcquireResult {
        AcquireResult::NoOp
    }

    fn release(&mut self, _ledger: &mut Ledger, _warp: WarpId) {}

    fn translate(&self, warp: WarpId, reg: ArchReg) -> Option<PhysReg> {
        (u32::from(reg.0) < self.coeff).then(|| PhysReg(self.base(warp) + u32::from(reg.0)))
    }

    fn on_warp_exit(&mut self, _ledger: &mut Ledger, _warp: WarpId) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GpuConfig {
        GpuConfig::test_tiny() // 2048 regs / 32 = 64 rows, 8 warp slots
    }

    #[test]
    fn ledger_claim_release_check() {
        let mut l = Ledger::new(8);
        assert_eq!(l.free_rows(), 8);
        l.claim_range(2, 3, WarpId(1));
        assert_eq!(l.free_rows(), 5);
        assert!(l.check(2, WarpId(1)).is_ok());
        assert_eq!(
            l.check(2, WarpId(2)),
            Err(LedgerViolation::WrongOwner {
                row: 2,
                owner: WarpId(1),
                accessor: WarpId(2)
            })
        );
        assert_eq!(
            l.check(0, WarpId(1)),
            Err(LedgerViolation::Unclaimed { row: 0 })
        );
        assert_eq!(
            l.check(99, WarpId(1)),
            Err(LedgerViolation::OutOfRange { row: 99 })
        );
        l.release_range(2, 3, WarpId(1));
        assert_eq!(l.free_rows(), 8);
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn double_claim_panics() {
        let mut l = Ledger::new(4);
        l.claim(1, WarpId(0));
        l.claim(1, WarpId(1));
    }

    #[test]
    #[should_panic(expected = "released by")]
    fn wrong_owner_release_panics() {
        let mut l = Ledger::new(4);
        l.claim(1, WarpId(0));
        l.release(1, WarpId(1));
    }

    #[test]
    fn double_acquire_rejected_with_precise_error() {
        // The same warp claiming a row it already owns is still a conflict:
        // acquire/release pairing means no row is ever claimed twice.
        let mut l = Ledger::new(8);
        l.claim(3, WarpId(2));
        assert_eq!(
            l.try_claim(3, WarpId(2)),
            Err(LedgerViolation::WrongOwner {
                row: 3,
                owner: WarpId(2),
                accessor: WarpId(2)
            })
        );
        // The failed claim must not disturb ownership.
        assert!(l.check(3, WarpId(2)).is_ok());
    }

    #[test]
    fn double_release_rejected_with_precise_error() {
        let mut l = Ledger::new(8);
        l.claim(5, WarpId(1));
        assert_eq!(l.try_release(5, WarpId(1)), Ok(()));
        assert_eq!(
            l.try_release(5, WarpId(1)),
            Err(LedgerViolation::Unclaimed { row: 5 })
        );
    }

    #[test]
    fn cross_warp_row_theft_rejected_with_precise_error() {
        let mut l = Ledger::new(8);
        l.claim(4, WarpId(0));
        // Theft by claim…
        assert_eq!(
            l.try_claim(4, WarpId(3)),
            Err(LedgerViolation::WrongOwner {
                row: 4,
                owner: WarpId(0),
                accessor: WarpId(3)
            })
        );
        // …and by release are both rejected, and the victim keeps the row.
        assert_eq!(
            l.try_release(4, WarpId(3)),
            Err(LedgerViolation::WrongOwner {
                row: 4,
                owner: WarpId(0),
                accessor: WarpId(3)
            })
        );
        assert!(l.check(4, WarpId(0)).is_ok());
    }

    #[test]
    fn try_claim_range_rolls_back_on_conflict() {
        let mut l = Ledger::new(8);
        l.claim(4, WarpId(7));
        let err = l.try_claim_range(2, 4, WarpId(1));
        assert_eq!(
            err,
            Err(LedgerViolation::WrongOwner {
                row: 4,
                owner: WarpId(7),
                accessor: WarpId(1)
            })
        );
        // Rows 2 and 3 were claimed before the conflict and must be free
        // again; row 4 still belongs to the original owner.
        assert_eq!(l.free_rows(), 7);
        assert_eq!(
            l.check(2, WarpId(1)),
            Err(LedgerViolation::Unclaimed { row: 2 })
        );
        assert!(l.check(4, WarpId(7)).is_ok());
    }

    #[test]
    fn try_claim_out_of_range() {
        let mut l = Ledger::new(4);
        assert_eq!(
            l.try_claim(9, WarpId(0)),
            Err(LedgerViolation::OutOfRange { row: 9 })
        );
        assert_eq!(
            l.try_release(9, WarpId(0)),
            Err(LedgerViolation::OutOfRange { row: 9 })
        );
    }

    #[test]
    fn static_manager_admits_until_rf_exhausted() {
        let c = cfg();
        // 20 regs/thread -> coeff 20 rows; 64 rows fit 3 warps.
        let mut m = StaticManager::new(&c, 20);
        let mut l = Ledger::new(c.reg_rows_per_sm());
        assert!(m.try_admit_cta(&mut l, CtaId(0), &[WarpId(0), WarpId(1)]));
        assert!(m.try_admit_cta(&mut l, CtaId(1), &[WarpId(2)]));
        assert!(!m.try_admit_cta(&mut l, CtaId(2), &[WarpId(3)]));
        m.retire_cta(&mut l, CtaId(1), &[WarpId(2)]);
        assert!(m.try_admit_cta(&mut l, CtaId(3), &[WarpId(2)]));
    }

    #[test]
    fn static_translate_is_linear() {
        let c = cfg();
        let m = StaticManager::new(&c, 8);
        assert_eq!(m.translate(WarpId(0), ArchReg(3)), Some(PhysReg(3)));
        assert_eq!(m.translate(WarpId(2), ArchReg(3)), Some(PhysReg(19)));
        assert_eq!(m.translate(WarpId(0), ArchReg(8)), None); // beyond coeff
    }

    #[test]
    fn static_acquire_is_noop() {
        let c = cfg();
        let mut m = StaticManager::new(&c, 8);
        let mut l = Ledger::new(c.reg_rows_per_sm());
        assert_eq!(m.try_acquire(&mut l, WarpId(0)), AcquireResult::NoOp);
        assert!(!m.holds_extended(WarpId(0)));
        assert_eq!(m.storage_overhead_bits(), 0);
    }

    #[test]
    fn static_rounding_applied_to_coeff() {
        let c = cfg(); // granularity 4
        let m = StaticManager::new(&c, 21);
        assert_eq!(m.coeff(), 24);
    }

    #[test]
    fn zero_reg_kernel_admits_everywhere() {
        let c = cfg();
        let mut m = StaticManager::new(&c, 0);
        let mut l = Ledger::new(c.reg_rows_per_sm());
        for s in 0..8 {
            assert!(m.try_admit_cta(&mut l, CtaId(s), &[WarpId(s)]));
        }
    }
}
