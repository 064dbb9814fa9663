//! Deterministic fault injection for the RegMutex safety net.
//!
//! RegMutex's correctness rests on fragile invariants — acquire/release
//! pairing, SRP section ownership, the compiler's deadlock rules — and the
//! simulator ships several detectors for them (the ownership
//! [`crate::manager::Ledger`], the no-progress deadlock detector,
//! the absolute watchdog, and the store-checksum functional oracle). This
//! module *attacks* the machinery those detectors guard: a seeded
//! [`FaultPlan`] corrupts manager state at the issue stage / manager
//! boundary (dropped or delayed `rel.es`, spurious `acq.es`, corrupted
//! warp→section LUT entries, stuck SRP bitmask bits, memory-latency spikes)
//! so campaigns can verify that every injected fault terminates in a
//! classified outcome — detected, benign, or (a campaign failure) silent
//! corruption.
//!
//! Everything here is deterministic: a plan is a pure function of
//! `(class, severity, seed, config)`, and injection triggers count manager
//! *events* (issue-stage calls), not wall-clock anything, so a faulted run
//! is exactly reproducible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use regmutex_isa::{mix, ArchReg, CtaId, Instr, PhysReg, WarpId};

use crate::config::GpuConfig;
use crate::manager::{AcquireResult, Ledger, RegisterManager};

/// The six fault classes the campaign matrix draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A `rel.es` request is lost on the wire: the manager never sees it.
    DroppedRelease,
    /// An `acq.es` arrives for a warp that never issued one.
    SpuriousAcquire,
    /// A warp→SRP-section LUT entry is corrupted to point at the wrong
    /// section.
    CorruptLut,
    /// An SRP bitmask bit is stuck (latched high or low).
    StuckSrpBit,
    /// A `rel.es` is delivered, but only after a long delay.
    DelayedRelease,
    /// A burst of extra global-memory latency (DRAM/bus contention spike).
    MemLatencySpike,
}

/// Every fault class, in campaign-matrix order.
pub const ALL_FAULT_CLASSES: [FaultClass; 6] = [
    FaultClass::DroppedRelease,
    FaultClass::SpuriousAcquire,
    FaultClass::CorruptLut,
    FaultClass::StuckSrpBit,
    FaultClass::DelayedRelease,
    FaultClass::MemLatencySpike,
];

impl core::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            FaultClass::DroppedRelease => "dropped-release",
            FaultClass::SpuriousAcquire => "spurious-acquire",
            FaultClass::CorruptLut => "corrupt-lut",
            FaultClass::StuckSrpBit => "stuck-srp-bit",
            FaultClass::DelayedRelease => "delayed-release",
            FaultClass::MemLatencySpike => "mem-latency-spike",
        };
        f.write_str(s)
    }
}

/// How aggressive an injected fault is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// A mild, usually survivable perturbation (timing-only or
    /// single-warp): expected to classify *benign*.
    Light,
    /// A perturbation that corrupts allocation state or starves progress:
    /// expected to classify *detected*.
    Severe,
}

impl core::fmt::Display for Severity {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Severity::Light => "light",
            Severity::Severe => "severe",
        })
    }
}

/// A concrete, parameterized fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Swallow `rel.es` requests from `warp` (`None` = from every warp).
    DroppedRelease {
        /// Target warp slot, or all warps.
        warp: Option<u32>,
    },
    /// Fire an `acq.es` the program never issued. With `storm`, fire one
    /// for every warp slot (high slots first) until the SRP is exhausted —
    /// non-resident slots never release, so their sections leak permanently.
    SpuriousAcquire {
        /// Exhaust the SRP instead of a single spurious grant.
        storm: bool,
        /// Target warp slot for the single-grant variant.
        warp: u32,
    },
    /// Corrupt the LUT entry of the next warp that acquires a section.
    CorruptLut,
    /// Latch an SRP bitmask bit.
    StuckSrpBit {
        /// Preferred section for the stuck-high variant.
        section: u32,
        /// `true`: stuck high (section looks busy forever — capacity loss).
        /// `false`: stuck low (an *owned* section looks free — the manager
        /// double-grants it).
        held: bool,
    },
    /// Deliver `rel.es` from `warp` only after `delay_events` further
    /// manager events (`None` = delay every warp's releases).
    DelayedRelease {
        /// Target warp slot, or all warps.
        warp: Option<u32>,
        /// Delay, in manager events.
        delay_events: u64,
    },
    /// Add `extra` cycles to every memory request issued in
    /// `[start, start + duration)`.
    MemLatencySpike {
        /// First affected cycle.
        start: u64,
        /// Burst length in cycles.
        duration: u64,
        /// Additional round-trip latency.
        extra: u64,
    },
}

/// One scheduled fault: a kind plus the manager-event count at which it
/// arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// What to inject.
    pub kind: FaultKind,
    /// Manager-event count at which the fault arms.
    pub trigger_events: u64,
}

/// A deterministic, seeded fault schedule for one simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The fault class this plan exercises.
    pub class: FaultClass,
    /// Aggressiveness.
    pub severity: Severity,
    /// Campaign seed the parameters were drawn from.
    pub seed: u64,
    /// The scheduled faults (currently always exactly one).
    pub faults: Vec<Fault>,
}

/// Xorshift generator with a xorshift64* output multiply on the 13/7/17
/// shift triple: the one copy kept apart from [`regmutex_isa::Rng`]
/// (12/25/27), because its stream differs and the pinned fault verdicts,
/// the chaos tables and `fuzz --fault` outputs depend on this exact
/// sequence.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl FaultPlan {
    /// Generate the plan for `(class, severity, seed)` on `cfg`. Pure and
    /// deterministic: the same inputs always yield the same plan.
    pub fn generate(class: FaultClass, severity: Severity, seed: u64, cfg: &GpuConfig) -> Self {
        let salt = match class {
            FaultClass::DroppedRelease => 0x0D17,
            FaultClass::SpuriousAcquire => 0x5ACC,
            FaultClass::CorruptLut => 0xC1A7,
            FaultClass::StuckSrpBit => 0x57CB,
            FaultClass::DelayedRelease => 0xDE1A,
            FaultClass::MemLatencySpike => 0x3E31,
        } ^ match severity {
            Severity::Light => 0x1000_0000,
            Severity::Severe => 0x2000_0000,
        };
        let mut rng = Rng::new(mix(seed, salt));
        let trigger_events = 50 + rng.next() % 2000;
        let kind = match (class, severity) {
            (FaultClass::DroppedRelease, Severity::Light) => FaultKind::DroppedRelease {
                warp: Some((rng.next() % 4) as u32),
            },
            (FaultClass::DroppedRelease, Severity::Severe) => {
                FaultKind::DroppedRelease { warp: None }
            }
            (FaultClass::SpuriousAcquire, Severity::Light) => FaultKind::SpuriousAcquire {
                storm: false,
                warp: (rng.next() % 4) as u32,
            },
            (FaultClass::SpuriousAcquire, Severity::Severe) => FaultKind::SpuriousAcquire {
                storm: true,
                warp: 0,
            },
            (FaultClass::CorruptLut, _) => FaultKind::CorruptLut,
            (FaultClass::StuckSrpBit, Severity::Light) => FaultKind::StuckSrpBit {
                section: (rng.next() % 64) as u32,
                held: true,
            },
            (FaultClass::StuckSrpBit, Severity::Severe) => FaultKind::StuckSrpBit {
                section: 0,
                held: false,
            },
            (FaultClass::DelayedRelease, Severity::Light) => FaultKind::DelayedRelease {
                warp: Some((rng.next() % 4) as u32),
                delay_events: 200 + rng.next() % 800,
            },
            (FaultClass::DelayedRelease, Severity::Severe) => FaultKind::DelayedRelease {
                warp: None,
                delay_events: 20_000 + rng.next() % 20_000,
            },
            (FaultClass::MemLatencySpike, Severity::Light) => FaultKind::MemLatencySpike {
                start: 1_000 + rng.next() % 5_000,
                duration: 2_000,
                extra: u64::from(cfg.gmem_latency),
            },
            // Severe: a spike longer than the whole run and deeper than the
            // no-progress bound — the deadlock detector must fire.
            (FaultClass::MemLatencySpike, Severity::Severe) => FaultKind::MemLatencySpike {
                start: 0,
                duration: u64::MAX,
                extra: cfg.stall_limit() + 10_000,
            },
        };
        FaultPlan {
            class,
            severity,
            seed,
            faults: vec![Fault {
                kind,
                trigger_events,
            }],
        }
    }

    /// Extra memory latency this plan mandates at `now` (0 outside spikes).
    pub fn mem_extra_at(&self, now: u64) -> u64 {
        self.faults
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::MemLatencySpike {
                    start,
                    duration,
                    extra,
                } if now >= start && now - start < duration => Some(extra),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Earliest cycle strictly after `now` at which the plan's mandated
    /// extra memory latency changes (a spike starts or ends), or `None` if
    /// [`FaultPlan::mem_extra_at`] is constant for all later cycles. The
    /// cycle-skipping engine clamps its jump target here so the run loop
    /// observes every latency transition on its exact cycle.
    pub fn next_mem_change_after(&self, now: u64) -> Option<u64> {
        self.faults
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::MemLatencySpike {
                    start, duration, ..
                } => {
                    let end = start.saturating_add(duration);
                    if start > now {
                        Some(start)
                    } else if end > now && end != u64::MAX {
                        Some(end)
                    } else {
                        None
                    }
                }
                _ => None,
            })
            .min()
    }

    /// Stable one-line identity for cache keys and reports.
    pub fn describe(&self) -> String {
        format!("{}/{}/s{}", self.class, self.severity, self.seed)
    }
}

/// Shared, thread-safe record of what a [`FaultInjector`] actually did —
/// readable by the campaign even when the run ends in an error.
#[derive(Debug)]
pub struct FaultLog {
    injections: AtomicU64,
    first_cycle: AtomicU64,
}

impl FaultLog {
    /// Empty log.
    pub fn new() -> Self {
        FaultLog {
            injections: AtomicU64::new(0),
            first_cycle: AtomicU64::new(u64::MAX),
        }
    }

    /// Record one injection at `cycle`.
    pub fn note(&self, cycle: u64) {
        self.injections.fetch_add(1, Ordering::Relaxed);
        self.first_cycle.fetch_min(cycle, Ordering::Relaxed);
    }

    /// Number of injections performed.
    pub fn injections(&self) -> u64 {
        self.injections.load(Ordering::Relaxed)
    }

    /// Cycle of the first injection, if any happened.
    pub fn first_injection_cycle(&self) -> Option<u64> {
        let c = self.first_cycle.load(Ordering::Relaxed);
        (c != u64::MAX).then_some(c)
    }

    /// Add everything `other` recorded to this log.
    pub fn absorb(&self, other: &FaultLog) {
        self.injections
            .fetch_add(other.injections(), Ordering::Relaxed);
        self.first_cycle
            .fetch_min(other.first_cycle.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

impl Default for FaultLog {
    fn default() -> Self {
        FaultLog::new()
    }
}

/// A hardware-state corruption request delivered to a manager's
/// [`inject_hw_fault`](RegisterManager::inject_hw_fault).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwFault {
    /// Repoint `warp`'s section-LUT entry at a different section.
    CorruptLut {
        /// The warp whose LUT entry to corrupt.
        warp: WarpId,
    },
    /// Latch an SRP bit high: the section looks permanently busy.
    StuckSrpSet {
        /// Preferred section index (wrapped into range by the manager).
        section: u32,
    },
    /// Latch an *owned* SRP bit low: the section looks free and will be
    /// double-granted. The manager picks the victim section.
    StuckSrpClear,
}

/// What a manager did with an [`HwFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectOutcome {
    /// The corruption is now latched into manager state.
    Applied,
    /// The manager has the targeted structure, but current state makes the
    /// fault meaningless right now — retry later.
    NotApplicable,
    /// The manager has no such structure (e.g. the static baseline has no
    /// LUT); the fault can never apply.
    Unsupported,
}

enum FaultState {
    /// Waiting for the event trigger.
    Pending,
    /// Armed; applies on the next successful acquire (LUT corruption).
    AwaitAcquire,
    /// Applied, swallowed, or permanently inapplicable.
    Done,
}

/// A [`RegisterManager`] decorator that executes a [`FaultPlan`] against the
/// wrapped manager. Timing-path faults (dropped/delayed/spurious requests)
/// are modelled here at the trait boundary — the "wires" between issue stage
/// and allocator; state faults (LUT, SRP bits) are delegated to the inner
/// manager's [`inject_hw_fault`](RegisterManager::inject_hw_fault).
///
/// `on_warp_exit` is deliberately *not* intercepted: it is the hardware's
/// exit-time cleanup, not a `rel.es` message, so a cut release wire does not
/// disable it.
pub struct FaultInjector {
    inner: Box<dyn RegisterManager>,
    plan: FaultPlan,
    log: Arc<FaultLog>,
    max_warps: u32,
    events: u64,
    last_now: u64,
    states: Vec<FaultState>,
    /// Active drop rule: `Some(None)` = drop every warp's releases.
    drop_rule: Option<Option<WarpId>>,
    /// Active delay rule: matching warp + delay in events.
    delay_rule: Option<(Option<WarpId>, u64)>,
    /// Releases in flight: (warp, due event count).
    delayed: Vec<(WarpId, u64)>,
}

impl FaultInjector {
    /// Wrap `inner`, executing `plan` and recording into `log`.
    pub fn new(
        inner: Box<dyn RegisterManager>,
        plan: FaultPlan,
        log: Arc<FaultLog>,
        max_warps: u32,
    ) -> Self {
        let states = plan.faults.iter().map(|_| FaultState::Pending).collect();
        FaultInjector {
            inner,
            plan,
            log,
            max_warps: max_warps.max(1),
            events: 0,
            last_now: 0,
            states,
            drop_rule: None,
            delay_rule: None,
            delayed: Vec::new(),
        }
    }

    fn bump(&mut self, ledger: &mut Ledger) {
        self.events += 1;
        self.apply_due(ledger);
    }

    fn apply_due(&mut self, ledger: &mut Ledger) {
        // Deliver matured delayed releases.
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].1 <= self.events {
                let (w, _) = self.delayed.swap_remove(i);
                self.inner.release(ledger, w);
            } else {
                i += 1;
            }
        }
        for i in 0..self.plan.faults.len() {
            if !matches!(self.states[i], FaultState::Pending) {
                continue;
            }
            let fault = self.plan.faults[i];
            if self.events < fault.trigger_events {
                continue;
            }
            match fault.kind {
                FaultKind::DroppedRelease { warp } => {
                    self.drop_rule = Some(warp.map(WarpId));
                    self.states[i] = FaultState::Done;
                }
                FaultKind::DelayedRelease { warp, delay_events } => {
                    self.delay_rule = Some((warp.map(WarpId), delay_events));
                    self.states[i] = FaultState::Done;
                }
                FaultKind::SpuriousAcquire { storm, warp } => {
                    if storm {
                        // Exhaust the SRP from the highest slot down; slots
                        // without resident warps never release, so their
                        // sections leak for the rest of the run.
                        for w in (0..self.max_warps).rev() {
                            if matches!(
                                self.inner.try_acquire(ledger, WarpId(w)),
                                AcquireResult::Stalled
                            ) {
                                break;
                            }
                        }
                    } else {
                        let _ = self
                            .inner
                            .try_acquire(ledger, WarpId(warp % self.max_warps));
                    }
                    self.log.note(self.last_now);
                    self.states[i] = FaultState::Done;
                }
                FaultKind::CorruptLut => {
                    self.states[i] = FaultState::AwaitAcquire;
                }
                FaultKind::StuckSrpBit { section, held } => {
                    let hw = if held {
                        HwFault::StuckSrpSet { section }
                    } else {
                        HwFault::StuckSrpClear
                    };
                    match self.inner.inject_hw_fault(&hw) {
                        InjectOutcome::Applied => {
                            self.log.note(self.last_now);
                            self.states[i] = FaultState::Done;
                        }
                        InjectOutcome::NotApplicable => {} // retry next event
                        InjectOutcome::Unsupported => self.states[i] = FaultState::Done,
                    }
                }
                FaultKind::MemLatencySpike { .. } => {
                    // Cycle-based; applied by the run loop via
                    // `FaultPlan::mem_extra_at`.
                    self.states[i] = FaultState::Done;
                }
            }
        }
    }
}

impl RegisterManager for FaultInjector {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn try_admit_cta(&mut self, ledger: &mut Ledger, cta: CtaId, warp_slots: &[WarpId]) -> bool {
        self.inner.try_admit_cta(ledger, cta, warp_slots)
    }

    fn retire_cta(&mut self, ledger: &mut Ledger, cta: CtaId, warp_slots: &[WarpId]) {
        self.inner.retire_cta(ledger, cta, warp_slots)
    }

    fn try_acquire(&mut self, ledger: &mut Ledger, warp: WarpId) -> AcquireResult {
        self.bump(ledger);
        let result = self.inner.try_acquire(ledger, warp);
        if matches!(result, AcquireResult::Acquired) {
            for i in 0..self.states.len() {
                if matches!(self.states[i], FaultState::AwaitAcquire) {
                    match self.inner.inject_hw_fault(&HwFault::CorruptLut { warp }) {
                        InjectOutcome::Applied => {
                            self.log.note(self.last_now);
                            self.states[i] = FaultState::Done;
                        }
                        InjectOutcome::NotApplicable => {}
                        InjectOutcome::Unsupported => self.states[i] = FaultState::Done,
                    }
                }
            }
        }
        result
    }

    fn release(&mut self, ledger: &mut Ledger, warp: WarpId) {
        self.bump(ledger);
        if let Some(target) = self.drop_rule {
            if target.is_none() || target == Some(warp) {
                // The rel.es never reaches the manager.
                self.log.note(self.last_now);
                return;
            }
        }
        if let Some((target, delay)) = self.delay_rule {
            if target.is_none() || target == Some(warp) {
                self.log.note(self.last_now);
                self.delayed.push((warp, self.events + delay));
                return;
            }
        }
        self.inner.release(ledger, warp)
    }

    fn pre_access(
        &mut self,
        ledger: &mut Ledger,
        warp: WarpId,
        instr: &Instr,
        pc: u32,
        now: u64,
    ) -> bool {
        self.last_now = now;
        self.bump(ledger);
        self.inner.pre_access(ledger, warp, instr, pc, now)
    }

    fn pre_access_wake(&self, now: u64) -> Option<u64> {
        self.inner.pre_access_wake(now)
    }

    fn post_issue(&mut self, ledger: &mut Ledger, warp: WarpId, instr: &Instr, pc: u32) {
        self.inner.post_issue(ledger, warp, instr, pc)
    }

    fn translate(&self, warp: WarpId, reg: ArchReg) -> Option<PhysReg> {
        self.inner.translate(warp, reg)
    }

    fn on_warp_exit(&mut self, ledger: &mut Ledger, warp: WarpId) {
        self.inner.on_warp_exit(ledger, warp)
    }

    fn holds_extended(&self, warp: WarpId) -> bool {
        self.inner.holds_extended(warp)
    }

    fn warp_capacity(&self) -> u32 {
        self.inner.warp_capacity()
    }

    fn spill_count(&self) -> u64 {
        self.inner.spill_count()
    }

    fn inject_hw_fault(&mut self, fault: &HwFault) -> InjectOutcome {
        self.inner.inject_hw_fault(fault)
    }

    fn steady(&self) -> bool {
        // While any fault still waits on its absolute event-count trigger
        // (Pending / AwaitAcquire) or a delayed release is in flight,
        // skipping stalled cycles would change how many `bump` calls those
        // comparisons see. Once every fault is Done and the delay queue is
        // empty, the remaining behaviour (drop/delay rules) depends only on
        // the sequence of issue-stage calls, which skipping preserves.
        self.delayed.is_empty()
            && self.states.iter().all(|s| matches!(s, FaultState::Done))
            && self.inner.steady()
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("inner", &self.inner.name())
            .field("plan", &self.plan.describe())
            .field("events", &self.events)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::StaticManager;

    fn cfg() -> GpuConfig {
        GpuConfig::test_tiny()
    }

    #[test]
    fn plans_are_deterministic() {
        let c = cfg();
        for class in ALL_FAULT_CLASSES {
            for sev in [Severity::Light, Severity::Severe] {
                let a = FaultPlan::generate(class, sev, 7, &c);
                let b = FaultPlan::generate(class, sev, 7, &c);
                assert_eq!(a, b);
                let d = FaultPlan::generate(class, sev, 8, &c);
                assert_ne!(a.describe(), d.describe());
            }
        }
    }

    #[test]
    fn severe_mem_spike_exceeds_stall_limit() {
        let c = cfg();
        let p = FaultPlan::generate(FaultClass::MemLatencySpike, Severity::Severe, 1, &c);
        assert!(p.mem_extra_at(0) > c.stall_limit());
        assert!(p.mem_extra_at(u64::MAX - 1) > c.stall_limit());
    }

    #[test]
    fn light_mem_spike_is_bounded() {
        let c = cfg();
        let p = FaultPlan::generate(FaultClass::MemLatencySpike, Severity::Light, 3, &c);
        assert_eq!(p.mem_extra_at(0), 0); // starts later
        let FaultKind::MemLatencySpike {
            start, duration, ..
        } = p.faults[0].kind
        else {
            panic!("wrong kind")
        };
        assert_eq!(p.mem_extra_at(start), u64::from(c.gmem_latency));
        assert_eq!(p.mem_extra_at(start + duration), 0);
    }

    #[test]
    fn dropped_release_swallows_and_logs() {
        let c = cfg();
        let mut plan = FaultPlan::generate(FaultClass::DroppedRelease, Severity::Severe, 1, &c);
        plan.faults[0].trigger_events = 0; // fire immediately
        let log = Arc::new(FaultLog::new());
        let inner = Box::new(StaticManager::new(&c, 8));
        let mut inj = FaultInjector::new(inner, plan, Arc::clone(&log), 8);
        let mut ledger = Ledger::new(c.reg_rows_per_sm());
        inj.release(&mut ledger, WarpId(0));
        inj.release(&mut ledger, WarpId(3));
        assert_eq!(log.injections(), 2);
        assert_eq!(log.first_injection_cycle(), Some(0));
    }

    #[test]
    fn delayed_release_is_delivered_later() {
        let c = cfg();
        let plan = FaultPlan {
            class: FaultClass::DelayedRelease,
            severity: Severity::Light,
            seed: 0,
            faults: vec![Fault {
                kind: FaultKind::DelayedRelease {
                    warp: None,
                    delay_events: 3,
                },
                trigger_events: 0,
            }],
        };
        let log = Arc::new(FaultLog::new());
        let inner = Box::new(StaticManager::new(&c, 8));
        let mut inj = FaultInjector::new(inner, plan, Arc::clone(&log), 8);
        let mut ledger = Ledger::new(c.reg_rows_per_sm());
        inj.release(&mut ledger, WarpId(0));
        assert_eq!(inj.delayed.len(), 1);
        // Three more events mature the queued release (StaticManager's
        // release is a no-op, but the queue must drain).
        for _ in 0..3 {
            inj.bump(&mut ledger);
        }
        assert!(inj.delayed.is_empty());
        assert_eq!(log.injections(), 1);
    }

    #[test]
    fn next_mem_change_reports_spike_edges() {
        let c = cfg();
        let p = FaultPlan::generate(FaultClass::MemLatencySpike, Severity::Light, 3, &c);
        let FaultKind::MemLatencySpike {
            start, duration, ..
        } = p.faults[0].kind
        else {
            panic!("wrong kind")
        };
        assert_eq!(p.next_mem_change_after(0), Some(start));
        assert_eq!(p.next_mem_change_after(start - 1), Some(start));
        assert_eq!(p.next_mem_change_after(start), Some(start + duration));
        assert_eq!(p.next_mem_change_after(start + duration), None);
        // The severe spike never ends: its only edge is the (cycle-0) start.
        let s = FaultPlan::generate(FaultClass::MemLatencySpike, Severity::Severe, 3, &c);
        assert_eq!(s.next_mem_change_after(0), None);
        // Non-memory plans mandate no latency at all.
        let d = FaultPlan::generate(FaultClass::DroppedRelease, Severity::Severe, 3, &c);
        assert_eq!(d.next_mem_change_after(0), None);
    }

    #[test]
    fn injector_is_steady_only_after_all_faults_resolve() {
        let c = cfg();
        let mut plan = FaultPlan::generate(FaultClass::DroppedRelease, Severity::Severe, 1, &c);
        plan.faults[0].trigger_events = 2;
        let log = Arc::new(FaultLog::new());
        let inner = Box::new(StaticManager::new(&c, 8));
        let mut inj = FaultInjector::new(inner, plan, Arc::clone(&log), 8);
        let mut ledger = Ledger::new(c.reg_rows_per_sm());
        assert!(!inj.steady()); // trigger not reached yet
        inj.bump(&mut ledger);
        inj.bump(&mut ledger);
        assert!(inj.steady()); // drop rule armed, nothing in flight

        // A delayed release in flight also blocks steadiness.
        let plan = FaultPlan {
            class: FaultClass::DelayedRelease,
            severity: Severity::Light,
            seed: 0,
            faults: vec![Fault {
                kind: FaultKind::DelayedRelease {
                    warp: None,
                    delay_events: 3,
                },
                trigger_events: 0,
            }],
        };
        let inner = Box::new(StaticManager::new(&c, 8));
        let mut inj = FaultInjector::new(inner, plan, Arc::new(FaultLog::new()), 8);
        inj.release(&mut ledger, WarpId(0));
        assert!(!inj.steady());
        for _ in 0..3 {
            inj.bump(&mut ledger);
        }
        assert!(inj.steady());
    }

    /// The baseline manager reporting a time-dependent behaviour.
    struct Unsteady(StaticManager);

    impl RegisterManager for Unsteady {
        fn name(&self) -> &'static str {
            "unsteady"
        }
        fn try_admit_cta(&mut self, l: &mut Ledger, c: CtaId, s: &[WarpId]) -> bool {
            self.0.try_admit_cta(l, c, s)
        }
        fn retire_cta(&mut self, l: &mut Ledger, c: CtaId, s: &[WarpId]) {
            self.0.retire_cta(l, c, s)
        }
        fn try_acquire(&mut self, l: &mut Ledger, w: WarpId) -> AcquireResult {
            self.0.try_acquire(l, w)
        }
        fn release(&mut self, l: &mut Ledger, w: WarpId) {
            self.0.release(l, w)
        }
        fn translate(&self, w: WarpId, r: ArchReg) -> Option<PhysReg> {
            self.0.translate(w, r)
        }
        fn on_warp_exit(&mut self, l: &mut Ledger, w: WarpId) {
            self.0.on_warp_exit(l, w)
        }
        fn steady(&self) -> bool {
            false
        }
    }

    #[test]
    fn injector_is_never_steadier_than_its_inner_manager() {
        let c = cfg();
        let mut ledger = Ledger::new(c.reg_rows_per_sm());
        let resolved = |inner: Box<dyn RegisterManager>, ledger: &mut Ledger| {
            let mut plan = FaultPlan::generate(FaultClass::DroppedRelease, Severity::Severe, 1, &c);
            plan.faults[0].trigger_events = 0;
            let mut inj = FaultInjector::new(inner, plan, Arc::new(FaultLog::new()), 8);
            inj.bump(ledger); // the only fault fires: nothing armed or in flight
            inj
        };
        assert!(resolved(Box::new(StaticManager::new(&c, 8)), &mut ledger).steady());
        assert!(!resolved(Box::new(Unsteady(StaticManager::new(&c, 8))), &mut ledger).steady());
    }

    #[test]
    fn absorb_adds_counts_and_keeps_the_earliest_cycle() {
        let into = FaultLog::new();
        into.absorb(&FaultLog::new());
        assert_eq!(into.injections(), 0);
        assert_eq!(into.first_injection_cycle(), None);

        let other = FaultLog::new();
        other.note(40);
        other.note(25);
        into.absorb(&other);
        assert_eq!(into.injections(), 2);
        assert_eq!(into.first_injection_cycle(), Some(25));

        into.note(30);
        let earlier = FaultLog::new();
        earlier.note(10);
        into.absorb(&earlier);
        assert_eq!(into.injections(), 4);
        assert_eq!(into.first_injection_cycle(), Some(10));
        // The absorbed log is left as it was.
        assert_eq!(other.injections(), 2);
        assert_eq!(other.first_injection_cycle(), Some(25));
    }

    #[test]
    fn untriggered_plan_logs_nothing() {
        let c = cfg();
        let plan = FaultPlan::generate(FaultClass::SpuriousAcquire, Severity::Severe, 1, &c);
        let log = Arc::new(FaultLog::new());
        let inner = Box::new(StaticManager::new(&c, 8));
        let mut inj = FaultInjector::new(inner, plan, Arc::clone(&log), 8);
        let mut ledger = Ledger::new(c.reg_rows_per_sm());
        // Below the trigger threshold: nothing may happen.
        inj.bump(&mut ledger);
        assert_eq!(log.injections(), 0);
        assert_eq!(log.first_injection_cycle(), None);
    }
}
