//! The streaming-multiprocessor cycle engine.
//!
//! Each cycle the SM: retires completed memory requests, tallies residency,
//! releases the warps whose scoreboard gate passed, lets every warp
//! scheduler try its ready warps in policy order (greedy-then-oldest by
//! default) up to the first one that can actually issue, executes that
//! instruction both *temporally* (scoreboard, latencies, structural limits,
//! barrier and acquire semantics at the issue stage — where the paper
//! places RegMutex's allocation logic, §III-B1) and *functionally* (value
//! layer + store checksums), and finally retires CTAs whose warps all
//! exited, admitting queued CTAs into the freed resources. A step costs in
//! proportion to the warps it tries and their operands, not to the warps
//! resident (DESIGN.md §7).

use std::collections::VecDeque;
use std::sync::Arc;

use regmutex_isa::{
    decide, mix, ArchReg, BranchBehavior, CtaId, Kernel, LatencyClass, Op, TripCount, WarpId,
};

use crate::barrier::BarrierUnit;
use crate::config::{GpuConfig, SchedulerPolicy};
use crate::manager::{AcquireResult, Ledger, LedgerViolation, RegisterManager};
use crate::memory::MemoryPipe;
use crate::scheduler::{GateWheel, SchedulerState};
use crate::stats::SimStats;
use crate::trace::{TraceEvent, TraceKind};
use crate::value;
use crate::warp::{StallReason, WarpState};

/// A kernel plus per-PC derived tables the SM needs at issue time.
#[derive(Debug)]
pub struct KernelImage {
    /// The kernel being executed.
    pub kernel: Kernel,
    /// Branches in the kernel: the length of each warp's per-ordinal
    /// branch counters.
    pub(crate) branches: usize,
    /// The kernel has a `Divergent` branch, so its warps need lane keys.
    pub(crate) divergent: bool,
    /// Per PC: its instruction decoded for the issue stage, which reads
    /// this instead of the instruction's operand `Vec`s.
    pub(crate) decoded: Vec<Decoded>,
}

/// One PC's instruction as the issue stage reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decoded {
    /// The registers the instruction reads, then the one it writes, padded
    /// with `regs_per_thread` (the scoreboard's spare entry, which never
    /// has a write in flight): the scoreboard check reads all four.
    pub(crate) operands: [u16; 4],
    /// Sources: `operands[..srcs]`.
    pub(crate) srcs: u8,
    /// The instruction writes a register: `operands[srcs]`.
    pub(crate) has_dst: bool,
    /// For a branch, its ordinal among the kernel's branches. Behavioral
    /// decisions key on ordinals, not PCs, so that compiler
    /// transformations which only insert non-branch instructions
    /// (acquire/release injection, MOV compaction) leave control flow —
    /// and therefore checksums — unchanged.
    pub(crate) ordinal: u32,
}

impl KernelImage {
    /// Precompute derived tables for `kernel`.
    ///
    /// # Panics
    ///
    /// Panics if an instruction has more than three sources or names a
    /// register at or past `regs_per_thread`: the builder and the compiler
    /// never produce either.
    pub fn new(kernel: Kernel) -> Self {
        let mut decoded = Vec::with_capacity(kernel.instrs.len());
        let mut branches = 0u32;
        let regs = kernel.regs_per_thread;
        for (pc, i) in kernel.instrs.iter().enumerate() {
            let ordinal = if matches!(i.op, Op::Bra { .. }) {
                branches += 1;
                branches - 1
            } else {
                u32::MAX
            };
            assert!(i.srcs.len() <= 3, "pc {pc}: more than three sources");
            let mut operands = [regs; 4];
            for (op, r) in operands.iter_mut().zip(i.srcs.iter().chain(&i.dst)) {
                assert!(r.0 < regs, "pc {pc}: r{} past regs_per_thread {regs}", r.0);
                *op = r.0;
            }
            decoded.push(Decoded {
                operands,
                srcs: i.srcs.len() as u8,
                has_dst: i.dst.is_some(),
                ordinal,
            });
        }
        let divergent = kernel.instrs.iter().any(|i| {
            matches!(
                i.op,
                Op::Bra {
                    behavior: BranchBehavior::Divergent { .. },
                    ..
                }
            )
        });
        KernelImage {
            kernel,
            branches: branches as usize,
            divergent,
            decoded,
        }
    }

    /// Whether no warp's control flow depends on which warp it is: every
    /// branch is a `Loop` that each warp runs the same number of times.
    /// A warp's identity then reaches only the values it computes, never
    /// the SM's timing (DESIGN.md §7).
    pub(crate) fn warp_uniform(&self) -> bool {
        self.kernel.instrs.iter().all(|i| match i.op {
            Op::Bra { behavior, .. } => matches!(
                behavior,
                BranchBehavior::Loop {
                    trips: TripCount::Fixed(_) | TripCount::PerWarp { spread: 0, .. }
                }
            ),
            _ => true,
        })
    }
}

/// A fatal inconsistency detected at the issue stage: the register state a
/// manager presented conflicts with the ownership ledger, or a mapping is
/// missing entirely. In a healthy simulation these are manager bugs; under
/// fault injection they are the safety net *catching* corrupted hardware
/// state, so they surface as structured errors rather than panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueFault {
    /// A register access or SRP grant conflicted with the ownership ledger.
    Ledger {
        /// Technique name of the offending manager.
        manager: &'static str,
        /// The specific ownership violation.
        violation: LedgerViolation,
        /// Warp whose access tripped the check.
        warp: WarpId,
        /// Program counter of the faulting instruction.
        pc: u32,
    },
    /// The manager had no physical mapping for an architected register.
    NoMapping {
        /// Technique name of the offending manager.
        manager: &'static str,
        /// Warp whose access tripped the check.
        warp: WarpId,
        /// The unmapped architected register.
        reg: ArchReg,
        /// Program counter of the faulting instruction.
        pc: u32,
    },
    /// Not one CTA fits the empty SM at launch. By
    /// [`RegisterManager::try_admit_cta`]'s contract an empty SM that
    /// refuses a CTA refuses it forever, so the kernel can never start.
    NoCtaFits {
        /// Technique name of the refusing manager.
        manager: &'static str,
        /// The resource one CTA needs more of than the SM has, or `None`
        /// when the SM has enough of each and the manager refused on
        /// grounds of its own.
        short: Option<Shortfall>,
    },
}

/// A resource one CTA needs more of than an SM has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shortfall {
    /// What runs short: CTA slots, bytes of shared memory, warp slots, or
    /// register rows under static allocation.
    pub resource: &'static str,
    /// How much of it one CTA needs.
    pub needs: u32,
    /// How much of it the SM has.
    pub has: u32,
}

impl std::fmt::Display for Shortfall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Shortfall {
            resource,
            needs,
            has,
        } = self;
        write!(f, "a CTA needs {needs} {resource}, the SM has {has}")
    }
}

/// Why a warp could not issue: an ordinary stall, or a fatal fault.
enum Blocked {
    Stall {
        reason: StallReason,
        /// Earliest future cycle at which this stall could clear *without
        /// any instruction issuing on this SM* (memory completion,
        /// scoreboard writeback, time-dependent manager retry). `None`
        /// means only another warp's issue can unblock it — no self-wake.
        wake: Option<u64>,
    },
    Fatal(IssueFault),
}

/// Record of the stat deltas and wake hints of the most recent [`Sm::step`]
/// call. The cycle-skipping engine's contract: a step that issued nothing,
/// admitted nothing, and ran only steady managers reads from state that no
/// later cycle can change until an external wake event — so re-running it at
/// `now+1 .. target-1` would produce byte-identical deltas, and
/// [`Sm::skip_ahead`] replays them multiplicatively instead.
#[derive(Debug, Default)]
struct StepProbe {
    /// Any scheduler issued an instruction.
    issued: bool,
    /// `fill_ctas` admitted at least one CTA.
    admitted: bool,
    /// Resident (non-done) warps charged to `resident_warp_cycles`.
    resident: u64,
    /// Schedulers with no candidate warp at all.
    empty_scheds: u64,
    /// Stalled-scheduler attributions, indexed as [`StallReason::ALL`].
    stalls: [u64; StallReason::ALL.len()],
    /// `acq.es` attempts performed during the step.
    acquire_attempts: u64,
    /// A warp exited, so a CTA may have finished.
    exited: bool,
    /// Minimum wake hint over every stalled candidate tried this step and,
    /// when no scheduler issued, every warp blocked on its scoreboard.
    wake: Option<u64>,
}

impl StepProbe {
    /// Fold one stalled candidate's wake hint into the minimum.
    fn note_wake(&mut self, wake: Option<u64>) {
        if let Some(at) = wake {
            self.wake = Some(self.wake.map_or(at, |cur| cur.min(at)));
        }
    }
}

#[derive(Debug)]
struct ResidentCta {
    cta: CtaId,
    slots: Vec<WarpId>,
    live_warps: u32,
    shmem: u32,
}

/// One simulated streaming multiprocessor, generic over its register
/// manager: the device loop runs the five techniques' managers with static
/// dispatch, and `Sm<dyn RegisterManager>` (the default) is the same loop
/// over a boxed trait object, which fault injection and traced runs use.
pub struct Sm<M: RegisterManager + ?Sized = dyn RegisterManager> {
    cfg: GpuConfig,
    image: Arc<KernelImage>,
    manager: Box<M>,
    /// Ownership ledger over register rows (invariant checking).
    pub ledger: Ledger,
    barrier: BarrierUnit,
    mem: MemoryPipe,
    warps: Vec<Option<WarpState>>,
    sched: Vec<SchedulerState>,
    /// The gates of the warps blocked on their scoreboard, over every
    /// scheduler.
    gates: GateWheel,
    resident: Vec<ResidentCta>,
    pending_ctas: VecDeque<CtaId>,
    shmem_used: u32,
    /// Counters for this SM.
    pub stats: SimStats,
    /// Cycle of the most recent issued instruction (progress watchdog).
    pub last_progress: u64,
    trace: Option<Vec<TraceEvent>>,
    /// Deltas and wake hints of the most recent step (cycle skipping).
    probe: StepProbe,
    /// Reusable admission scratch for `fill_ctas`: `step` must not
    /// allocate in steady state.
    slot_buf: Vec<WarpId>,
    /// Resident, unfinished warps: +1 per admitted warp, −1 per exit.
    live_warps: u32,
}

impl<M: RegisterManager + ?Sized> Sm<M> {
    /// Create an SM that will execute `ctas` (queued) with `manager`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.max_warps_per_sm` exceeds 64: the issue stage keeps
    /// one bit per warp slot in a `u64`.
    pub fn new(
        cfg: GpuConfig,
        image: Arc<KernelImage>,
        manager: Box<M>,
        ctas: impl IntoIterator<Item = CtaId>,
    ) -> Self {
        assert!(
            cfg.max_warps_per_sm <= 64,
            "max_warps_per_sm = {} exceeds the 64 warp slots an SM supports",
            cfg.max_warps_per_sm
        );
        let rows = cfg.reg_rows_per_sm();
        let max_warps = cfg.max_warps_per_sm as usize;
        let nsched = cfg.num_schedulers as usize;
        let mem = MemoryPipe::new(
            cfg.max_outstanding_mem,
            cfg.gmem_latency,
            cfg.mem_issue_per_cycle,
        );
        Sm {
            cfg,
            image,
            manager,
            ledger: Ledger::new(rows),
            barrier: BarrierUnit::new(),
            mem,
            warps: (0..max_warps).map(|_| None).collect(),
            sched: (0..nsched)
                .map(|_| SchedulerState::new(max_warps))
                .collect(),
            gates: GateWheel::new(max_warps),
            resident: Vec::new(),
            pending_ctas: ctas.into_iter().collect(),
            shmem_used: 0,
            stats: SimStats::default(),
            last_progress: 0,
            trace: None,
            probe: StepProbe::default(),
            slot_buf: Vec::new(),
            live_warps: 0,
        }
    }

    /// Start recording issue-stage trace events (see [`crate::trace`]).
    pub fn enable_tracing(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Take the recorded events (empty if tracing was never enabled).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take().unwrap_or_default()
    }

    /// All work (queued and resident) finished?
    pub fn idle(&self) -> bool {
        self.pending_ctas.is_empty() && self.resident.is_empty()
    }

    /// Immutable view of the register manager (for reports).
    pub fn manager(&self) -> &M {
        &self.manager
    }

    /// Resident, unfinished warps right now.
    pub fn resident_warps(&self) -> u32 {
        debug_assert_eq!(
            self.live_warps,
            self.warps.iter().flatten().filter(|w| !w.done).count() as u32,
            "live-warp counter out of sync"
        );
        self.live_warps
    }

    /// Snapshot of SRP-related stall state for deadlock diagnostics:
    /// `(warps blocked at an acq.es, warps holding their extended set)`.
    pub fn stall_snapshot(&self) -> (Vec<u32>, Vec<u32>) {
        let mut blocked = Vec::new();
        let mut holders = Vec::new();
        for (slot, w) in self.warps.iter().enumerate() {
            let wid = WarpId(slot as u32);
            if let Some(w) = w {
                if !w.done
                    && !w.at_barrier
                    && matches!(self.image.kernel.instrs[w.pc as usize].op, Op::AcqEs)
                {
                    blocked.push(wid.0);
                }
            }
            if self.manager.holds_extended(wid) {
                holders.push(wid.0);
            }
        }
        (blocked, holders)
    }

    /// Fault-injection hook: add `extra` cycles to every memory request
    /// issued from now on (transient latency spike).
    pub fn set_mem_extra_latency(&mut self, extra: u64) {
        self.mem.set_extra_latency(extra);
    }

    /// True when the step just executed provably changes nothing until an
    /// external wake event: no instruction issued, no CTA was admitted, and
    /// every manager behaviour is cycle-count independent
    /// ([`RegisterManager::steady`]). Re-running such a step on later cycles
    /// (up to [`Sm::next_event_cycle`]) yields byte-identical deltas, which
    /// is what lets this SM's run fast-forward. Only meaningful on a
    /// non-idle SM right after `step` returned `Ok`.
    pub(crate) fn can_skip(&self) -> bool {
        !self.probe.issued && !self.probe.admitted && self.manager.steady()
    }

    /// Conservative earliest cycle at which this SM's issue outcome could
    /// differ from the step just executed. `u64::MAX` means no warp here can
    /// unblock without another warp issuing first: the SM is stuck, and the
    /// device loop judges the deadlock at the usual no-progress bound.
    pub(crate) fn next_event_cycle(&self) -> u64 {
        debug_assert!(!self.probe.issued, "the wake hint of an issuing step");
        self.probe.wake.unwrap_or(u64::MAX)
    }

    /// Fold `gap` replicas of the (fully stalled) step just executed into
    /// the stats: the SM's run proved cycles `now .. now+gap` would
    /// re-run the identical no-issue step, so their per-cycle accounting is
    /// the recorded deltas times `gap`. `stats.cycles` and
    /// `stats.mem_requests` need no adjustment — the landing step overwrites
    /// both with its own values, exactly as the last replica would have.
    pub(crate) fn skip_ahead(&mut self, gap: u64) {
        debug_assert!(self.can_skip(), "skip_ahead on a non-skippable step");
        self.stats.resident_warp_cycles += self.probe.resident * gap;
        self.stats.empty_scheduler_cycles += self.probe.empty_scheds * gap;
        self.stats.acquire_attempts += self.probe.acquire_attempts * gap;
        for (total, per_step) in self.stats.stall_cycles.iter_mut().zip(self.probe.stalls) {
            *total += per_step * gap;
        }
        self.stats.skipped_cycles += gap;
    }

    /// Advance one cycle.
    ///
    /// # Errors
    ///
    /// An [`IssueFault`] when the ledger or translation layer catches
    /// corrupted register state, or when not one CTA fits the SM at
    /// launch; the simulation cannot continue.
    pub fn step(&mut self, now: u64) -> Result<(), IssueFault> {
        if self.idle() {
            return Ok(());
        }
        self.stats.step_calls += 1;
        self.probe = StepProbe::default();
        self.mem.begin_cycle(now);
        // CTAs are admitted at launch and after a retire
        // (`retire_finished_ctas`): whether one fits changes only when one
        // retires (see `RegisterManager::try_admit_cta`), so an attempt on
        // any other step would admit nothing.
        if self.resident.is_empty() {
            self.fill_ctas();
            if self.stats.ctas == 0 {
                return Err(self.no_cta_fits());
            }
        } else if cfg!(debug_assertions) {
            let ctas = self.stats.ctas;
            self.fill_ctas();
            debug_assert_eq!(
                self.stats.ctas, ctas,
                "a CTA became admissible without a retire"
            );
        }

        let resident = u64::from(self.resident_warps());
        self.stats.resident_warp_cycles += resident;
        self.probe.resident = resident;

        if now >= self.gates.earliest() {
            let nsched = self.sched.len();
            let mut matured = self.gates.mature(now);
            while matured != 0 {
                let slot = matured.trailing_zeros();
                matured &= matured - 1;
                self.sched[slot as usize % nsched].unblock(slot);
            }
        }
        if cfg!(debug_assertions) {
            self.check_gates(now);
        }
        let policy = self.cfg.policy;
        for sid in 0..self.sched.len() {
            let st = &self.sched[sid];
            let (ready, blocked) = (st.ready, st.blocked);
            if ready | blocked == 0 {
                self.stats.empty_scheduler_cycles += 1;
                self.probe.empty_scheds += 1;
                continue;
            }
            // OWF orders by extended-set ownership as it stands before any
            // try: a failed try changes it only for the warp tried, which
            // is not picked again this cycle.
            let holders = if policy == SchedulerPolicy::OwnerWarpFirst {
                st.holders(ready | blocked, |s| self.manager.holds_extended(WarpId(s)))
            } else {
                0
            };
            // Try the ready warps in policy order up to the first issue.
            let mut tried = 0u64;
            let mut first_try: Option<StallReason> = None;
            let issued = loop {
                let st = &self.sched[sid];
                let Some(slot) = st.pick(policy, st.ready & !tried, holders) else {
                    break false;
                };
                tried |= st.bit(slot);
                match self.try_issue(sid, slot, now) {
                    Ok(()) => {
                        self.sched[sid].last_issued = Some(slot);
                        self.sched[sid].rr_cursor = slot;
                        self.last_progress = now;
                        self.probe.issued = true;
                        break true;
                    }
                    Err(Blocked::Stall { reason, wake }) => {
                        first_try.get_or_insert(reason);
                        self.probe.note_wake(wake);
                        if cfg!(debug_assertions) && policy == SchedulerPolicy::OwnerWarpFirst {
                            let st = &self.sched[sid];
                            let untried = (ready | blocked) & !tried;
                            assert_eq!(
                                st.holders(untried, |s| self.manager.holds_extended(WarpId(s))),
                                holders & untried,
                                "a failed try changed another warp's holder status"
                            );
                        }
                    }
                    Err(Blocked::Fatal(fault)) => return Err(fault),
                }
            };
            if !issued {
                // A stalled scheduler's cycle is charged to its first
                // issuable warp in policy order: `Scoreboard` if that warp
                // was blocked, else the reason of the first try, which was
                // that warp's.
                let first = self.sched[sid]
                    .pick(policy, ready | blocked, holders)
                    .expect("the scheduler has an issuable warp");
                let reason = if blocked & self.sched[sid].bit(first) != 0 {
                    StallReason::Scoreboard
                } else {
                    first_try.expect("the first candidate was tried")
                };
                self.stats.note_stall(reason);
                self.probe.stalls[reason.index()] += 1;
            }
        }
        // The blocked warps stall until their gates; the earliest gate
        // joins the wake hint, which is read only after a step in which no
        // scheduler issued.
        if !self.probe.issued {
            let earliest = self.gates.earliest();
            if earliest != u64::MAX {
                self.probe.note_wake(Some(earliest));
            }
        }

        if self.probe.exited {
            self.retire_finished_ctas();
        }
        self.stats.cycles = now + 1;
        self.stats.mem_requests = self.mem.total_requests;
        Ok(())
    }

    /// The launch-time refusal, naming the first resource, in
    /// `fill_ctas`'s order of checks, that one CTA needs more of than the
    /// empty SM has. Register rows are counted, and named, as static
    /// allocation reserves them. When the SM has enough of each, the
    /// manager refused on grounds of its own and the fault names none.
    fn no_cta_fits(&self) -> IssueFault {
        let (kernel, cfg) = (&self.image.kernel, &self.cfg);
        let warps = kernel.warps_per_cta(cfg.warp_size);
        let rows = warps * cfg.rows_per_warp(kernel.regs_per_thread);
        let short = [
            ("CTA slots", 1, cfg.max_ctas_per_sm),
            (
                "bytes of shared memory",
                kernel.shmem_per_cta,
                cfg.shmem_per_sm,
            ),
            ("warp slots", warps, cfg.max_warps_per_sm),
            (
                "register rows under static allocation",
                rows,
                cfg.reg_rows_per_sm(),
            ),
        ]
        .into_iter()
        .find(|&(_, needs, has)| needs > has)
        .map(|(resource, needs, has)| Shortfall {
            resource,
            needs,
            has,
        });
        IssueFault::NoCtaFits {
            manager: self.manager.name(),
            short,
        }
    }

    /// Debug cross-check of the schedulers' masks and the gate wheel
    /// against the warps: an issuable warp is ready or blocked, any other
    /// is neither, a blocked warp's gate is still its scoreboard's verdict
    /// (which never changes before the gate matures) and is in the wheel,
    /// the wheel holds no other gate, and its earliest gate is the
    /// earliest of them.
    fn check_gates(&self, now: u64) {
        let mut blocked = 0;
        let mut earliest = u64::MAX;
        for (slot, w) in self.warps.iter().enumerate() {
            let st = &self.sched[slot % self.sched.len()];
            assert_eq!(st.ready & st.blocked, 0, "a warp both ready and blocked");
            let b = st.bit(slot as u32);
            let Some(w) = w.as_ref().filter(|w| w.issuable()) else {
                assert_eq!((st.ready | st.blocked) & b, 0, "idle slot {slot} in a mask");
                continue;
            };
            assert_ne!(
                (st.ready | st.blocked) & b,
                0,
                "issuable slot {slot} in no mask"
            );
            if st.blocked & b != 0 {
                let ops = &self.image.decoded[w.pc as usize].operands;
                let gate = w.scoreboard_block(ops, now);
                let held = gate.is_some_and(|g| self.gates.holds(slot as u32, g));
                assert!(held, "stale gate {gate:?} (slot {slot}, pc {})", w.pc);
                blocked += 1;
                earliest = earliest.min(gate.unwrap_or(u64::MAX));
            }
        }
        assert_eq!(self.gates.len(), blocked, "a gate of no blocked warp");
        assert_eq!(self.gates.earliest(), earliest, "earliest gate out of date");
    }

    /// Attempt to issue the next instruction of the warp in `slot`.
    fn try_issue(&mut self, sid: usize, slot: u32, now: u64) -> Result<(), Blocked> {
        // --- Phase 1: everything that needs &mut warp -------------------
        let wid = WarpId(slot);
        enum After {
            None,
            BarrierComplete(CtaId),
            Exit(CtaId, u64),
        }
        let after = {
            let image: &KernelImage = &self.image;
            let w = self.warps[wid.index()]
                .as_mut()
                .expect("issuing absent warp");
            let instr = &image.kernel.instrs[w.pc as usize];
            let d = image.decoded[w.pc as usize];

            // Reconverge masked-off lanes arriving at their rejoin point.
            let rejoined = w.simt.reconverge_at(w.pc);
            w.active_mask |= rejoined;

            // Scoreboard: RAW + WAW. A blocked warp next changes state when
            // the earliest pending write among the registers this
            // instruction touches lands — that cycle is its gate and the
            // wake hint. The block returns before any manager, ledger or
            // memory call, and the reconvergence above is idempotent at an
            // unchanged PC, so until then the warp need not be tried.
            if let Some(ready) = w.scoreboard_block(&d.operands, now) {
                self.sched[sid].block(slot);
                self.gates.block(slot, ready, now);
                return Err(Blocked::Stall {
                    reason: StallReason::Scoreboard,
                    wake: Some(ready),
                });
            }

            match instr.op {
                Op::Bar => {
                    debug_assert!(w.simt.is_converged(), "barrier inside divergence");
                    w.execute(image);
                    w.issued += 1;
                    self.stats.instructions += 1;
                    let cta = w.cta;
                    w.at_barrier = true;
                    self.sched[sid].park(slot);
                    if self.barrier.arrive(cta) {
                        // Completed by this arrival (includes self).
                        After::BarrierComplete(cta)
                    } else {
                        After::None
                    }
                }
                Op::AcqEs => {
                    self.stats.acquire_attempts += 1;
                    self.probe.acquire_attempts += 1;
                    match self.manager.try_acquire(&mut self.ledger, wid) {
                        AcquireResult::Acquired | AcquireResult::NoOp => {
                            self.stats.acquire_successes += 1;
                            w.execute(image);
                            w.issued += 1;
                            self.stats.instructions += 1;
                            if let Some(t) = self.trace.as_mut() {
                                t.push(TraceEvent {
                                    cycle: now,
                                    warp: wid.0,
                                    kind: TraceKind::AcquireSuccess,
                                });
                            }
                            After::None
                        }
                        AcquireResult::Stalled => {
                            if let Some(t) = self.trace.as_mut() {
                                t.push(TraceEvent {
                                    cycle: now,
                                    warp: wid.0,
                                    kind: TraceKind::AcquireStall,
                                });
                            }
                            return Err(Blocked::Stall {
                                reason: StallReason::Acquire,
                                // Only another warp's rel.es frees a
                                // section, and that takes an issue: no
                                // self-wake.
                                wake: None,
                            });
                        }
                        AcquireResult::Fault(violation) => {
                            return Err(Blocked::Fatal(IssueFault::Ledger {
                                manager: self.manager.name(),
                                violation,
                                warp: wid,
                                pc: w.pc,
                            }));
                        }
                    }
                }
                Op::RelEs => {
                    self.manager.release(&mut self.ledger, wid);
                    self.stats.releases += 1;
                    w.execute(image);
                    w.issued += 1;
                    self.stats.instructions += 1;
                    if let Some(t) = self.trace.as_mut() {
                        t.push(TraceEvent {
                            cycle: now,
                            warp: wid.0,
                            kind: TraceKind::Release,
                        });
                    }
                    After::None
                }
                Op::Exit => {
                    debug_assert!(w.simt.is_converged(), "exit inside divergence");
                    w.done = true;
                    self.sched[sid].park(slot);
                    self.live_warps -= 1;
                    w.issued += 1;
                    self.stats.instructions += 1;
                    self.manager.on_warp_exit(&mut self.ledger, wid);
                    self.probe.exited = true;
                    if let Some(t) = self.trace.as_mut() {
                        t.push(TraceEvent {
                            cycle: now,
                            warp: wid.0,
                            kind: TraceKind::WarpExit,
                        });
                    }
                    let checksum = w.execute(image).expect("exit yields the warp's checksum");
                    After::Exit(w.cta, checksum)
                }
                Op::Bra { target, behavior } => {
                    if let BranchBehavior::Divergent { taken_permille } = behavior {
                        let ord = d.ordinal;
                        let occ = &mut w.occurrences[ord as usize];
                        *occ += 1;
                        let salt = mix(u64::from(ord), u64::from(*occ));
                        let mut taken_mask = 0u64;
                        let mut lanes = w.active_mask;
                        while lanes != 0 {
                            let lane = lanes.trailing_zeros() as usize;
                            lanes &= lanes - 1;
                            if decide(taken_permille, w.lane_keys[lane], salt) {
                                taken_mask |= 1 << lane;
                            }
                        }
                        if taken_mask == w.active_mask {
                            w.pc = target;
                        } else if taken_mask == 0 {
                            w.pc += 1;
                        } else {
                            w.simt.diverge(target, taken_mask);
                            w.active_mask &= !taken_mask;
                            w.pc += 1;
                        }
                    } else {
                        w.execute(image);
                    }
                    w.issued += 1;
                    self.stats.instructions += 1;
                    if let Some(t) = self.trace.as_mut() {
                        t.push(TraceEvent {
                            cycle: now,
                            warp: wid.0,
                            kind: TraceKind::Issue { pc: w.pc },
                        });
                    }
                    After::None
                }
                _ => {
                    // Register-operand instruction (ALU / SFU / memory / mov).
                    if !self
                        .manager
                        .pre_access(&mut self.ledger, wid, instr, w.pc, now)
                    {
                        return Err(Blocked::Stall {
                            reason: StallReason::RegAlloc,
                            wake: self.manager.pre_access_wake(now),
                        });
                    }
                    // Validate every operand's physical mapping + ownership,
                    // and (when bank modelling is on) count operand-collector
                    // bank conflicts among the source rows.
                    let srcs = usize::from(d.srcs);
                    let dst = d.has_dst.then_some(d.operands[srcs]);
                    let mut src_banks: [Option<u32>; 3] = [None; 3];
                    let mut bank_extra = 0u64;
                    for (i, &r) in d.operands[..srcs + usize::from(d.has_dst)]
                        .iter()
                        .enumerate()
                    {
                        let reg = ArchReg(r);
                        let Some(phys) = self.manager.translate(wid, reg) else {
                            return Err(Blocked::Fatal(IssueFault::NoMapping {
                                manager: self.manager.name(),
                                warp: wid,
                                reg,
                                pc: w.pc,
                            }));
                        };
                        if let Err(violation) = self.ledger.check(phys.0, wid) {
                            return Err(Blocked::Fatal(IssueFault::Ledger {
                                manager: self.manager.name(),
                                violation,
                                warp: wid,
                                pc: w.pc,
                            }));
                        }
                        if self.cfg.reg_banks > 0 && i < srcs {
                            let bank = phys.0 % self.cfg.reg_banks;
                            if src_banks[..i].iter().flatten().any(|&b| b == bank) {
                                bank_extra += 1; // gather over an extra cycle
                            }
                            src_banks[i] = Some(bank);
                        }
                    }
                    // When the result lands: the timing half of the issue.
                    // The values are `execute`'s, below.
                    let ready = match instr.op.latency_class() {
                        LatencyClass::GlobalMem => {
                            let Some(ready) = self.mem.try_issue() else {
                                return Err(Blocked::Stall {
                                    reason: StallReason::MemoryStructural,
                                    // In a no-issue step the per-cycle
                                    // issue budget is untouched, so the
                                    // stall is a capacity stall: it clears
                                    // when the earliest in-flight request
                                    // completes.
                                    wake: self.mem.next_completion(),
                                });
                            };
                            ready
                        }
                        LatencyClass::SharedMem => now + u64::from(self.cfg.shmem_latency),
                        LatencyClass::Sfu => now + u64::from(self.cfg.sfu_latency),
                        LatencyClass::Alu => now + u64::from(self.cfg.alu_latency),
                        LatencyClass::Control => unreachable!("handled above"),
                    };
                    if let Some(dst) = dst {
                        w.set_pending(dst, ready + bank_extra, now);
                    }
                    self.stats.reg_reads += u64::from(d.srcs);
                    self.stats.reg_writes += u64::from(dst.is_some());
                    self.manager.post_issue(&mut self.ledger, wid, instr, w.pc);
                    if let Some(t) = self.trace.as_mut() {
                        t.push(TraceEvent {
                            cycle: now,
                            warp: wid.0,
                            kind: TraceKind::Issue { pc: w.pc },
                        });
                    }
                    w.execute(image);
                    w.issued += 1;
                    self.stats.instructions += 1;
                    After::None
                }
            }
        };

        // --- Phase 2: effects that touch other warps / CTA records -------
        match after {
            After::None => {}
            After::BarrierComplete(cta) => self.release_barrier(cta),
            After::Exit(cta, warp_checksum) => {
                self.stats.checksum = value::combine_checksums(self.stats.checksum, warp_checksum);
                if self.barrier.warp_exited(cta) {
                    self.release_barrier(cta);
                }
                if let Some(rc) = self.resident.iter_mut().find(|r| r.cta == cta) {
                    rc.live_warps -= 1;
                }
            }
        }
        Ok(())
    }

    /// Wake the warps of `cta` parked at its barrier.
    fn release_barrier(&mut self, cta: CtaId) {
        let Some(rc) = self.resident.iter().find(|r| r.cta == cta) else {
            return;
        };
        let nsched = self.sched.len();
        for &s in &rc.slots {
            if let Some(w) = self.warps[s.index()].as_mut().filter(|w| w.at_barrier) {
                w.at_barrier = false;
                if !w.done {
                    self.sched[s.index() % nsched].wake(s.0);
                }
            }
        }
    }

    /// Admit queued CTAs while resources allow.
    fn fill_ctas(&mut self) {
        let wpc = self.image.kernel.warps_per_cta(self.cfg.warp_size) as usize;
        let kernel_shmem = self.image.kernel.shmem_per_cta;
        while let Some(&next) = self.pending_ctas.front() {
            if self.resident.len() >= self.cfg.max_ctas_per_sm as usize {
                break;
            }
            if self.shmem_used + kernel_shmem > self.cfg.shmem_per_sm {
                break;
            }
            // Reuse a persistent scratch buffer for the candidate slot list,
            // so that a failed admission attempt does not allocate.
            self.slot_buf.clear();
            for (i, w) in self.warps.iter().enumerate() {
                if self.slot_buf.len() == wpc {
                    break;
                }
                if w.is_none() {
                    self.slot_buf.push(WarpId(i as u32));
                }
            }
            if self.slot_buf.len() < wpc {
                break;
            }
            if !self
                .manager
                .try_admit_cta(&mut self.ledger, next, &self.slot_buf)
            {
                break;
            }
            let slots = std::mem::take(&mut self.slot_buf);
            let nsched = self.sched.len();
            for (i, &slot) in slots.iter().enumerate() {
                if let Some(t) = self.trace.as_mut() {
                    t.push(TraceEvent {
                        cycle: self.stats.cycles,
                        warp: slot.0,
                        kind: TraceKind::WarpLaunch,
                    });
                }
                self.warps[slot.index()] = Some(WarpState::new(
                    slot,
                    next,
                    i as u32,
                    &self.image,
                    self.cfg.warp_size,
                ));
                self.sched[slot.index() % nsched].admit(slot.0);
                self.live_warps += 1;
            }
            self.barrier.register_cta(next, wpc as u32);
            self.resident.push(ResidentCta {
                cta: next,
                slots,
                live_warps: wpc as u32,
                shmem: kernel_shmem,
            });
            self.shmem_used += kernel_shmem;
            self.pending_ctas.pop_front();
            self.stats.ctas += 1;
            self.stats.warps += wpc as u64;
            self.probe.admitted = true;
        }
    }

    /// Retire CTAs whose warps all exited; free their resources.
    fn retire_finished_ctas(&mut self) {
        let mut retired_any = false;
        let mut i = 0;
        while i < self.resident.len() {
            if self.resident[i].live_warps == 0 {
                let rc = self.resident.swap_remove(i);
                self.manager.retire_cta(&mut self.ledger, rc.cta, &rc.slots);
                self.barrier.retire_cta(rc.cta);
                self.shmem_used -= rc.shmem;
                let nsched = self.sched.len();
                for s in &rc.slots {
                    self.warps[s.index()] = None;
                    self.sched[s.index() % nsched].retire(s.0);
                }
                retired_any = true;
            } else {
                i += 1;
            }
        }
        if retired_any {
            self.fill_ctas();
        }
    }
}

impl<M: RegisterManager + ?Sized> std::fmt::Debug for Sm<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("manager", &self.manager.name())
            .field("resident_ctas", &self.resident.len())
            .field("pending_ctas", &self.pending_ctas.len())
            .field("cycles", &self.stats.cycles)
            .finish()
    }
}
