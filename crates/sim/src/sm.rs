//! The streaming-multiprocessor cycle engine.
//!
//! Each cycle the SM: retires completed memory requests, tallies residency,
//! lets every warp scheduler pick the best candidate warp that can actually
//! issue (greedy-then-oldest by default), executes that instruction both
//! *temporally* (scoreboard, latencies, structural limits, barrier and
//! acquire semantics at the issue stage — where the paper places RegMutex's
//! allocation logic, §III-B1) and *functionally* (value layer + store
//! checksums), and finally retires CTAs whose warps all exited, admitting
//! queued CTAs into the freed resources.

use std::collections::VecDeque;
use std::sync::Arc;

use regmutex_isa::{decide, mix, ArchReg, BranchBehavior, CtaId, Kernel, LatencyClass, Op, WarpId};

use crate::barrier::BarrierUnit;
use crate::config::GpuConfig;
use crate::manager::{AcquireResult, Ledger, LedgerViolation, RegisterManager};
use crate::memory::MemoryPipe;
use crate::scheduler::SchedulerState;
use crate::simt::full_mask;
use crate::stats::SimStats;
use crate::trace::{TraceEvent, TraceKind};
use crate::value;
use crate::warp::{StallReason, WarpState};

/// A kernel plus per-PC derived tables the SM needs at issue time.
#[derive(Debug)]
pub struct KernelImage {
    /// The kernel being executed.
    pub kernel: Kernel,
    /// For every PC holding a branch: its ordinal among the kernel's
    /// branches. Behavioral decisions key on ordinals, not PCs, so that
    /// compiler transformations which only insert non-branch instructions
    /// (acquire/release injection, MOV compaction) leave control flow —
    /// and therefore checksums — unchanged.
    branch_ordinal: Vec<u32>,
}

impl KernelImage {
    /// Precompute derived tables for `kernel`.
    pub fn new(kernel: Kernel) -> Self {
        let mut ordinals = Vec::with_capacity(kernel.instrs.len());
        let mut next = 0u32;
        for i in &kernel.instrs {
            if matches!(i.op, Op::Bra { .. }) {
                ordinals.push(next);
                next += 1;
            } else {
                ordinals.push(u32::MAX);
            }
        }
        KernelImage {
            kernel,
            branch_ordinal: ordinals,
        }
    }

    /// Branch ordinal at `pc` (must be a branch).
    fn ordinal(&self, pc: u32) -> u32 {
        let o = self.branch_ordinal[pc as usize];
        debug_assert_ne!(o, u32::MAX, "ordinal queried at non-branch pc {pc}");
        o
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
    /// Minimum wake hint over every stalled candidate tried this step.
    wake: Option<u64>,
}

#[derive(Debug)]
struct ResidentCta {
    cta: CtaId,
    slots: Vec<WarpId>,
    live_warps: u32,
    shmem: u32,
}

/// One simulated streaming multiprocessor.
pub struct Sm {
    cfg: GpuConfig,
    image: Arc<KernelImage>,
    manager: Box<dyn RegisterManager>,
    /// Ownership ledger over register rows (invariant checking).
    pub ledger: Ledger,
    barrier: BarrierUnit,
    mem: MemoryPipe,
    warps: Vec<Option<WarpState>>,
    sched: Vec<SchedulerState>,
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
    /// Reusable issue-order scratch — `step` must not allocate in steady
    /// state.
    order_buf: Vec<u32>,
    /// Reusable admission scratch for `fill_ctas` (same reason).
    slot_buf: Vec<WarpId>,
    /// Incremental per-scheduler issuable-warp counts, so schedulers with
    /// nothing to do skip their slot scan entirely. Maintained at every
    /// `issuable()` transition: admission (+1), barrier park (−1), barrier
    /// release (+1), exit (−1).
    sched_ready: Vec<u32>,
    /// Resident, unfinished warps: +1 per admitted warp, −1 per exit.
    live_warps: u32,
}

impl Sm {
    /// Create an SM that will execute `ctas` (queued) with `manager`.
    pub fn new(
        cfg: GpuConfig,
        image: Arc<KernelImage>,
        manager: Box<dyn RegisterManager>,
        ctas: impl IntoIterator<Item = CtaId>,
    ) -> Self {
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
                .map(|sid| SchedulerState::new((sid..max_warps).step_by(nsched).map(|s| s as u32)))
                .collect(),
            resident: Vec::new(),
            pending_ctas: ctas.into_iter().collect(),
            shmem_used: 0,
            stats: SimStats::default(),
            last_progress: 0,
            trace: None,
            probe: StepProbe::default(),
            order_buf: Vec::with_capacity(max_warps),
            slot_buf: Vec::new(),
            sched_ready: vec![0; nsched],
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
    pub fn manager(&self) -> &dyn RegisterManager {
        self.manager.as_ref()
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
    /// corrupted register state; the simulation cannot continue.
    pub fn step(&mut self, now: u64) -> Result<(), IssueFault> {
        if self.idle() {
            return Ok(());
        }
        self.stats.step_calls += 1;
        self.probe = StepProbe::default();
        self.mem.begin_cycle(now);
        self.fill_ctas();

        let resident = u64::from(self.resident_warps());
        self.stats.resident_warp_cycles += resident;
        self.probe.resident = resident;

        let nsched = self.sched.len();
        // The order buffer lives on the SM: `step` runs every simulated
        // cycle and must not allocate in steady state.
        let mut order = std::mem::take(&mut self.order_buf);
        for sid in 0..nsched {
            debug_assert_eq!(
                self.sched_ready[sid],
                self.recount_issuable(sid),
                "incremental issuable count out of sync (scheduler {sid})"
            );
            if self.sched_ready[sid] == 0 {
                self.stats.empty_scheduler_cycles += 1;
                self.probe.empty_scheds += 1;
                continue;
            }
            let (warps, manager) = (&self.warps, &self.manager);
            self.sched[sid].issue_order(
                self.cfg.policy,
                |s| warps[s as usize].as_ref().is_some_and(WarpState::issuable),
                |s| manager.scheduling_priority(WarpId(s)),
                &mut order,
            );
            let mut first_block: Option<StallReason> = None;
            let mut issued = false;
            for &slot in &order {
                match self.try_issue(slot as usize, now) {
                    Ok(()) => {
                        self.sched[sid].last_issued = Some(slot);
                        self.sched[sid].rr_cursor = slot;
                        self.last_progress = now;
                        self.probe.issued = true;
                        issued = true;
                        break;
                    }
                    Err(Blocked::Stall { reason, wake }) => {
                        first_block.get_or_insert(reason);
                        if let Some(at) = wake {
                            self.probe.wake = Some(self.probe.wake.map_or(at, |cur| cur.min(at)));
                        }
                    }
                    Err(Blocked::Fatal(fault)) => {
                        self.order_buf = order;
                        return Err(fault);
                    }
                }
            }
            if !issued {
                if let Some(r) = first_block {
                    self.stats.note_stall(r);
                    self.probe.stalls[r.index()] += 1;
                }
            }
        }
        self.order_buf = order;

        self.retire_finished_ctas();
        self.stats.cycles = now + 1;
        self.stats.mem_requests = self.mem.total_requests;
        Ok(())
    }

    /// Recount a scheduler's issuable warps from scratch — debug cross-check
    /// of the incremental `sched_ready` bookkeeping.
    fn recount_issuable(&self, sid: usize) -> u32 {
        (sid..self.warps.len())
            .step_by(self.sched.len())
            .filter(|&slot| self.warps[slot].as_ref().is_some_and(|w| w.issuable()))
            .count() as u32
    }

    /// Attempt to issue the next instruction of the warp in `slot`.
    fn try_issue(&mut self, slot: usize, now: u64) -> Result<(), Blocked> {
        // --- Phase 1: everything that needs &mut warp -------------------
        let wid = WarpId(slot as u32);
        enum After {
            None,
            BarrierComplete(CtaId),
            Exit(CtaId, u64),
        }
        let after = {
            let image: &KernelImage = &self.image;
            let w = self.warps[slot].as_mut().expect("issuing absent warp");
            let instr = &image.kernel.instrs[w.pc as usize];

            // A scoreboard verdict found on an earlier cycle still holds
            // until its wake cycle: the pending set only grows when this
            // warp issues, the stall below returns before any manager,
            // ledger or memory call, and reconverging at an unchanged PC is
            // idempotent.
            if now < w.scoreboard_until {
                debug_assert_eq!(
                    w.scoreboard_block(instr, now),
                    Some(w.scoreboard_until),
                    "stale scoreboard verdict (warp {slot}, pc {})",
                    w.pc
                );
                return Err(Blocked::Stall {
                    reason: StallReason::Scoreboard,
                    wake: Some(w.scoreboard_until),
                });
            }

            // Reconverge masked-off lanes arriving at their rejoin point.
            let rejoined = w.simt.reconverge_at(w.pc);
            w.active_mask |= rejoined;

            // Scoreboard: RAW + WAW. A blocked warp next changes state when
            // the earliest pending write among the registers this
            // instruction touches drains — that cycle is the wake hint.
            w.drain_scoreboard(now);
            if let Some(ready) = w.scoreboard_block(instr, now) {
                w.scoreboard_until = ready;
                return Err(Blocked::Stall {
                    reason: StallReason::Scoreboard,
                    wake: Some(ready),
                });
            }

            match instr.op {
                Op::Bar => {
                    debug_assert!(w.simt.is_converged(), "barrier inside divergence");
                    w.pc += 1;
                    w.issued += 1;
                    self.stats.instructions += 1;
                    let cta = w.cta;
                    w.at_barrier = true;
                    self.sched_ready[slot % self.sched.len()] -= 1;
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
                            w.pc += 1;
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
                    w.pc += 1;
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
                    self.sched_ready[slot % self.sched.len()] -= 1;
                    self.live_warps -= 1;
                    w.issued += 1;
                    self.stats.instructions += 1;
                    self.manager.on_warp_exit(&mut self.ledger, wid);
                    if let Some(t) = self.trace.as_mut() {
                        t.push(TraceEvent {
                            cycle: now,
                            warp: wid.0,
                            kind: TraceKind::WarpExit,
                        });
                    }
                    After::Exit(w.cta, w.checksum)
                }
                Op::Bra { target, behavior } => {
                    let ord = image.ordinal(w.pc);
                    match behavior {
                        BranchBehavior::Loop { trips } => {
                            let key = w.warp_key;
                            let seed = image.kernel.seed;
                            let remaining = w.loop_counters.entry(ord).or_insert_with(|| {
                                trips.resolve(key, mix(seed, u64::from(ord))).max(1) - 1
                            });
                            if *remaining > 0 {
                                *remaining -= 1;
                                w.pc = target;
                            } else {
                                w.loop_counters.remove(&ord);
                                w.pc += 1;
                            }
                        }
                        BranchBehavior::If { taken_permille } => {
                            let occ = w.occurrences.entry(ord).or_insert(0);
                            *occ += 1;
                            let taken = decide(
                                taken_permille,
                                w.warp_key ^ mix(u64::from(ord), 0xB4A),
                                u64::from(*occ),
                            );
                            w.pc = if taken { target } else { w.pc + 1 };
                        }
                        BranchBehavior::Divergent { taken_permille } => {
                            let occ = w.occurrences.entry(ord).or_insert(0);
                            *occ += 1;
                            let occ = *occ;
                            let mut taken_mask = 0u64;
                            for lane in 0..self.cfg.warp_size as u64 {
                                let bit = 1u64 << lane;
                                if w.active_mask & bit != 0
                                    && decide(
                                        taken_permille,
                                        mix(w.warp_key, lane),
                                        mix(u64::from(ord), u64::from(occ)),
                                    )
                                {
                                    taken_mask |= bit;
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
                        }
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
                            // RFV admission is time-dependent (spill
                            // trigger counts stalled cycles): retry every
                            // cycle, which disables skipping.
                            wake: Some(now + 1),
                        });
                    }
                    // Validate every operand's physical mapping + ownership,
                    // and (when bank modelling is on) count operand-collector
                    // bank conflicts among the source rows.
                    let mut src_banks: [Option<u32>; 3] = [None; 3];
                    let mut bank_extra = 0u64;
                    for (i, reg) in instr.srcs.iter().chain(instr.dst.iter()).enumerate() {
                        let Some(phys) = self.manager.translate(wid, *reg) else {
                            return Err(Blocked::Fatal(IssueFault::NoMapping {
                                manager: self.manager.name(),
                                warp: wid,
                                reg: *reg,
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
                        if self.cfg.reg_banks > 0 && i < instr.srcs.len() {
                            let bank = phys.0 % self.cfg.reg_banks;
                            if src_banks[..i.min(3)].iter().flatten().any(|&b| b == bank) {
                                bank_extra += 1; // gather over an extra cycle
                            }
                            if i < 3 {
                                src_banks[i] = Some(bank);
                            }
                        }
                    }
                    match instr.op.latency_class() {
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
                            match instr.op {
                                Op::Ld(_) => {
                                    let addr = w.read(instr.srcs[0].0);
                                    let v = value::load_value(addr);
                                    let dst = instr.dst.expect("load has dst");
                                    w.write(dst.0, v);
                                    w.set_pending(dst.0, ready + bank_extra);
                                }
                                Op::St(_) => {
                                    let addr = w.read(instr.srcs[0].0);
                                    let v = w.read(instr.srcs[1].0);
                                    w.checksum = value::fold_store(w.checksum, addr, v);
                                }
                                _ => unreachable!(),
                            }
                        }
                        LatencyClass::SharedMem => {
                            let ready = now + u64::from(self.cfg.shmem_latency) + bank_extra;
                            let salt = mix(u64::from(w.cta.0), 0x5A4E_D000);
                            match instr.op {
                                Op::Ld(_) => {
                                    let addr = w.read(instr.srcs[0].0) ^ salt;
                                    let v = value::load_value(addr);
                                    let dst = instr.dst.expect("load has dst");
                                    w.write(dst.0, v);
                                    w.set_pending(dst.0, ready);
                                }
                                Op::St(_) => {
                                    let addr = w.read(instr.srcs[0].0) ^ salt;
                                    let v = w.read(instr.srcs[1].0);
                                    w.checksum = value::fold_store(w.checksum, addr, v);
                                }
                                _ => unreachable!(),
                            }
                        }
                        LatencyClass::Alu | LatencyClass::Sfu => {
                            let lat = if instr.op.latency_class() == LatencyClass::Sfu {
                                self.cfg.sfu_latency
                            } else {
                                self.cfg.alu_latency
                            };
                            // Fixed-size operand buffer (instructions carry
                            // at most 3 sources) — no per-issue allocation.
                            let mut srcs = [0u64; 3];
                            let n = instr.srcs.len().min(3);
                            for (buf, s) in srcs.iter_mut().zip(instr.srcs.iter()) {
                                *buf = w.read(s.0);
                            }
                            let v = value::eval(instr, &srcs[..n]);
                            if let Some(d) = instr.dst {
                                w.write(d.0, v);
                                w.set_pending(d.0, now + u64::from(lat) + bank_extra);
                            }
                        }
                        LatencyClass::Control => unreachable!("handled above"),
                    }
                    self.stats.reg_reads += instr.srcs.len() as u64;
                    self.stats.reg_writes += u64::from(instr.dst.is_some());
                    self.manager.post_issue(&mut self.ledger, wid, instr, w.pc);
                    if let Some(t) = self.trace.as_mut() {
                        t.push(TraceEvent {
                            cycle: now,
                            warp: wid.0,
                            kind: TraceKind::Issue { pc: w.pc },
                        });
                    }
                    w.pc += 1;
                    w.issued += 1;
                    self.stats.instructions += 1;
                    After::None
                }
            }
        };

        // --- Phase 2: effects that touch other warps / CTA records -------
        match after {
            After::None => {}
            After::BarrierComplete(cta) => {
                if let Some(rc) = self.resident.iter().find(|r| r.cta == cta) {
                    for &s in &rc.slots {
                        if let Some(w) = self.warps[s.index()].as_mut() {
                            if w.at_barrier {
                                w.at_barrier = false;
                                if !w.done {
                                    self.sched_ready[s.index() % self.sched.len()] += 1;
                                }
                            }
                        }
                    }
                }
            }
            After::Exit(cta, warp_checksum) => {
                self.stats.checksum = value::combine_checksums(self.stats.checksum, warp_checksum);
                if self.barrier.warp_exited(cta) {
                    if let Some(rc) = self.resident.iter().find(|r| r.cta == cta) {
                        for &s in &rc.slots {
                            if let Some(w) = self.warps[s.index()].as_mut() {
                                if w.at_barrier {
                                    w.at_barrier = false;
                                    if !w.done {
                                        self.sched_ready[s.index() % self.sched.len()] += 1;
                                    }
                                }
                            }
                        }
                    }
                }
                if let Some(rc) = self.resident.iter_mut().find(|r| r.cta == cta) {
                    rc.live_warps -= 1;
                }
            }
        }
        Ok(())
    }

    /// Admit queued CTAs while resources allow.
    fn fill_ctas(&mut self) {
        let wpc = self.image.kernel.warps_per_cta(self.cfg.warp_size) as usize;
        let kernel_shmem = self.image.kernel.shmem_per_cta;
        let regs = self.image.kernel.regs_per_thread;
        while let Some(&next) = self.pending_ctas.front() {
            if self.resident.len() >= self.cfg.max_ctas_per_sm as usize {
                break;
            }
            if self.shmem_used + kernel_shmem > self.cfg.shmem_per_sm {
                break;
            }
            // Reuse a persistent scratch buffer for the candidate slot list:
            // a failed admission attempt runs every cycle while CTAs queue,
            // and must not allocate on that hot path.
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
            let fm = full_mask(self.cfg.warp_size);
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
                    self.image.kernel.seed,
                    regs,
                    fm,
                ));
                self.sched_ready[slot.index() % nsched] += 1;
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

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("manager", &self.manager.name())
            .field("resident_ctas", &self.resident.len())
            .field("pending_ctas", &self.pending_ctas.len())
            .field("cycles", &self.stats.cycles)
            .finish()
    }
}
