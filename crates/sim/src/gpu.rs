//! Whole-device simulation loop.

use std::sync::Arc;

use regmutex_isa::{ArchReg, CtaId, Kernel, ValidateKernelError, WarpId};

use crate::config::{GpuConfig, LaunchConfig};
use crate::fault::{FaultInjector, FaultLog, FaultPlan};
use crate::manager::{LedgerViolation as Violation, RegisterManager};
use crate::sm::{IssueFault, KernelImage, Shortfall, Sm};
use crate::stats::SimStats;

/// Fatal simulation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The kernel failed structural validation. Checked in every build
    /// profile: release harness runs must reject invalid kernels rather
    /// than silently simulating garbage.
    InvalidKernel(ValidateKernelError),
    /// No instruction issued device-wide for an implausibly long interval:
    /// the configuration deadlocked (e.g. an unsatisfiable acquire).
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Last cycle with progress.
        last_progress: u64,
        /// Simulated SM the diagnostics below were captured from: the
        /// non-idle SM with the *oldest* progress (ties to the lowest id).
        /// With uneven CTA tails (`grid_ctas % num_sms != 0`) the simulated
        /// SMs do not run identical workloads, so the snapshot names the SM
        /// that has been stuck longest rather than an arbitrary one.
        sm_id: u32,
        /// Warps blocked at an `acq.es` when the detector fired.
        blocked_at_acquire: Vec<u32>,
        /// Warps holding their extended set (SRP occupancy) at that point.
        srp_holders: Vec<u32>,
    },
    /// The absolute cycle bound was exceeded.
    WatchdogExpired {
        /// The bound.
        limit: u64,
    },
    /// The ownership ledger caught a register access or SRP grant that
    /// conflicts with the recorded allocation state.
    LedgerViolation {
        /// Technique name of the offending manager.
        manager: &'static str,
        /// The specific ownership violation.
        violation: Violation,
        /// Warp whose access tripped the check.
        warp: WarpId,
        /// Program counter of the faulting instruction.
        pc: u32,
        /// Cycle at which the violation was caught.
        cycle: u64,
    },
    /// A manager had no physical mapping for an architected register.
    NoMapping {
        /// Technique name of the offending manager.
        manager: &'static str,
        /// Warp whose access tripped the check.
        warp: WarpId,
        /// The unmapped architected register.
        reg: ArchReg,
        /// Program counter of the faulting instruction.
        pc: u32,
        /// Cycle at which the missing mapping was caught.
        cycle: u64,
    },
    /// Not one CTA fits an empty SM, so the kernel can never start
    /// (checked at launch, on the first cycle).
    NoCtaFits {
        /// Technique name of the refusing manager.
        manager: &'static str,
        /// The resource one CTA needs more of than an SM has, if any.
        short: Option<Shortfall>,
    },
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::InvalidKernel(e) => write!(f, "invalid kernel: {e}"),
            SimError::Deadlock {
                cycle,
                last_progress,
                sm_id,
                blocked_at_acquire,
                srp_holders,
            } => write!(
                f,
                "no progress since cycle {last_progress} (watchdog fired at {cycle}): deadlock; \
                 on SM {sm_id}, warps blocked at acq.es: {blocked_at_acquire:?}, \
                 SRP held by: {srp_holders:?}"
            ),
            SimError::WatchdogExpired { limit } => {
                write!(f, "simulation exceeded {limit} cycles")
            }
            SimError::LedgerViolation {
                manager,
                violation,
                warp,
                pc,
                cycle,
            } => write!(
                f,
                "{manager}: ledger violation at cycle {cycle} ({warp}, pc {pc}): {violation}"
            ),
            SimError::NoMapping {
                manager,
                warp,
                reg,
                pc,
                cycle,
            } => write!(
                f,
                "{manager}: no mapping for {reg} of {warp} at pc {pc} (cycle {cycle})"
            ),
            SimError::NoCtaFits {
                manager,
                short: Some(short),
            } => write!(f, "{manager}: no CTA fits an empty SM: {short}"),
            SimError::NoCtaFits {
                manager,
                short: None,
            } => write!(f, "{manager} admits no CTA on an empty SM"),
        }
    }
}

impl std::error::Error for SimError {}

/// Run `kernel` on `cfg` with per-SM register managers produced by
/// `manager_factory` (one call per simulated SM, plus one for each SM a
/// fault or deadlock verdict re-runs). The loop is generic over the
/// manager: a factory of a concrete manager type runs with static
/// dispatch, one of `Box<dyn RegisterManager>` through the trait object.
///
/// CTAs are split evenly across the device's `num_sms`; only
/// `cfg.simulated_sms` of them are actually simulated (SM-local effects —
/// which is all RegMutex changes — are identical across SMs, so simulating
/// one SM with its share of the grid reproduces per-SM behaviour).
///
/// # Errors
///
/// [`SimError::InvalidKernel`] if the kernel fails structural validation,
/// [`SimError::NoCtaFits`] if not one CTA fits an SM at launch,
/// [`SimError::Deadlock`] if no instruction issues device-wide for longer
/// than a conservative bound, or [`SimError::WatchdogExpired`] at
/// `cfg.watchdog_cycles`.
pub fn run_kernel<M: RegisterManager + ?Sized>(
    cfg: &GpuConfig,
    kernel: &Kernel,
    launch: LaunchConfig,
    mut manager_factory: impl FnMut(u32) -> Box<M> + Send,
) -> Result<SimStats, SimError> {
    run_inner(
        cfg,
        kernel,
        launch,
        |sm, _| manager_factory(sm),
        false,
        None,
    )
    .map(|(stats, _)| stats)
}

/// Like [`run_kernel`], but records issue-stage [`crate::TraceEvent`]s on the first
/// simulated SM and returns them with the stats (see
/// [`render_timeline`](crate::trace::render_timeline)).
///
/// # Errors
///
/// Same as [`run_kernel`].
pub fn run_kernel_traced(
    cfg: &GpuConfig,
    kernel: &Kernel,
    launch: LaunchConfig,
    mut manager_factory: impl FnMut(u32) -> Box<dyn RegisterManager> + Send,
) -> Result<(SimStats, Vec<crate::trace::TraceEvent>), SimError> {
    run_inner(cfg, kernel, launch, |sm, _| manager_factory(sm), true, None)
}

/// Like [`run_kernel`], but wraps every SM's manager in a
/// [`FaultInjector`] executing `plan`, and applies the plan's
/// memory-latency spikes to the memory pipes. What the injectors actually
/// did is recorded into `log`, which stays readable even when the run ends
/// in an error — the channel chaos campaigns use to distinguish *detected*
/// from *never triggered*.
///
/// # Errors
///
/// Same as [`run_kernel`], plus [`SimError::LedgerViolation`] /
/// [`SimError::NoMapping`] when the safety net catches the injected
/// corruption.
pub fn run_kernel_faulted(
    cfg: &GpuConfig,
    kernel: &Kernel,
    launch: LaunchConfig,
    mut manager_factory: impl FnMut(u32) -> Box<dyn RegisterManager> + Send,
    plan: &FaultPlan,
    log: Arc<FaultLog>,
) -> Result<SimStats, SimError> {
    let max_warps = cfg.max_warps_per_sm;
    let factory = |sm: u32, log: &Arc<FaultLog>| -> Box<dyn RegisterManager> {
        Box::new(FaultInjector::new(
            manager_factory(sm),
            plan.clone(),
            Arc::clone(log),
            max_warps,
        ))
    };
    run_inner(cfg, kernel, launch, factory, false, Some((plan, &log))).map(|(stats, _)| stats)
}

/// Map an SM's [`IssueFault`] to the public error, stamped with the cycle
/// it fired on.
fn fault_error(fault: IssueFault, cycle: u64) -> SimError {
    match fault {
        IssueFault::Ledger {
            manager,
            violation,
            warp,
            pc,
        } => SimError::LedgerViolation {
            manager,
            violation,
            warp,
            pc,
            cycle,
        },
        IssueFault::NoMapping {
            manager,
            warp,
            reg,
            pc,
        } => SimError::NoMapping {
            manager,
            warp,
            reg,
            pc,
            cycle,
        },
        IssueFault::NoCtaFits { manager, short } => SimError::NoCtaFits { manager, short },
    }
}

/// The deadlock verdict, with diagnostics snapshotted from the non-idle SM
/// with the oldest progress (ties to the lowest id). Every SM must have
/// [`stopped_at`](SmRun::stopped_at) `cycle`.
fn deadlock_error<M: RegisterManager + ?Sized>(runs: &[SmRun<M>], cycle: u64) -> SimError {
    let last_progress = runs.iter().map(|r| r.sm.last_progress).max().unwrap_or(0);
    let (sm_id, run) = runs
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.sm.idle())
        .min_by_key(|&(id, r)| (r.sm.last_progress, id))
        .expect("the no-progress detector only fires while an SM is busy");
    let (blocked_at_acquire, srp_holders) = run.sm.stall_snapshot();
    SimError::Deadlock {
        cycle,
        last_progress,
        sm_id: sm_id as u32,
        blocked_at_acquire,
        srp_holders,
    }
}

/// One SM running on its own clock.
struct SmRun<M: RegisterManager + ?Sized> {
    sm: Sm<M>,
    /// What this SM's injector did (unused without a fault plan).
    log: Arc<FaultLog>,
    /// Next cycle to step.
    now: u64,
    /// The SM's next wake event after a skippable step: it fast-forwards
    /// there before stepping again, even across a window end.
    skip_to: u64,
    /// How the run ended: the cycle the SM fell idle on, or its fault and
    /// the cycle it fired on.
    end: Option<Result<u64, (u64, IssueFault)>>,
    /// Closed cycle ranges, already passed, in which this SM alone trips
    /// the no-progress detector: more than `stall_limit` cycles since its
    /// last issue.
    quiet: Vec<(u64, u64)>,
}

impl<M: RegisterManager + ?Sized> SmRun<M> {
    /// The recorded quiet ranges, then the one that starts a stall limit
    /// after the SM's last issue and lasts until it issues again.
    fn quiet_ranges(&self, stall_limit: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let open = (self.sm.last_progress + stall_limit + 1, u64::MAX);
        self.quiet.iter().copied().chain(std::iter::once(open))
    }

    /// Whether the SM is in the state the lockstep loop left it in after
    /// stepping `cycle`: it stepped (or skipped) exactly through `cycle`,
    /// or it fell idle or faulted no later.
    fn stopped_at(&self, cycle: u64) -> bool {
        match self.end {
            Some(Ok(idle)) => idle <= cycle,
            Some(Err((fault, _))) => fault <= cycle,
            None => self.now == cycle + 1,
        }
    }
}

/// How a whole-device run ends, judged from the per-SM runs.
enum Verdict {
    /// The last SM fell idle on this cycle.
    Done(u64),
    /// The earliest fault fired on this cycle.
    Fault(u64),
    /// The device-wide no-progress detector fired on this cycle.
    Deadlock(u64),
    /// The absolute cycle bound ran out.
    Watchdog,
}

fn run_inner<M: RegisterManager + ?Sized>(
    cfg: &GpuConfig,
    kernel: &Kernel,
    launch: LaunchConfig,
    mut manager_factory: impl FnMut(u32, &Arc<FaultLog>) -> Box<M>,
    traced: bool,
    faults: Option<(&FaultPlan, &Arc<FaultLog>)>,
) -> Result<(SimStats, Vec<crate::trace::TraceEvent>), SimError> {
    kernel.validate().map_err(SimError::InvalidKernel)?;
    let image = Arc::new(KernelImage::new(kernel.clone()));
    let simulated = cfg.simulated_sms.min(cfg.num_sms).max(1);
    let mut new_run = |sm_id: u32| -> SmRun<M> {
        let first: u32 = (0..sm_id).map(|id| launch.ctas_for_sm(id, cfg)).sum();
        let ctas = (first..first + launch.ctas_for_sm(sm_id, cfg)).map(CtaId);
        let log = Arc::new(FaultLog::new());
        let manager = manager_factory(sm_id, &log);
        SmRun {
            sm: Sm::new(cfg.clone(), Arc::clone(&image), manager, ctas),
            log,
            now: 0,
            skip_to: 0,
            end: None,
            quiet: Vec::new(),
        }
    };

    let mut runs: Vec<SmRun<M>> = (0..simulated).map(&mut new_run).collect();
    if traced {
        runs[0].sm.enable_tracing();
    }
    // Tracing wants an event-per-cycle view (per-cycle acquire-stall
    // events), so the fast-forward path is disabled for traced runs.
    let skipping = cfg.cycle_skipping && !traced;
    let plan = faults.map(|(plan, _)| plan);
    let stall_limit = cfg.stall_limit();
    let watchdog = cfg.watchdog_cycles;

    let (last_cycle, error) = match run_device(&mut runs, stall_limit, watchdog, skipping, plan) {
        Verdict::Done(cycle) => (cycle, None),
        Verdict::Watchdog => (
            watchdog.saturating_sub(1),
            Some(SimError::WatchdogExpired { limit: watchdog }),
        ),
        verdict @ (Verdict::Fault(cycle) | Verdict::Deadlock(cycle)) => {
            // SMs that ran past the verdict cycle are rebuilt and re-run
            // exactly through it, so the snapshot and the log show what
            // the lockstep loop would have shown.
            for (sm_id, run) in runs.iter_mut().enumerate() {
                if !run.stopped_at(cycle) {
                    *run = new_run(sm_id as u32);
                    run_sm(run, cycle + 1, stall_limit, skipping, plan);
                }
            }
            let error = match verdict {
                Verdict::Deadlock(_) => deadlock_error(&runs, cycle),
                _ => runs
                    .iter()
                    .find_map(|r| match r.end {
                        Some(Err((_, fault))) => Some(fault_error(fault, cycle)),
                        _ => None,
                    })
                    .expect("an SM faulted on the verdict cycle"),
            };
            (cycle, Some(error))
        }
    };
    if let Some((plan, log)) = faults {
        for run in &runs {
            log.absorb(&run.log);
        }
        note_first_spike(plan, last_cycle, log);
    }
    if let Some(error) = error {
        return Err(error);
    }

    let mut total = SimStats::default();
    for run in &runs {
        total.merge(&run.sm.stats);
        total.spills += run.sm.manager().spill_count();
    }
    let trace = runs[0].sm.take_trace();
    Ok((total, trace))
}

/// Log the first cycle of a memory-latency spike, if the device ran that
/// far: the lockstep loop noted it once, device-wide, on the first cycle it
/// stepped with extra latency.
fn note_first_spike(plan: &FaultPlan, last_cycle: u64, log: &FaultLog) {
    let mut at = Some(0);
    while let Some(cycle) = at.filter(|&c| c <= last_cycle) {
        if plan.mem_extra_at(cycle) > 0 {
            log.note(cycle);
            return;
        }
        at = plan.next_mem_change_after(cycle);
    }
}

/// The device loop. SMs share no simulation state, so each one runs on its
/// own clock ([`run_sm`]), one window of at most `stall_limit` cycles at a
/// time; after every window [`judge`] folds the per-SM runs into the
/// verdict the lockstep loop (every SM stepped on one shared clock) would
/// have reached.
///
/// A window also ends on the first cycle at which every SM could be quiet
/// at once, so a deadlock is judged without running the SMs past it; and
/// once an SM faults, the SMs after it in the window stop right after the
/// fault cycle.
fn run_device<M: RegisterManager + ?Sized>(
    runs: &mut [SmRun<M>],
    stall_limit: u64,
    watchdog: u64,
    skipping: bool,
    plan: Option<&FaultPlan>,
) -> Verdict {
    let mut horizon = 0u64;
    loop {
        horizon = (horizon + stall_limit)
            .min(first_all_quiet(runs, stall_limit).saturating_add(1))
            .min(watchdog.max(1));
        let mut stop = horizon;
        for run in runs.iter_mut() {
            run_sm(run, stop, stall_limit, skipping, plan);
            if let Some(Err((cycle, _))) = run.end {
                stop = stop.min(cycle + 1);
            }
        }
        if let Some(verdict) = judge(runs, horizon, stall_limit) {
            return verdict;
        }
        if horizon >= watchdog {
            return Verdict::Watchdog;
        }
    }
}

/// Step one SM from its own clock up to (not including) `horizon`.
///
/// Event-driven fast-forward: when the SM just executed a provably
/// repeatable no-issue step ([`Sm::can_skip`]), the cycles up to its next
/// wake event would replay it byte-for-byte, so their stat deltas are
/// folded in multiplicatively and the clock jumps. Jumps land on
/// memory-spike edges; one that crosses the horizon stops there and
/// resumes in the next window without a step. Every issue that ends a
/// spell of more than `stall_limit` quiet cycles records that spell.
fn run_sm<M: RegisterManager + ?Sized>(
    run: &mut SmRun<M>,
    horizon: u64,
    stall_limit: u64,
    skipping: bool,
    plan: Option<&FaultPlan>,
) {
    let sm = &mut run.sm;
    while run.end.is_none() && run.now < horizon {
        if run.skip_to > run.now {
            let target = run.skip_to.min(horizon);
            sm.skip_ahead(target - run.now);
            run.now = target;
            continue;
        }
        let now = run.now;
        if let Some(plan) = plan {
            sm.set_mem_extra_latency(plan.mem_extra_at(now));
        }
        let quiet_from = sm.last_progress + stall_limit + 1;
        if let Err(fault) = sm.step(now) {
            run.end = Some(Err((now, fault)));
            return;
        }
        if sm.last_progress == now && now > quiet_from {
            run.quiet.push((quiet_from, now - 1));
        }
        if sm.idle() {
            run.end = Some(Ok(now));
            return;
        }
        run.now = now + 1;
        if skipping && sm.can_skip() {
            run.skip_to = sm.next_event_cycle();
            if let Some(edge) = plan.and_then(|p| p.next_mem_change_after(now)) {
                run.skip_to = run.skip_to.min(edge);
            }
        }
    }
}

/// The lockstep verdict, if the per-SM runs (each stepped up to `horizon`)
/// already decide it. In the lockstep loop's order of checks on one cycle:
/// the earliest fault (the lowest SM id on ties), completion once every SM
/// fell idle, and the first cycle that lies in a quiet range of every SM
/// while one SM is still busy.
fn judge<M: RegisterManager + ?Sized>(
    runs: &[SmRun<M>],
    horizon: u64,
    stall_limit: u64,
) -> Option<Verdict> {
    let mut fault: Option<u64> = None;
    let mut last_idle: Option<u64> = Some(0);
    for run in runs {
        match run.end {
            Some(Ok(cycle)) => last_idle = last_idle.map(|c| c.max(cycle)),
            Some(Err((cycle, _))) => {
                fault = Some(fault.map_or(cycle, |f| f.min(cycle)));
                last_idle = None;
            }
            None => last_idle = None,
        }
    }
    let before = horizon
        .min(fault.unwrap_or(u64::MAX))
        .min(last_idle.unwrap_or(u64::MAX));
    let quiet = first_all_quiet(runs, stall_limit);
    if quiet < before {
        return Some(Verdict::Deadlock(quiet));
    }
    fault.map(Verdict::Fault).or(last_idle.map(Verdict::Done))
}

/// The first cycle that lies in a quiet range of every SM. Issues only
/// ever shrink quiet ranges, so no later run can move it earlier.
fn first_all_quiet<M: RegisterManager + ?Sized>(runs: &[SmRun<M>], stall_limit: u64) -> u64 {
    let mut cycle = 0;
    'search: loop {
        for run in runs {
            let (start, _) = run
                .quiet_ranges(stall_limit)
                .find(|&(_, end)| end >= cycle)
                .expect("the last quiet range never ends");
            if start > cycle {
                cycle = start;
                continue 'search;
            }
        }
        return cycle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{AcquireResult, Ledger, StaticManager};
    use regmutex_isa::{ArchReg, KernelBuilder, PhysReg, TripCount};
    use std::sync::Mutex;

    fn r(i: u16) -> ArchReg {
        ArchReg(i)
    }

    fn run(kernel: &Kernel, cfg: &GpuConfig, ctas: u32) -> SimStats {
        let regs = kernel.regs_per_thread;
        run_kernel(cfg, kernel, LaunchConfig::new(ctas), |_| {
            Box::new(StaticManager::new(cfg, regs))
        })
        .expect("simulation completes")
    }

    #[test]
    fn straight_line_kernel_completes() {
        let mut b = KernelBuilder::new("k");
        b.threads_per_cta(64);
        b.movi(r(0), 1).movi(r(1), 2).iadd(r(2), r(0), r(1));
        b.st_global(r(0), r(2)).exit();
        let k = b.build().unwrap();
        let cfg = GpuConfig::test_tiny();
        let stats = run(&k, &cfg, 2);
        assert_eq!(stats.ctas, 2);
        assert_eq!(stats.warps, 4);
        // 2 CTAs * 2 warps * 5 instructions.
        assert_eq!(stats.instructions, 20);
        assert!(stats.cycles > 0);
        assert_ne!(stats.checksum, 0);
    }

    #[test]
    fn dependent_chain_respects_latency() {
        // A chain of dependent adds: cycles must be at least
        // chain_length * alu_latency for a single warp.
        let mut b = KernelBuilder::new("chain");
        b.threads_per_cta(32);
        b.movi(r(0), 1);
        for _ in 0..10 {
            b.iadd(r(0), r(0), r(0));
        }
        b.exit();
        let k = b.build().unwrap();
        let cfg = GpuConfig::test_tiny();
        let stats = run(&k, &cfg, 1);
        assert!(
            stats.cycles >= 10 * u64::from(cfg.alu_latency),
            "cycles {} too low",
            stats.cycles
        );
    }

    #[test]
    fn independent_instructions_pipeline() {
        // Independent adds issue back-to-back: far fewer cycles than the
        // dependent chain.
        let mut dep = KernelBuilder::new("dep");
        dep.threads_per_cta(32);
        dep.movi(r(0), 1);
        for _ in 0..20 {
            dep.iadd(r(0), r(0), r(0));
        }
        dep.exit();

        let mut ind = KernelBuilder::new("ind");
        ind.threads_per_cta(32);
        ind.movi(r(0), 1);
        for i in 0..20u16 {
            ind.iadd(r(1 + i % 8), r(0), r(0));
        }
        ind.exit();

        let cfg = GpuConfig::test_tiny();
        let dep_stats = run(&dep.build().unwrap(), &cfg, 1);
        let ind_stats = run(&ind.build().unwrap(), &cfg, 1);
        assert!(ind_stats.cycles < dep_stats.cycles);
    }

    #[test]
    fn loop_trip_counts_multiply_instructions() {
        let mut b = KernelBuilder::new("loop");
        b.threads_per_cta(32);
        b.movi(r(0), 1);
        let top = b.here();
        b.iadd(r(1), r(0), r(0));
        b.bra_loop(top, TripCount::Fixed(5));
        b.exit();
        let k = b.build().unwrap();
        let cfg = GpuConfig::test_tiny();
        let stats = run(&k, &cfg, 1);
        // movi + 5*(iadd+bra) + exit = 12 per warp.
        assert_eq!(stats.instructions, 12);
    }

    #[test]
    fn barrier_synchronizes_whole_cta() {
        let mut b = KernelBuilder::new("bar");
        b.threads_per_cta(64); // 2 warps
        b.movi(r(0), 7);
        b.bar();
        b.st_global(r(0), r(0));
        b.exit();
        let k = b.build().unwrap();
        let cfg = GpuConfig::test_tiny();
        let stats = run(&k, &cfg, 1);
        assert_eq!(stats.instructions, 8);
    }

    #[test]
    fn divergent_branch_executes_both_paths() {
        let mut b = KernelBuilder::new("div");
        b.threads_per_cta(32);
        b.movi(r(0), 3);
        let skip = b.new_label();
        b.bra_div(skip, 500, None);
        b.iadd(r(1), r(0), r(0)); // only non-taken lanes
        b.place(skip);
        b.st_global(r(0), r(0));
        b.exit();
        let k = b.build().unwrap();
        let cfg = GpuConfig::test_tiny();
        let stats = run(&k, &cfg, 1);
        // With p=500 over 32 lanes, a split is overwhelmingly likely: the
        // body executes once with a partial mask; instruction count is the
        // full path (divergence costs mask bookkeeping, not extra instrs
        // here because the body is on one side only).
        assert_eq!(stats.instructions, 5);
    }

    #[test]
    fn memory_latency_dominates_single_warp() {
        let mut b = KernelBuilder::new("mem");
        b.threads_per_cta(32);
        b.movi(r(0), 64);
        b.ld_global(r(1), r(0));
        b.iadd(r(2), r(1), r(1)); // depends on the load
        b.exit();
        let k = b.build().unwrap();
        let cfg = GpuConfig::test_tiny();
        let stats = run(&k, &cfg, 1);
        assert!(stats.cycles >= u64::from(cfg.gmem_latency));
        assert_eq!(stats.mem_requests, 1);
    }

    #[test]
    fn more_warps_hide_memory_latency() {
        // Memory-bound kernel; throughput should improve with more CTAs
        // resident (classic occupancy effect the paper exploits).
        let mut b = KernelBuilder::new("mem");
        b.threads_per_cta(32);
        b.movi(r(0), 1);
        let top = b.here();
        b.ld_global(r(1), r(0));
        b.iadd(r(0), r(1), r(0));
        b.bra_loop(top, TripCount::Fixed(8));
        b.exit();
        let k = b.build().unwrap();
        let cfg = GpuConfig::test_tiny();
        let one = run(&k, &cfg, 1);
        let four = run(&k, &cfg, 4);
        let cpc_one = one.cycles as f64; // 1 CTA
        let cpc_four = four.cycles as f64 / 4.0; // amortized per CTA
        assert!(
            cpc_four < cpc_one * 0.7,
            "per-CTA cycles {cpc_four} vs {cpc_one}: latency not hidden"
        );
    }

    #[test]
    fn checksum_is_deterministic() {
        let mut b = KernelBuilder::new("det");
        b.threads_per_cta(64);
        b.movi(r(0), 5)
            .ld_global(r(1), r(0))
            .st_global(r(1), r(1))
            .exit();
        let k = b.build().unwrap();
        let cfg = GpuConfig::test_tiny();
        let a = run(&k, &cfg, 3);
        let b2 = run(&k, &cfg, 3);
        assert_eq!(a.checksum, b2.checksum);
        assert_eq!(a.cycles, b2.cycles);
    }

    #[test]
    fn checksum_independent_of_scheduler_policy() {
        let mut b = KernelBuilder::new("pol");
        b.threads_per_cta(64);
        b.movi(r(0), 5);
        let top = b.here();
        b.ld_global(r(1), r(0));
        b.iadd(r(0), r(1), r(0));
        b.st_global(r(0), r(1));
        b.bra_loop(top, TripCount::PerWarp { base: 2, spread: 3 });
        b.exit();
        let k = b.build().unwrap();
        let mut cfg = GpuConfig::test_tiny();
        let gto = run(&k, &cfg, 3);
        cfg.policy = crate::config::SchedulerPolicy::Lrr;
        let lrr = run(&k, &cfg, 3);
        assert_eq!(gto.checksum, lrr.checksum);
    }

    #[test]
    fn invalid_kernel_rejected_in_all_profiles() {
        // No exit, empty body: structurally invalid. Must surface as a
        // proper error (not a debug-only assertion) so release harness
        // builds cannot silently simulate garbage.
        let k = Kernel {
            name: "empty".into(),
            instrs: Vec::new(),
            regs_per_thread: 0,
            shmem_per_cta: 0,
            threads_per_cta: 32,
            seed: 0,
        };
        let cfg = GpuConfig::test_tiny();
        let res = run_kernel(&cfg, &k, LaunchConfig::new(1), |_| {
            Box::new(StaticManager::new(&cfg, 0))
        });
        assert!(matches!(res, Err(SimError::InvalidKernel(_))), "{res:?}");
    }

    /// The baseline manager, broken three ways: the first `stalls` acquire
    /// attempts stall (and a manager with stalls is never steady, so the SM
    /// ticks through them), only the first `grants` acquires succeed
    /// (every later one stalls forever), and with a `fault_log` every
    /// register translation fails, so the SM faults on its first register
    /// access after recording `name` in the log.
    struct Broken {
        inner: StaticManager,
        name: &'static str,
        stalls: u64,
        attempts: u64,
        grants: u32,
        fault_log: Option<Arc<Mutex<Vec<&'static str>>>>,
    }

    impl Broken {
        fn new(cfg: &GpuConfig, k: &Kernel, name: &'static str, grants: u32) -> Self {
            Broken {
                inner: StaticManager::new(cfg, k.regs_per_thread),
                name,
                stalls: 0,
                attempts: 0,
                grants,
                fault_log: None,
            }
        }
    }

    impl RegisterManager for Broken {
        fn name(&self) -> &'static str {
            self.name
        }
        fn try_admit_cta(&mut self, l: &mut Ledger, c: CtaId, s: &[WarpId]) -> bool {
            self.inner.try_admit_cta(l, c, s)
        }
        fn retire_cta(&mut self, l: &mut Ledger, c: CtaId, s: &[WarpId]) {
            self.inner.retire_cta(l, c, s)
        }
        fn try_acquire(&mut self, l: &mut Ledger, w: WarpId) -> AcquireResult {
            self.attempts += 1;
            if self.attempts <= self.stalls {
                return AcquireResult::Stalled;
            }
            if self.grants == 0 {
                return AcquireResult::Stalled;
            }
            self.grants -= 1;
            self.inner.try_acquire(l, w)
        }
        fn release(&mut self, l: &mut Ledger, w: WarpId) {
            self.inner.release(l, w)
        }
        fn translate(&self, w: WarpId, r: ArchReg) -> Option<PhysReg> {
            match &self.fault_log {
                Some(log) => {
                    log.lock().unwrap().push(self.name);
                    None
                }
                None => self.inner.translate(w, r),
            }
        }
        fn on_warp_exit(&mut self, l: &mut Ledger, w: WarpId) {
            self.inner.on_warp_exit(l, w)
        }
        fn steady(&self) -> bool {
            self.stalls == 0 && self.inner.steady()
        }
    }

    const SM_NAMES: [&str; 8] = ["sm0", "sm1", "sm2", "sm3", "sm4", "sm5", "sm6", "sm7"];

    #[test]
    fn watchdog_detects_unsatisfiable_acquire() {
        // A kernel that acquires under a manager that always stalls.
        let mut b = KernelBuilder::new("stuck");
        b.threads_per_cta(32);
        b.acq_es().exit();
        let k = b.build().unwrap();
        let mut cfg = GpuConfig::test_tiny();
        cfg.gmem_latency = 10; // shrink the stall bound for test speed
        let res = run_kernel(&cfg, &k, LaunchConfig::new(1), |_| {
            Box::new(Broken::new(&cfg, &k, "never-acquire", 0))
        });
        assert!(matches!(res, Err(SimError::Deadlock { .. })));
    }

    #[test]
    fn same_cycle_faults_report_the_lowest_sm() {
        // One identical CTA per SM; the SMs in `broken` fault on their
        // first register access, which every SM reaches on the same cycle.
        let mut b = KernelBuilder::new("unmapped");
        b.threads_per_cta(32);
        b.movi(r(0), 1).iadd(r(1), r(0), r(0)).exit();
        let k = b.build().unwrap();
        let mut cfg = GpuConfig::test_tiny();
        cfg.num_sms = 8;
        cfg.simulated_sms = 8;
        let run = |broken: &[u32]| {
            let log = Arc::new(Mutex::new(Vec::new()));
            let res = run_kernel(&cfg, &k, LaunchConfig::new(8), |sm| {
                Box::new(Broken {
                    fault_log: broken.contains(&sm).then(|| Arc::clone(&log)),
                    ..Broken::new(&cfg, &k, SM_NAMES[sm as usize], u32::MAX)
                })
            });
            let faulted = log.lock().unwrap().clone();
            (res, faulted)
        };

        let (alone, _) = run(&[7]);
        let Err(SimError::NoMapping {
            manager: "sm7",
            cycle,
            ..
        }) = alone
        else {
            panic!("expected SM 7's NoMapping, got {alone:?}");
        };

        // SMs 3 and 7 now fault on that same cycle: SM 7 still steps it,
        // and the reported fault is SM 3's.
        let (both, faulted) = run(&[3, 7]);
        match both {
            Err(SimError::NoMapping {
                manager, cycle: c, ..
            }) => {
                assert_eq!(manager, "sm3");
                assert_eq!(c, cycle, "SMs 3 and 7 fault on the same cycle");
            }
            other => panic!("expected SM 3's NoMapping, got {other:?}"),
        }
        assert!(
            faulted.contains(&"sm7"),
            "SM 7 must step the faulting cycle too: {faulted:?}"
        );
    }

    #[test]
    fn deadlock_names_the_oldest_progress_sm() {
        // Every warp loops over acq.es, and each SM grants a different
        // number of acquires before stalling forever. SMs 2 and 3 grant the
        // fewest, so they stop issuing first and tie on the oldest
        // progress: the snapshot comes from SM 2, the lower id, not SM 0.
        let mut b = KernelBuilder::new("starved");
        b.threads_per_cta(32);
        b.movi(r(0), 1);
        let top = b.here();
        b.acq_es().iadd(r(1), r(0), r(0)).rel_es();
        b.bra_loop(top, TripCount::Fixed(64));
        b.exit();
        let k = b.build().unwrap();
        let mut cfg = GpuConfig::test_tiny();
        cfg.num_sms = 4;
        cfg.simulated_sms = 4;
        cfg.gmem_latency = 10; // shrink the stall bound for test speed
        let grants = [40, 30, 10, 10];
        let res = run_kernel(&cfg, &k, LaunchConfig::new(4), |sm| {
            Box::new(Broken::new(
                &cfg,
                &k,
                SM_NAMES[sm as usize],
                grants[sm as usize],
            ))
        });
        match res {
            Err(SimError::Deadlock {
                sm_id,
                blocked_at_acquire,
                ..
            }) => {
                assert_eq!(sm_id, 2);
                assert_eq!(blocked_at_acquire, vec![0]);
            }
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }

    /// One warp per CTA: acquire, spin through `trips` dependent adds,
    /// release, exit.
    fn long_acquiring_loop(trips: u32) -> Kernel {
        let mut b = KernelBuilder::new("spin");
        b.threads_per_cta(32);
        b.movi(r(0), 1).acq_es();
        let top = b.here();
        b.iadd(r(0), r(0), r(0));
        b.bra_loop(top, TripCount::Fixed(trips));
        b.rel_es().exit();
        b.build().unwrap()
    }

    #[test]
    fn an_sm_quiet_past_the_stall_limit_resumes_while_another_issues() {
        // SM 0's first acquire attempts stall for longer than the stall
        // limit; SM 1 issues all the while. No-progress is judged across the
        // device, so SM 0's own quiet spell is not a deadlock.
        let mut cfg = GpuConfig::test_tiny();
        cfg.num_sms = 2;
        cfg.simulated_sms = 2;
        let limit = cfg.stall_limit();
        let k = long_acquiring_loop(limit as u32);
        let stats = run_kernel(&cfg, &k, LaunchConfig::new(2), |sm| {
            Box::new(Broken {
                stalls: if sm == 0 { limit + 1_000 } else { 0 },
                ..Broken::new(&cfg, &k, SM_NAMES[sm as usize], u32::MAX)
            })
        })
        .expect("SM 0 resumes, so the run completes");
        assert_eq!(stats.acquire_successes, 2);
        assert_eq!(stats.acquire_attempts, 2 + limit + 1_000);
        assert!(stats.cycles > limit + 1_000);
    }

    #[test]
    fn a_stuck_sm_deadlocks_once_the_last_busy_sm_falls_quiet() {
        // SM 1 never acquires; SM 0 issues far past the stall limit, then
        // exits. The device deadlocks a stall limit after SM 0's last issue,
        // and the snapshot is the stuck SM's.
        let mut cfg = GpuConfig::test_tiny();
        let limit = cfg.stall_limit();
        let k = long_acquiring_loop(limit as u32);
        let alone = run(&k, &cfg, 1);
        let last_issue = alone.cycles - 1;
        assert!(last_issue > 2 * limit, "SM 0 must outlive the stall limit");

        cfg.num_sms = 2;
        cfg.simulated_sms = 2;
        let res = run_kernel(&cfg, &k, LaunchConfig::new(2), |sm| {
            let grants = if sm == 0 { u32::MAX } else { 0 };
            Box::new(Broken::new(&cfg, &k, SM_NAMES[sm as usize], grants))
        });
        match res {
            Err(SimError::Deadlock {
                cycle,
                last_progress,
                sm_id,
                blocked_at_acquire,
                ..
            }) => {
                assert_eq!(cycle, last_issue + limit + 1);
                assert_eq!(last_progress, last_issue);
                assert_eq!(sm_id, 1);
                assert_eq!(blocked_at_acquire, vec![0]);
            }
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }

    #[test]
    fn static_occupancy_limits_resident_ctas() {
        // Tiny config: 64 rows. 20 regs/thread -> 20 rows/warp; a 2-warp CTA
        // needs 40 rows, so only 1 CTA fits at a time even though 4 CTA
        // slots exist. Cycles should therefore scale ~linearly in CTAs.
        let mut b = KernelBuilder::new("occ");
        b.threads_per_cta(64);
        b.declared_regs(20);
        b.movi(r(0), 1);
        let top = b.here();
        b.ld_global(r(1), r(0));
        b.iadd(r(0), r(1), r(0));
        b.bra_loop(top, TripCount::Fixed(4));
        b.exit();
        let k = b.build().unwrap();
        let cfg = GpuConfig::test_tiny();
        let one = run(&k, &cfg, 1);
        let two = run(&k, &cfg, 2);
        assert!(
            two.cycles as f64 > one.cycles as f64 * 1.7,
            "CTAs should serialize: {} vs {}",
            two.cycles,
            one.cycles
        );
    }
}
