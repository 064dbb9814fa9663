//! Whole-device simulation loop.

use std::sync::Arc;

use regmutex_isa::{ArchReg, CtaId, Kernel, ValidateKernelError, WarpId};

use crate::config::{GpuConfig, LaunchConfig};
use crate::fault::{FaultInjector, FaultLog, FaultPlan};
use crate::manager::{LedgerViolation as Violation, RegisterManager};
use crate::sm::{IssueFault, KernelImage, Sm};
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
        }
    }
}

impl std::error::Error for SimError {}

/// Run `kernel` on `cfg` with per-SM register managers produced by
/// `manager_factory` (one call per simulated SM).
///
/// CTAs are split evenly across the device's `num_sms`; only
/// `cfg.simulated_sms` of them are actually simulated (SM-local effects —
/// which is all RegMutex changes — are identical across SMs, so simulating
/// one SM with its share of the grid reproduces per-SM behaviour).
///
/// # Errors
///
/// [`SimError::InvalidKernel`] if the kernel fails structural validation,
/// [`SimError::Deadlock`] if no instruction issues device-wide for longer
/// than a conservative bound, or [`SimError::WatchdogExpired`] at
/// `cfg.watchdog_cycles`.
pub fn run_kernel(
    cfg: &GpuConfig,
    kernel: &Kernel,
    launch: LaunchConfig,
    manager_factory: impl FnMut(u32) -> Box<dyn RegisterManager> + Send,
) -> Result<SimStats, SimError> {
    run_inner(cfg, kernel, launch, manager_factory, false, None).map(|(stats, _)| stats)
}

/// Like [`run_kernel`], but records issue-stage [`TraceEvent`]s on the first
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
    manager_factory: impl FnMut(u32) -> Box<dyn RegisterManager> + Send,
) -> Result<(SimStats, Vec<crate::trace::TraceEvent>), SimError> {
    run_inner(cfg, kernel, launch, manager_factory, true, None)
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
    let plan_inner = plan.clone();
    let log_inner = Arc::clone(&log);
    let factory = move |sm: u32| -> Box<dyn RegisterManager> {
        Box::new(FaultInjector::new(
            manager_factory(sm),
            plan_inner.clone(),
            Arc::clone(&log_inner),
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
    }
}

/// The deadlock verdict, with diagnostics snapshotted from the non-idle SM
/// with the oldest progress (ties to the lowest id). `sms` must be in the
/// state the detector judged, with no step since.
fn deadlock_error(sms: &[Sm], cycle: u64, last_progress: u64) -> SimError {
    let (sm_id, sm) = sms
        .iter()
        .enumerate()
        .filter(|(_, sm)| !sm.idle())
        .min_by_key(|&(id, sm)| (sm.last_progress, id))
        .expect("the no-progress detector only fires while an SM is busy");
    let (blocked_at_acquire, srp_holders) = sm.stall_snapshot();
    SimError::Deadlock {
        cycle,
        last_progress,
        sm_id: sm_id as u32,
        blocked_at_acquire,
        srp_holders,
    }
}

fn run_inner(
    cfg: &GpuConfig,
    kernel: &Kernel,
    launch: LaunchConfig,
    mut manager_factory: impl FnMut(u32) -> Box<dyn RegisterManager> + Send,
    traced: bool,
    faults: Option<(&FaultPlan, &Arc<FaultLog>)>,
) -> Result<(SimStats, Vec<crate::trace::TraceEvent>), SimError> {
    kernel.validate().map_err(SimError::InvalidKernel)?;
    let image = Arc::new(KernelImage::new(kernel.clone()));
    let simulated = cfg.simulated_sms.min(cfg.num_sms).max(1);

    let mut next_cta = 0u32;
    let mut sms: Vec<Sm> = (0..simulated)
        .map(|sm_id| {
            let n = launch.ctas_for_sm(sm_id, cfg);
            let ctas: Vec<CtaId> = (next_cta..next_cta + n).map(CtaId).collect();
            next_cta += n;
            Sm::new(
                cfg.clone(),
                Arc::clone(&image),
                manager_factory(sm_id),
                ctas,
            )
        })
        .collect();
    if traced {
        if let Some(sm) = sms.first_mut() {
            sm.enable_tracing();
        }
    }

    // Tracing wants an event-per-cycle view (per-cycle acquire-stall
    // events), so the fast-forward path is disabled for traced runs.
    let skipping = cfg.cycle_skipping && !traced;
    run_serial(&mut sms, cfg, skipping, faults)?;

    let mut total = SimStats::default();
    for sm in &sms {
        total.merge(&sm.stats);
        total.spills += sm.manager().spill_count();
    }
    let trace = sms
        .first_mut()
        .map(|sm| sm.take_trace())
        .unwrap_or_default();
    Ok((total, trace))
}

/// The device loop: step every SM at `now`, then judge the cycle (fault,
/// done, deadlock, watchdog) and pick the next one.
///
/// Every SM steps a cycle to the end even when one of them faults, and the
/// fault from the lowest SM id is the one reported.
fn run_serial(
    sms: &mut [Sm],
    cfg: &GpuConfig,
    skipping: bool,
    faults: Option<(&FaultPlan, &Arc<FaultLog>)>,
) -> Result<(), SimError> {
    let stall_limit = cfg.stall_limit();
    let watchdog = cfg.watchdog_cycles;
    let mut now = 0u64;
    let mut mem_spike_noted = false;
    loop {
        if let Some((plan, log)) = faults {
            let extra = plan.mem_extra_at(now);
            if extra > 0 && !mem_spike_noted {
                log.note(now);
                mem_spike_noted = true;
            }
            for sm in sms.iter_mut() {
                sm.set_mem_extra_latency(extra);
            }
        }
        let mut fault = None;
        let mut all_idle = true;
        let mut all_skippable = true;
        let mut last_progress = 0;
        for sm in sms.iter_mut() {
            if let Err(f) = sm.step(now) {
                fault.get_or_insert(f);
            }
            let idle = sm.idle();
            all_idle &= idle;
            all_skippable &= idle || sm.can_skip();
            last_progress = last_progress.max(sm.last_progress);
        }
        if let Some(fault) = fault {
            return Err(fault_error(fault, now));
        }
        if all_idle {
            return Ok(());
        }
        if now > last_progress + stall_limit {
            return Err(deadlock_error(sms, now, last_progress));
        }
        now += 1;
        if now >= watchdog {
            return Err(SimError::WatchdogExpired { limit: watchdog });
        }

        // Event-driven fast-forward: when every busy SM just executed a
        // provably repeatable no-issue step ([`Sm::can_skip`]), cycles
        // `now .. target-1` would replay it byte-for-byte. Fold their stat
        // deltas in multiplicatively and jump straight to the earliest cycle
        // at which anything can change.
        if skipping && all_skippable {
            let mut target = sms
                .iter()
                .filter(|sm| !sm.idle())
                .map(Sm::next_event_cycle)
                .min()
                .unwrap_or(u64::MAX);
            if let Some((plan, _)) = faults {
                // Land exactly on memory-latency-spike edges so the
                // first-spike log note and `set_mem_extra_latency` happen on
                // the same cycles as in the tick-by-tick loop.
                if let Some(edge) = plan.next_mem_change_after(now - 1) {
                    target = target.min(edge);
                }
            }
            // First cycle at which the no-progress detector would fire. If
            // that comes before any wake event (and before the watchdog),
            // every intervening step is a replica of the current fully
            // stalled one, so the verdict is already decided — report it
            // without grinding through the replicas. Stats are discarded on
            // error, so the gap needs no accounting. At `deadline ==
            // target` the landing step must run first: it may issue and
            // push `last_progress` forward.
            let deadline = last_progress + stall_limit + 1;
            if deadline < target && deadline < watchdog {
                return Err(deadlock_error(sms, deadline, last_progress));
            }
            if watchdog <= target {
                // The tick loop would replay stalled steps up to the bound
                // and never reach a wake event.
                return Err(SimError::WatchdogExpired { limit: watchdog });
            }
            if target > now {
                let gap = target - now;
                for sm in sms.iter_mut().filter(|sm| !sm.idle()) {
                    sm.skip_ahead(gap);
                }
                now = target;
            }
        }
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

    /// The baseline manager, broken two ways: only the first `grants`
    /// acquires succeed (every later one stalls forever), and with a
    /// `fault_log` every register translation fails, so the SM faults on
    /// its first register access after recording `name` in the log.
    struct Broken {
        inner: StaticManager,
        name: &'static str,
        grants: u32,
        fault_log: Option<Arc<Mutex<Vec<&'static str>>>>,
    }

    impl Broken {
        fn new(cfg: &GpuConfig, k: &Kernel, name: &'static str, grants: u32) -> Self {
            Broken {
                inner: StaticManager::new(cfg, k.regs_per_thread),
                name,
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
