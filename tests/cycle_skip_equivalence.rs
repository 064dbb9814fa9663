//! Differential proof that event-driven cycle skipping is invisible.
//!
//! The fast-forward loop in `regmutex-sim` only ever skips cycles whose
//! steps it can prove would replay byte-for-byte, folding their stat deltas
//! in multiplicatively. These tests pin that equivalence end to end: every
//! registered workload, two techniques, three kernel seeds, and fault
//! campaigns (including one that must end in a deadlock verdict) produce
//! field-for-field identical [`SimStats`] with skipping on and off — the
//! only permitted differences are the two meta-counters the engine itself
//! maintains (`skipped_cycles`, `step_calls`). Each check runs on the one
//! sampled SM the experiments use and again on the whole device, where the
//! skip target is a minimum over SMs in different states.

use std::sync::Arc;

use regmutex::{RunError, Session, Technique};
use regmutex_sim::{
    FaultClass, FaultLog, FaultPlan, GpuConfig, LaunchConfig, Severity, SimError, SimStats,
};
use regmutex_workloads::{suite, Workload};

/// Zero the meta-counters that are *expected* to differ between the two
/// loops; every other field must match exactly.
fn strip(stats: &SimStats) -> SimStats {
    let mut s = stats.clone();
    s.skipped_cycles = 0;
    s.step_calls = 0;
    s
}

/// The workload's home architecture with skipping forced on or off.
fn cfg_for(w: &Workload, skipping: bool) -> GpuConfig {
    let mut cfg = w.table_config();
    cfg.cycle_skipping = skipping;
    cfg
}

/// The workload's home architecture as a whole-device simulation: every SM
/// instantiated, so with `launch_for`'s capped grids the CTA split across
/// SMs is uneven and SMs idle, stall and wake at different cycles.
fn cfg_whole_device(w: &Workload, skipping: bool) -> GpuConfig {
    let mut cfg = cfg_for(w, skipping);
    cfg.simulated_sms = cfg.num_sms;
    cfg
}

/// Debug builds tick every cycle in the reference run, so shrink the grids:
/// a couple of waves per SM exercises admission, steady-state stalling, and
/// retirement without the full experiment runtime.
fn launch_for(w: &Workload, cfg: &GpuConfig) -> LaunchConfig {
    LaunchConfig::new(w.grid_ctas.min(2 * cfg.num_sms))
}

#[test]
fn every_workload_technique_and_seed_is_skip_invariant() {
    let mut any_skipped = false;
    for w in suite::all() {
        for technique in [Technique::Baseline, Technique::RegMutex] {
            for seed_step in 0..3u64 {
                // Distinct seeds perturb per-warp trip counts and divergence
                // outcomes, changing where the steady-state windows fall.
                let mut kernel = w.kernel.clone();
                kernel.seed = kernel.seed.wrapping_add(seed_step * 7919);

                let run = |skipping: bool| {
                    let cfg = cfg_for(&w, skipping);
                    let launch = launch_for(&w, &cfg);
                    Session::new(cfg)
                        .run(&kernel, launch, technique)
                        .unwrap_or_else(|e| {
                            panic!("{} ({technique}, seed step {seed_step}): {e}", w.name)
                        })
                };
                let skip = run(true);
                let tick = run(false);

                assert_eq!(
                    strip(&skip.stats),
                    strip(&tick.stats),
                    "{} ({technique}, seed step {seed_step}): stats diverge",
                    w.name
                );
                // The reference loop never fast-forwards; the skipping loop
                // must never do *more* work than it.
                assert_eq!(tick.stats.skipped_cycles, 0);
                assert!(skip.stats.step_calls <= tick.stats.step_calls);
                any_skipped |= skip.stats.skipped_cycles > 0;
            }
        }
    }
    assert!(
        any_skipped,
        "no workload fast-forwarded a single cycle: skipping is silently disabled"
    );
}

#[test]
fn whole_device_every_workload_and_technique_is_skip_invariant() {
    for w in suite::all() {
        for technique in [Technique::Baseline, Technique::RegMutex] {
            let run = |skipping: bool| {
                let cfg = cfg_whole_device(&w, skipping);
                let launch = launch_for(&w, &cfg);
                Session::new(cfg)
                    .run(&w.kernel, launch, technique)
                    .unwrap_or_else(|e| {
                        panic!("{} ({technique}, skipping={skipping}): {e}", w.name)
                    })
            };
            let skip = run(true);
            let tick = run(false);
            assert_eq!(
                strip(&skip.stats),
                strip(&tick.stats),
                "{} ({technique}): whole-device stats diverge",
                w.name
            );
            assert_eq!(tick.stats.skipped_cycles, 0);
            assert!(skip.stats.step_calls <= tick.stats.step_calls);
        }
    }
}

/// Run `w` under RegMutex on `cfg` with `plan` injected, returning the
/// outcome and what the injectors recorded.
fn run_faulted(
    w: &Workload,
    cfg: GpuConfig,
    plan: &FaultPlan,
) -> (Result<SimStats, RunError>, u64) {
    let launch = launch_for(w, &cfg);
    let log = Arc::new(FaultLog::new());
    let res = Session::new(cfg)
        .run_faulted(
            &w.kernel,
            launch,
            Technique::RegMutex,
            plan,
            Arc::clone(&log),
        )
        .map(|rep| rep.stats);
    (res, log.injections())
}

/// Gaussian under a transient latency spike and under a delayed release,
/// on the configuration `cfg(workload, skipping)` builds: stats and
/// injection counts must not depend on skipping. Every SM carries its own
/// injector, so on the whole device all of them fire.
fn check_fault_campaigns(cfg: fn(&Workload, bool) -> GpuConfig) {
    let w = suite::by_name("Gaussian").expect("registered workload");
    let home = w.table_config();

    // A transient latency spike: the engine must land on both spike edges
    // exactly so the latency change and the first-spike log note happen on
    // the same cycles as in the tick loop.
    let spike = FaultPlan::generate(FaultClass::MemLatencySpike, Severity::Light, 42, &home);
    // A delayed release: exercises the injector's steady() gate (no
    // fast-forward while a deferred release is in flight).
    let delayed = FaultPlan::generate(FaultClass::DelayedRelease, Severity::Light, 42, &home);

    for plan in [&spike, &delayed] {
        let (skip_res, skip_inj) = run_faulted(&w, cfg(&w, true), plan);
        let (tick_res, tick_inj) = run_faulted(&w, cfg(&w, false), plan);
        let skip_stats = skip_res.unwrap_or_else(|e| panic!("{}: {e}", plan.describe()));
        let tick_stats = tick_res.unwrap_or_else(|e| panic!("{}: {e}", plan.describe()));
        assert_eq!(
            strip(&skip_stats),
            strip(&tick_stats),
            "{}: stats diverge",
            plan.describe()
        );
        assert_eq!(
            skip_inj,
            tick_inj,
            "{}: injection counts diverge",
            plan.describe()
        );
    }
}

#[test]
fn fault_campaigns_are_skip_invariant() {
    check_fault_campaigns(cfg_for);
}

#[test]
fn whole_device_fault_campaigns_are_skip_invariant() {
    check_fault_campaigns(cfg_whole_device);
}

/// A spike deeper than the no-progress bound: the run cannot finish, and
/// the skipping loop must pre-fire the deadlock detector with *exactly* the
/// verdict the tick loop grinds its way to — same cycle, same snapshot SM,
/// same diagnostics.
fn check_deadlock_verdict(cfg: fn(&Workload, bool) -> GpuConfig) {
    let w = suite::by_name("Gaussian").expect("registered workload");
    let plan = FaultPlan::generate(
        FaultClass::MemLatencySpike,
        Severity::Severe,
        7,
        &w.table_config(),
    );

    let (skip_res, skip_inj) = run_faulted(&w, cfg(&w, true), &plan);
    let (tick_res, tick_inj) = run_faulted(&w, cfg(&w, false), &plan);

    let skip_err = skip_res.expect_err("severe spike must deadlock (skipping)");
    let tick_err = tick_res.expect_err("severe spike must deadlock (tick)");
    assert!(
        matches!(skip_err, RunError::Sim(SimError::Deadlock { .. })),
        "unexpected verdict: {skip_err:?}"
    );
    assert_eq!(skip_err, tick_err, "deadlock diagnostics diverge");
    assert_eq!(skip_inj, tick_inj, "injection counts diverge");
}

#[test]
fn deadlock_verdict_is_skip_invariant() {
    check_deadlock_verdict(cfg_for);
}

#[test]
fn whole_device_deadlock_verdict_is_skip_invariant() {
    check_deadlock_verdict(cfg_whole_device);
}

#[test]
fn whole_device_watchdog_verdict_is_skip_invariant() {
    // An absolute cycle bound low enough that the run cannot finish: the
    // skipping loop must pre-fire `WatchdogExpired` with the tick loop's
    // verdict.
    let w = suite::by_name("Gaussian").expect("registered workload");
    let run = |skipping: bool| {
        let mut cfg = cfg_whole_device(&w, skipping);
        cfg.watchdog_cycles = 2_000;
        let launch = launch_for(&w, &cfg);
        Session::new(cfg)
            .run(&w.kernel, launch, Technique::RegMutex)
            .map(|rep| rep.stats)
    };
    let skip_err = run(true).expect_err("bound too low to finish (skipping)");
    assert!(
        matches!(
            skip_err,
            RunError::Sim(SimError::WatchdogExpired { limit: 2_000 })
        ),
        "unexpected verdict: {skip_err:?}"
    );
    let tick_err = run(false).expect_err("bound too low to finish (tick)");
    assert_eq!(skip_err, tick_err, "watchdog verdict diverges");
}

/// One whole-device RegMutex fault run, summarised as the verdict plus
/// what the injectors logged: `(verdict, injections, first injection)`.
fn device_verdict(app: &str, class: FaultClass, severity: Severity, seed: u64) -> String {
    let w = suite::by_name(app).expect("registered workload");
    let cfg = cfg_whole_device(&w, true);
    let plan = FaultPlan::generate(class, severity, seed, &w.table_config());
    let launch = launch_for(&w, &cfg);
    let log = Arc::new(FaultLog::new());
    let res = Session::new(cfg).run_faulted(
        &w.kernel,
        launch,
        Technique::RegMutex,
        &plan,
        Arc::clone(&log),
    );
    let verdict = match res {
        Ok(rep) => format!("Ok {} {:#018x}", rep.stats.cycles, rep.stats.checksum),
        Err(RunError::Sim(SimError::LedgerViolation { cycle, .. })) => {
            format!("LedgerViolation {cycle}")
        }
        Err(RunError::Sim(SimError::Deadlock {
            cycle,
            last_progress,
            sm_id,
            blocked_at_acquire,
            ..
        })) => format!(
            "Deadlock {cycle} {last_progress} sm{sm_id} blocked{}",
            blocked_at_acquire.len()
        ),
        Err(e) => format!("{e:?}"),
    };
    format!(
        "{verdict} | {} {:?}",
        log.injections(),
        log.first_injection_cycle()
    )
}

#[test]
fn whole_device_fault_verdicts_are_pinned() {
    // Each SM runs on its own clock, so the device verdict is rebuilt from
    // per-SM runs: the earliest fault, the first cycle every SM is quiet,
    // or completion. These values were measured on the lockstep device
    // loop (every SM stepped on one shared clock) and must not move.
    use FaultClass::*;
    use Severity::*;
    let cases = [
        (
            "BFS",
            CorruptLut,
            Light,
            7,
            "LedgerViolation 6831 | 1 Some(6829)",
        ),
        (
            "BFS",
            StuckSrpBit,
            Severe,
            7,
            "LedgerViolation 4717 | 2 Some(4707)",
        ),
        // SM 12 stops issuing first; the device stalls once the last busy
        // SM has been quiet for the stall limit.
        (
            "BFS",
            SpuriousAcquire,
            Severe,
            42,
            "Deadlock 80623 6302 sm12 blocked16 | 15 Some(1997)",
        ),
        // Every SM is quiet at once, though each would resume later.
        (
            "Gaussian",
            MemLatencySpike,
            Severe,
            7,
            "Deadlock 74360 39 sm0 blocked0 | 1 Some(0)",
        ),
        (
            "Gaussian",
            MemLatencySpike,
            Light,
            42,
            "Ok 8651 0x8fd2b91ec507cf1a | 1 Some(2724)",
        ),
        (
            "BFS",
            DelayedRelease,
            Light,
            42,
            "Ok 27114 0x2141a5414464c9bd | 32 Some(12747)",
        ),
    ];
    let mut mismatches = Vec::new();
    for (app, class, severity, seed, want) in cases {
        let got = device_verdict(app, class, severity, seed);
        if got != want {
            mismatches.push(format!(
                "{app} {class} {severity} s{seed}: got {got:?}, want {want:?}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
