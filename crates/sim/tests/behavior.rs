//! Behavioral tests of the SM cycle engine: timing-visible properties that
//! unit tests of individual components cannot capture.

use regmutex_isa::{ArchReg, Kernel, KernelBuilder, TripCount};
use regmutex_sim::{
    run_kernel, GpuConfig, LaunchConfig, SchedulerPolicy, SimStats, StallReason, StaticManager,
};

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

/// Two warps with independent ALU work: both schedulers issue in parallel,
/// so cycles stay close to one warp's latency rather than doubling.
#[test]
fn schedulers_issue_in_parallel() {
    let mut b = KernelBuilder::new("par");
    b.threads_per_cta(64); // 2 warps -> one per scheduler
    b.movi(r(0), 1);
    for _ in 0..30 {
        b.iadd(r(1), r(0), r(0)); // independent of each other
    }
    b.exit();
    let k = b.build().unwrap();
    let cfg = GpuConfig::test_tiny();
    let two_warps = run(&k, &cfg, 1);

    let mut b1 = KernelBuilder::new("par1");
    b1.threads_per_cta(32);
    b1.movi(r(0), 1);
    for _ in 0..30 {
        b1.iadd(r(1), r(0), r(0));
    }
    b1.exit();
    let one_warp = run(&b1.build().unwrap(), &cfg, 1);

    assert!(
        two_warps.cycles < one_warp.cycles + one_warp.cycles / 2,
        "2 warps on 2 schedulers should not double latency: {} vs {}",
        two_warps.cycles,
        one_warp.cycles
    );
}

/// A fully divergent branch costs both paths; a uniform one costs one path.
#[test]
fn divergence_serializes_both_paths() {
    let build = |permille: u16| {
        let mut b = KernelBuilder::new("div");
        b.threads_per_cta(32);
        b.movi(r(0), 1);
        let skip = b.new_label();
        b.bra_div(skip, permille, None);
        for _ in 0..20 {
            b.iadd(r(1), r(0), r(0));
        }
        b.place(skip);
        b.exit();
        b.build().unwrap()
    };
    let cfg = GpuConfig::test_tiny();
    // permille=0: nobody skips -> body executed with full mask.
    let none_skip = run(&build(0), &cfg, 1);
    // permille=500: body executed with partial mask (same instruction count
    // in our warp-level model).
    let half_skip = run(&build(500), &cfg, 1);
    // permille=1000: everyone skips -> body never executes.
    let all_skip = run(&build(1000), &cfg, 1);
    assert_eq!(none_skip.instructions, half_skip.instructions);
    assert!(all_skip.instructions < none_skip.instructions);
}

/// Loop trip counts vary per warp when requested, and total instruction
/// counts reflect the spread deterministically.
#[test]
fn per_warp_trip_counts_vary() {
    let mut b = KernelBuilder::new("varied");
    b.threads_per_cta(32);
    b.movi(r(0), 1);
    let top = b.here();
    b.iadd(r(0), r(0), r(0));
    b.bra_loop(top, TripCount::PerWarp { base: 2, spread: 6 });
    b.exit();
    let k = b.build().unwrap();
    let cfg = GpuConfig::test_tiny();
    let one = run(&k, &cfg, 1);
    let eight = run(&k, &cfg, 8);
    // If all warps had identical trips, eight.instructions would be exactly
    // 8x one.instructions; the spread makes that astronomically unlikely.
    assert_ne!(eight.instructions, one.instructions * 8);
    // But determinism holds.
    assert_eq!(run(&k, &cfg, 8).instructions, eight.instructions);
}

/// Shared-memory loads are much faster than global loads.
#[test]
fn shared_memory_is_faster_than_global() {
    let build = |shared: bool| {
        let mut b = KernelBuilder::new("mem");
        b.threads_per_cta(32);
        b.movi(r(0), 64);
        for _ in 0..8 {
            if shared {
                b.ld_shared(r(1), r(0));
            } else {
                b.ld_global(r(1), r(0));
            }
            b.iadd(r(0), r(1), r(0)); // dependent
        }
        b.exit();
        b.build().unwrap()
    };
    let cfg = GpuConfig::test_tiny();
    let sh = run(&build(true), &cfg, 1);
    let gl = run(&build(false), &cfg, 1);
    assert!(
        sh.cycles * 2 < gl.cycles,
        "shared {} vs global {}",
        sh.cycles,
        gl.cycles
    );
}

/// Inserting non-branch instructions (as the RegMutex compiler does) leaves
/// control flow unchanged: same store checksum, proportional instruction
/// growth. This is the ordinal-keying property the whole oracle rests on.
#[test]
fn control_flow_is_stable_under_straightline_insertion() {
    let base = {
        let mut b = KernelBuilder::new("k");
        b.threads_per_cta(32).seed(0xAB);
        b.movi(r(0), 5);
        let top = b.here();
        let skip = b.new_label();
        b.bra_if(skip, 300, Some(r(0)));
        b.iadd(r(1), r(0), r(0));
        b.st_global(r(0), r(1));
        b.place(skip);
        b.bra_loop(top, TripCount::PerWarp { base: 3, spread: 5 });
        b.st_global(r(0), r(0));
        b.exit();
        b.build().unwrap()
    };
    // Same program with extra MOVs sprinkled in (hand-built equivalent of
    // compaction noise). Note the branch ordinals are unchanged.
    let padded = {
        let mut b = KernelBuilder::new("k");
        b.threads_per_cta(32).seed(0xAB);
        b.movi(r(0), 5);
        b.mov(r(2), r(0));
        let top = b.here();
        let skip = b.new_label();
        b.bra_if(skip, 300, Some(r(0)));
        b.mov(r(3), r(0));
        b.iadd(r(1), r(0), r(0));
        b.st_global(r(0), r(1));
        b.place(skip);
        b.mov(r(2), r(0));
        b.bra_loop(top, TripCount::PerWarp { base: 3, spread: 5 });
        b.st_global(r(0), r(0));
        b.exit();
        b.build().unwrap()
    };
    let cfg = GpuConfig::test_tiny();
    let a = run(&base, &cfg, 4);
    let b2 = run(&padded, &cfg, 4);
    assert_eq!(a.checksum, b2.checksum, "identical observable behaviour");
    assert!(b2.instructions > a.instructions);
}

/// LRR and GTO differ in timing but agree on everything functional.
#[test]
fn policies_differ_in_timing_only() {
    let mut b = KernelBuilder::new("pol");
    b.threads_per_cta(64);
    b.movi(r(0), 3);
    let top = b.here();
    b.ld_global(r(1), r(0));
    b.iadd(r(0), r(1), r(0));
    b.st_global(r(0), r(1));
    b.bra_loop(top, TripCount::Fixed(6));
    b.exit();
    let k = b.build().unwrap();
    let mut cfg = GpuConfig::test_tiny();
    let gto = run(&k, &cfg, 4);
    cfg.policy = SchedulerPolicy::Lrr;
    let lrr = run(&k, &cfg, 4);
    assert_eq!(gto.checksum, lrr.checksum);
    assert_eq!(gto.instructions, lrr.instructions);
    // Timing will usually differ (not asserted strictly: they *may* tie).
}

/// Stats bookkeeping: instructions, warps, CTAs and residency all line up.
#[test]
fn stats_accounting_consistency() {
    let mut b = KernelBuilder::new("acct");
    b.threads_per_cta(96); // 3 warps
    b.movi(r(0), 1);
    b.bar();
    b.st_global(r(0), r(0));
    b.exit();
    let k = b.build().unwrap();
    let cfg = GpuConfig::test_tiny();
    let s = run(&k, &cfg, 2);
    assert_eq!(s.ctas, 2);
    assert_eq!(s.warps, 6);
    assert_eq!(s.instructions, 6 * 4);
    assert!(s.resident_warp_cycles >= s.instructions);
    assert!(s.achieved_occupancy_warps() > 0.0);
    assert!(s.ipc() > 0.0);
}

/// The same kernel on the Volta-like config completes and benefits from the
/// wider machine (4 schedulers).
#[test]
fn volta_like_config_runs() {
    let mut b = KernelBuilder::new("volta");
    b.threads_per_cta(128);
    b.movi(r(0), 1);
    let top = b.here();
    b.ld_global(r(1), r(0));
    b.iadd(r(0), r(1), r(0));
    b.bra_loop(top, TripCount::Fixed(4));
    b.exit();
    let k = b.build().unwrap();
    let mut cfg = GpuConfig::volta_like();
    cfg.watchdog_cycles = 10_000_000;
    let regs = k.regs_per_thread;
    let s = run_kernel(&cfg, &k, LaunchConfig::new(160), |_| {
        Box::new(StaticManager::new(&cfg, regs))
    })
    .expect("completes");
    assert_eq!(s.ctas, 2); // 160 CTAs / 80 SMs
}

/// With bank-conflict modelling enabled, instructions whose sources collide
/// in a bank pay extra latency; with it disabled, timing is unchanged.
#[test]
fn bank_conflicts_add_latency_when_enabled() {
    let mut b = KernelBuilder::new("banks");
    b.threads_per_cta(32);
    b.movi(r(0), 1);
    for _ in 0..20 {
        b.iadd(r(1), r(0), r(0)); // both sources read the same row
        b.iadd(r(0), r(1), r(1)); // dependent chain keeps latency visible
    }
    b.exit();
    let k = b.build().unwrap();
    let off = run(&k, &GpuConfig::test_tiny(), 1);
    let mut banked = GpuConfig::test_tiny();
    banked.reg_banks = 16;
    let on = run(&k, &banked, 1);
    assert_eq!(off.checksum, on.checksum, "banking is timing-only");
    assert!(
        on.cycles > off.cycles,
        "same-row sources must conflict: {} vs {}",
        on.cycles,
        off.cycles
    );

    // Distinct-row sources on different banks do not conflict.
    let mut b2 = KernelBuilder::new("nobanks");
    b2.threads_per_cta(32);
    b2.movi(r(0), 1).movi(r(1), 2);
    for _ in 0..20 {
        b2.iadd(r(2), r(0), r(1));
        b2.iadd(r(0), r(2), r(1));
    }
    b2.exit();
    let k2 = b2.build().unwrap();
    let off2 = run(&k2, &GpuConfig::test_tiny(), 1);
    let on2 = run(&k2, &banked, 1);
    assert_eq!(
        off2.cycles, on2.cycles,
        "adjacent rows sit in distinct banks"
    );
}

/// Simulating more than one SM merges statistics and preserves determinism.
#[test]
fn multi_sm_simulation_merges_consistently() {
    let mut b = KernelBuilder::new("multi");
    b.threads_per_cta(64);
    b.movi(r(0), 2);
    let top = b.here();
    b.ld_global(r(1), r(0));
    b.iadd(r(0), r(1), r(0));
    b.st_global(r(0), r(1));
    b.bra_loop(top, TripCount::Fixed(3));
    b.exit();
    let k = b.build().unwrap();

    let mut cfg = GpuConfig::test_tiny();
    cfg.num_sms = 2;
    cfg.simulated_sms = 2;
    let both = run(&k, &cfg, 6); // 3 CTAs per SM
    assert_eq!(both.ctas, 6);
    assert_eq!(both.warps, 12);

    // The same grid on one simulated SM of a 2-SM device covers half the
    // CTAs; instruction counts must line up with CTA shares.
    cfg.simulated_sms = 1;
    let half = run(&k, &cfg, 6);
    assert_eq!(half.ctas, 3);
    assert!(half.instructions < both.instructions);

    // Determinism across repeated multi-SM runs.
    cfg.simulated_sms = 2;
    let again = run(&k, &cfg, 6);
    assert_eq!(again.cycles, both.cycles);
    assert_eq!(again.checksum, both.checksum);
}

/// The `simulated_sms < num_sms` sampling contract: `stats.ctas` is exactly
/// `LaunchConfig::simulated_ctas` — the shares of the instantiated SMs,
/// never the whole grid — and an uneven tail (31 CTAs on 15 SMs) only
/// executes in full under whole-device simulation.
#[test]
fn sampled_sm_cta_accounting_is_explicit() {
    let mut b = KernelBuilder::new("sample");
    b.threads_per_cta(32);
    b.movi(r(0), 1);
    b.ld_global(r(1), r(0));
    b.st_global(r(1), r(1));
    b.exit();
    let k = b.build().unwrap();

    let mut cfg = GpuConfig::test_tiny();
    cfg.num_sms = 15;
    let launch = LaunchConfig::new(31); // 31 = 2*15 + 1: uneven tail

    // One sampled SM: SM 0 holds the remainder, so 3 CTAs — not 31, and
    // not the 2 a naive grid/num_sms division would predict.
    cfg.simulated_sms = 1;
    let sampled = run(&k, &cfg, 31);
    assert_eq!(sampled.ctas, u64::from(launch.simulated_ctas(&cfg)));
    assert_eq!(sampled.ctas, 3);

    // A partial sample counts exactly the low SMs' shares.
    cfg.simulated_sms = 4;
    let partial = run(&k, &cfg, 31);
    assert_eq!(partial.ctas, u64::from(launch.simulated_ctas(&cfg)));
    assert_eq!(partial.ctas, 9); // 3 + 2 + 2 + 2

    // Whole device: every CTA executes, including the tail.
    cfg.simulated_sms = 15;
    let whole = run(&k, &cfg, 31);
    assert_eq!(whole.ctas, 31);
    assert_eq!(whole.ctas, u64::from(launch.simulated_ctas(&cfg)));
    assert_eq!(whole.warps, 31);
}

/// A warp blocked on a long global load keeps its cached scoreboard
/// verdict while skips land on other warps' shorter SFU wake-ups. The
/// verdict must hold exactly across those landings: every counter matches
/// a run that ticks each cycle, under every scheduling policy.
#[test]
fn scoreboard_stall_across_a_skip_landing_is_skip_invariant() {
    let mut b = KernelBuilder::new("sb_landing");
    b.threads_per_cta(128); // 4 warps, two per scheduler
    b.movi(r(0), 8);
    let top = b.here();
    b.ld_global(r(1), r(0)); // 60-cycle write
    b.fsqrt(r(2), r(0)); // 8-cycle write
    b.iadd(r(3), r(2), r(2)); // stalls until the SFU lands
    b.iadd(r(4), r(1), r(3)); // stalls until the load lands
    b.iadd(r(0), r(4), r(0));
    b.bra_loop(top, TripCount::PerWarp { base: 2, spread: 3 });
    b.st_global(r(0), r(4));
    b.exit();
    let k = b.build().unwrap();

    for policy in [
        SchedulerPolicy::Gto,
        SchedulerPolicy::Lrr,
        SchedulerPolicy::OwnerWarpFirst,
    ] {
        let mut cfg = GpuConfig::test_tiny();
        cfg.policy = policy;
        let skip = run(&k, &cfg, 3);
        cfg.cycle_skipping = false;
        let tick = run(&k, &cfg, 3);
        assert!(skip.skipped_cycles > 0, "{policy:?}: nothing skipped");
        assert!(
            skip.stall_cycles[StallReason::Scoreboard.index()] > 0,
            "{policy:?}: no scoreboard stalls"
        );
        assert_eq!(tick.skipped_cycles, 0);
        let strip = |s: &SimStats| SimStats {
            skipped_cycles: 0,
            step_calls: 0,
            ..s.clone()
        };
        assert_eq!(strip(&skip), strip(&tick), "{policy:?}");
    }
}
