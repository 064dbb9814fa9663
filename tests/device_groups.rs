//! Whole-device runs that step one SM per group of timing-identical SMs,
//! checked against runs that step every SM.
//!
//! On a kernel whose every branch is a `Loop` with one trip count for all
//! warps, SMs with equal CTA counts step identically, so a whole-device
//! run steps only the lowest-id SM of each group and replays the value
//! layer for the others (DESIGN.md §7). Each case here compares such a
//! run with one of the same job that steps every SM: every `SimStats`
//! field, the theoretical occupancy, and the error text of a run that
//! fails.
//!
//! The every-SM reference is `Session::run_compiled_faulted` with an empty
//! fault plan. A faulted run never groups SMs, since a fault plan acts on
//! each SM's own state; with nothing planned, its injector passes every
//! manager call through and is steady exactly when its manager is, so the
//! run's stats are what stepping every SM gives.
//!
//! The Table I matrix (16 apps × 5 techniques × full and half register
//! file × the app's grid and that grid plus 7 CTAs, which makes the two
//! groups uneven) runs in full in the release profile (about 20 s on two
//! cores); the debug profile runs one app of it. Generated kernels on a
//! 4-SM device with an uneven grid, and one small kernel per branch shape,
//! add `If`, `Divergent` and per-warp `Loop` branches, which must not be
//! grouped.

use std::sync::Arc;

use regmutex::{RunError, RunReport, Session, ALL_TECHNIQUES};
use regmutex_fuzz::oracle::OracleConfig;
use regmutex_isa::{ArchReg, Kernel, KernelBuilder, Label, TripCount};
use regmutex_sim::{FaultClass, FaultLog, FaultPlan, GpuConfig, LaunchConfig, Severity};
use regmutex_workloads::suite;

/// The Table I app the debug profile runs: a grouped one with shared
/// memory, and the cheapest on the whole device.
const DEBUG_APPS: [&str; 1] = ["LavaMD"];

/// A run's observable outcome: every stats field and the occupancy, or
/// the error text.
fn outcome(run: Result<RunReport, RunError>) -> String {
    match run {
        Ok(r) => format!(
            "{:?}, occupancy {} warps",
            r.stats, r.theoretical_occupancy_warps
        ),
        Err(e) => format!("error: {e}"),
    }
}

/// Run `kernel` under every technique, grouped and stepping every SM, and
/// return the labels of the runs that differ.
fn compare(session: &Session, kernel: &Kernel, launch: LaunchConfig, label: &str) -> Vec<String> {
    let compiled = session.compile(kernel).expect("kernel compiles");
    let plan = FaultPlan {
        class: FaultClass::DroppedRelease,
        severity: Severity::Light,
        seed: 0,
        faults: Vec::new(),
    };
    let mut differ = Vec::new();
    for t in ALL_TECHNIQUES {
        let grouped = outcome(session.run_compiled(&compiled, launch, t));
        let log = Arc::new(FaultLog::new());
        let every = session.run_compiled_faulted(&compiled, launch, t, &plan, log);
        let every = outcome(every);
        if grouped != every {
            differ.push(format!(
                "{label}/{t}:\n  grouped   {grouped}\n  every SM  {every}"
            ));
        }
    }
    differ
}

fn whole_device(mut cfg: GpuConfig) -> GpuConfig {
    cfg.simulated_sms = cfg.num_sms;
    cfg
}

#[test]
fn table1_grouped_runs_match_every_sm_runs() {
    let configs = [
        ("full", whole_device(GpuConfig::gtx480())),
        ("half", whole_device(GpuConfig::gtx480_half_rf())),
    ];
    let mut differ = Vec::new();
    let mut runs = 0;
    for w in suite::all() {
        if cfg!(debug_assertions) && !DEBUG_APPS.contains(&w.name) {
            continue;
        }
        for (rf, cfg) in &configs {
            let session = Session::new(cfg.clone());
            for grid in [w.grid_ctas, w.grid_ctas + 7] {
                let label = format!("{}/{rf}/{grid} CTAs", w.name);
                differ.extend(compare(
                    &session,
                    &w.kernel,
                    LaunchConfig::new(grid),
                    &label,
                ));
                runs += ALL_TECHNIQUES.len();
            }
        }
    }
    assert!(runs > 0);
    assert!(differ.is_empty(), "{}", differ.join("\n"));
}

/// The test GPU: `cfg` cut to 4 SMs, all simulated, with the fuzz
/// oracle's cycle budget.
fn four_sms(mut cfg: GpuConfig) -> GpuConfig {
    cfg.num_sms = 4;
    cfg.simulated_sms = 4;
    cfg.watchdog_cycles = OracleConfig::default().cycle_budget;
    cfg
}

/// A memory-bound loop through a shared-memory exchange, closed by
/// `trips`, with `branch` (if any) emitting a forward branch over one
/// instruction of the body. `r2` keeps its initial value, which differs
/// by warp, so no two warps store the same values.
fn shaped(trips: TripCount, branch: Option<fn(&mut KernelBuilder, Label)>) -> Kernel {
    let r = ArchReg;
    let mut b = KernelBuilder::new("shaped");
    b.threads_per_cta(64).shmem_per_cta(1024);
    b.movi(r(0), 8);
    let top = b.here();
    b.ld_global(r(1), r(0)).iadd(r(0), r(1), r(0));
    if let Some(branch) = branch {
        let skip = b.new_label();
        branch(&mut b, skip);
        b.iadd(r(2), r(2), r(1));
        b.place(skip);
    }
    b.st_shared(r(0), r(2)).ld_shared(r(2), r(0));
    b.bra_loop(top, trips);
    b.st_global(r(0), r(2)).exit();
    b.build().expect("kernel builds")
}

#[test]
fn each_branch_shape_matches_every_sm_runs() {
    let per_warp = TripCount::PerWarp { base: 3, spread: 2 };
    let same = TripCount::PerWarp { base: 3, spread: 0 };
    let kernels = [
        ("fixed loop", shaped(TripCount::Fixed(4), None)),
        ("per-warp loop, no spread", shaped(same, None)),
        ("per-warp loop", shaped(per_warp, None)),
        (
            "if",
            shaped(
                same,
                Some(|b, l| {
                    b.bra_if(l, 500, None);
                }),
            ),
        ),
        (
            "divergent",
            shaped(
                same,
                Some(|b, l| {
                    b.bra_div(l, 500, None);
                }),
            ),
        ),
    ];
    let session = Session::new(four_sms(GpuConfig::gtx480()));
    let mut differ = Vec::new();
    for (name, kernel) in &kernels {
        for grid in [13, 14, 15] {
            let label = format!("{name}/{grid} CTAs");
            differ.extend(compare(&session, kernel, LaunchConfig::new(grid), &label));
        }
    }
    assert!(differ.is_empty(), "{}", differ.join("\n"));
}

#[test]
fn generated_kernels_on_an_uneven_grid_match_every_sm_runs() {
    let kernels = if cfg!(debug_assertions) { 80 } else { 400 };
    let mut differ = Vec::new();
    for seed in 0..kernels {
        let g = regmutex_fuzz::generate(seed);
        let session = Session::new(four_sms(regmutex_fuzz::oracle::config_for(&g)));
        // One to three CTAs past a multiple of the SM count: the first SMs
        // run one CTA more than the rest.
        let grid = 4 * (g.grid_ctas / 15).max(1) + 1 + (seed % 3) as u32;
        let label = format!("fuzz seed {seed}/{grid} CTAs");
        differ.extend(compare(
            &session,
            &g.kernel,
            LaunchConfig::new(grid),
            &label,
        ));
    }
    assert!(differ.is_empty(), "{}", differ.join("\n"));
}
