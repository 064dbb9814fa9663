//! Integration: every workload completes under every technique, all
//! techniques agree functionally (store checksums), and the headline
//! orderings hold.

use regmutex_repro::prelude::*;

use regmutex::{cycle_reduction_percent, verdict, RunError, RunReport, ALL_TECHNIQUES};
use regmutex_sim::{LaunchConfig, SimError};

/// Reduced grids keep debug-mode runtime reasonable while still spanning
/// multiple CTA waves.
fn reduced_launch(w: &Workload) -> LaunchConfig {
    LaunchConfig::new(w.grid_ctas.min(60))
}

#[test]
fn all_workloads_all_techniques_agree_functionally() {
    for w in suite::all() {
        let session = Session::new(w.table_config());
        let compiled = session.compile(&w.kernel).expect("compile");
        let launch = reduced_launch(&w);
        let mut reference: Option<RunReport> = None;
        for t in ALL_TECHNIQUES {
            let rep = session
                .run_compiled(&compiled, launch, t)
                .unwrap_or_else(|e| panic!("{} under {t}: {e}", w.name));
            assert!(rep.cycles() > 0, "{} under {t}: zero cycles", w.name);
            match &reference {
                None => reference = Some(rep),
                Some(base) => {
                    assert_eq!(verdict(base, Ok(&rep), true), None, "{} under {t}", w.name)
                }
            }
        }
    }
}

#[test]
fn regmutex_is_transformed_for_every_workload() {
    for w in suite::all() {
        let session = Session::new(w.table_config());
        let compiled = session.compile(&w.kernel).expect("compile");
        assert!(
            compiled.is_transformed(),
            "{}: no plan; rejects: {:?}",
            w.name,
            compiled.diagnostics.rejected
        );
        let plan = compiled.plan.unwrap();
        assert_eq!(plan.bs, w.table_bs, "{}", w.name);
    }
}

#[test]
fn fig7_regmutex_never_loses_badly_and_wins_on_average() {
    let session = Session::new(regmutex_sim::GpuConfig::gtx480());
    let mut total = 0.0;
    let mut n = 0u32;
    for w in suite::occupancy_limited() {
        let compiled = session.compile(&w.kernel).expect("compile");
        let launch = w.launch();
        let base = session
            .run_compiled(&compiled, launch, Technique::Baseline)
            .expect("baseline");
        let rm = session
            .run_compiled(&compiled, launch, Technique::RegMutex)
            .expect("regmutex");
        let red = cycle_reduction_percent(&base, &rm);
        assert!(red > -10.0, "{}: RegMutex regressed by {red:.1}%", w.name);
        total += red;
        n += 1;
    }
    let avg = total / f64::from(n);
    assert!(
        (5.0..=30.0).contains(&avg),
        "Fig 7 average reduction {avg:.1}% out of the paper's ballpark"
    );
}

#[test]
fn runs_are_deterministic() {
    let w = suite::by_name("CUTCP").expect("CUTCP exists");
    let session = Session::new(w.table_config());
    let compiled = session.compile(&w.kernel).expect("compile");
    let launch = reduced_launch(&w);
    let a = session
        .run_compiled(&compiled, launch, Technique::RegMutex)
        .expect("first run");
    let b = session
        .run_compiled(&compiled, launch, Technique::RegMutex)
        .expect("second run");
    assert_eq!(a.cycles(), b.cycles());
    assert_eq!(a.stats.checksum, b.stats.checksum);
    assert_eq!(a.stats.acquire_attempts, b.stats.acquire_attempts);
}

#[test]
fn storage_ordering_matches_paper() {
    let w = suite::by_name("BFS").expect("BFS exists");
    let session = Session::new(w.table_config());
    let compiled = session.compile(&w.kernel).expect("compile");
    let launch = reduced_launch(&w);
    let bits: Vec<(Technique, u64)> = ALL_TECHNIQUES
        .iter()
        .map(|&t| {
            let rep = session.run_compiled(&compiled, launch, t).expect("run");
            (t, rep.storage_overhead_bits)
        })
        .collect();
    let get = |t: Technique| bits.iter().find(|(x, _)| *x == t).unwrap().1;
    assert_eq!(get(Technique::Baseline), 0);
    assert_eq!(get(Technique::RegMutex), 384);
    assert_eq!(get(Technique::Rfv), 31_264);
    assert!(get(Technique::RegMutexPaired) < get(Technique::RegMutex));
    assert!(get(Technique::Rfv) / get(Technique::RegMutex) >= 81);
}

/// DWT2D's 44-register, 416-thread CTAs do not fit the half register file
/// under static allocation. The baseline refuses at launch with a
/// diagnosed error naming the CTA's register demand and the SM's rows,
/// rather than idling until the no-progress detector calls a deadlock;
/// a technique either runs the kernel or refuses it the same way.
#[test]
fn a_cta_that_fits_no_sm_is_refused_at_launch() {
    let w = suite::all()
        .into_iter()
        .find(|w| w.name == "DWT2D")
        .expect("DWT2D is in the suite");
    let session = Session::new(GpuConfig::gtx480_half_rf());
    for t in ALL_TECHNIQUES {
        match session.run(&w.kernel, w.launch(), t) {
            Err(RunError::Sim(SimError::NoCtaFits { short: Some(s), .. })) => assert_eq!(
                (s.resource, s.needs, s.has),
                ("register rows under static allocation", 572, 512),
                "{t}"
            ),
            Err(e) => panic!("{t}: {e}"),
            Ok(rep) => assert_ne!(t, Technique::Baseline, "baseline ran: {rep:?}"),
        }
    }
    let err = session
        .run(&w.kernel, w.launch(), Technique::Baseline)
        .expect_err("the baseline cannot start");
    let text = err.to_string();
    assert!(
        text.contains("a CTA needs 572 register rows under static allocation, the SM has 512"),
        "{text}"
    );
}
