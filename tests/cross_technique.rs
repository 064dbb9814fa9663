//! Integration: every workload completes under every technique, all
//! techniques agree functionally (store checksums), and the headline
//! orderings hold.

use std::sync::Arc;

use regmutex_repro::prelude::*;

use regmutex::{
    cycle_reduction_percent, verdict, PairedWarpsManager, RegMutexManager, RfvManager, RunError,
    RunReport, ALL_TECHNIQUES,
};
use regmutex_isa::CtaId;
use regmutex_sim::{
    IssueFault, KernelImage, LaunchConfig, RegisterManager, SimError, Sm, StaticManager,
};

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

/// `manager`'s stated warp capacity, rounded down to whole CTAs of
/// `kernel` and capped by the SM's warp slots, shared memory and CTA slots,
/// is what an SM with more CTAs queued than can ever be resident admits on
/// its first cycle (nothing, refused at launch, when that is zero).
fn assert_admits_its_capacity<M: RegisterManager>(
    label: &str,
    cfg: &GpuConfig,
    kernel: &Kernel,
    manager: M,
) {
    let wpc = kernel.warps_per_cta(cfg.warp_size);
    let ctas = [
        cfg.max_warps_per_sm / wpc,
        manager.warp_capacity() / wpc,
        cfg.shmem_per_sm
            .checked_div(kernel.shmem_per_cta)
            .unwrap_or(u32::MAX),
        cfg.max_ctas_per_sm,
    ]
    .into_iter()
    .min()
    .unwrap();
    let image = Arc::new(KernelImage::new(kernel.clone()));
    let queued = (0..=cfg.max_ctas_per_sm).map(CtaId);
    let mut sm = Sm::new(cfg.clone(), image, Box::new(manager), queued);
    if let Err(e) = sm.step(0) {
        assert!(matches!(e, IssueFault::NoCtaFits { .. }), "{label}: {e:?}");
    }
    assert_eq!(sm.resident_warps(), ctas * wpc, "{label}");
}

/// Every manager but OWF admits exactly the capacity it states, which is
/// what a run reports as the technique's occupancy. OWF's admission falls
/// short of its capacity (see `OwfManager::warp_capacity`).
#[test]
fn managers_admit_the_warp_capacity_they_state() {
    for (rf, cfg) in [
        ("full", GpuConfig::gtx480()),
        ("half", GpuConfig::gtx480_half_rf()),
    ] {
        let session = Session::new(cfg.clone());
        for w in suite::all() {
            let c = session.compile(&w.kernel).expect("compile");
            let (k, regs) = (&c.original, c.original.regs_per_thread);
            let label = |t: &str| format!("{}/{t}/{rf} RF", w.name);
            let static_manager = StaticManager::new(&cfg, regs);
            assert_admits_its_capacity(&label("static"), &cfg, k, static_manager);
            let rfv = RfvManager::new(&cfg, Arc::clone(&c.dead_after), regs, c.avg_live);
            assert_admits_its_capacity(&label("rfv"), &cfg, k, rfv);
            if let Some(p) = &c.plan {
                let rm = RegMutexManager::new(&cfg, p);
                assert_admits_its_capacity(&label("regmutex"), &cfg, &c.kernel, rm);
                let paired = PairedWarpsManager::new(&cfg, p);
                assert_admits_its_capacity(&label("paired"), &cfg, &c.kernel, paired);
            }
        }
    }
}
