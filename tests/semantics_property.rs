//! Property tests: for randomly generated structured kernels, the RegMutex
//! compilation pipeline preserves semantics (store checksums match the
//! baseline exactly) and never deadlocks, under every technique.
//!
//! Kernels come from the fuzzer's generator, one fixed seed per case. A
//! failure message names that seed: `regmutex_fuzz::generate(seed)`
//! replays the case exactly and `regmutex_fuzz::minimize` can shrink it.

use regmutex::{verdict, Session, Technique};
use regmutex_compiler::CompileOptions;
use regmutex_fuzz::{generate, oracle::config_for, Generated};
use regmutex_sim::LaunchConfig;

/// Cases per property.
const CASES: u64 = 48;

/// Forced-|Es| options for a generated kernel: |Es| is half its rounded
/// register demand, rounded down to an even count and at least 2. A fixed
/// small |Es| leaves most kernels' pressure inside the base set, so few
/// cases would ever execute `acq.es`.
fn forced(g: &Generated) -> CompileOptions {
    let total = config_for(g).round_regs(g.kernel.regs_per_thread);
    let es = u16::try_from((total / 2) & !1).expect("register counts fit u16");
    CompileOptions {
        force_es: Some(es.max(2)),
        force_apply: true,
    }
}

/// The central compiler-correctness oracle: forced-|Es| RegMutex
/// compilation + execution produces exactly the baseline's checksum.
#[test]
fn regmutex_preserves_semantics() {
    for seed in (0..CASES).map(|case| 0xA001 + case) {
        let g = generate(seed);
        let cfg = config_for(&g);
        let launch = LaunchConfig::new(g.grid_ctas);
        let baseline = Session::new(cfg.clone())
            .run(&g.kernel, launch, Technique::Baseline)
            .expect("baseline completes");
        let opts = forced(&g);
        let es = opts.force_es;
        let rm = Session::with_options(cfg, opts)
            .run(&g.kernel, launch, Technique::RegMutex)
            .unwrap_or_else(|e| panic!("generate({seed:#x}): regmutex failed: {e}"));
        assert_eq!(
            baseline.stats.checksum, rm.stats.checksum,
            "generate({seed:#x}) (es {es:?}): checksum diverged"
        );
    }
}

/// Paired-warps and the related-work techniques are functionally
/// transparent too, and none of them deadlocks.
#[test]
fn all_techniques_agree() {
    for seed in (0..CASES).map(|case| 0xB002 + case) {
        let g = generate(seed);
        let launch = LaunchConfig::new(g.grid_ctas);
        let session = Session::new(config_for(&g));
        let compiled = session.compile(&g.kernel).expect("compiles");
        let baseline = session
            .run_compiled(&compiled, launch, Technique::Baseline)
            .expect("baseline completes");
        for t in [
            Technique::RegMutex,
            Technique::RegMutexPaired,
            Technique::Rfv,
            Technique::Owf,
        ] {
            let rep = session
                .run_compiled(&compiled, launch, t)
                .unwrap_or_else(|e| panic!("generate({seed:#x}) {t}: {e}"));
            assert_eq!(
                verdict(&baseline, Ok(&rep), true),
                None,
                "generate({seed:#x}): {t} diverged"
            );
        }
    }
}

/// The scheduler policy must never change functional results.
#[test]
fn scheduling_policy_is_functionally_transparent() {
    for seed in (0..CASES).map(|case| 0xC003 + case) {
        let g = generate(seed);
        let launch = LaunchConfig::new(g.grid_ctas);
        let mut cfg = config_for(&g);
        let gto = Session::new(cfg.clone())
            .run(&g.kernel, launch, Technique::Baseline)
            .expect("gto");
        cfg.policy = regmutex_sim::SchedulerPolicy::Lrr;
        let lrr = Session::new(cfg)
            .run(&g.kernel, launch, Technique::Baseline)
            .expect("lrr");
        assert_eq!(
            gto.stats.checksum, lrr.stats.checksum,
            "generate({seed:#x}): scheduler policy changed results"
        );
    }
}

/// The cases `regmutex_preserves_semantics` runs do get transformed, so
/// the properties above are not vacuous: at least half of them compile to
/// a RegMutex kernel, and at least a third of all cases acquire the
/// extended set.
#[test]
fn generator_produces_transformable_kernels() {
    let (mut transformed, mut acquiring) = (0, 0);
    for seed in (0..CASES).map(|case| 0xA001 + case) {
        let g = generate(seed);
        let compiled = Session::with_options(config_for(&g), forced(&g))
            .compile(&g.kernel)
            .expect("compiles");
        if compiled.is_transformed() {
            transformed += 1;
            acquiring += u64::from(compiled.diagnostics.acquires >= 1);
        }
    }
    assert!(
        2 * transformed >= CASES,
        "only {transformed} of {CASES} cases transformed"
    );
    assert!(
        acquiring >= 16,
        "only {acquiring} of {CASES} cases acquire the extended set"
    );
}
