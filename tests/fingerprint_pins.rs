//! Pinned job keys. `JobSpec::fingerprint` keys the result cache, the
//! durable result store and campaign journals, so a change to any value
//! below makes every store and journal written before it miss (or refuse
//! to resume). The values were recorded before the runner started
//! building keys in stages; the second test proves the staged keys
//! `Runner::run_all` computes are the same values.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use regmutex::{RunError, Technique};
use regmutex_bench::{CachedResult, DurableTier, JobSpec, MatrixJob, Runner};
use regmutex_compiler::CompileOptions;
use regmutex_fuzz::generate;
use regmutex_fuzz::oracle::{config_for, specs_for, OracleConfig};
use regmutex_sim::{GpuConfig, LaunchConfig};

/// The basket of specs whose keys are pinned.
fn basket() -> Vec<(String, JobSpec)> {
    let oc = OracleConfig::default();
    let mut out = Vec::new();
    for seed in [0x1, 0xc1, 0xA001, 0xB00F] {
        for spec in specs_for(&generate(seed), &oc) {
            out.push((format!("generate({seed:#x})/{}", spec.technique), spec));
        }
    }
    let g = generate(0xc1);
    let escalated = specs_for(&g, &oc)
        .remove(1)
        .with_cycle_budget(oc.cycle_budget * oc.escalate_factor);
    out.push(("generate(0xc1)/regmutex/escalated".into(), escalated));
    let forced = JobSpec::new(
        "forced",
        &g.kernel,
        &config_for(&g),
        LaunchConfig::new(g.grid_ctas),
        Technique::RegMutex,
    )
    .with_options(CompileOptions {
        force_es: Some(4),
        force_apply: true,
    });
    out.push(("generate(0xc1)/regmutex/force_es=4".into(), forced));
    for (rf, cfg) in [
        ("full-rf", GpuConfig::gtx480()),
        ("half-rf", GpuConfig::gtx480_half_rf()),
    ] {
        let mut job = MatrixJob::new("BFS", Technique::RegMutex);
        job.cfg = cfg;
        out.push((
            format!("BFS/regmutex/{rf}"),
            job.to_spec().expect("BFS exists"),
        ));
    }
    out
}

/// `basket()`'s fingerprints, in basket order.
const PINS: &[(&str, u64)] = &[
    ("generate(0x1)/baseline", 0x2e19cf3cdd10f6c5),
    ("generate(0x1)/regmutex", 0x30cbd1f6831f9ba3),
    ("generate(0x1)/regmutex-paired", 0xe0f35c583f6840b0),
    ("generate(0x1)/rfv", 0x4111373576350d0b),
    ("generate(0x1)/owf", 0x2d81e02ca7cc8809),
    ("generate(0xc1)/baseline", 0xd8156d53dd3cdea8),
    ("generate(0xc1)/regmutex", 0x7f26cc88daeb5ede),
    ("generate(0xc1)/regmutex-paired", 0xc8e0ae31dab26be3),
    ("generate(0xc1)/rfv", 0x04664f9999d213bc),
    ("generate(0xc1)/owf", 0xbc9783a5d129849a),
    ("generate(0xa001)/baseline", 0x67d8a531ff6852f7),
    ("generate(0xa001)/regmutex", 0x85ba0ccbf6181919),
    ("generate(0xa001)/regmutex-paired", 0xbf3beedb8c149b1e),
    ("generate(0xa001)/rfv", 0x6d604d80bb364729),
    ("generate(0xa001)/owf", 0xcc6f0e0ad7ce15a3),
    ("generate(0xb00f)/baseline", 0x7ad40d19f8bc5b35),
    ("generate(0xb00f)/regmutex", 0xb37b3c41a223e80f),
    ("generate(0xb00f)/regmutex-paired", 0x5052da9eb683098a),
    ("generate(0xb00f)/rfv", 0xd35e4bce3bf73141),
    ("generate(0xb00f)/owf", 0xd028e761898414a3),
    ("generate(0xc1)/regmutex/escalated", 0x907492e4c241a57e),
    ("generate(0xc1)/regmutex/force_es=4", 0x2a84ee0bc2540f55),
    ("BFS/regmutex/full-rf", 0xae68d7edb8482128),
    ("BFS/regmutex/half-rf", 0xba9b4927eced8ec8),
];

#[test]
fn fingerprints_are_pinned() {
    let basket = basket();
    assert_eq!(basket.len(), PINS.len());
    for ((name, spec), &(pinned_name, pinned)) in basket.iter().zip(PINS) {
        assert_eq!(name, pinned_name);
        assert_eq!(
            spec.fingerprint(),
            pinned,
            "{name}: key changed; stores and journals written before would miss"
        );
    }
}

/// A tier that records every key the runner probes and answers each probe
/// with a stub, so the batch resolves without simulating anything.
#[derive(Default)]
struct KeyLog(Mutex<Vec<u64>>);

impl DurableTier for KeyLog {
    fn load(&self, key: u64) -> Option<CachedResult> {
        self.0.lock().unwrap().push(key);
        Some(Err(RunError::Remote(format!("{key:#x}"))))
    }
    fn save(&self, _key: u64, _value: &CachedResult) {}
    fn sync(&self) {}
}

#[test]
fn run_all_keys_equal_fingerprints() {
    // A mixed batch: five specs sharing one kernel, the same kernel again
    // in separate copies, budgets, options and configs interleaved, and
    // duplicates. Neighbours that differ only in budget, only in config
    // or only in options must not share a compile key.
    let mut batch: Vec<JobSpec> = basket().into_iter().map(|(_, s)| s).collect();
    let base = batch[6].clone();
    let capped = base.clone().with_cycle_budget(1_000);
    let mut half = base.clone();
    half.cfg.regs_per_sm /= 2;
    let forced = base.clone().with_options(CompileOptions {
        force_es: Some(2),
        force_apply: true,
    });
    batch.splice(7..7, [capped, half, base, forced]);
    let g = generate(0xc1);
    let again = JobSpec::new(
        "copy",
        &g.kernel,
        &config_for(&g),
        LaunchConfig::new(g.grid_ctas),
        Technique::Rfv,
    );
    batch.insert(3, again.clone().with_cycle_budget(1_000));
    batch.insert(12, again);
    let dups: Vec<JobSpec> = batch.iter().step_by(3).cloned().collect();
    batch.extend(dups);
    batch.reverse();

    let log = Arc::new(KeyLog::default());
    let mut runner = Runner::new(2);
    runner.set_tier(Arc::clone(&log) as Arc<dyn DurableTier>);
    let results = runner.run_all(&batch);

    // Each distinct key is probed once, in first-occurrence order...
    let mut seen = HashSet::new();
    let expected: Vec<u64> = batch
        .iter()
        .map(JobSpec::fingerprint)
        .filter(|k| seen.insert(*k))
        .collect();
    assert_eq!(*log.0.lock().unwrap(), expected);
    // ...and every result is the one stored under its own fingerprint.
    for (spec, r) in batch.iter().zip(&results) {
        let want = format!("{:#x}", spec.fingerprint());
        assert!(
            matches!(r, Err(RunError::Remote(k)) if *k == want),
            "{}: {r:?}",
            spec.label
        );
    }
    assert_eq!(runner.compiles(), 0, "every job was a tier hit");
}
