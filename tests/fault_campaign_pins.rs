//! Pinned fault-campaign reports. A small `chaos` campaign and a small
//! planted-fault `fuzz` campaign each render their report, and the text is
//! reduced to one FNV-1a digest. The reports count every outcome by fault
//! class (chaos) and carry the divergence, its minimized trace and the
//! replayable artifact (fuzz), so a change to how a faulted run is
//! compiled, simulated, classified or minimized moves a pin. Both
//! campaigns are rendered at two worker counts, which must agree.
//!
//! The chaos report counts outcomes only, so a timing change inside a
//! faulted run cannot move it. The chaos campaign's memory-latency-spike
//! runs are therefore also pinned by their whole `SimStats::to_json` (or,
//! for a run the safety net aborts, its error): planted spikes are what
//! sends a blocked warp's gate past the gate wheel's span into its
//! overflow list.

use std::sync::Arc;

use regmutex::Technique;
use regmutex_bench::chaos::{run_campaign as run_chaos, CampaignSpec};
use regmutex_bench::runner::FaultSpec;
use regmutex_bench::{JobSpec, Runner};
use regmutex_durable::{fnv1a, Fnv1a};
use regmutex_fuzz::{run_campaign as run_fuzz, CampaignConfig, PlantedFault};
use regmutex_sim::{FaultClass, Severity};
use regmutex_workloads::suite;

/// `chaos MergeSort HotSpot3D --seeds 2`: two barrier-synchronised
/// workloads, every fault class.
fn chaos_report(jobs: usize) -> String {
    let spec = CampaignSpec {
        workloads: vec!["MergeSort".into(), "HotSpot3D".into()],
        seeds: 2,
        technique: Technique::RegMutex,
        jobs,
        watchdog_cycles: None,
        stall_multiplier: None,
    };
    let report = run_chaos(&spec).expect("campaign setup");
    // `--expect-detections` semantics: no silent corruption, every class
    // caught at least once.
    assert_eq!(report.silent(), 0, "{}", report.render());
    assert!(report.all_classes_detected(), "{}", report.render());
    report.render()
}

/// `fuzz --fault stuck-srp-bit:severe:5:regmutex --seed 0xfa017` with a
/// small kernel count and minimization budget.
fn fuzz_report(jobs: usize) -> String {
    let cfg = CampaignConfig {
        seed: 0xfa_017,
        iters: 24,
        fault: Some(PlantedFault {
            class: FaultClass::StuckSrpBit,
            severity: Severity::Severe,
            seed: 5,
            technique: Technique::RegMutex,
        }),
        minimize_tests: 300,
        max_divergences: 1,
        ..CampaignConfig::default()
    };
    let report = run_fuzz(&cfg, &Runner::new(jobs));
    let (text, code) = report.render();
    assert_eq!(code, 1, "the planted fault must be caught:\n{text}");
    assert!(report.divergences[0].minimize_steps > 0, "{text}");
    text
}

#[test]
fn chaos_report_is_pinned() {
    let text = chaos_report(2);
    assert_eq!(text, chaos_report(1), "worker count changed the report");
    assert_eq!(fnv1a(text.as_bytes()), 0xa7aa_7776_cb40_63bd, "{text}");
}

#[test]
fn planted_fault_fuzz_report_is_pinned() {
    let text = fuzz_report(2);
    assert_eq!(text, fuzz_report(1), "worker count changed the report");
    assert_eq!(fnv1a(text.as_bytes()), 0x92ee_33a9_d354_9249, "{text}");
}

/// The memory-latency-spike injections of `chaos MergeSort HotSpot3D
/// --seeds 2`, built as the campaign builds them: each workload's golden
/// RegMutex job on its sampled home SM, the campaign's seed and cycle
/// budget, light and severe. Each run is reduced to its stats or its
/// error, and the injections it logged.
#[test]
fn memory_spike_runs_are_pinned() {
    let runner = Runner::new(2);
    let mut h = Fnv1a::new();
    for (wi, name) in ["MergeSort", "HotSpot3D"].into_iter().enumerate() {
        let w = suite::by_name(name).expect("a Table I workload");
        let golden = JobSpec::new(
            name,
            &w.kernel,
            &w.table_config(),
            w.launch(),
            Technique::RegMutex,
        );
        let cycles = runner.run_all(std::slice::from_ref(&golden))[0]
            .as_ref()
            .expect("the golden run completes")
            .stats
            .cycles;
        let budget = cycles * 4 + golden.cfg.stall_limit() * 2 + 100_000;
        let mut jobs = Vec::new();
        for severity in [Severity::Light, Severity::Severe] {
            for s in 0..2 {
                let fault = FaultSpec {
                    class: FaultClass::MemLatencySpike,
                    severity,
                    seed: ((wi as u64) << 32) | s,
                    log: Arc::default(),
                };
                let job = JobSpec {
                    label: format!("{name}/{severity}/s{s}"),
                    ..golden.clone()
                };
                jobs.push(job.with_cycle_budget(budget).with_fault(fault));
            }
        }
        for (job, result) in jobs.iter().zip(runner.run_all(&jobs)) {
            let log = &job.fault.as_ref().expect("a faulted job").log;
            h.write_field(job.label.as_bytes());
            h.write_field(&log.injections().to_le_bytes());
            match result {
                Ok(report) => h.write_field(report.stats.to_json().as_bytes()),
                Err(e) => h.write_field(format!("{e:?}").as_bytes()),
            }
        }
    }
    let digest = h.finish();
    assert_eq!(
        digest, 0xc289_e4a5_6b4b_1f20,
        "spike runs moved: {digest:#018x}"
    );
}
