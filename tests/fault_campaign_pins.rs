//! Pinned fault-campaign reports. A small `chaos` campaign and a small
//! planted-fault `fuzz` campaign each render their report, and the text is
//! reduced to one FNV-1a digest. The reports count every outcome by fault
//! class (chaos) and carry the divergence, its minimized trace and the
//! replayable artifact (fuzz), so a change to how a faulted run is
//! compiled, simulated, classified or minimized moves a pin. Both
//! campaigns are rendered at two worker counts, which must agree.

use regmutex::Technique;
use regmutex_bench::chaos::{run_campaign as run_chaos, CampaignSpec};
use regmutex_bench::Runner;
use regmutex_durable::fnv1a;
use regmutex_fuzz::{run_campaign as run_fuzz, CampaignConfig, PlantedFault};
use regmutex_sim::{FaultClass, Severity};

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
