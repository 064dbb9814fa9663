//! End-to-end safety-net tests: deadlock rule 2 (no barrier while the
//! extended set is held) must be enforced somewhere — by the compiler's
//! verifier when it plans the transformation, or by the simulator's
//! deadlock detector when a violating kernel runs anyway. A violation must
//! never hang the process or complete with a wrong checksum.

use regmutex::Technique;
use regmutex_bench::chaos::{run_campaign, CampaignSpec};
use regmutex_compiler::{verify_transformed, RegPlan, VerifyError};
use regmutex_isa::{ArchReg, KernelBuilder};
use regmutex_sim::{run_kernel, GpuConfig, LaunchConfig, SimError};

fn r(i: u16) -> ArchReg {
    ArchReg(i)
}

/// A miniature mergesort-style phase: every warp touches extended
/// registers, then synchronises at a CTA barrier — with the acquire/release
/// pair (wrongly) spanning the barrier.
fn rule2_violating_kernel() -> regmutex_isa::Kernel {
    let mut b = KernelBuilder::new("mergesort-rule2");
    b.threads_per_cta(64); // two warps per CTA
    b.declared_regs(8);
    b.movi(r(0), 1);
    b.acq_es();
    b.movi(r(4), 2); // extended access (bs = 4)
    b.iadd(r(0), r(4), r(0));
    b.bar(); // deadlock rule 2 violation: barrier while held
    b.rel_es();
    b.st_global(r(0), r(0));
    b.exit();
    b.build().unwrap()
}

#[test]
fn compiler_verifier_rejects_barrier_while_held() {
    let k = rule2_violating_kernel();
    assert_eq!(
        verify_transformed(&k, 4),
        Err(VerifyError::BarrierWhileHeld { pc: 4 }),
        "the static verifier must flag the barrier inside the held region"
    );
}

#[test]
fn compiled_barrier_workloads_never_hold_across_barriers() {
    // The pipeline must never emit what the previous test rejects: for the
    // barrier-synchronised suite workloads, any applied plan's transformed
    // kernel passes the rule-2 verifier.
    for name in ["MergeSort", "HotSpot3D", "RadixSort"] {
        let w = regmutex_workloads::suite::by_name(name).unwrap();
        let compiled = regmutex_compiler::compile(
            &w.kernel,
            &w.table_config(),
            &regmutex_compiler::CompileOptions::default(),
        )
        .unwrap();
        if let Some(plan) = &compiled.plan {
            verify_transformed(&compiled.kernel, plan.bs)
                .unwrap_or_else(|e| panic!("{name}: compiler emitted a rule-2 violation: {e}"));
        }
    }
}

#[test]
fn simulator_detects_rule2_deadlock_with_diagnostics() {
    // Run the violating kernel anyway (as if a buggy compiler shipped it):
    // warp 0 takes the single SRP section and parks at the barrier; warp 1
    // parks at `acq.es`. The no-progress detector must report a structured
    // deadlock — naming both sides — rather than hanging or completing.
    let k = rule2_violating_kernel();
    let cfg = GpuConfig::test_tiny();
    let plan = RegPlan {
        bs: 4,
        es: 4,
        total_regs: 8,
        srp_sections: 1,
        occupancy_warps: 2,
    };
    let err = run_kernel(&cfg, &k, LaunchConfig::new(1), || {
        Box::new(regmutex::RegMutexManager::new(&cfg, &plan))
    })
    .expect_err("a rule-2 violation with one section must deadlock");
    match err {
        SimError::Deadlock {
            cycle,
            last_progress,
            sm_id,
            blocked_at_acquire,
            srp_holders,
        } => {
            assert!(cycle > last_progress);
            assert_eq!(sm_id, 0, "single simulated SM: snapshot must name it");
            assert_eq!(
                blocked_at_acquire,
                vec![1],
                "warp 1 should be parked at acq.es"
            );
            assert_eq!(srp_holders, vec![0], "warp 0 should hold the section");
            let msg = err_to_string(&SimError::Deadlock {
                cycle,
                last_progress,
                sm_id,
                blocked_at_acquire,
                srp_holders,
            });
            assert!(msg.contains("blocked at acq.es"), "{msg}");
            assert!(msg.contains("SRP held by"), "{msg}");
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

fn err_to_string(e: &SimError) -> String {
    format!("{e}")
}

#[test]
fn chaos_smoke_on_the_barrier_workload() {
    // One barrier-synchronised workload, one seed per matrix cell: the
    // safety net must absorb or catch all 11 injections — silent
    // corruption fails the campaign outright.
    let spec = CampaignSpec {
        workloads: vec!["MergeSort".into()],
        seeds: 1,
        technique: Technique::RegMutex,
        jobs: 4,
        watchdog_cycles: None,
        stall_multiplier: None,
    };
    let report = run_campaign(&spec).expect("campaign setup");
    assert_eq!(report.silent(), 0, "{}", report.render());
    assert!(report.detected() > 0, "{}", report.render());
}
