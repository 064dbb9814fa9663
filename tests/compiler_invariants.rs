//! Property tests over the compiler passes themselves: liveness against a
//! brute-force reference on straight-line code, verifier guarantees on
//! transformed kernels, and heuristic viability rules.
//!
//! Cases are generated from fixed seeds. Structured kernels come from
//! `regmutex_fuzz::generate(seed)`; the straight-line kernels the
//! brute-force references need, and the other inputs, draw from a
//! `regmutex_isa::Rng` started at `seed * φ | 1`. The case number in a
//! failure message replays the input exactly.

use regmutex_compiler::{
    analyze, barrier_live_max, compile, es_select, verify_transformed, CompileOptions,
};
use regmutex_fuzz::{generate, oracle::config_for};
use regmutex_isa::{ArchReg, Instr, Kernel, Op, Rng};
use regmutex_sim::{GpuConfig, KernelResources};

/// The case generator for `seed`.
fn case_rng(seed: u64) -> Rng {
    Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
}

/// Brute-force liveness for straight-line code: a register is live-in at pc
/// if it is read at some pc' >= pc before being written.
fn brute_force_live_in(kernel: &Kernel, pc: usize, reg: u16) -> bool {
    for i in &kernel.instrs[pc..] {
        if i.srcs.iter().any(|s| s.0 == reg) {
            return true;
        }
        if i.dst == Some(ArchReg(reg)) {
            return false;
        }
    }
    false
}

/// Generate a straight-line instruction sequence over 6 registers.
fn gen_straight_line(rng: &mut Rng) -> Kernel {
    let n = rng.range(1, 30);
    let mut instrs = Vec::new();
    for _ in 0..n {
        let d = rng.below(6) as u16;
        let a = rng.below(6) as u16;
        let b = rng.below(6) as u16;
        let instr = match rng.below(4) {
            0 => Instr::new(Op::IAdd, Some(ArchReg(d)), vec![ArchReg(a), ArchReg(b)]),
            1 => Instr::new(Op::MovImm(u64::from(d) + 1), Some(ArchReg(d)), vec![]),
            2 => Instr::new(Op::Mov, Some(ArchReg(d)), vec![ArchReg(a)]),
            _ => Instr::new(
                Op::St(regmutex_isa::Space::Global),
                None,
                vec![ArchReg(a), ArchReg(b)],
            ),
        };
        instrs.push(instr);
    }
    instrs.push(Instr::new(Op::Exit, None, vec![]));
    Kernel {
        name: "straight".into(),
        instrs,
        regs_per_thread: 6,
        shmem_per_cta: 0,
        threads_per_cta: 32,
        seed: 0,
    }
}

/// Dataflow liveness equals the brute-force reference on straight-line code.
#[test]
fn liveness_matches_brute_force() {
    for case in 0..128u64 {
        let mut rng = case_rng(0xD004 + case);
        let kernel = gen_straight_line(&mut rng);
        let lv = analyze(&kernel);
        for pc in 0..kernel.len() {
            for reg in 0..6u16 {
                assert_eq!(
                    lv.live_in[pc].contains(usize::from(reg)),
                    brute_force_live_in(&kernel, pc, reg),
                    "case {case} pc {pc} reg {reg}"
                );
            }
        }
    }
}

/// Whatever the pipeline emits passes the static held-state verifier and
/// structural validation (on random structured kernels).
#[test]
fn pipeline_output_verifies() {
    for case in 0..128u64 {
        let seed = 0xE005 + case;
        let g = generate(seed);
        let kernel = &g.kernel;
        let es = 2 * (1 + seed % 4) as u16;
        let compiled = compile(
            kernel,
            &config_for(&g),
            &CompileOptions {
                force_es: Some(es),
                force_apply: true,
            },
        )
        .expect("compile runs");
        compiled
            .kernel
            .validate()
            .expect("transformed kernel valid");
        if let Some(plan) = compiled.plan {
            verify_transformed(&compiled.kernel, plan.bs)
                .unwrap_or_else(|e| panic!("generate({seed:#x}) (es {es}): {e}"));
            // The plan satisfies both deadlock rules.
            assert!(plan.srp_sections >= 1, "generate({seed:#x})");
            let lv = analyze(kernel);
            assert!(
                plan.bs >= barrier_live_max(kernel, &lv),
                "generate({seed:#x})"
            );
        }
    }
}

/// Heuristic invariants: candidates partition the rounded register count,
/// viable ones obey the deadlock rules, and the chosen one (if any) is
/// viable.
#[test]
fn es_selection_invariants() {
    for case in 0..128u64 {
        let mut rng = case_rng(0xF006 + case);
        let regs = rng.range(6, 64) as u16;
        let tpc = rng.range(1, 16) as u32;
        let bl = rng.below(20) as u16;
        let cfg = GpuConfig::gtx480();
        let res = KernelResources::new(regs, 0, tpc * 32);
        let sel = es_select::select(&cfg, res, bl);
        let total = cfg.round_regs(regs) as u16;
        assert_eq!(sel.total_regs, total, "case {case}");
        for c in &sel.ranked {
            assert_eq!(c.es + c.bs, total, "case {case}");
            if c.viable {
                assert!(c.srp_sections >= 1, "case {case}");
                assert!(c.bs >= bl, "case {case}");
                assert!(c.es > 0, "case {case}");
            }
        }
        if let Some(chosen) = sel.chosen() {
            assert!(chosen.viable, "case {case}");
            // No viable candidate has strictly better selection occupancy.
            for c in &sel.ranked {
                if c.viable {
                    assert!(c.selection_warps <= chosen.selection_warps, "case {case}");
                }
            }
        }
    }
}

/// Occupancy is monotonically non-increasing in register demand.
#[test]
fn occupancy_monotonic() {
    for case in 0..128u64 {
        let mut rng = case_rng(0x1007 + case);
        let tpc = rng.range(1, 16) as u32;
        let shmem = rng.below(24_000) as u32;
        let cfg = GpuConfig::gtx480();
        let mut last = u32::MAX;
        for regs in 1..=64u16 {
            let occ = regmutex_sim::theoretical(&cfg, KernelResources::new(regs, shmem, tpc * 32));
            assert!(
                occ.warps <= last,
                "case {case} regs {}: {} > {}",
                regs,
                occ.warps,
                last
            );
            last = occ.warps;
        }
    }
}

/// Generate a straight-line kernel over 10 registers ending in observable
/// stores, for compaction-focused properties.
fn gen_straight_line_10(rng: &mut Rng) -> Kernel {
    let n = rng.range(4, 40);
    let mut instrs = Vec::new();
    for _ in 0..n {
        let d = rng.below(10) as u16;
        let a = rng.below(10) as u16;
        let b = rng.below(10) as u16;
        let instr = match rng.below(5) {
            0 => Instr::new(Op::IAdd, Some(ArchReg(d)), vec![ArchReg(a), ArchReg(b)]),
            1 => Instr::new(Op::MovImm(u64::from(d * 31 + a)), Some(ArchReg(d)), vec![]),
            2 => Instr::new(Op::Xor, Some(ArchReg(d)), vec![ArchReg(a), ArchReg(b)]),
            3 => Instr::new(
                Op::IMad,
                Some(ArchReg(d)),
                vec![ArchReg(a), ArchReg(b), ArchReg(d)],
            ),
            _ => Instr::new(
                Op::St(regmutex_isa::Space::Global),
                None,
                vec![ArchReg(a), ArchReg(b)],
            ),
        };
        instrs.push(instr);
    }
    // Make every register's final value observable.
    for i in 0..10u16 {
        instrs.push(Instr::new(
            Op::St(regmutex_isa::Space::Global),
            None,
            vec![ArchReg(i), ArchReg((i + 1) % 10)],
        ));
    }
    instrs.push(Instr::new(Op::Exit, None, vec![]));
    Kernel {
        name: "sl10".into(),
        instrs,
        regs_per_thread: 10,
        shmem_per_cta: 0,
        threads_per_cta: 32,
        seed: 3,
    }
}

/// Compaction correctness, checked by execution: for any straight-line
/// program and any base-set size the pipeline accepts, the transformed
/// kernel leaves no extended-index access outside held regions AND produces
/// the exact same store checksum as the original.
#[test]
fn compaction_preserves_straightline_semantics() {
    use regmutex::{Session, Technique};
    use regmutex_sim::LaunchConfig;

    for case in 0..96u64 {
        let mut rng = case_rng(0x2008 + case);
        let kernel = gen_straight_line_10(&mut rng);
        let es = rng.range(2, 8) as u16;

        let cfg = GpuConfig::test_tiny();
        let compiled = compile(
            &kernel,
            &cfg,
            &CompileOptions {
                force_es: Some(es & !1),
                force_apply: true,
            },
        )
        .expect("compile runs");
        let Some(plan) = compiled.plan else { continue };
        // Static index invariant via the verifier…
        verify_transformed(&compiled.kernel, plan.bs).expect("verifier clean");
        // …and dynamic equivalence via the simulator.
        let session = Session::with_options(
            cfg,
            CompileOptions {
                force_es: Some(es & !1),
                force_apply: true,
            },
        );
        let launch = LaunchConfig::new(2);
        let base = session
            .run(&kernel, launch, Technique::Baseline)
            .expect("baseline");
        let rm = session
            .run(&kernel, launch, Technique::RegMutex)
            .expect("regmutex");
        assert_eq!(
            base.stats.checksum, rm.stats.checksum,
            "case {case} (es {es}): checksum diverged"
        );
    }
}
