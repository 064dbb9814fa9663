//! The end-to-end RegMutex compilation pipeline (§III-A steps 1–4).
//!
//! `compile` performs: register liveness analysis → extended-set size
//! selection → architected index compaction → acquire/release injection,
//! then statically verifies the result. If every `|Es|` candidate fails
//! (barrier inside a region, no free base register, verification failure),
//! compilation *falls back to the unmodified kernel* — exactly the paper's
//! "RegMutex evaluates all the registers as the members of the base register
//! set, therefore, it does not insert any acquire or release instructions".

use std::sync::Arc;

use regmutex_isa::{Kernel, ValidateKernelError};
use regmutex_sim::{occupancy, GpuConfig, KernelResources, Limiter};

use crate::compact::compact;
use crate::es_select::{self, barrier_live_max, CandidateEval, EsSelection};
use crate::inject::inject;
use crate::liveness::analyze;
use crate::regions::{find_regions, region_spans};
use crate::verify::verify_transformed;

/// Options controlling compilation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompileOptions {
    /// Force a specific `|Es|` instead of running the heuristic (used by the
    /// Fig 10/11 sensitivity sweeps). The heuristic's viability rules still
    /// apply.
    pub force_es: Option<u16>,
    /// Apply RegMutex even when the baseline occupancy is not
    /// register-limited (normally such kernels are left untouched).
    pub force_apply: bool,
}

/// The register plan the hardware needs at kernel launch (`|Bs|`, `|Es|`,
/// `SRPoffset` derivables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegPlan {
    /// Base register set size (per thread).
    pub bs: u16,
    /// Extended register set size (per thread).
    pub es: u16,
    /// `|Bs| + |Es|` (the rounded register demand).
    pub total_regs: u16,
    /// SRP sections available at the base-set occupancy.
    pub srp_sections: u32,
    /// Theoretical occupancy (warps) with only the base set allocated.
    pub occupancy_warps: u32,
}

/// Pipeline stage at which a candidate was rejected (drives the
/// [`FallbackClass`] classification the differential oracle consumes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RejectStage {
    /// Failed the deadlock-avoidance viability rules (§III-A2).
    Viability,
    /// Region formation or index compaction failed (e.g. a barrier inside
    /// every candidate region, no free base register).
    Regions,
    /// The candidate transformed cleanly but the static verifier rejected
    /// the result.
    Verification,
}

/// Per-candidate rejection record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedCandidate {
    /// The `|Es|` that failed.
    pub es: u16,
    /// Which stage rejected it.
    pub stage: RejectStage,
    /// Human-readable reason.
    pub reason: String,
}

/// Why [`compile`] left a kernel untransformed — the verifier-level
/// "expected rejection" classification. A fuzzing oracle uses this to
/// *bless* the resulting behavior asymmetry: an untransformed technique
/// must match the baseline exactly, and any divergence report names the
/// class so expected rejections are distinguishable from real bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackClass {
    /// Baseline occupancy is not register-limited; RegMutex leaves such
    /// kernels alone by design.
    NotRegisterLimited,
    /// Every `|Es|` candidate failed the viability rules.
    NoViableCandidate,
    /// At least one viable candidate existed but region formation or
    /// compaction failed for all of them.
    RegionFormation,
    /// At least one candidate reached the static verifier and was
    /// rejected there.
    VerificationFailed,
}

/// Compilation diagnostics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    /// `acq.es` inserted.
    pub acquires: u32,
    /// `rel.es` inserted.
    pub releases: u32,
    /// Compaction MOVs inserted.
    pub movs: u32,
    /// Candidates tried and rejected, in order.
    pub rejected: Vec<RejectedCandidate>,
}

/// Result of [`compile`].
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The (possibly transformed) kernel to execute.
    pub kernel: Kernel,
    /// The untouched input kernel (baselines and RFV run this).
    pub original: Kernel,
    /// The register plan, or `None` when RegMutex is not applied.
    pub plan: Option<RegPlan>,
    /// The heuristic's full candidate evaluation (absent under `force_es`).
    pub selection: Option<EsSelection>,
    /// Per-pc registers whose live range ends at that instruction of the
    /// *original* kernel — the compiler annotation RFV consumes \[3\].
    /// Shared, so every RFV run of this compilation reads one table.
    pub dead_after: Arc<Vec<Vec<u16>>>,
    /// Mean live-register count over the original kernel's instructions
    /// (see [`crate::Liveness::mean_live`]), from the same liveness pass.
    pub avg_live: f64,
    /// What the pipeline did.
    pub diagnostics: Diagnostics,
}

impl CompiledKernel {
    /// True when acquire/release primitives were injected.
    pub fn is_transformed(&self) -> bool {
        self.plan.is_some()
    }

    /// Why the pipeline fell back to the untouched kernel, or `None` when
    /// the transform was applied. The class is the *deepest* stage any
    /// candidate reached: a verification rejection outranks a region
    /// failure outranks plain non-viability.
    pub fn fallback(&self) -> Option<FallbackClass> {
        if self.plan.is_some() {
            return None;
        }
        let deepest = self.diagnostics.rejected.iter().map(|r| r.stage).max();
        Some(match deepest {
            None => FallbackClass::NotRegisterLimited,
            Some(RejectStage::Viability) => FallbackClass::NoViableCandidate,
            Some(RejectStage::Regions) => FallbackClass::RegionFormation,
            Some(RejectStage::Verification) => FallbackClass::VerificationFailed,
        })
    }
}

/// Run the full pipeline for `kernel` targeting `cfg`.
///
/// # Errors
///
/// Only structural kernel validation can fail; every pipeline-level failure
/// falls back to the unmodified kernel (with the reason recorded in
/// [`Diagnostics::rejected`]).
pub fn compile(
    kernel: &Kernel,
    cfg: &GpuConfig,
    options: &CompileOptions,
) -> Result<CompiledKernel, ValidateKernelError> {
    kernel.validate()?;
    let lv = analyze(kernel);
    let dead_after: Arc<Vec<Vec<u16>>> = Arc::new(
        (0..kernel.len())
            .map(|pc| lv.dead_after(kernel, pc))
            .collect(),
    );
    let avg_live = lv.mean_live();
    let bl_max = barrier_live_max(kernel, &lv);
    let res = KernelResources::new(
        kernel.regs_per_thread,
        kernel.shmem_per_cta,
        kernel.threads_per_cta,
    );
    let total = cfg.round_regs(kernel.regs_per_thread) as u16;

    let mut diagnostics = Diagnostics::default();
    let mut selection = None;

    let candidates: Vec<CandidateEval> = if let Some(es) = options.force_es {
        vec![es_select::evaluate_candidate(cfg, res, total, es, bl_max)]
    } else {
        let baseline = occupancy::theoretical(cfg, res);
        if baseline.limiter != Limiter::Registers && !options.force_apply {
            // Not register-limited: RegMutex leaves the kernel alone.
            return Ok(CompiledKernel {
                kernel: kernel.clone(),
                original: kernel.clone(),
                plan: None,
                selection: None,
                dead_after,
                avg_live,
                diagnostics,
            });
        }
        let sel = es_select::select(cfg, res, bl_max);
        let ranked = sel.ranked.clone();
        selection = Some(sel);
        ranked
    };

    for cand in candidates {
        if !cand.viable {
            diagnostics.rejected.push(RejectedCandidate {
                es: cand.es,
                stage: RejectStage::Viability,
                reason: "fails deadlock-avoidance viability rules".into(),
            });
            continue;
        }
        let regions = match find_regions(kernel, &lv, cand.bs) {
            Ok(r) => r,
            Err(e) => {
                diagnostics.rejected.push(RejectedCandidate {
                    es: cand.es,
                    stage: RejectStage::Regions,
                    reason: e.to_string(),
                });
                continue;
            }
        };
        let mut transformed = kernel.clone();
        let mut flags = regions;
        let movs = match compact(&mut transformed, &mut flags, cand.bs) {
            Ok(m) => m,
            Err(e) => {
                diagnostics.rejected.push(RejectedCandidate {
                    es: cand.es,
                    stage: RejectStage::Regions,
                    reason: e.to_string(),
                });
                continue;
            }
        };
        let spans = region_spans(&flags);
        let inj = inject(&mut transformed, &flags);
        if let Err(e) = verify_transformed(&transformed, cand.bs) {
            diagnostics.rejected.push(RejectedCandidate {
                es: cand.es,
                stage: RejectStage::Verification,
                reason: e.to_string(),
            });
            continue;
        }
        debug_assert!(transformed.validate().is_ok());
        debug_assert_eq!(inj.acquires as usize, spans.len());
        diagnostics.acquires = inj.acquires;
        diagnostics.releases = inj.releases;
        diagnostics.movs = movs;
        return Ok(CompiledKernel {
            kernel: transformed,
            original: kernel.clone(),
            plan: Some(RegPlan {
                bs: cand.bs,
                es: cand.es,
                total_regs: total,
                srp_sections: cand.srp_sections,
                occupancy_warps: cand.occupancy_warps,
            }),
            selection,
            dead_after,
            avg_live,
            diagnostics,
        });
    }

    // Every candidate failed: fall back to the untouched kernel.
    Ok(CompiledKernel {
        kernel: kernel.clone(),
        original: kernel.clone(),
        plan: None,
        selection,
        dead_after,
        avg_live,
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmutex_isa::{ArchReg, KernelBuilder, Op, TripCount};

    fn r(i: u16) -> ArchReg {
        ArchReg(i)
    }

    /// A register-hungry kernel: 24 regs/thread with a pressure spike, so
    /// that Fermi occupancy is register-limited and the worked example of
    /// §III-A2 applies (expected pick: Es=6, Bs=18).
    fn hungry_kernel() -> Kernel {
        let mut b = KernelBuilder::new("hungry");
        b.threads_per_cta(256);
        b.declared_regs(24);
        b.movi(r(0), 1);
        b.movi(r(1), 2);
        let top = b.here();
        // Low-pressure phase.
        b.ld_global(r(2), r(0));
        b.iadd(r(1), r(2), r(1));
        // High-pressure phase: build 22 more values, then fold them.
        for i in 2..24 {
            b.movi(r(i), u64::from(i));
        }
        let mut acc = 1u16;
        for i in (2..24).step_by(2) {
            b.imad(r(acc), r(i), r(i + 1), r(acc));
            acc = 1;
        }
        b.bra_loop(top, TripCount::Fixed(4));
        b.st_global(r(0), r(1));
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn pipeline_transforms_register_limited_kernel() {
        let cfg = GpuConfig::gtx480();
        let k = hungry_kernel();
        let c = compile(&k, &cfg, &CompileOptions::default()).unwrap();
        assert!(c.is_transformed(), "rejected: {:?}", c.diagnostics.rejected);
        let plan = c.plan.unwrap();
        assert_eq!(plan.total_regs, 24);
        assert_eq!((plan.bs, plan.es), (18, 6));
        assert!(c.diagnostics.acquires >= 1);
        assert_eq!(c.diagnostics.acquires, c.diagnostics.releases);
        assert!(c.kernel.count_ops(Op::is_regmutex_primitive) >= 2);
        assert!(c.kernel.validate().is_ok());
        // Original preserved untouched.
        assert_eq!(c.original, k);
        assert_eq!(c.original.count_ops(Op::is_regmutex_primitive), 0);
    }

    #[test]
    fn pipeline_skips_low_pressure_kernels() {
        let mut b = KernelBuilder::new("small");
        b.threads_per_cta(256);
        b.movi(r(0), 1).st_global(r(0), r(0)).exit();
        let k = b.build().unwrap();
        let cfg = GpuConfig::gtx480();
        let c = compile(&k, &cfg, &CompileOptions::default()).unwrap();
        assert!(!c.is_transformed());
        assert_eq!(c.kernel, k);
    }

    #[test]
    fn force_es_overrides_heuristic() {
        let cfg = GpuConfig::gtx480();
        let k = hungry_kernel();
        let c = compile(
            &k,
            &cfg,
            &CompileOptions {
                force_es: Some(8),
                force_apply: false,
            },
        )
        .unwrap();
        let plan = c.plan.expect("forced plan");
        assert_eq!(plan.es, 8);
        assert_eq!(plan.bs, 16);
    }

    #[test]
    fn impossible_force_es_falls_back() {
        let cfg = GpuConfig::gtx480();
        let k = hungry_kernel();
        // Es = total: bs = 0 -> non-viable.
        let c = compile(
            &k,
            &cfg,
            &CompileOptions {
                force_es: Some(24),
                force_apply: false,
            },
        )
        .unwrap();
        assert!(!c.is_transformed());
        assert_eq!(c.diagnostics.rejected.len(), 1);
    }

    #[test]
    fn fallback_classification() {
        let cfg = GpuConfig::gtx480();

        // Transformed kernel: no fallback.
        let c = compile(&hungry_kernel(), &cfg, &CompileOptions::default()).unwrap();
        assert_eq!(c.fallback(), None);

        // Low-pressure kernel: never a transform candidate.
        let mut b = KernelBuilder::new("small");
        b.threads_per_cta(256);
        b.movi(r(0), 1).st_global(r(0), r(0)).exit();
        let c = compile(&b.build().unwrap(), &cfg, &CompileOptions::default()).unwrap();
        assert_eq!(c.fallback(), Some(FallbackClass::NotRegisterLimited));

        // Forced impossible Es: every candidate dies at viability.
        let c = compile(
            &hungry_kernel(),
            &cfg,
            &CompileOptions {
                force_es: Some(24),
                force_apply: false,
            },
        )
        .unwrap();
        assert_eq!(c.fallback(), Some(FallbackClass::NoViableCandidate));
        assert!(c
            .diagnostics
            .rejected
            .iter()
            .all(|r| r.stage == RejectStage::Viability));
    }

    #[test]
    fn reject_stages_order_deepest_last() {
        assert!(RejectStage::Viability < RejectStage::Regions);
        assert!(RejectStage::Regions < RejectStage::Verification);
    }

    #[test]
    fn dead_after_table_covers_original() {
        let cfg = GpuConfig::gtx480();
        let k = hungry_kernel();
        let c = compile(&k, &cfg, &CompileOptions::default()).unwrap();
        assert_eq!(c.dead_after.len(), k.len());
    }

    #[test]
    fn transformed_kernel_survives_half_rf_too() {
        let cfg = GpuConfig::gtx480_half_rf();
        let k = hungry_kernel();
        let c = compile(&k, &cfg, &CompileOptions::default()).unwrap();
        assert!(c.is_transformed(), "rejected: {:?}", c.diagnostics.rejected);
        // Half the RF halves the base-set occupancy but the plan must still
        // satisfy the deadlock rules.
        let plan = c.plan.unwrap();
        assert!(plan.srp_sections >= 1);
    }
}
