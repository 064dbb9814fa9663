//! The differential cross-technique oracle.
//!
//! Every generated kernel runs under all five [`Technique`]s as one job
//! apart from the technique, so [`regmutex::verdict()`] holds each to all
//! four invariants against the baseline (DESIGN.md §9): verdict symmetry,
//! checksum agreement, the occupancy floor (RegMutex and RegMutexPaired)
//! and fallback identity (a RegMutex run without a plan, whatever its
//! [`FallbackClass`], must match the baseline stat for stat). The oracle
//! adds the one step that needs a runner: a watchdog expiry is re-run at
//! `escalate_factor` times the cycle budget and the re-run is judged
//! instead (slower by design is not wrong).

pub use regmutex::DivergenceKind;
use regmutex::{verdict, RunError, Technique, ALL_TECHNIQUES};
use regmutex_bench::runner::FaultSpec;
use regmutex_bench::{CachedResult, JobSpec, Runner};
use regmutex_compiler::{compile, CompileOptions, FallbackClass};
use regmutex_sim::{GpuConfig, LaunchConfig, SimError};
use std::sync::Arc;

use crate::gen::Generated;

/// Oracle tunables.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Cycle budget per run (watchdog override); generated kernels are
    /// sized to finish far below it.
    pub cycle_budget: u64,
    /// Budget multiplier for re-running a watchdog-expired technique
    /// before calling the asymmetry a divergence.
    pub escalate_factor: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            cycle_budget: 400_000,
            escalate_factor: 8,
        }
    }
}

/// What the oracle concluded about one kernel.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// All invariants hold. `escalations` counts blessed budget
    /// asymmetries resolved by re-running with a larger budget.
    Agreement {
        /// Watchdog escalations that were needed (and succeeded).
        escalations: u32,
    },
    /// An invariant failed.
    Divergence(Divergence),
}

/// Which invariant failed, against which technique.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The offending technique (baseline itself if it failed to run).
    pub technique: Technique,
    /// Invariant class.
    pub kind: DivergenceKind,
    /// Human-readable evidence.
    pub detail: String,
}

/// The GPU config a generated kernel runs under.
pub fn config_for(g: &Generated) -> GpuConfig {
    if g.half_rf {
        GpuConfig::gtx480_half_rf()
    } else {
        GpuConfig::gtx480()
    }
}

/// The five [`JobSpec`]s (baseline first, [`ALL_TECHNIQUES`] order) one
/// kernel fans out to. Labels carry the kernel name so cache fingerprints
/// and error rows stay self-describing.
pub fn specs_for(g: &Generated, oc: &OracleConfig) -> Vec<JobSpec> {
    specs_over(g, oc, &ALL_TECHNIQUES, None)
}

/// The specs for `techniques`, all sharing one copy of the kernel (so the
/// runner hashes and compiles it once for all of them). With a `fault`,
/// its technique's spec carries it, escalations included; such a spec is
/// always simulated, never cached.
pub(crate) fn specs_over(
    g: &Generated,
    oc: &OracleConfig,
    techniques: &[Technique],
    fault: Option<&PlantedFault>,
) -> Vec<JobSpec> {
    let cfg = config_for(g);
    let launch = LaunchConfig::new(g.grid_ctas);
    let kernel = Arc::new(g.kernel.clone());
    techniques
        .iter()
        .map(|&t| {
            let label = format!("{}/{t}", g.kernel.name);
            let spec = JobSpec::shared(label, Arc::clone(&kernel), &cfg, launch, t)
                .with_cycle_budget(oc.cycle_budget);
            match fault.filter(|f| f.technique == t) {
                Some(f) => spec.with_fault(FaultSpec {
                    class: f.class,
                    severity: f.severity,
                    seed: f.seed,
                    log: Arc::default(),
                }),
                None => spec,
            }
        })
        .collect()
}

/// Run `techniques` (baseline first) of one kernel on `runner`, with
/// `fault` planted if given, and evaluate the invariants. With
/// [`ALL_TECHNIQUES`] this is the full check.
pub fn run_local(
    g: &Generated,
    runner: &Runner,
    oc: &OracleConfig,
    techniques: &[Technique],
    fault: Option<&PlantedFault>,
) -> Outcome {
    probe(g, runner, oc, techniques, fault, || fallback_note(g))
}

/// [`run_local`] with `note` in place of the kernel's fallback class.
/// `[Baseline, t]` with a `note` that renders nothing is the cheap probe
/// the minimizer re-evaluates hundreds of times: it reads only the
/// technique and kind, so it compiles nothing outside the runner.
pub(crate) fn probe(
    g: &Generated,
    runner: &Runner,
    oc: &OracleConfig,
    techniques: &[Technique],
    fault: Option<&PlantedFault>,
    note: impl Fn() -> String,
) -> Outcome {
    let results = runner.run_all(&specs_over(g, oc, techniques, fault));
    evaluate_over(techniques, &results, oc, note, |t| {
        escalate(g, runner, oc, t, fault)
    })
}

/// Re-run technique `t` of `g` on `runner` under the escalated cycle
/// budget (a distinct cache fingerprint), with `fault` planted if given.
pub(crate) fn escalate(
    g: &Generated,
    runner: &Runner,
    oc: &OracleConfig,
    t: Technique,
    fault: Option<&PlantedFault>,
) -> CachedResult {
    let spec = specs_over(g, oc, &[t], fault).remove(0);
    let budget = oc.cycle_budget * oc.escalate_factor;
    runner.run_all(&[spec.with_cycle_budget(budget)]).remove(0)
}

/// Evaluate the oracle invariants over `results` (one per technique, in
/// [`ALL_TECHNIQUES`] order, baseline first). `escalate` re-runs one
/// technique under the escalated cycle budget; it is only invoked for
/// watchdog-expired rows.
pub fn evaluate(
    g: &Generated,
    results: &[CachedResult],
    oc: &OracleConfig,
    escalate: impl FnMut(Technique) -> CachedResult,
) -> Outcome {
    evaluate_over(&ALL_TECHNIQUES, results, oc, || fallback_note(g), escalate)
}

/// [`evaluate`] over `techniques` (baseline first): each result is judged
/// against the baseline's by [`verdict`], after the one step that needs a
/// runner — a watchdog-expired row is re-run under the escalated budget
/// and that run is judged instead. `note` renders the kernel's fallback
/// class into a verdict or fallback divergence's detail.
fn evaluate_over(
    techniques: &[Technique],
    results: &[CachedResult],
    oc: &OracleConfig,
    note: impl Fn() -> String,
    mut escalate: impl FnMut(Technique) -> CachedResult,
) -> Outcome {
    assert_eq!(results.len(), techniques.len());
    assert_eq!(techniques.first(), Some(&Technique::Baseline));
    let mut escalations = 0u32;
    let mut settle = |t: Technique, result: &CachedResult| match result {
        Err(RunError::Sim(SimError::WatchdogExpired { .. })) => {
            escalations += 1;
            (Some(escalate(t)), true)
        }
        _ => (None, false),
    };

    let (rerun, escalated) = settle(Technique::Baseline, &results[0]);
    let base = match rerun.as_ref().unwrap_or(&results[0]) {
        Ok(base) => base,
        Err(e) => {
            let at = if escalated {
                " even at the escalated budget"
            } else {
                ""
            };
            let detail = format!("baseline failed{at}: {e}");
            return diverge(Technique::Baseline, DivergenceKind::Verdict, detail);
        }
    };
    for (&t, result) in techniques.iter().zip(results).skip(1) {
        let (rerun, escalated) = settle(t, result);
        let run = rerun.as_ref().unwrap_or(result);
        // Every spec of a kernel is the same job apart from the technique
        // (an escalation raises only the watchdog's budget).
        let Some(kind) = verdict(base, run.as_ref(), true) else {
            continue;
        };
        let detail = match (run, kind) {
            (Err(e), _) if escalated => format!(
                "still failing at {}x the cycle budget: {e}",
                oc.escalate_factor
            ),
            (Err(e), _) => format!("baseline completed but {t} failed ({}): {e}", note()),
            (Ok(r), DivergenceKind::Checksum) => format!(
                "checksum {:#018x} != baseline {:#018x}",
                r.stats.checksum, base.stats.checksum
            ),
            (Ok(r), DivergenceKind::Occupancy) => format!(
                "theoretical occupancy {} warps < baseline {}",
                r.theoretical_occupancy_warps, base.theoretical_occupancy_warps
            ),
            (Ok(r), _) => format!(
                "untransformed ({}) yet stats differ from baseline: {} vs {} cycles",
                note(),
                r.stats.cycles,
                base.stats.cycles
            ),
        };
        return diverge(t, kind, detail);
    }
    Outcome::Agreement { escalations }
}

fn diverge(technique: Technique, kind: DivergenceKind, detail: String) -> Outcome {
    Outcome::Divergence(Divergence {
        technique,
        kind,
        detail,
    })
}

/// A deliberately-broken register manager: which fault class corrupts
/// which technique's manager (see [`regmutex_sim::FaultPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlantedFault {
    /// Fault class to inject.
    pub class: regmutex_sim::FaultClass,
    /// Light or severe.
    pub severity: regmutex_sim::Severity,
    /// Fault-plan seed.
    pub seed: u64,
    /// Technique whose manager is wrapped in the injector.
    pub technique: Technique,
}

/// The compiler's classification of this kernel, rendered for divergence
/// details ("transform applied, es=6" / "fallback: not register-limited").
fn fallback_note(g: &Generated) -> String {
    let compiled = match compile(&g.kernel, &config_for(g), &CompileOptions::default()) {
        Ok(c) => c,
        Err(e) => return format!("kernel failed validation: {e}"),
    };
    let why = match compiled.fallback() {
        None => {
            return compiled.plan.map_or("transform applied".into(), |p| {
                format!("transform applied, es={}", p.es)
            })
        }
        Some(FallbackClass::NotRegisterLimited) => "not register-limited",
        Some(FallbackClass::NoViableCandidate) => "no viable |Es| candidate",
        Some(FallbackClass::RegionFormation) => "region formation failed",
        Some(FallbackClass::VerificationFailed) => "static verifier rejected every candidate",
    };
    format!("fallback: {why}")
}
