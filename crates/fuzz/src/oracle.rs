//! The differential cross-technique oracle.
//!
//! Every generated kernel runs under all five [`Technique`]s; the paper's
//! correctness contract (§4: register time-sharing may change occupancy
//! and latency, never results) becomes three machine-checked invariants:
//!
//! 1. **Checksum agreement** — every technique's store checksum equals the
//!    baseline's.
//! 2. **Occupancy floor** — RegMutex and RegMutexPaired never report a
//!    *theoretical* occupancy below baseline (the whole point of sharing;
//!    RFV/OWF are related-work baselines whose storage overhead may
//!    legitimately cost a warp and are exempt — see DESIGN.md §9).
//! 3. **Verdict symmetry** — a technique may not deadlock or trip the
//!    safety net when the baseline completes. Two asymmetries are
//!    *blessed*: (a) a watchdog expiry that disappears under an escalated
//!    cycle budget and then agrees on the checksum (slower-by-design, not
//!    wrong), and (b) the static verifier rejecting every `|Es|` candidate
//!    — then the pipeline fell back to the untouched kernel
//!    ([`FallbackClass`]) and the technique must match the baseline
//!    *exactly*, stat for stat.

use regmutex::{RunError, Technique, ALL_TECHNIQUES};
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

/// The oracle's invariant classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Store checksums disagree with baseline.
    Checksum,
    /// Theoretical occupancy fell below baseline.
    Occupancy,
    /// Error/verdict asymmetry not blessed by escalation or fallback.
    Verdict,
    /// Verifier-blessed fallback ran, but stats differ from baseline.
    Fallback,
}

impl DivergenceKind {
    /// Stable artifact-format name.
    pub fn name(self) -> &'static str {
        match self {
            DivergenceKind::Checksum => "checksum",
            DivergenceKind::Occupancy => "occupancy",
            DivergenceKind::Verdict => "verdict",
            DivergenceKind::Fallback => "fallback",
        }
    }

    /// Parse an artifact-format name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "checksum" => Ok(DivergenceKind::Checksum),
            "occupancy" => Ok(DivergenceKind::Occupancy),
            "verdict" => Ok(DivergenceKind::Verdict),
            "fallback" => Ok(DivergenceKind::Fallback),
            other => Err(format!(
                "unknown divergence kind '{other}' (expected checksum|occupancy|verdict|fallback)"
            )),
        }
    }
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
/// [`ALL_TECHNIQUES`] this is the full check; `[Baseline, t]` is the cheap
/// probe the minimizer re-evaluates hundreds of times (two simulations,
/// and the baseline is usually a cache hit).
pub fn run_local(
    g: &Generated,
    runner: &Runner,
    oc: &OracleConfig,
    techniques: &[Technique],
    fault: Option<&PlantedFault>,
) -> Outcome {
    let results = runner.run_all(&specs_over(g, oc, techniques, fault));
    evaluate_over(g, techniques, &results, oc, |t| {
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
    evaluate_over(g, &ALL_TECHNIQUES, results, oc, escalate)
}

/// [`evaluate`] over an arbitrary technique subset (baseline first).
fn evaluate_over(
    g: &Generated,
    techniques: &[Technique],
    results: &[CachedResult],
    oc: &OracleConfig,
    mut escalate: impl FnMut(Technique) -> CachedResult,
) -> Outcome {
    assert_eq!(results.len(), techniques.len());
    assert_eq!(techniques.first(), Some(&Technique::Baseline));
    let mut escalations = 0u32;

    // Resolve the baseline row, escalating a watchdog expiry once.
    let base = match &results[0] {
        Ok(rep) => rep.clone(),
        Err(e) if is_watchdog(e) => {
            escalations += 1;
            match escalate(Technique::Baseline) {
                Ok(rep) => rep,
                Err(e) => {
                    return diverge(
                        Technique::Baseline,
                        DivergenceKind::Verdict,
                        format!("baseline failed even at the escalated budget: {e}"),
                    )
                }
            }
        }
        Err(e) => {
            return diverge(
                Technique::Baseline,
                DivergenceKind::Verdict,
                format!("baseline failed: {e}"),
            )
        }
    };

    for (t, res) in techniques.iter().zip(results).skip(1) {
        let rep = match res {
            Ok(rep) => rep.clone(),
            Err(e) if is_watchdog(e) => {
                // Blessed asymmetry candidate: slower-by-design. Re-run
                // with headroom; it must then complete *and* agree.
                escalations += 1;
                match escalate(*t) {
                    Ok(rep) => rep,
                    Err(e) => {
                        return diverge(
                            *t,
                            DivergenceKind::Verdict,
                            format!(
                                "still failing at {}x the cycle budget: {e}",
                                oc.escalate_factor
                            ),
                        )
                    }
                }
            }
            Err(e) => {
                return diverge(
                    *t,
                    DivergenceKind::Verdict,
                    format!(
                        "baseline completed but {t} failed ({}): {e}",
                        fallback_note(g)
                    ),
                )
            }
        };

        if rep.stats.checksum != base.stats.checksum {
            return diverge(
                *t,
                DivergenceKind::Checksum,
                format!(
                    "checksum {:#018x} != baseline {:#018x}",
                    rep.stats.checksum, base.stats.checksum
                ),
            );
        }
        if matches!(t, Technique::RegMutex | Technique::RegMutexPaired)
            && rep.theoretical_occupancy_warps < base.theoretical_occupancy_warps
        {
            return diverge(
                *t,
                DivergenceKind::Occupancy,
                format!(
                    "theoretical occupancy {} warps < baseline {}",
                    rep.theoretical_occupancy_warps, base.theoretical_occupancy_warps
                ),
            );
        }
        // Verifier-blessed fallback: when no |Es| candidate survived, the
        // technique ran the untouched kernel on the static manager and
        // must be indistinguishable from baseline, stat for stat — except
        // the loop's own accounting of itself (`skipped_cycles`,
        // `step_calls`): the fault injector inhibits fast-forwarding, so
        // those differ between a faulted and a clean run even when the
        // fault never architecturally fires (same normalization as the
        // bench-loop skip-vs-tick cross-check).
        if *t == Technique::RegMutex
            && rep.plan.is_none()
            && rep.stats.architectural() != base.stats.architectural()
        {
            return diverge(
                *t,
                DivergenceKind::Fallback,
                format!(
                    "untransformed ({}) yet stats differ from baseline: \
                     {} vs {} cycles",
                    fallback_note(g),
                    rep.stats.cycles,
                    base.stats.cycles
                ),
            );
        }
    }
    Outcome::Agreement { escalations }
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

fn diverge(technique: Technique, kind: DivergenceKind, detail: String) -> Outcome {
    Outcome::Divergence(Divergence {
        technique,
        kind,
        detail,
    })
}

fn is_watchdog(e: &RunError) -> bool {
    matches!(e, RunError::Sim(SimError::WatchdogExpired { .. }))
}

/// The static verifier's "expected rejection" classification for this
/// kernel, rendered for divergence details ("applied es=6" /
/// "fallback: verifier rejected every candidate").
fn fallback_note(g: &Generated) -> String {
    let cfg = config_for(g);
    match compile(&g.kernel, &cfg, &CompileOptions::default()) {
        Ok(c) => match c.fallback() {
            None => match c.plan {
                Some(p) => format!("transform applied, es={}", p.es),
                None => "transform applied".to_string(),
            },
            Some(FallbackClass::NotRegisterLimited) => "fallback: not register-limited".to_string(),
            Some(FallbackClass::NoViableCandidate) => {
                "fallback: no viable |Es| candidate".to_string()
            }
            Some(FallbackClass::RegionFormation) => "fallback: region formation failed".to_string(),
            Some(FallbackClass::VerificationFailed) => {
                "fallback: static verifier rejected every candidate".to_string()
            }
        },
        Err(e) => format!("kernel failed validation: {e}"),
    }
}
