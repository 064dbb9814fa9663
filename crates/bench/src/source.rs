//! Job sources and executors: the seam between *what* a sweep runs and
//! *where* it runs.
//!
//! A [`JobSource`] describes a sweep as a list of [`MatrixJob`]s — the
//! `(app, technique, config, ctas, force_es, cycle_budget)` tuple every
//! execution substrate understands — and knows how to render the results.
//! A [`JobExecutor`] turns those jobs into [`CachedResult`]s: the
//! in-process [`Runner`] is one executor, a fleet coordinator dispatching
//! the same jobs to remote workers is another. Because the source renders
//! purely from the returned reports (in submission order), a sweep's
//! output is byte-identical across executors. Every table and figure of
//! the paper is a source (see [`crate::figures`]).

use std::sync::Arc;

use regmutex::Technique;
use regmutex_compiler::CompileOptions;
use regmutex_sim::{GpuConfig, LaunchConfig};
use regmutex_workloads::suite;

use crate::cache::CachedResult;
use crate::runner::{JobSpec, Runner};

/// One sweep job, described at the workload-registry level rather than as
/// a materialized [`JobSpec`]. On the GTX480 config or its half-RF variant
/// this is exactly what a `POST /v1/run` body carries, so such a job can be
/// executed locally (via [`MatrixJob::to_spec`]) or shipped to a
/// `regmutex-server` worker and produce the same result either way.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixJob {
    /// Human-readable label for error rows, e.g. `"BFS/regmutex"`.
    pub label: String,
    /// Workload name (must exist in the registry).
    pub app: String,
    /// Technique to run.
    pub technique: Technique,
    /// The GPU the job runs on (default: [`GpuConfig::gtx480`]).
    pub cfg: GpuConfig,
    /// Grid-size override.
    pub ctas: Option<u32>,
    /// Forced `|Es|`.
    pub force_es: Option<u16>,
    /// Per-job cycle ceiling.
    pub cycle_budget: Option<u64>,
}

impl MatrixJob {
    /// A job on the GTX480 with defaults for everything but the identity
    /// fields.
    pub fn new(app: impl Into<String>, technique: Technique) -> Self {
        let app = app.into();
        MatrixJob {
            label: format!("{app}/{technique}"),
            app,
            technique,
            cfg: GpuConfig::gtx480(),
            ctas: None,
            force_es: None,
            cycle_budget: None,
        }
    }

    /// Whether `other` runs the same job apart from the technique (and
    /// label): the precondition for [`regmutex::verdict()`]'s occupancy and
    /// fallback checks.
    pub fn same_job(&self, other: &MatrixJob) -> bool {
        let key = |j: &MatrixJob| (j.ctas, j.force_es, j.cycle_budget);
        self.app == other.app && self.cfg == other.cfg && key(self) == key(other)
    }

    /// Materialize the [`JobSpec`] this job runs as — the same spec the
    /// server builds for the equivalent `/v1/run` body, so local and
    /// remote execution share one content fingerprint.
    pub fn to_spec(&self) -> Result<JobSpec, String> {
        job_spec(
            &self.app,
            self.technique,
            &self.cfg,
            self.ctas,
            self.force_es,
            self.cycle_budget,
        )
    }
}

/// The body of [`MatrixJob::to_spec`], over borrowed fields so a caller
/// holding them elsewhere (a decoded `/v1/run` request) builds the same
/// spec without first copying them into a job.
pub fn job_spec(
    app: &str,
    technique: Technique,
    cfg: &GpuConfig,
    ctas: Option<u32>,
    force_es: Option<u16>,
    cycle_budget: Option<u64>,
) -> Result<JobSpec, String> {
    let w = suite::by_name(app).ok_or_else(|| {
        let names = suite::names().join(", ");
        format!("unknown workload '{app}'; available: {names}")
    })?;
    let launch = LaunchConfig::new(ctas.unwrap_or(w.grid_ctas));
    let mut spec = JobSpec::shared(
        format!("{}/{technique}", w.name),
        Arc::new(w.kernel),
        cfg,
        launch,
        technique,
    )
    .with_options(CompileOptions {
        force_es,
        force_apply: force_es.is_some(),
    });
    if let Some(b) = cycle_budget {
        spec = spec.with_cycle_budget(b);
    }
    Ok(spec)
}

/// An execution substrate for [`MatrixJob`]s. Implementations must return
/// one result per job, **in submission order** — the property every
/// renderer's byte-stability rests on. Per-job failures are `Err` rows in
/// the result vector (a labeled error row, never a missing one);
/// `Err(String)` is reserved for substrate-level failures (no workers
/// reachable, unknown workload) that prevent running the batch at all.
pub trait JobExecutor {
    /// Run the batch; `results.len() == jobs.len()` on success.
    fn execute(&self, jobs: &[MatrixJob]) -> Result<Vec<CachedResult>, String>;
}

impl JobExecutor for Runner {
    fn execute(&self, jobs: &[MatrixJob]) -> Result<Vec<CachedResult>, String> {
        let specs = jobs
            .iter()
            .map(MatrixJob::to_spec)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.run_all(&specs))
    }
}

/// A sweep: a batch of jobs plus the renderer that turns their results
/// into the figure/table text. `render` sees results in submission order
/// and must derive every printed value from the reports alone, so any
/// conforming [`JobExecutor`] reproduces the same bytes.
pub trait JobSource {
    /// The output's name: its golden is `results/<name>.txt`.
    fn name(&self) -> &'static str;
    /// The jobs, in the order `render` expects them.
    fn jobs(&self) -> Vec<MatrixJob>;
    /// Render results (same order as [`JobSource::jobs`]) into the output
    /// text plus a process exit code (0 = clean, non-zero = some job
    /// failed or diverged; the text still renders what it can).
    fn render(&self, jobs: &[MatrixJob], results: &[CachedResult]) -> (String, i32);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_job_spec_matches_hand_built_spec() {
        // The fig07 jobs must materialize into exactly the specs built by
        // hand from the registry — same fingerprints, so local and fleet
        // execution share cache entries and golden output.
        let cfg = GpuConfig::gtx480();
        for w in suite::occupancy_limited() {
            for t in [Technique::Baseline, Technique::RegMutex] {
                let by_hand =
                    JobSpec::new(format!("{}/{t}", w.name), &w.kernel, &cfg, w.launch(), t);
                let via_job = MatrixJob::new(w.name, t).to_spec().unwrap();
                assert_eq!(
                    by_hand.fingerprint(),
                    via_job.fingerprint(),
                    "{}/{t}",
                    w.name
                );
            }
        }
    }

    /// Only the label and the technique may differ within one job; the
    /// half register file and a forced `|Es|` make another job.
    #[test]
    fn same_job_ignores_only_label_and_technique() {
        let base = MatrixJob::new("BFS", Technique::Baseline);
        let rm = MatrixJob {
            label: "BFS/any".into(),
            ..MatrixJob::new("BFS", Technique::RegMutex)
        };
        assert!(base.same_job(&rm));
        let half = MatrixJob {
            cfg: GpuConfig::gtx480_half_rf(),
            ..rm.clone()
        };
        let forced = MatrixJob {
            force_es: Some(4),
            ..rm.clone()
        };
        let other = MatrixJob::new("SAD", Technique::RegMutex);
        assert!(![half, forced, other].iter().any(|j| base.same_job(j)));
    }

    #[test]
    fn unknown_app_is_a_substrate_error() {
        let err = MatrixJob::new("Nope", Technique::Baseline)
            .to_spec()
            .unwrap_err();
        assert!(err.contains("available"), "{err}");
        let runner = Runner::new(1);
        assert!(runner
            .execute(&[MatrixJob::new("Nope", Technique::Baseline)])
            .is_err());
    }
}
