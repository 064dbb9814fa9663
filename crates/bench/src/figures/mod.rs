//! Every table and figure the reproduction regenerates: one [`Figure`]
//! per checked-in golden `results/<name>.txt`, all listed in [`all`].
//!
//! A figure is a [`JobSource`]: its jobs can run on any
//! [`JobExecutor`](crate::JobExecutor) — one in-process
//! [`Runner`](crate::Runner) for all of them (`regmutex-cli figures`), or a
//! fleet coordinator for one of them. The five outputs that simulate
//! nothing (Figs 1–3, Table I and the storage table) have no jobs; their
//! renderer does all the work.
//!
//! No figure panics on a failed job: a row whose job failed (or computed a
//! different checksum than its reference) is left out, and the output ends
//! with the shared [`error_table`] and exit code 3.

use regmutex::{RunReport, Technique};
use regmutex_sim::GpuConfig;

use crate::cache::CachedResult;
use crate::report::{fmt_pct, Mean, Table};
use crate::runner::error_table;
use crate::source::{JobSource, MatrixJob};

mod analytic;
mod extensions;
mod paper;

use analytic::*;
use extensions::*;
use paper::*;

/// A figure's renderer: results (in job order) to its text and exit code.
type Render = fn(&[MatrixJob], &[CachedResult]) -> (String, i32);

/// One table or figure: the jobs it simulates and how it renders them.
#[derive(Debug)]
pub struct Figure {
    name: &'static str,
    jobs: fn() -> Vec<MatrixJob>,
    render: Render,
}

impl JobSource for Figure {
    fn name(&self) -> &'static str {
        self.name
    }

    fn jobs(&self) -> Vec<MatrixJob> {
        (self.jobs)()
    }

    fn render(&self, jobs: &[MatrixJob], results: &[CachedResult]) -> (String, i32) {
        (self.render)(jobs, results)
    }
}

const fn fig(name: &'static str, jobs: fn() -> Vec<MatrixJob>, render: Render) -> Figure {
    Figure { name, jobs, render }
}

static ALL: [Figure; 19] = [
    fig("ablation_bank_conflicts", banks_jobs, banks),
    fig("ablation_memory_latency", latency_jobs, latency),
    fig("ablation_rf_size", rf_size_jobs, rf_size),
    fig("ablation_scheduler", scheduler_jobs, scheduler),
    fig("extension_energy", energy_jobs, energy),
    fig("fig01_liveness", Vec::new, fig01),
    fig("fig02_timeline", Vec::new, fig02),
    fig("fig03_liveness_example", Vec::new, fig03),
    fig("fig07_occupancy_boost", fig07_jobs, fig07),
    fig("fig08_half_rf", fig08_jobs, fig08),
    fig("fig09a_comparison", fig09a_jobs, fig09a),
    fig("fig09b_comparison_half", fig09b_jobs, fig09b),
    fig("fig10_es_sweep", fig10_jobs, fig10),
    fig("fig11_es_occupancy_acquires", fig11_jobs, fig11),
    fig("fig12_paired", fig12_jobs, fig12),
    fig("fig13_acquire_success", fig13_jobs, fig13),
    fig("generalization_volta", volta_jobs, volta),
    fig("table01_workloads", Vec::new, table01),
    fig("table_storage", Vec::new, table_storage),
];

/// `fig01_liveness` followed by each traced warp's per-instruction
/// live-register percentages as CSV.
static FIG01_CSV: Figure = fig("fig01_liveness", Vec::new, fig01_csv);

/// Every figure, in `results/` file-name order.
pub fn all() -> &'static [Figure] {
    &ALL
}

/// The figure whose golden is `results/<name>.txt`.
pub fn by_name(name: &str) -> Option<&'static Figure> {
    ALL.iter().find(|f| f.name == name)
}

/// The figures `names` names, in that order (every figure when there are
/// none), with `fig01_liveness`'s CSV series appended when `csv` — or
/// which name is unknown.
pub fn select(names: &[String], csv: bool) -> Result<Vec<&'static Figure>, String> {
    let mut picked: Vec<&Figure> = match names {
        [] => ALL.iter().collect(),
        names => names
            .iter()
            .map(|n| by_name(n).ok_or(n))
            .collect::<Result<_, _>>()
            .map_err(|n| {
                let known: Vec<&str> = ALL.iter().map(|f| f.name).collect();
                format!("unknown figure '{n}'; available: {}", known.join(", "))
            })?,
    };
    for f in picked
        .iter_mut()
        .filter(|f| csv && f.name == FIG01_CSV.name)
    {
        *f = &FIG01_CSV;
    }
    Ok(picked)
}

/// A job for `app` under `technique` on `cfg`, named `label` in the
/// failure table.
fn job(label: String, app: &str, technique: Technique, cfg: &GpuConfig) -> MatrixJob {
    MatrixJob {
        label,
        cfg: cfg.clone(),
        ..MatrixJob::new(app, technique)
    }
}

/// What went wrong while a figure rendered, as `(label, error)` rows:
/// every failed job, then every report that diverged from its reference.
struct Failures {
    /// Jobs (or checks) the figure ran, for the table's "N of M" line.
    total: usize,
    rows: Vec<(String, String)>,
}

impl Failures {
    /// `total` runs, none failed yet.
    fn among(total: usize) -> Self {
        Failures {
            total,
            rows: Vec::new(),
        }
    }

    /// A batch's failed jobs, each one row.
    fn new(jobs: &[MatrixJob], results: &[CachedResult]) -> Self {
        let mut fails = Self::among(jobs.len());
        for (job, result) in jobs.iter().zip(results) {
            if let Err(e) = result {
                fails.push(&job.label, e);
            }
        }
        fails
    }

    fn push(&mut self, label: &str, error: impl std::fmt::Display) {
        self.rows.push((label.to_string(), error.to_string()));
    }

    /// `job`'s report, or `None` when the job failed or computed a
    /// different checksum than `reference` (recorded here): every
    /// technique and configuration must compute the same result.
    fn cell<'r>(
        &mut self,
        job: &MatrixJob,
        reference: &RunReport,
        result: &'r CachedResult,
    ) -> Option<&'r RunReport> {
        let report = result.as_ref().ok()?;
        if report.stats.checksum == reference.stats.checksum {
            return Some(report);
        }
        self.push(
            &job.label,
            format_args!(
                "functional divergence: {} checksum {:#018x} != {} checksum {:#018x}",
                reference.technique,
                reference.stats.checksum,
                report.technique,
                report.stats.checksum
            ),
        );
        None
    }

    /// The batch cut into rows of `n` jobs, as `(app, reports)`, leaving
    /// out each row in which a job failed or diverged from the row's first.
    fn rows<'r>(
        &mut self,
        jobs: &'r [MatrixJob],
        results: &'r [CachedResult],
        n: usize,
    ) -> Vec<(&'r str, Vec<&'r RunReport>)> {
        let mut rows = Vec::new();
        for (js, rs) in jobs.chunks(n).zip(results.chunks(n)) {
            let Some(Ok(reference)) = rs.first() else {
                continue;
            };
            let cells: Vec<_> = js
                .iter()
                .zip(rs)
                .map(|(job, result)| self.cell(job, reference, result))
                .collect();
            if let Some(reports) = cells.into_iter().collect() {
                rows.push((js[0].app.as_str(), reports));
            }
        }
        rows
    }

    /// One row per app of `metric` percentages, plus each column's
    /// average. With `paired`, a row holds a `(reference, report)` pair per
    /// column; otherwise one reference first, then a report per column.
    fn metric_table<S: AsRef<str>>(
        &mut self,
        jobs: &[MatrixJob],
        results: &[CachedResult],
        headers: &[S],
        paired: bool,
        metric: fn(&RunReport, &RunReport) -> f64,
    ) -> (Table, Vec<Mean>) {
        let cols = headers.len() - 1;
        let mut table = Table::new(headers);
        let mut avg = vec![Mean::new(); cols];
        let n = if paired { 2 * cols } else { cols + 1 };
        for (app, g) in self.rows(jobs, results, n) {
            let mut cells = vec![app.to_string()];
            for (i, avg) in avg.iter_mut().enumerate() {
                let (a, b) = if paired {
                    (g[2 * i], g[2 * i + 1])
                } else {
                    (g[0], g[i + 1])
                };
                let v = metric(a, b);
                avg.push(v);
                cells.push(fmt_pct(v));
            }
            table.row(cells);
        }
        (table, avg)
    }

    /// The finished output: `out`, then the failure table if anything
    /// failed. Exit code 0 when clean, 3 otherwise.
    fn finish(self, out: String) -> (String, i32) {
        match error_table(&self.rows, self.total) {
            None => (out, 0),
            Some(table) => (format!("{out}\n{table}"), 3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Runner;
    use crate::source::JobExecutor;
    use regmutex::RunError;

    fn fig07() -> &'static Figure {
        by_name("fig07_occupancy_boost").expect("fig07 is in the table")
    }

    #[test]
    fn fig07_render_marks_failures_as_rows_with_exit_3() {
        let source = fig07();
        let jobs = source.jobs();
        assert_eq!(jobs.len(), 16);
        // Fake results: every pair errors, so the table is empty and every
        // job shows up as a labeled error row.
        let results: Vec<CachedResult> = jobs
            .iter()
            .map(|j| Err(RunError::Remote(format!("{}: gave up", j.label))))
            .collect();
        let (text, code) = source.render(&jobs, &results);
        assert_eq!(code, 3);
        assert!(text.contains("16 of 16 job(s) failed"), "{text}");
        assert!(text.contains("BFS/regmutex"), "{text}");
        assert!(text.contains("remote worker error"), "{text}");
    }

    #[test]
    fn fig07_render_flags_checksum_divergence() {
        let source = fig07();
        let jobs = source.jobs();
        let runner = Runner::new(crate::runner::default_jobs());
        let mut results = runner.execute(&jobs).unwrap();
        // Corrupt one regmutex row's checksum: the renderer must surface
        // it as a divergence error, not print a silently-wrong row.
        if let Ok(r) = &mut results[1] {
            r.stats.checksum ^= 0xdead_beef;
        }
        let (text, code) = source.render(&jobs, &results);
        assert_eq!(code, 3);
        assert!(text.contains("functional divergence"), "{text}");
    }
}
