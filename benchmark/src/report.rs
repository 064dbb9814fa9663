//! What one workload run produced, the metric vocabulary, and how a run
//! prints itself.

use std::collections::BTreeMap;

use regmutex_server::json::Json;

use crate::pipeline::{Counters, SimSum};
use crate::trace::Layer;
use crate::util::{iqr, median, num, obj};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How much worse a metric's median may get before `compare` calls it a
/// regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The metric's `bound` in `BENCHMARK.json`.
    File,
    /// This share of the median.
    Share(f64),
    /// Any increase at all.
    AnyIncrease,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics every workload reports (`BENCHMARK.json`
/// `end_to_end`, in that order).
pub const END_TO_END: [MetricDef; 3] = [
    def("setup_s", "s", Better::Lower, Bound::File),
    def("ops_per_s", "1/s", Better::Higher, Bound::File),
    def("peak_rss_mb", "MiB", Better::Lower, Bound::File),
];

/// End-to-end metrics only some workloads have. `BENCHMARK.json` can hold
/// only metrics every workload reports, so their bounds live here; the
/// detail line and `compare` carry them, the result line does not.
pub const DETAIL: [MetricDef; 6] = [
    def(
        "sim_minst_per_s",
        "Minst/s",
        Better::Higher,
        Bound::Share(0.20),
    ),
    def(
        "warm_kernels_per_s",
        "1/s",
        Better::Higher,
        Bound::Share(0.20),
    ),
    def("disk_mb", "MiB", Better::Lower, Bound::Share(0.02)),
    def("p50_ms", "ms", Better::Lower, Bound::Share(0.20)),
    def("p99_ms", "ms", Better::Lower, Bound::Share(0.20)),
    def("fail_frac", "ratio", Better::Lower, Bound::AnyIncrease),
];

/// The per-workload name `ops_per_s` stands for, where it has one.
pub fn alias(metric: &str, workload: &str) -> Option<&'static str> {
    match (metric, workload) {
        ("ops_per_s", "fuzz" | "fuzz_durable") => Some("kernels_per_s"),
        ("ops_per_s", "serve_cold" | "serve_warm") => Some("req_per_s"),
        _ => None,
    }
}

/// `metric` as `compare` and the run summary print it.
pub fn label(metric: &str, workload: &str) -> String {
    alias(metric, workload).map_or(metric.to_string(), |a| format!("{metric} ({a})"))
}

/// Per-layer metrics every workload's traced run exercises
/// (`BENCHMARK.json` `per_layer`, in that order).
pub const LAYERS: [(&str, &str); 14] = [
    ("runner.fingerprint_us", "us"),
    ("runner.cache_hits", "count"),
    ("runner.cache_misses", "count"),
    ("runner.busy_ratio", "ratio"),
    ("compiler.compile_us", "us"),
    ("compiler.liveness_us", "us"),
    ("compiler.transformed_ratio", "ratio"),
    ("sim.simulate_ms", "ms"),
    ("sim.cycles", "count"),
    ("sim.instructions", "count"),
    ("sim.step_calls", "count"),
    ("sim.skipped_cycles", "count"),
    ("sim.skip_ratio", "ratio"),
    ("sim.ns_per_step", "ns"),
];

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// The first few correctness failures, verbatim.
    pub errors: Vec<String>,
    /// Metric → one sample per round (or window).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer values (traced runs only), universal and workload-specific.
    pub layers: BTreeMap<&'static str, f64>,
    /// Exact simulator counters over the first round's fixed work (the
    /// traced run's cache counts cover the same work).
    pub sim: Option<SimSum>,
    pub rounds: usize,
    pub wall_s: f64,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            ..Outcome::default()
        }
    }

    pub fn sample(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    /// Record one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(why.into());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Fill the layer metrics every workload shares from aggregated spans.
    pub fn common_layers(
        &mut self,
        layers: &mut BTreeMap<&'static str, Layer>,
        ctr: &Counters,
        cache_hits: u64,
        cache_misses: u64,
        workers: usize,
    ) {
        use std::sync::atomic::Ordering::Relaxed;
        let get =
            |l: &BTreeMap<&'static str, Layer>, n: &str| l.get(n).cloned().unwrap_or_default();
        let job = get(layers, "job");
        let phase = get(layers, "phase");
        let simulate = get(layers, "simulate");
        let sim = self.sim.unwrap_or_default();
        let compiles = ctr.compiles.load(Relaxed);
        let steps = ctr.step_calls.load(Relaxed);
        let values = [
            (
                "runner.fingerprint_us",
                get(layers, "fingerprint").mean_us(),
            ),
            ("runner.cache_hits", cache_hits as f64),
            ("runner.cache_misses", cache_misses as f64),
            (
                "runner.busy_ratio",
                job.total_ns as f64 / (workers as f64 * phase.total_ns.max(1) as f64),
            ),
            ("compiler.compile_us", get(layers, "compile").mean_us()),
            ("compiler.liveness_us", get(layers, "liveness").mean_us()),
            (
                "compiler.transformed_ratio",
                ctr.transformed.load(Relaxed) as f64 / compiles.max(1) as f64,
            ),
            ("sim.simulate_ms", simulate.self_mean_us() / 1e3),
            ("sim.cycles", sim.cycles as f64),
            ("sim.instructions", sim.instructions as f64),
            ("sim.step_calls", sim.step_calls as f64),
            ("sim.skipped_cycles", sim.skipped_cycles as f64),
            (
                "sim.skip_ratio",
                sim.skipped_cycles as f64 / sim.cycles.max(1) as f64,
            ),
            (
                "sim.ns_per_step",
                simulate.self_ns as f64 / steps.max(1) as f64,
            ),
        ];
        self.layers.extend(values);
    }

    /// Median of a metric's samples.
    pub fn value(&self, metric: &str) -> f64 {
        self.samples.get(metric).map_or(f64::NAN, |v| median(v))
    }

    /// The `detail` object: every metric as median/IQR/n, layers, counters.
    pub fn detail_json(&self) -> Json {
        let mut metrics: Vec<(String, Json)> = Vec::new();
        for d in END_TO_END.iter().chain(DETAIL.iter()) {
            let samples = match d.name {
                "fail_frac" => vec![self.failed as f64 / self.attempted.max(1) as f64],
                name => match self.samples.get(name) {
                    Some(v) => v.clone(),
                    None => continue,
                },
            };
            metrics.push((
                d.name.to_string(),
                obj([
                    ("median", num(median(&samples))),
                    ("iqr", num(iqr(&samples))),
                    ("n", Json::U64(samples.len() as u64)),
                    (
                        "samples",
                        Json::Arr(samples.iter().map(|v| num(*v)).collect()),
                    ),
                    ("unit", Json::Str(d.unit.into())),
                    ("better", Json::Str(d.better.name().into())),
                ]),
            ));
        }
        let sim = self.sim.map_or(Json::Null, |s| {
            obj([
                ("cycles", Json::U64(s.cycles)),
                ("instructions", Json::U64(s.instructions)),
                ("step_calls", Json::U64(s.step_calls)),
                ("skipped_cycles", Json::U64(s.skipped_cycles)),
            ])
        });
        obj([
            ("workload", Json::Str(self.workload.into())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("rounds", Json::U64(self.rounds as u64)),
            ("wall_s", num(self.wall_s)),
            ("metrics", Json::Obj(metrics)),
            (
                "layers",
                obj(self.layers.iter().map(|(k, v)| (*k, num(*v)))),
            ),
            ("sim", sim),
            (
                "errors",
                Json::Arr(self.errors.iter().map(|e| Json::Str(e.clone())).collect()),
            ),
        ])
    }

    /// The result line, printed last: end-to-end metrics untraced, the shared
    /// per-layer metrics traced.
    pub fn result_json(&self, traced: bool) -> Json {
        let metrics: Vec<(String, Json)> = if traced {
            LAYERS
                .iter()
                .map(|(name, unit)| {
                    let v = self.layers.get(name).copied().unwrap_or(f64::NAN);
                    (name.to_string(), value_json(v, unit))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|d| (d.name.to_string(), value_json(self.value(d.name), d.unit)))
                .collect()
        };
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Human-readable summary lines.
    pub fn print_human(&self, traced: bool) {
        println!(
            "{}: {} rounds, {:.2} s wall, {} attempted, {} failed{}",
            self.workload,
            self.rounds,
            self.wall_s,
            self.attempted,
            self.failed,
            if traced { " (traced)" } else { "" }
        );
        for e in &self.errors {
            println!("  FAIL {e}");
        }
        if !traced {
            for d in END_TO_END.iter().chain(DETAIL.iter()) {
                if let Some(v) = self.samples.get(d.name) {
                    println!(
                        "  {:<26} {:>14.6} {:<8} (median, IQR {:.6}, n {})",
                        label(d.name, self.workload),
                        median(v),
                        d.unit,
                        iqr(v),
                        v.len()
                    );
                }
            }
        }
        for (k, v) in &self.layers {
            println!("  {k:<30} {v:>14.6}");
        }
    }
}

fn value_json(v: f64, unit: &str) -> Json {
    obj([("value", num(v)), ("unit", Json::Str(unit.into()))])
}
