//! Closed-loop load generation through the fleet coordinator
//! (`regmutex-cli loadgen --fleet`).
//!
//! Unlike the single-server load generator (which speaks raw HTTP at one
//! worker), this drives [`Coordinator::run_traced`]: every logical
//! request goes through routing, retries, backoff, and failover, and the
//! report breaks the traffic down *per worker* — requests served, share,
//! retry counts, and exact latency percentiles — so a lopsided ring or a
//! flapping worker is visible at a glance.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use regmutex::Technique;
use regmutex_bench::{MatrixJob, Table};
use regmutex_server::loadgen::{percentile_us, Rng};
use regmutex_workloads::suite;

use crate::coordinator::Coordinator;

/// Fleet load-generator parameters.
#[derive(Debug, Clone)]
pub struct FleetLoadgenConfig {
    /// Concurrent closed-loop client threads.
    pub threads: usize,
    /// Logical requests per thread.
    pub requests: usize,
    /// RNG seed for workload sampling.
    pub seed: u64,
    /// Restrict sampling to these workloads (empty = full registry).
    pub apps: Vec<String>,
    /// Per-job cycle budget (tightens deadlines; `None` = full runs).
    pub cycle_budget: Option<u64>,
}

impl Default for FleetLoadgenConfig {
    fn default() -> Self {
        FleetLoadgenConfig {
            threads: 4,
            requests: 25,
            seed: 0x5eed_2024,
            apps: Vec::new(),
            cycle_budget: None,
        }
    }
}

/// Per-worker traffic tallies.
#[derive(Debug, Clone, Default)]
pub struct WorkerBreakdown {
    /// Worker address.
    pub addr: String,
    /// Logical requests whose final verdict this worker produced.
    pub served: usize,
    /// Of those, served from the worker's result cache.
    pub cached: usize,
    /// End-to-end latencies (µs, sorted) of requests this worker served.
    pub latencies_us: Vec<u64>,
}

/// Aggregate results of one fleet load-generation run.
#[derive(Debug, Clone, Default)]
pub struct FleetLoadgenReport {
    /// Logical requests issued (threads × requests).
    pub total: usize,
    /// Requests that returned a verified report.
    pub ok: usize,
    /// Of those, served from a worker result cache.
    pub cached: usize,
    /// Requests that ended in a deterministic job error.
    pub job_errors: usize,
    /// Requests abandoned after exhausting every attempt.
    pub gave_up: usize,
    /// Dispatch attempts consumed (≥ total; extra = failovers).
    pub attempts: u64,
    /// 429 retries taken.
    pub retried_429: u64,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// All end-to-end latencies (µs), sorted.
    pub latencies_us: Vec<u64>,
    /// Per-worker traffic, index-aligned with the coordinator's workers.
    pub per_worker: Vec<WorkerBreakdown>,
}

impl FleetLoadgenReport {
    /// Successfully completed requests per second.
    pub fn goodput(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s <= 0.0 {
            return 0.0;
        }
        self.ok as f64 / s
    }

    /// Every request got a verdict (ok, error row, or labeled give-up).
    pub fn nothing_dropped(&self) -> bool {
        self.ok + self.job_errors + self.gave_up == self.total
    }

    /// Human-readable summary + per-worker table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "requests      {}\n\
             ok            {}\n\
             cached        {}\n\
             job errors    {}\n\
             gave up       {}\n\
             attempts      {}\n\
             retried 429   {}\n\
             elapsed       {:.2} s\n\
             goodput       {:.1} ok/s\n\
             latency p50   {:.3} ms\n\
             latency p95   {:.3} ms\n",
            self.total,
            self.ok,
            self.cached,
            self.job_errors,
            self.gave_up,
            self.attempts,
            self.retried_429,
            self.elapsed.as_secs_f64(),
            self.goodput(),
            percentile_us(&self.latencies_us, 50.0) as f64 / 1e3,
            percentile_us(&self.latencies_us, 95.0) as f64 / 1e3,
        );
        let mut table = Table::new(&["worker", "served", "share", "cached", "p50 ms", "p95 ms"]);
        for w in &self.per_worker {
            let share = if self.total == 0 {
                0.0
            } else {
                100.0 * w.served as f64 / self.total as f64
            };
            table.row(vec![
                w.addr.clone(),
                w.served.to_string(),
                format!("{share:.1}%"),
                w.cached.to_string(),
                format!("{:.3}", percentile_us(&w.latencies_us, 50.0) as f64 / 1e3),
                format!("{:.3}", percentile_us(&w.latencies_us, 95.0) as f64 / 1e3),
            ]);
        }
        let _ = write!(out, "\n{}", table.render());
        out
    }
}

/// Drive the coordinator closed-loop and aggregate every thread's tallies.
pub fn run_fleet_loadgen(
    coordinator: &Coordinator,
    cfg: &FleetLoadgenConfig,
) -> Result<FleetLoadgenReport, String> {
    let mut names: Vec<String> = suite::all().iter().map(|w| w.name.to_string()).collect();
    if !cfg.apps.is_empty() {
        names.retain(|n| cfg.apps.iter().any(|a| a == n));
        if names.is_empty() {
            return Err("no requested app exists in the workload registry".to_string());
        }
    }
    let techniques = [Technique::Baseline, Technique::RegMutex];
    let report = Mutex::new(FleetLoadgenReport {
        total: cfg.threads.max(1) * cfg.requests,
        per_worker: coordinator
            .workers()
            .iter()
            .map(|w| WorkerBreakdown {
                addr: w.addr.clone(),
                ..WorkerBreakdown::default()
            })
            .collect(),
        ..FleetLoadgenReport::default()
    });
    let started = Instant::now();
    std::thread::scope(|s| {
        for t in 0..cfg.threads.max(1) {
            let names = &names;
            let techniques = &techniques;
            let report = &report;
            let seed = cfg.seed ^ (t as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            s.spawn(move || {
                let mut rng = Rng::new(seed);
                for _ in 0..cfg.requests {
                    let mut job = MatrixJob::new(rng.pick(names).clone(), *rng.pick(techniques));
                    job.cycle_budget = cfg.cycle_budget;
                    let sent = Instant::now();
                    let (result, trace) = coordinator.run_traced(&job);
                    let us = sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                    let mut r = report.lock().expect("report lock");
                    r.latencies_us.push(us);
                    r.attempts += u64::from(trace.attempts);
                    r.retried_429 += u64::from(trace.retried_429);
                    match &result {
                        Ok(_) => {
                            r.ok += 1;
                            if trace.cached {
                                r.cached += 1;
                            }
                            if let Some(w) = trace.served_by {
                                let b = &mut r.per_worker[w];
                                b.served += 1;
                                b.latencies_us.push(us);
                                if trace.cached {
                                    b.cached += 1;
                                }
                            }
                        }
                        Err(regmutex::RunError::Remote(msg)) if msg.starts_with("gave up") => {
                            r.gave_up += 1;
                        }
                        Err(_) => r.job_errors += 1,
                    }
                }
            });
        }
    });
    let mut report = report.into_inner().expect("report lock");
    report.elapsed = started.elapsed();
    report.latencies_us.sort_unstable();
    for w in &mut report.per_worker {
        w.latencies_us.sort_unstable();
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_per_worker_breakdown() {
        let r = FleetLoadgenReport {
            total: 10,
            ok: 9,
            cached: 4,
            job_errors: 0,
            gave_up: 1,
            attempts: 12,
            retried_429: 2,
            elapsed: Duration::from_secs(3),
            latencies_us: vec![100, 200, 300],
            per_worker: vec![
                WorkerBreakdown {
                    addr: "127.0.0.1:9001".into(),
                    served: 6,
                    cached: 3,
                    latencies_us: vec![100, 200],
                },
                WorkerBreakdown {
                    addr: "127.0.0.1:9002".into(),
                    served: 3,
                    cached: 1,
                    latencies_us: vec![300],
                },
            ],
        };
        assert!(r.nothing_dropped());
        assert!((r.goodput() - 3.0).abs() < 1e-9);
        let text = r.render();
        assert!(text.contains("gave up       1"), "{text}");
        assert!(text.contains("retried 429   2"), "{text}");
        assert!(text.contains("127.0.0.1:9001"), "{text}");
        assert!(text.contains("60.0%"), "{text}");
    }

    #[test]
    fn empty_report_is_safe() {
        let r = FleetLoadgenReport::default();
        assert_eq!(percentile_us(&r.latencies_us, 99.0), 0);
        assert_eq!(r.goodput(), 0.0);
        assert!(r.render().contains("requests      0"));
    }
}
