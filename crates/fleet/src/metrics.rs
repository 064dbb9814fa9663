//! Fleet-level Prometheus metrics: the coordinator's own counters plus a
//! fold of every worker's `/metrics` scrape.
//!
//! The coordinator counts what only it can see — attempts, retries,
//! backoff waits, re-dispatches, quarantines, give-ups — and renders them
//! alongside per-worker `up`/`quarantined` gauges (from a live probe) and
//! the fleet-wide cache hit rate (summed from each worker's
//! `regmutex_cache_hits_total` / `regmutex_cache_misses_total`).

use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use regmutex_server::metrics::family;

use crate::worker::WorkerHandle;

/// Per-worker dispatch tallies.
#[derive(Debug, Default)]
pub struct WorkerTally {
    /// Dispatch attempts sent to this worker.
    pub attempts: AtomicU64,
    /// Attempts that returned a verified result.
    pub ok: AtomicU64,
    /// Worker faults attributed to this worker.
    pub faults: AtomicU64,
    /// Times this worker was newly quarantined.
    pub quarantines: AtomicU64,
}

/// Coordinator-side counters. All relaxed atomics — monotone tallies.
#[derive(Debug, Default)]
pub struct FleetMetrics {
    /// Dispatch attempts across the fleet (includes retries).
    pub attempts: AtomicU64,
    /// Jobs that completed with a verified report.
    pub jobs_ok: AtomicU64,
    /// Of those, served from a worker's result cache.
    pub jobs_cached: AtomicU64,
    /// Jobs that failed deterministically (the worker answered; the
    /// simulation itself failed). Not retried.
    pub job_errors: AtomicU64,
    /// Jobs abandoned after exhausting every attempt (labeled error rows).
    pub gave_up: AtomicU64,
    /// 429 responses retried after honoring `Retry-After`.
    pub retries_429: AtomicU64,
    /// Re-dispatches to a different worker after a worker fault.
    pub redispatches: AtomicU64,
    /// Worker faults observed (transport, timeout, integrity).
    pub worker_faults: AtomicU64,
    /// Replies rejected by integrity checks (checksum/app/lease mismatch,
    /// unparsable body).
    pub integrity_failures: AtomicU64,
    /// Backoff sleeps taken.
    pub backoff_waits: AtomicU64,
    /// Total backoff time, microseconds.
    pub backoff_us: AtomicU64,
    /// One tally per worker, indexed like the coordinator's worker list.
    pub per_worker: Vec<WorkerTally>,
}

/// The per-worker counters, `regmutex_fleet_worker_{name}`, in
/// [`WorkerTally::counters`] order.
const WORKER_COUNTERS: [(&str, &str); 4] = [
    ("attempts_total", "Dispatch attempts, including retries."),
    ("ok_total", "Attempts that returned a verified result."),
    ("faults_total", "Worker faults attributed to the worker."),
    ("quarantines_total", "Times the worker was quarantined."),
];

/// The coordinator's scalar counters, `regmutex_fleet_{name}`, in
/// [`FleetMetrics::counters`] order.
const COUNTERS: [(&str, &str); 10] = [
    ("jobs_ok_total", "Jobs completed with a verified report."),
    (
        "jobs_cached_total",
        "Jobs served from a worker result cache.",
    ),
    (
        "job_errors_total",
        "Deterministic job failures (not retried).",
    ),
    ("gave_up_total", "Jobs abandoned after exhausting attempts."),
    (
        "retries_429_total",
        "429 responses retried after Retry-After.",
    ),
    (
        "redispatches_total",
        "Jobs re-dispatched to another worker.",
    ),
    ("worker_faults_total", "Transport/timeout/integrity faults."),
    (
        "integrity_failures_total",
        "Replies rejected by integrity checks.",
    ),
    ("backoff_waits_total", "Backoff sleeps taken."),
    ("attempts_total", "Dispatch attempts across the fleet."),
];

impl WorkerTally {
    fn counters(&self) -> [&AtomicU64; WORKER_COUNTERS.len()] {
        [&self.attempts, &self.ok, &self.faults, &self.quarantines]
    }
}

impl FleetMetrics {
    /// Zeroed metrics for a fleet of `workers`.
    pub fn new(workers: usize) -> FleetMetrics {
        FleetMetrics {
            per_worker: (0..workers).map(|_| WorkerTally::default()).collect(),
            ..FleetMetrics::default()
        }
    }

    fn counters(&self) -> [&AtomicU64; COUNTERS.len()] {
        [
            &self.jobs_ok,
            &self.jobs_cached,
            &self.job_errors,
            &self.gave_up,
            &self.retries_429,
            &self.redispatches,
            &self.worker_faults,
            &self.integrity_failures,
            &self.backoff_waits,
            &self.attempts,
        ]
    }

    /// Render the Prometheus exposition. Probes each worker (liveness
    /// gauge) and scrapes its `/metrics` to fold cache counters; a worker
    /// that does not answer within `scrape_timeout` reports `up 0` and
    /// contributes nothing to the folded counters.
    pub fn render(&self, workers: &[Arc<WorkerHandle>], scrape_timeout: Duration) -> String {
        let (mut hits, mut misses) = (0u64, 0u64);
        let ups: Vec<u64> = workers
            .iter()
            .map(|w| {
                let up = w.probe(scrape_timeout).is_ok();
                if let Some(resp) = up
                    .then(|| w.request("GET", "/metrics", None, scrape_timeout).ok())
                    .flatten()
                {
                    let text = String::from_utf8_lossy(&resp.body);
                    hits += scrape_counter(&text, "regmutex_cache_hits_total");
                    misses += scrape_counter(&text, "regmutex_cache_misses_total");
                }
                u64::from(up)
            })
            .collect();
        let quarantined = workers.iter().map(|w| u64::from(w.is_quarantined()));

        let mut out = String::new();
        let mut per_worker = |name: &str, kind, help, values: Vec<u64>| {
            let name = format!("regmutex_fleet_worker_{name}");
            let mut f = family(&mut out, &name, kind, Some(help));
            for (w, v) in workers.iter().zip(values) {
                f.sample("", &[("worker", &w.addr)], v);
            }
        };
        per_worker(
            "up",
            GAUGE,
            "Worker answered a /healthz probe just now.",
            ups,
        );
        per_worker(
            "quarantined",
            GAUGE,
            "Worker is being routed around.",
            quarantined.collect(),
        );
        for (i, (name, help)) in WORKER_COUNTERS.into_iter().enumerate() {
            let values = self.per_worker.iter().map(|t| load(t.counters()[i]));
            per_worker(name, COUNTER, help, values.collect());
        }

        let mut scalar = |name: &str, kind, help, value: &dyn Display| {
            let name = format!("regmutex_fleet_{name}");
            family(&mut out, &name, kind, Some(help)).sample("", &[], value);
        };
        for ((name, help), c) in COUNTERS.into_iter().zip(self.counters()) {
            scalar(name, COUNTER, help, &load(c));
        }
        let backoff_s = load(&self.backoff_us) as f64 / 1e6;
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        scalar(
            "backoff_seconds_total",
            COUNTER,
            "Total backoff wait time.",
            &format_args!("{backoff_s:.6}"),
        );
        scalar(
            "cache_hits_total",
            COUNTER,
            "Result-cache hits summed over workers.",
            &hits,
        );
        scalar(
            "cache_misses_total",
            COUNTER,
            "Result-cache misses summed over workers.",
            &misses,
        );
        scalar(
            "cache_hit_rate",
            GAUGE,
            "Fleet-wide result-cache hit rate.",
            &format_args!("{hit_rate:.6}"),
        );
        out
    }
}

const COUNTER: &str = "counter";
const GAUGE: &str = "gauge";

fn load(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// Sum every sample of `name` (bare or labeled) in a Prometheus text
/// exposition. Integers only — the counters we fold are integral.
fn scrape_counter(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let rest = l.strip_prefix(name)?;
            let rest = rest
                .strip_prefix('{')
                .map_or(rest, |r| r.split_once('}').map_or(r, |(_, tail)| tail));
            rest.trim().parse::<u64>().ok()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_counter_reads_bare_and_labeled_samples() {
        let text = "# HELP regmutex_cache_hits_total x\n\
                    regmutex_cache_hits_total 7\n\
                    other_metric 99\n\
                    labeled_total{app=\"BFS\"} 3\n\
                    labeled_total{app=\"SAD\"} 4\n";
        assert_eq!(scrape_counter(text, "regmutex_cache_hits_total"), 7);
        assert_eq!(scrape_counter(text, "labeled_total"), 7);
        assert_eq!(scrape_counter(text, "missing_total"), 0);
    }

    /// The whole exposition over a dead worker, pinned byte for byte.
    #[test]
    fn render_is_pinned() {
        let metrics = FleetMetrics::new(1);
        let counters = [
            &metrics.attempts,
            &metrics.jobs_ok,
            &metrics.jobs_cached,
            &metrics.job_errors,
            &metrics.gave_up,
            &metrics.retries_429,
            &metrics.redispatches,
            &metrics.worker_faults,
            &metrics.integrity_failures,
            &metrics.backoff_waits,
        ];
        for (i, c) in counters.into_iter().enumerate() {
            c.store(i as u64 + 1, Ordering::Relaxed);
        }
        metrics.backoff_us.store(1_234_567, Ordering::Relaxed);
        let tally = &metrics.per_worker[0];
        tally.attempts.store(21, Ordering::Relaxed);
        tally.ok.store(22, Ordering::Relaxed);
        tally.faults.store(23, Ordering::Relaxed);
        tally.quarantines.store(24, Ordering::Relaxed);
        let workers = vec![Arc::new(WorkerHandle::new("127.0.0.1:1"))];
        let text = metrics.render(&workers, Duration::from_millis(50));
        assert_eq!(text, PINNED_RENDER);
    }

    #[test]
    fn render_reports_dead_workers_as_down() {
        // Nothing listens on this address: up 0, no folded cache counters.
        let metrics = FleetMetrics::new(1);
        metrics.attempts.store(5, Ordering::Relaxed);
        metrics.per_worker[0].attempts.store(5, Ordering::Relaxed);
        let workers = vec![Arc::new(WorkerHandle::new("127.0.0.1:1"))];
        let text = metrics.render(&workers, Duration::from_millis(50));
        assert!(
            text.contains("regmutex_fleet_worker_up{worker=\"127.0.0.1:1\"} 0"),
            "{text}"
        );
        assert!(text.contains("regmutex_fleet_attempts_total 5"), "{text}");
        assert!(
            text.contains("regmutex_fleet_worker_attempts_total{worker=\"127.0.0.1:1\"} 5"),
            "{text}"
        );
        assert!(
            text.contains("regmutex_fleet_cache_hit_rate 0.000000"),
            "{text}"
        );
    }

    const PINNED_RENDER: &str = r#"# HELP regmutex_fleet_worker_up Worker answered a /healthz probe just now.
# TYPE regmutex_fleet_worker_up gauge
regmutex_fleet_worker_up{worker="127.0.0.1:1"} 0
# HELP regmutex_fleet_worker_quarantined Worker is being routed around.
# TYPE regmutex_fleet_worker_quarantined gauge
regmutex_fleet_worker_quarantined{worker="127.0.0.1:1"} 0
# HELP regmutex_fleet_worker_attempts_total Dispatch attempts, including retries.
# TYPE regmutex_fleet_worker_attempts_total counter
regmutex_fleet_worker_attempts_total{worker="127.0.0.1:1"} 21
# HELP regmutex_fleet_worker_ok_total Attempts that returned a verified result.
# TYPE regmutex_fleet_worker_ok_total counter
regmutex_fleet_worker_ok_total{worker="127.0.0.1:1"} 22
# HELP regmutex_fleet_worker_faults_total Worker faults attributed to the worker.
# TYPE regmutex_fleet_worker_faults_total counter
regmutex_fleet_worker_faults_total{worker="127.0.0.1:1"} 23
# HELP regmutex_fleet_worker_quarantines_total Times the worker was quarantined.
# TYPE regmutex_fleet_worker_quarantines_total counter
regmutex_fleet_worker_quarantines_total{worker="127.0.0.1:1"} 24
# HELP regmutex_fleet_jobs_ok_total Jobs completed with a verified report.
# TYPE regmutex_fleet_jobs_ok_total counter
regmutex_fleet_jobs_ok_total 2
# HELP regmutex_fleet_jobs_cached_total Jobs served from a worker result cache.
# TYPE regmutex_fleet_jobs_cached_total counter
regmutex_fleet_jobs_cached_total 3
# HELP regmutex_fleet_job_errors_total Deterministic job failures (not retried).
# TYPE regmutex_fleet_job_errors_total counter
regmutex_fleet_job_errors_total 4
# HELP regmutex_fleet_gave_up_total Jobs abandoned after exhausting attempts.
# TYPE regmutex_fleet_gave_up_total counter
regmutex_fleet_gave_up_total 5
# HELP regmutex_fleet_retries_429_total 429 responses retried after Retry-After.
# TYPE regmutex_fleet_retries_429_total counter
regmutex_fleet_retries_429_total 6
# HELP regmutex_fleet_redispatches_total Jobs re-dispatched to another worker.
# TYPE regmutex_fleet_redispatches_total counter
regmutex_fleet_redispatches_total 7
# HELP regmutex_fleet_worker_faults_total Transport/timeout/integrity faults.
# TYPE regmutex_fleet_worker_faults_total counter
regmutex_fleet_worker_faults_total 8
# HELP regmutex_fleet_integrity_failures_total Replies rejected by integrity checks.
# TYPE regmutex_fleet_integrity_failures_total counter
regmutex_fleet_integrity_failures_total 9
# HELP regmutex_fleet_backoff_waits_total Backoff sleeps taken.
# TYPE regmutex_fleet_backoff_waits_total counter
regmutex_fleet_backoff_waits_total 10
# HELP regmutex_fleet_attempts_total Dispatch attempts across the fleet.
# TYPE regmutex_fleet_attempts_total counter
regmutex_fleet_attempts_total 1
# HELP regmutex_fleet_backoff_seconds_total Total backoff wait time.
# TYPE regmutex_fleet_backoff_seconds_total counter
regmutex_fleet_backoff_seconds_total 1.234567
# HELP regmutex_fleet_cache_hits_total Result-cache hits summed over workers.
# TYPE regmutex_fleet_cache_hits_total counter
regmutex_fleet_cache_hits_total 0
# HELP regmutex_fleet_cache_misses_total Result-cache misses summed over workers.
# TYPE regmutex_fleet_cache_misses_total counter
regmutex_fleet_cache_misses_total 0
# HELP regmutex_fleet_cache_hit_rate Fleet-wide result-cache hit rate.
# TYPE regmutex_fleet_cache_hit_rate gauge
regmutex_fleet_cache_hit_rate 0.000000
"#;
}
