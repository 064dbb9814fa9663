//! Service metrics in Prometheus text exposition format.
//!
//! Everything is plain atomics / a small mutex-guarded map — scrape cost
//! is a handful of loads, and recording on the request path is wait-free
//! except for the per-(route, status) counter.
//!
//! Latency is a fixed-bucket histogram (`_bucket`/`_sum`/`_count` with
//! cumulative `le` labels), from which p50/p95/p99 are derivable by any
//! Prometheus-style consumer; the load generator reports exact
//! percentiles client-side from its own samples.
//!
//! [`family`] is the one exposition writer: the server's [`Metrics`] and
//! the fleet coordinator's metrics both render through it.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One metric family being written in Prometheus text format.
pub struct Family<'a> {
    out: &'a mut String,
    name: &'a str,
}

/// Start the family `name` of `kind` (`counter`, `gauge`, `histogram`):
/// its `# HELP` line when `help` is given, then its `# TYPE` line. The
/// samples follow through [`Family::sample`].
pub fn family<'a>(
    out: &'a mut String,
    name: &'a str,
    kind: &str,
    help: Option<&str>,
) -> Family<'a> {
    if let Some(help) = help {
        let _ = writeln!(out, "# HELP {name} {help}");
    }
    let _ = writeln!(out, "# TYPE {name} {kind}");
    Family { out, name }
}

impl Family<'_> {
    /// Write the sample `{name}{suffix}{labels} {value}`, with `labels`
    /// as `{k="v",...}` (nothing when empty).
    pub fn sample(&mut self, suffix: &str, labels: &[(&str, &dyn Display)], value: impl Display) {
        let _ = write!(self.out, "{}{suffix}", self.name);
        for (i, (k, v)) in labels.iter().enumerate() {
            let open = if i == 0 { '{' } else { ',' };
            let _ = write!(self.out, "{open}{k}=\"{v}\"");
        }
        if !labels.is_empty() {
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {value}");
    }
}

/// Latency bucket upper bounds, in seconds. Spans 100 µs … 10 s, which
/// covers a cache hit (≈ sub-ms) through a cold heavyweight simulation.
pub const LATENCY_BUCKETS_S: [f64; 12] = [
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.1, 0.5, 2.5, 10.0,
];

/// Bucket upper bounds for the requests-per-connection histogram:
/// 1 (Connection: close clients) through deep keep-alive reuse.
pub const COUNT_BUCKETS: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// A fixed-bucket histogram (`_bucket`/`_sum`/`_count` with cumulative
/// `le` labels). The sum is kept as an integer in a unit of `1/scale`
/// of the observed quantity (microseconds for latency).
pub struct Histogram {
    bounds: &'static [f64],
    scale: f64,
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// An empty histogram over the upper `bounds`, keeping its sum in
    /// units of `1/scale`.
    pub fn new(bounds: &'static [f64], scale: f64) -> Histogram {
        Histogram {
            bounds,
            scale,
            buckets: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record `value` into the first bucket whose bound holds it, adding
    /// `units` to the sum.
    fn record(&self, value: f64, units: u64) {
        if let Some(i) = self.bounds.iter().position(|le| value <= *le) {
            self.buckets[i].fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(units, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one latency (a histogram with `scale` 1e6).
    pub fn observe(&self, d: Duration) {
        self.record(
            d.as_secs_f64(),
            d.as_micros().min(u128::from(u64::MAX)) as u64,
        );
    }

    /// Record one count (a histogram with `scale` 1).
    pub fn observe_count(&self, n: u64) {
        self.record(n as f64, n);
    }

    fn write(&self, out: &mut String, name: &str) {
        let mut f = family(out, name, "histogram", None);
        let mut cumulative = 0u64;
        for (le, n) in self.bounds.iter().zip(&*self.buckets) {
            cumulative += n.load(Ordering::Relaxed);
            f.sample("_bucket", &[("le", le)], cumulative);
        }
        let count = self.count.load(Ordering::Relaxed);
        f.sample("_bucket", &[("le", &"+Inf")], count);
        f.sample(
            "_sum",
            &[],
            self.sum.load(Ordering::Relaxed) as f64 / self.scale,
        );
        f.sample("_count", &[], count);
    }
}

/// The simulation counters summed over every completed job, exposed as
/// `regmutex_sim_{name}_total`.
const SIM_COUNTERS: [&str; 8] = [
    "cycles",
    "instructions",
    "acquire_attempts",
    "acquire_successes",
    "mem_requests",
    "spills",
    "skipped_cycles",
    "step_calls",
];

/// Aggregated simulation counters, in `SIM_COUNTERS` order.
#[derive(Default)]
pub struct SimTotals([AtomicU64; SIM_COUNTERS.len()]);

impl SimTotals {
    /// Fold one run's stats in.
    pub fn add(&self, s: &regmutex_sim::SimStats) {
        let values = [
            s.cycles,
            s.instructions,
            s.acquire_attempts,
            s.acquire_successes,
            s.mem_requests,
            s.spills,
            s.skipped_cycles,
            s.step_calls,
        ];
        for (total, v) in self.0.iter().zip(values) {
            total.fetch_add(v, Ordering::Relaxed);
        }
    }
}

/// All server metrics; one instance per server, shared by every thread.
pub struct Metrics {
    /// Requests by `(route, status)`.
    requests: Mutex<BTreeMap<(&'static str, u16), u64>>,
    /// End-to-end latency of `/v1/run` requests (queue wait + simulate).
    pub run_latency: Histogram,
    /// Jobs rejected with 429 (queue full).
    pub jobs_rejected: AtomicU64,
    /// Jobs whose simulation panicked (isolated; answered 500).
    pub jobs_panicked: AtomicU64,
    /// Jobs that returned a structured simulation error (answered 422).
    pub jobs_failed: AtomicU64,
    /// Jobs completing successfully.
    pub jobs_ok: AtomicU64,
    /// Requests served per keep-alive connection, observed at close.
    pub requests_per_conn: Histogram,
    /// Job requests refused by the per-client token bucket (429).
    pub throttled: AtomicU64,
    /// Rows/lines delivered over chunked streaming responses.
    pub streamed_rows: AtomicU64,
    /// Aggregated counters over completed simulations.
    pub sim: SimTotals,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            requests: Mutex::default(),
            run_latency: Histogram::new(&LATENCY_BUCKETS_S, 1e6),
            jobs_rejected: AtomicU64::new(0),
            jobs_panicked: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_ok: AtomicU64::new(0),
            requests_per_conn: Histogram::new(&COUNT_BUCKETS, 1.0),
            throttled: AtomicU64::new(0),
            streamed_rows: AtomicU64::new(0),
            sim: SimTotals::default(),
        }
    }
}

impl Metrics {
    /// Count one finished request.
    pub fn record_request(&self, route: &'static str, status: u16) {
        *self
            .requests
            .lock()
            .unwrap()
            .entry((route, status))
            .or_insert(0) += 1;
    }

    /// Render the full Prometheus exposition. Gauges that live outside
    /// `Metrics` (queue depth, cache occupancy, …) are passed in.
    pub fn render(&self, gauges: &ServiceGauges) -> String {
        let mut out = String::with_capacity(2048);
        let mut requests = family(&mut out, "regmutex_requests_total", "counter", None);
        for ((route, status), n) in self.requests.lock().unwrap().iter() {
            requests.sample("", &[("route", route), ("status", status)], n);
        }
        self.run_latency
            .write(&mut out, "regmutex_request_duration_seconds");

        let scalars = |out: &mut String, rows: &[(&str, &str, u64)]| {
            for (name, kind, v) in rows {
                family(out, &format!("regmutex_{name}"), kind, None).sample("", &[], v);
            }
        };
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let g = gauges;
        scalars(
            &mut out,
            &[
                ("jobs_rejected_total", COUNTER, load(&self.jobs_rejected)),
                ("jobs_panicked_total", COUNTER, load(&self.jobs_panicked)),
                ("jobs_failed_total", COUNTER, load(&self.jobs_failed)),
                ("jobs_ok_total", COUNTER, load(&self.jobs_ok)),
                ("queue_depth", GAUGE, g.queue_depth),
                ("queue_capacity", GAUGE, g.queue_capacity),
                ("inflight_jobs", GAUGE, g.inflight_jobs),
                ("active_connections", GAUGE, g.active_connections),
                // The same value under the http-prefixed name, kept
                // because CI and the e2e suite grep it. (The fleet probe
                // reads `/healthz` JSON and scrapes only the cache
                // counters.)
                ("http_connections_active", GAUGE, g.active_connections),
                ("http_pipeline_depth", GAUGE, g.pipeline_depth),
                ("http_throttled_total", COUNTER, load(&self.throttled)),
                (
                    "http_streamed_rows_total",
                    COUNTER,
                    load(&self.streamed_rows),
                ),
            ],
        );
        self.requests_per_conn
            .write(&mut out, "regmutex_http_requests_per_connection");
        scalars(
            &mut out,
            &[
                (
                    "durable_degradations_total",
                    COUNTER,
                    g.durable_degradations,
                ),
                ("cache_hits_total", COUNTER, g.cache_hits),
                ("cache_misses_total", COUNTER, g.cache_misses),
                ("cache_evictions_total", COUNTER, g.cache_evictions),
                ("cache_bytes", GAUGE, g.cache_bytes),
                ("cache_entries", GAUGE, g.cache_entries),
            ],
        );
        for (name, total) in SIM_COUNTERS.iter().zip(&self.sim.0) {
            let name = format!("regmutex_sim_{name}_total");
            family(&mut out, &name, COUNTER, None).sample("", &[], load(total));
        }
        out
    }
}

const COUNTER: &str = "counter";
const GAUGE: &str = "gauge";

/// Point-in-time gauges sampled at scrape.
#[derive(Debug, Default, Clone)]
pub struct ServiceGauges {
    /// Jobs waiting in the bounded queue.
    pub queue_depth: u64,
    /// Queue capacity.
    pub queue_capacity: u64,
    /// Jobs currently simulating.
    pub inflight_jobs: u64,
    /// Open client connections.
    pub active_connections: u64,
    /// Parsed requests waiting in per-connection pipelines.
    pub pipeline_depth: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache evictions.
    pub cache_evictions: u64,
    /// Result-cache resident bytes.
    pub cache_bytes: u64,
    /// Result-cache resident entries.
    pub cache_entries: u64,
    /// Durable journal/store writers downgraded to in-memory-only after
    /// an I/O error (process-wide; see `regmutex_durable`).
    pub durable_degradations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole exposition body, pinned byte for byte: the benchmark's
    /// scrape parser and CI grep these lines.
    #[test]
    fn render_is_pinned() {
        let m = Metrics::default();
        m.record_request("/v1/run", 200);
        m.record_request("/v1/run", 429);
        m.record_request("/healthz", 200);
        m.run_latency.observe(Duration::from_micros(100));
        m.run_latency.observe(Duration::from_micros(101));
        m.run_latency.observe(Duration::from_millis(30));
        m.run_latency.observe(Duration::from_secs(11));
        m.requests_per_conn.observe_count(3);
        m.requests_per_conn.observe_count(256);
        m.requests_per_conn.observe_count(257);
        m.jobs_rejected.store(1, Ordering::Relaxed);
        m.jobs_panicked.store(2, Ordering::Relaxed);
        m.jobs_failed.store(3, Ordering::Relaxed);
        m.jobs_ok.store(4, Ordering::Relaxed);
        m.throttled.store(5, Ordering::Relaxed);
        m.streamed_rows.store(6, Ordering::Relaxed);
        m.sim.add(&regmutex_sim::SimStats {
            cycles: 100,
            instructions: 200,
            acquire_attempts: 30,
            acquire_successes: 20,
            mem_requests: 40,
            spills: 1,
            skipped_cycles: 50,
            step_calls: 60,
            ..Default::default()
        });
        let text = m.render(&ServiceGauges {
            queue_depth: 7,
            queue_capacity: 64,
            inflight_jobs: 2,
            active_connections: 3,
            pipeline_depth: 4,
            cache_hits: 11,
            cache_misses: 12,
            cache_evictions: 13,
            cache_bytes: 4096,
            cache_entries: 14,
            durable_degradations: 15,
        });
        assert_eq!(text, PINNED_RENDER);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::new(&LATENCY_BUCKETS_S, 1e6);
        h.observe(Duration::from_micros(50)); // ≤ 0.0001
        h.observe(Duration::from_millis(3)); // ≤ 0.005
        h.observe(Duration::from_secs(60)); // above every bound → +Inf only
        let mut out = String::new();
        h.write(&mut out, "t");
        assert!(out.contains("t_bucket{le=\"0.0001\"} 1"), "{out}");
        assert!(out.contains("t_bucket{le=\"0.005\"} 2"), "{out}");
        assert!(out.contains("t_bucket{le=\"10\"} 2"), "{out}");
        assert!(out.contains("t_bucket{le=\"+Inf\"} 3"), "{out}");
        assert!(out.contains("t_count 3"), "{out}");
    }

    #[test]
    fn request_counters_group_by_route_and_status() {
        let m = Metrics::default();
        m.record_request("/v1/run", 200);
        m.record_request("/v1/run", 200);
        m.record_request("/v1/run", 429);
        m.record_request("/healthz", 200);
        let text = m.render(&ServiceGauges::default());
        assert!(
            text.contains("regmutex_requests_total{route=\"/v1/run\",status=\"200\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("regmutex_requests_total{route=\"/v1/run\",status=\"429\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn count_histogram_and_loop_series_render() {
        let m = Metrics::default();
        m.requests_per_conn.observe_count(1);
        m.requests_per_conn.observe_count(8);
        m.requests_per_conn.observe_count(1000); // above every bound → +Inf only
        m.throttled.fetch_add(2, Ordering::Relaxed);
        m.streamed_rows.fetch_add(7, Ordering::Relaxed);
        let text = m.render(&ServiceGauges {
            active_connections: 3,
            pipeline_depth: 5,
            ..ServiceGauges::default()
        });
        assert!(
            text.contains("regmutex_http_requests_per_connection_bucket{le=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("regmutex_http_requests_per_connection_bucket{le=\"8\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("regmutex_http_requests_per_connection_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("regmutex_http_requests_per_connection_sum 1009"),
            "{text}"
        );
        assert!(
            text.contains("regmutex_http_connections_active 3"),
            "{text}"
        );
        assert!(text.contains("regmutex_http_pipeline_depth 5"), "{text}");
        assert!(text.contains("regmutex_http_throttled_total 2"), "{text}");
        assert!(
            text.contains("regmutex_http_streamed_rows_total 7"),
            "{text}"
        );
    }

    #[test]
    fn sim_totals_aggregate() {
        let m = Metrics::default();
        let stats = regmutex_sim::SimStats {
            cycles: 10,
            instructions: 20,
            acquire_attempts: 5,
            acquire_successes: 4,
            mem_requests: 7,
            spills: 1,
            skipped_cycles: 9,
            step_calls: 3,
            ..Default::default()
        };
        m.sim.add(&stats);
        m.sim.add(&stats);
        let text = m.render(&ServiceGauges::default());
        assert!(text.contains("regmutex_sim_cycles_total 20"), "{text}");
        assert!(
            text.contains("regmutex_sim_instructions_total 40"),
            "{text}"
        );
        assert!(
            text.contains("regmutex_sim_skipped_cycles_total 18"),
            "{text}"
        );
        assert!(text.contains("regmutex_sim_step_calls_total 6"), "{text}");
    }

    const PINNED_RENDER: &str = r#"# TYPE regmutex_requests_total counter
regmutex_requests_total{route="/healthz",status="200"} 1
regmutex_requests_total{route="/v1/run",status="200"} 1
regmutex_requests_total{route="/v1/run",status="429"} 1
# TYPE regmutex_request_duration_seconds histogram
regmutex_request_duration_seconds_bucket{le="0.0001"} 1
regmutex_request_duration_seconds_bucket{le="0.00025"} 2
regmutex_request_duration_seconds_bucket{le="0.0005"} 2
regmutex_request_duration_seconds_bucket{le="0.001"} 2
regmutex_request_duration_seconds_bucket{le="0.0025"} 2
regmutex_request_duration_seconds_bucket{le="0.005"} 2
regmutex_request_duration_seconds_bucket{le="0.01"} 2
regmutex_request_duration_seconds_bucket{le="0.025"} 2
regmutex_request_duration_seconds_bucket{le="0.1"} 3
regmutex_request_duration_seconds_bucket{le="0.5"} 3
regmutex_request_duration_seconds_bucket{le="2.5"} 3
regmutex_request_duration_seconds_bucket{le="10"} 3
regmutex_request_duration_seconds_bucket{le="+Inf"} 4
regmutex_request_duration_seconds_sum 11.030201
regmutex_request_duration_seconds_count 4
# TYPE regmutex_jobs_rejected_total counter
regmutex_jobs_rejected_total 1
# TYPE regmutex_jobs_panicked_total counter
regmutex_jobs_panicked_total 2
# TYPE regmutex_jobs_failed_total counter
regmutex_jobs_failed_total 3
# TYPE regmutex_jobs_ok_total counter
regmutex_jobs_ok_total 4
# TYPE regmutex_queue_depth gauge
regmutex_queue_depth 7
# TYPE regmutex_queue_capacity gauge
regmutex_queue_capacity 64
# TYPE regmutex_inflight_jobs gauge
regmutex_inflight_jobs 2
# TYPE regmutex_active_connections gauge
regmutex_active_connections 3
# TYPE regmutex_http_connections_active gauge
regmutex_http_connections_active 3
# TYPE regmutex_http_pipeline_depth gauge
regmutex_http_pipeline_depth 4
# TYPE regmutex_http_throttled_total counter
regmutex_http_throttled_total 5
# TYPE regmutex_http_streamed_rows_total counter
regmutex_http_streamed_rows_total 6
# TYPE regmutex_http_requests_per_connection histogram
regmutex_http_requests_per_connection_bucket{le="1"} 0
regmutex_http_requests_per_connection_bucket{le="2"} 0
regmutex_http_requests_per_connection_bucket{le="4"} 1
regmutex_http_requests_per_connection_bucket{le="8"} 1
regmutex_http_requests_per_connection_bucket{le="16"} 1
regmutex_http_requests_per_connection_bucket{le="32"} 1
regmutex_http_requests_per_connection_bucket{le="64"} 1
regmutex_http_requests_per_connection_bucket{le="128"} 1
regmutex_http_requests_per_connection_bucket{le="256"} 2
regmutex_http_requests_per_connection_bucket{le="+Inf"} 3
regmutex_http_requests_per_connection_sum 516
regmutex_http_requests_per_connection_count 3
# TYPE regmutex_durable_degradations_total counter
regmutex_durable_degradations_total 15
# TYPE regmutex_cache_hits_total counter
regmutex_cache_hits_total 11
# TYPE regmutex_cache_misses_total counter
regmutex_cache_misses_total 12
# TYPE regmutex_cache_evictions_total counter
regmutex_cache_evictions_total 13
# TYPE regmutex_cache_bytes gauge
regmutex_cache_bytes 4096
# TYPE regmutex_cache_entries gauge
regmutex_cache_entries 14
# TYPE regmutex_sim_cycles_total counter
regmutex_sim_cycles_total 100
# TYPE regmutex_sim_instructions_total counter
regmutex_sim_instructions_total 200
# TYPE regmutex_sim_acquire_attempts_total counter
regmutex_sim_acquire_attempts_total 30
# TYPE regmutex_sim_acquire_successes_total counter
regmutex_sim_acquire_successes_total 20
# TYPE regmutex_sim_mem_requests_total counter
regmutex_sim_mem_requests_total 40
# TYPE regmutex_sim_spills_total counter
regmutex_sim_spills_total 1
# TYPE regmutex_sim_skipped_cycles_total counter
regmutex_sim_skipped_cycles_total 50
# TYPE regmutex_sim_step_calls_total counter
regmutex_sim_step_calls_total 60
"#;
}
