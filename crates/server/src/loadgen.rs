//! The closed-loop load generator, for one server or a whole fleet.
//!
//! `threads` clients each issue `requests` back-to-back `/v1/run`
//! requests, sampling (workload, technique) pairs with a seeded
//! xorshift64* generator: two draws per request, app then technique, so
//! the same seed reproduces the same stream of baseline-vs-RegMutex
//! requests at any pipeline depth and through any [`Target`]. Being
//! closed-loop, offered load adapts to service rate; backpressure shows
//! up as 429 counts, not as client-side queue growth.
//!
//! The loop drives a [`Target`], which turns a batch of sampled requests
//! into [`JobTrace`]s. [`Direct`] speaks HTTP to one server; the fleet
//! crate's coordinator is the other target, routing every request
//! through retries and failover and naming the worker that served it.
//!
//! Latency percentiles are exact (computed from the sorted client-side
//! sample set), unlike the server's bucketed histogram.

use std::time::{Duration, Instant};

use regmutex::Technique;
use regmutex_bench::Table;
use regmutex_isa::Rng;

use crate::http::{client_request, ClientResponse, HttpClient};
use crate::json::{self, Json};
use crate::wire::{run_request_json, RunRequest};

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, `host:port` ([`Direct`] only).
    pub addr: String,
    /// Concurrent closed-loop client threads.
    pub threads: usize,
    /// Requests issued per thread.
    pub requests: usize,
    /// RNG seed for workload sampling.
    pub seed: u64,
    /// Per-request socket timeout.
    pub timeout: Duration,
    /// Restrict sampling to these workloads (empty = the full registry).
    pub apps: Vec<String>,
    /// Cycle budget carried by every sampled request (`None` = full runs).
    pub cycle_budget: Option<u64>,
    /// Retries per request on 429 before giving up (honoring the server's
    /// `Retry-After` each time). 0 restores the fire-and-forget behaviour.
    pub max_retries_429: usize,
    /// Cap on a single `Retry-After` wait, so a hostile or confused server
    /// can't stall a client thread arbitrarily long.
    pub retry_after_cap: Duration,
    /// Reuse connections across requests (HTTP/1.1 keep-alive). `false`
    /// restores one-connection-per-request for comparison runs.
    pub keep_alive: bool,
    /// Requests pipelined per round trip (1 = classic request/response).
    /// Values above 1 batch that many requests into one write and read
    /// the responses back in order, amortising syscalls and context
    /// switches; the server answers at most 8 per read, so deeper
    /// windows only queue client-side. Pipelined batches skip 429
    /// retries (a batch is not safely re-issuable piecemeal), and each
    /// request's latency sample is its batch's full round trip.
    pub pipeline: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:8077".to_string(),
            threads: 4,
            requests: 50,
            seed: 0x5eed_2024,
            timeout: Duration::from_secs(120),
            apps: Vec::new(),
            cycle_budget: None,
            max_retries_429: 3,
            retry_after_cap: Duration::from_secs(2),
            keep_alive: true,
            pipeline: 1,
        }
    }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Verdict {
    /// A result.
    Ok,
    /// Given up: still 429 after every retry, or (through a fleet) every
    /// dispatch attempt failed.
    GaveUp,
    /// Any other status, a transport error, or a failed job.
    #[default]
    Failed,
}

/// What happened to one request, as a [`Target`] reports it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobTrace {
    /// How it ended.
    pub verdict: Verdict,
    /// The result came from a result cache.
    pub cached: bool,
    /// 429 responses retried after honoring `Retry-After`.
    pub retried_429: u32,
    /// Dispatch attempts spent (more than 1 after a failover).
    pub attempts: u32,
    /// Index into [`Target::workers`] of the worker that produced the
    /// final verdict.
    pub served_by: Option<usize>,
}

/// Where the closed loop sends its requests.
pub trait Target: Sync {
    /// One client thread's connection state.
    type Client: Send;
    /// The workload names requests are sampled from.
    fn workloads(&self) -> Result<Vec<String>, String>;
    /// Worker addresses behind the target, for the per-worker table
    /// (empty for a single server).
    fn workers(&self) -> Vec<String>;
    /// A fresh client for one loop thread.
    fn client(&self) -> Self::Client;
    /// Issue `batch` (one request, or one pipelined window) and trace
    /// each request, in order.
    fn send(&self, client: &mut Self::Client, batch: &[RunRequest]) -> Vec<JobTrace>;
    /// Fold a finished client's connection counts into the report.
    fn finish(&self, _client: Self::Client, _report: &mut LoadgenReport) {}
}

/// Aggregate results of one load-generation run.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Requests issued (threads × requests).
    pub total: usize,
    /// Requests that returned a result.
    pub ok: usize,
    /// Of those, served from a result cache.
    pub cached: usize,
    /// Requests given up on ([`Verdict::GaveUp`]).
    pub rejected: usize,
    /// 429 responses that were retried after honoring `Retry-After`
    /// (attempt count, not request count; one request can retry several
    /// times).
    pub retried_429: usize,
    /// Any other status, transport error or failed job.
    pub failed: usize,
    /// Dispatch attempts across all requests.
    pub attempts: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Per-request latencies in microseconds, sorted ascending.
    pub latencies_us: Vec<u64>,
    /// Connections opened across all client threads.
    pub connections: usize,
    /// Requests completed per connection, across all threads.
    pub conn_requests: Vec<u64>,
    /// Worker addresses behind the target (empty for a single server).
    pub workers: Vec<String>,
    /// `(worker, cached, latency µs)` of every ok request a worker served.
    pub served: Vec<(usize, bool, u64)>,
}

/// Exact percentile of ascending `sorted` samples: the nearest rank,
/// rounded, or 0 for no samples.
pub fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0;
    };
    let idx = ((p / 100.0) * last as f64).round() as usize;
    sorted[idx.min(last)]
}

fn ms(sorted: &[u64], p: f64) -> f64 {
    percentile_us(sorted, p) as f64 / 1e3
}

impl LoadgenReport {
    /// Completed requests per second (every response counts — 429s are
    /// responses, not drops).
    pub fn rps(&self) -> f64 {
        self.per_second(self.ok + self.rejected + self.failed)
    }

    /// Successfully completed requests per second — the throughput that
    /// actually did work, as opposed to [`LoadgenReport::rps`]'s raw
    /// response rate. Retried-then-succeeded requests count once.
    pub fn goodput(&self) -> f64 {
        self.per_second(self.ok)
    }

    fn per_second(&self, n: usize) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s <= 0.0 {
            return 0.0;
        }
        n as f64 / s
    }

    /// Cache hit rate over successful runs.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cached as f64 / self.ok.max(1) as f64
    }

    /// Whether every issued request got a verdict (nothing dropped).
    pub fn nothing_dropped(&self) -> bool {
        self.ok + self.rejected + self.failed == self.total
    }

    /// Mean requests per connection (1.0 without keep-alive).
    pub fn requests_per_conn(&self) -> f64 {
        self.conn_requests.iter().sum::<u64>() as f64 / self.conn_requests.len().max(1) as f64
    }

    fn tally(&mut self, t: JobTrace, us: u64) {
        self.latencies_us.push(us);
        self.retried_429 += t.retried_429 as usize;
        self.attempts += u64::from(t.attempts);
        match t.verdict {
            Verdict::Ok => {
                self.ok += 1;
                self.cached += usize::from(t.cached);
                if let Some(w) = t.served_by {
                    self.served.push((w, t.cached, us));
                }
            }
            Verdict::GaveUp => self.rejected += 1,
            Verdict::Failed => self.failed += 1,
        }
    }

    /// Human-readable summary block; through a fleet, a per-worker table
    /// follows it.
    pub fn render(&self) -> String {
        let (gave_up, link) = if self.workers.is_empty() {
            (
                "rejected 429 ",
                format!(
                    "connections   {} ({:.1} req/conn)",
                    self.connections,
                    self.requests_per_conn()
                ),
            )
        } else {
            ("gave up      ", format!("attempts      {}", self.attempts))
        };
        let mut out = format!(
            "requests      {}\n\
             ok            {}\n\
             cached        {} ({:.1}% hit rate)\n\
             retried 429   {}\n\
             {gave_up} {}\n\
             failed        {}\n\
             {link}\n\
             elapsed       {:.2} s\n\
             throughput    {:.1} req/s\n\
             goodput       {:.1} ok/s\n\
             latency p50   {:.3} ms\n\
             latency p95   {:.3} ms\n\
             latency p99   {:.3} ms",
            self.total,
            self.ok,
            self.cached,
            100.0 * self.cache_hit_rate(),
            self.retried_429,
            self.rejected,
            self.failed,
            self.elapsed.as_secs_f64(),
            self.rps(),
            self.goodput(),
            ms(&self.latencies_us, 50.0),
            ms(&self.latencies_us, 95.0),
            ms(&self.latencies_us, 99.0),
        );
        if self.workers.is_empty() {
            return out;
        }
        let mut table = Table::new(&["worker", "served", "share", "cached", "p50 ms", "p95 ms"]);
        for (i, addr) in self.workers.iter().enumerate() {
            let mine = || self.served.iter().filter(move |s| s.0 == i);
            let mut lat: Vec<u64> = mine().map(|s| s.2).collect();
            lat.sort_unstable();
            let share = 100.0 * lat.len() as f64 / self.total.max(1) as f64;
            table.row(vec![
                addr.clone(),
                lat.len().to_string(),
                format!("{share:.1}%"),
                mine().filter(|s| s.1).count().to_string(),
                format!("{:.3}", ms(&lat, 50.0)),
                format!("{:.3}", ms(&lat, 95.0)),
            ]);
        }
        out.push_str("\n\n");
        out.push_str(table.render().trim_end_matches('\n'));
        out
    }
}

const TECHNIQUES: [Technique; 2] = [Technique::Baseline, Technique::RegMutex];

/// Run the closed loop against `target` and aggregate every thread's
/// traces.
pub fn run_loadgen<T: Target>(cfg: &LoadgenConfig, target: &T) -> Result<LoadgenReport, String> {
    let mut names = target.workloads()?;
    names.retain(|n| cfg.apps.is_empty() || cfg.apps.contains(n));
    if names.is_empty() {
        return Err("no requested app exists in the workload registry".to_string());
    }
    let threads = cfg.threads.max(1);
    let mut report = LoadgenReport {
        total: threads * cfg.requests,
        workers: target.workers(),
        ..Default::default()
    };
    let started = Instant::now();
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let seed = cfg.seed ^ (t as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let names = &names;
                s.spawn(move || client_loop(cfg, target, names, seed))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });
    for part in parts {
        let (traces, client) = part.map_err(|_| "loadgen thread panicked".to_string())?;
        for (t, us) in traces {
            report.tally(t, us);
        }
        target.finish(client, &mut report);
    }
    report.elapsed = started.elapsed();
    report.latencies_us.sort_unstable();
    Ok(report)
}

/// One client thread: `cfg.requests` requests in windows of
/// `cfg.pipeline`, each traced with its window's round trip in µs.
fn client_loop<T: Target>(
    cfg: &LoadgenConfig,
    target: &T,
    names: &[String],
    seed: u64,
) -> (Vec<(JobTrace, u64)>, T::Client) {
    let mut rng = Rng::new(seed);
    let mut client = target.client();
    let mut traces = Vec::with_capacity(cfg.requests);
    let mut remaining = cfg.requests;
    while remaining > 0 {
        let n = cfg.pipeline.max(1).min(remaining);
        remaining -= n;
        let batch: Vec<RunRequest> = (0..n)
            .map(|_| RunRequest {
                app: rng.pick(names).clone(),
                technique: *rng.pick(&TECHNIQUES),
                cycle_budget: cfg.cycle_budget,
                ..RunRequest::default()
            })
            .collect();
        let sent = Instant::now();
        let sent_traces = target.send(&mut client, &batch);
        let us = sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        traces.extend(sent_traces.into_iter().map(|t| (t, us)));
    }
    (traces, client)
}

/// The direct target: `POST /v1/run` to one server over an
/// [`HttpClient`] per thread. With keep-alive (the default) a thread's
/// requests share one connection unless the server closes it; without,
/// every request pays a fresh TCP handshake. The report carries
/// per-connection request counts so reuse is visible, not assumed.
#[derive(Debug, Clone, Copy)]
pub struct Direct<'a>(pub &'a LoadgenConfig);

impl Direct<'_> {
    /// One logical request: up to 1 + `max_retries_429` attempts, backing
    /// off by the server's `Retry-After` between them.
    fn send_one(&self, client: &mut HttpClient, body: &[u8]) -> JobTrace {
        let mut retried = 0;
        loop {
            match client.request("POST", "/v1/run", Some(body)) {
                Ok(resp) if resp.status == 429 && retried < self.0.max_retries_429 => {
                    retried += 1;
                    std::thread::sleep(resp.retry_after_wait(self.0.retry_after_cap));
                }
                outcome => return trace(outcome.ok().as_ref(), retried as u32),
            }
        }
    }
}

impl Target for Direct<'_> {
    type Client = HttpClient;

    fn workloads(&self) -> Result<Vec<String>, String> {
        let cfg = self.0;
        let resp = client_request(&cfg.addr, "GET", "/v1/workloads", None, cfg.timeout)
            .map_err(|e| format!("GET /v1/workloads: {e}"))?;
        if resp.status != 200 {
            return Err(format!("GET /v1/workloads: status {}", resp.status));
        }
        let text = core::str::from_utf8(&resp.body).map_err(|e| e.to_string())?;
        let parsed = json::parse(text).map_err(|e| e.to_string())?;
        let arr = parsed
            .as_arr()
            .ok_or_else(|| "workload registry is not an array".to_string())?;
        let names: Vec<String> = arr
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .map(str::to_string)
            .collect();
        if names.is_empty() {
            return Err("workload registry is empty".to_string());
        }
        Ok(names)
    }

    fn workers(&self) -> Vec<String> {
        Vec::new()
    }

    fn client(&self) -> HttpClient {
        HttpClient::new(self.0.addr.clone(), self.0.timeout, self.0.keep_alive)
    }

    fn send(&self, client: &mut HttpClient, batch: &[RunRequest]) -> Vec<JobTrace> {
        let bodies: Vec<Vec<u8>> = batch
            .iter()
            .map(|r| run_request_json(r).encode().into_bytes())
            .collect();
        if self.0.pipeline <= 1 {
            return bodies.iter().map(|b| self.send_one(client, b)).collect();
        }
        let refs: Vec<&[u8]> = bodies.iter().map(Vec::as_slice).collect();
        match client.request_batch("POST", "/v1/run", &refs) {
            Ok(resps) => resps.iter().map(|r| trace(Some(r), 0)).collect(),
            Err(_) => vec![trace(None, 0); batch.len()],
        }
    }

    fn finish(&self, client: HttpClient, report: &mut LoadgenReport) {
        report.connections += client.connections_opened as usize;
        report.conn_requests.extend(client.conn_request_counts());
    }
}

/// Trace one direct request from its final response (`None` after a
/// transport error).
fn trace(resp: Option<&ClientResponse>, retried_429: u32) -> JobTrace {
    let verdict = match resp.map(|r| r.status) {
        Some(200) => Verdict::Ok,
        Some(429) => Verdict::GaveUp,
        _ => Verdict::Failed,
    };
    JobTrace {
        verdict,
        // The server encodes canonically, so a substring scan is exact
        // here and much cheaper than a JSON parse.
        cached: verdict == Verdict::Ok
            && resp.is_some_and(|r| {
                r.body
                    .windows(b"\"cached\":true".len())
                    .any(|w| w == b"\"cached\":true")
            }),
        retried_429,
        attempts: 1 + retried_429,
        served_by: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_on_sorted_samples() {
        let report = LoadgenReport {
            total: 100,
            ok: 100,
            latencies_us: (1..=100).collect(),
            elapsed: Duration::from_secs(2),
            ..Default::default()
        };
        assert_eq!(percentile_us(&report.latencies_us, 50.0), 51);
        assert_eq!(percentile_us(&report.latencies_us, 99.0), 99);
        assert_eq!(percentile_us(&report.latencies_us, 100.0), 100);
        assert!((report.rps() - 50.0).abs() < 1e-9);
        assert!(report.nothing_dropped());
    }

    #[test]
    fn empty_report_is_safe() {
        let r = LoadgenReport::default();
        assert_eq!(percentile_us(&r.latencies_us, 99.0), 0);
        assert_eq!(r.rps(), 0.0);
        assert_eq!(r.cache_hit_rate(), 0.0);
        assert!(r.render().contains("requests      0"));
    }

    #[test]
    fn render_mentions_every_tally() {
        let r = LoadgenReport {
            total: 10,
            ok: 7,
            cached: 4,
            rejected: 2,
            retried_429: 5,
            failed: 1,
            elapsed: Duration::from_secs(1),
            latencies_us: vec![100, 200, 300],
            connections: 2,
            conn_requests: vec![6, 4],
            ..Default::default()
        };
        let text = r.render();
        assert!(text.contains("rejected 429  2"), "{text}");
        assert!(text.contains("retried 429   5"), "{text}");
        assert!(text.contains("goodput       7.0 ok/s"), "{text}");
        assert!(text.contains("hit rate"), "{text}");
        assert!(text.contains("connections   2 (5.0 req/conn)"), "{text}");
        assert!(!text.contains("worker"), "{text}");
        assert!((r.requests_per_conn() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn fleet_render_breaks_traffic_down_per_worker() {
        let mut r = LoadgenReport {
            total: 10,
            elapsed: Duration::from_secs(3),
            workers: vec!["127.0.0.1:9001".into(), "127.0.0.1:9002".into()],
            ..Default::default()
        };
        let served = |w, cached| JobTrace {
            verdict: Verdict::Ok,
            cached,
            attempts: 1,
            served_by: Some(w),
            ..JobTrace::default()
        };
        for (t, us) in [
            (served(0, true), 100),
            (served(0, false), 200),
            (served(1, true), 300),
        ] {
            r.tally(t, us);
        }
        r.tally(
            JobTrace {
                verdict: Verdict::GaveUp,
                retried_429: 2,
                attempts: 4,
                ..JobTrace::default()
            },
            900,
        );
        assert_eq!((r.ok, r.cached, r.rejected, r.attempts), (3, 2, 1, 7));
        assert!((r.goodput() - 1.0).abs() < 1e-9);
        let text = r.render();
        assert!(text.contains("gave up       1"), "{text}");
        assert!(text.contains("retried 429   2"), "{text}");
        assert!(text.contains("attempts      7"), "{text}");
        assert!(text.contains("127.0.0.1:9001"), "{text}");
        assert!(text.contains("20.0%"), "{text}");
        assert!(!text.contains("connections"), "{text}");
    }
}
