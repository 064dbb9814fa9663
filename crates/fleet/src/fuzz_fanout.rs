//! Fan a fuzzing campaign out across fleet workers.
//!
//! A fuzz campaign cannot ride the [`MatrixJob`](regmutex_bench::MatrixJob)
//! path — that wire names registry workloads, while fuzz kernels exist
//! only as `(seed, index)` pairs. Instead the coordinator shards the
//! campaign's index range into disjoint `start..start+count` slices and
//! POSTs each slice to a worker's `/v1/fuzz` endpoint; the worker
//! regenerates every kernel locally from `mix(seed, index)`. Only a few
//! integers cross the wire in each direction.
//!
//! There is one shard per worker, and every shard runs on its own
//! thread, so an N-worker fan-out runs N shards at once.
//!
//! Determinism contract: shard boundaries are a pure function of
//! `(iters, workers)`, kernel `i` is the same kernel on every worker,
//! and shard results are merged in shard order — so the merged counters
//! (and any divergence artifacts) are identical to a local run over the
//! same range, no matter which worker served which shard, which shard
//! finished first, or how many attempts failover took.

use std::time::Duration;

use regmutex_server::http::client_request;
use regmutex_server::json::{self, Json};

use crate::backoff::BackoffPolicy;

/// Fan-out tunables.
#[derive(Debug, Clone)]
pub struct FuzzFanoutConfig {
    /// Worker addresses (`host:port`), each running `regmutex-cli serve`.
    pub workers: Vec<String>,
    /// Campaign seed.
    pub seed: u64,
    /// Total kernels across all shards.
    pub iters: u64,
    /// Per-technique cycle budget forwarded to every worker.
    pub cycle_budget: u64,
    /// Ask workers to minimize divergences they find.
    pub minimize: bool,
    /// Attempts per shard before the fan-out fails (failover walks the
    /// worker list from the shard's home worker).
    pub max_attempts: u32,
    /// Per-request timeout (a shard is one long-running request).
    pub timeout: Duration,
}

impl Default for FuzzFanoutConfig {
    fn default() -> Self {
        FuzzFanoutConfig {
            workers: Vec::new(),
            seed: 0x5eed_f022,
            iters: 1000,
            cycle_budget: 400_000,
            minimize: true,
            max_attempts: 4,
            timeout: Duration::from_secs(600),
        }
    }
}

/// Merged counters and artifacts from a completed fan-out.
#[derive(Debug, Clone, Default)]
pub struct FuzzFanoutReport {
    /// Kernels evaluated across all shards.
    pub kernels: u64,
    /// Simulations submitted across all shards.
    pub runs: u64,
    /// Kernels with all invariants holding.
    pub agreements: u64,
    /// Divergences found.
    pub divergences: u64,
    /// Blessed watchdog escalations.
    pub escalations: u64,
    /// Result-cache hits on the workers (timing-dependent when a worker
    /// serves several shards at once).
    pub cache_hits: u64,
    /// Result-cache misses on the workers (as `cache_hits`).
    pub cache_misses: u64,
    /// Kernel compilations across all shards: one per kernel plus one per
    /// escalation on a clean campaign, as in a local run.
    pub compiles: u64,
    /// Divergence artifacts, in shard (= index) order.
    pub artifacts: Vec<String>,
    /// Per-shard `(start, count, worker, attempts)` attribution.
    pub shards: Vec<(u64, u64, usize, u32)>,
}

/// Run the fan-out. Fails (with a description) only when a shard exhausts
/// its attempts on every reachable worker — partial results are never
/// reported as a complete campaign.
pub fn run_fuzz_fanout(cfg: &FuzzFanoutConfig) -> Result<FuzzFanoutReport, String> {
    if cfg.workers.is_empty() {
        return Err("fuzz fan-out has no workers; pass at least one host:port".to_string());
    }
    if cfg.iters == 0 {
        return Err("fuzz fan-out needs iters >= 1".to_string());
    }
    let shards = (cfg.workers.len() as u64).min(cfg.iters);
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                let (start, count) = shard_range(cfg.iters, shards, shard);
                s.spawn(move || run_shard(cfg, shard as usize, start, count))
            })
            .collect();
        // Merged in shard order: the first failing shard names the error.
        handles
            .into_iter()
            .map(|h| h.join().expect("fuzz shard thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;

    let mut report = FuzzFanoutReport::default();
    for (shard, body) in results {
        let get = |k: &str| body.get(k).and_then(Json::as_u64).unwrap_or(0);
        report.kernels += get("kernels");
        report.runs += get("runs");
        report.agreements += get("agreements");
        report.divergences += get("divergences");
        report.escalations += get("escalations");
        report.cache_hits += get("cache_hits");
        report.cache_misses += get("cache_misses");
        report.compiles += get("compiles");
        if let Some(Json::Arr(items)) = body.get("artifacts") {
            for a in items {
                if let Some(text) = a.as_str() {
                    report.artifacts.push(text.to_string());
                }
            }
        }
        report.shards.push(shard);
    }
    Ok(report)
}

/// Shard `shard` of `shards` over `0..iters`, as `(start, count)`: an
/// even split where the first `iters % shards` shards take one extra.
fn shard_range(iters: u64, shards: u64, shard: u64) -> (u64, u64) {
    let (base, extra) = (iters / shards, iters % shards);
    (
        shard * base + shard.min(extra),
        base + u64::from(shard < extra),
    )
}

/// A shard's `(start, count, worker, attempts)` attribution.
type Shard = (u64, u64, usize, u32);

/// Dispatch one shard with failover: attempt `a` goes to worker
/// `(shard + a) % n`, so consecutive attempts walk the whole fleet before
/// giving up, and a healthy fleet spreads shards round-robin. Returns the
/// shard's `(start, count, worker, attempts)` attribution and the
/// worker's reply.
fn run_shard(
    cfg: &FuzzFanoutConfig,
    shard: usize,
    start: u64,
    count: u64,
) -> Result<(Shard, Json), String> {
    let n = cfg.workers.len();
    let body = format!(
        concat!(
            "{{\"seed\":\"{:#x}\",\"start\":{},\"count\":{},",
            "\"cycle_budget\":{},\"minimize\":{}}}"
        ),
        cfg.seed, start, count, cfg.cycle_budget, cfg.minimize
    );
    let mut last_err = String::new();
    for attempt in 0..cfg.max_attempts {
        std::thread::sleep(BackoffPolicy::default().delay(cfg.seed, shard as u64, attempt));
        let worker = (shard + attempt as usize) % n;
        let addr = &cfg.workers[worker];
        match client_request(
            addr.as_str(),
            "POST",
            "/v1/fuzz",
            Some(body.as_bytes()),
            cfg.timeout,
        ) {
            Ok(resp) if resp.status == 200 => {
                let text = core::str::from_utf8(&resp.body)
                    .map_err(|_| format!("worker {addr}: non-UTF-8 fuzz reply"))?;
                let parsed = json::parse(text)
                    .map_err(|e| format!("worker {addr}: bad fuzz reply JSON: {e}"))?;
                // Integrity: the worker must echo the shard it was asked
                // to run; a mismatch is a corrupted reply, not a result.
                let echo_start = parsed.get("start").and_then(Json::as_u64);
                let echo_kernels = parsed.get("processed").and_then(Json::as_u64);
                if echo_start != Some(start) || echo_kernels != Some(count) {
                    last_err = format!(
                        "worker {addr}: shard echo mismatch (want start {start} count {count}, \
                         got {echo_start:?}/{echo_kernels:?})"
                    );
                    continue;
                }
                return Ok(((start, count, worker, attempt + 1), parsed));
            }
            Ok(resp) => {
                last_err = format!(
                    "worker {addr}: HTTP {} {}",
                    resp.status,
                    String::from_utf8_lossy(&resp.body)
                );
            }
            Err(e) => {
                last_err = format!("worker {addr}: {e:?}");
            }
        }
    }
    Err(format!(
        "shard {shard} ({start}..{}) failed after {} attempts; last error: {last_err}",
        start + count,
        cfg.max_attempts
    ))
}

impl FuzzFanoutReport {
    /// Render the fan-out report and exit code (0 clean, 1 divergent).
    pub fn render(&self, workers: &[String]) -> (String, i32) {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fuzz fleet: {} kernels over {} shards on {} workers",
            self.kernels,
            self.shards.len(),
            workers.len()
        );
        for (start, count, worker, attempts) in &self.shards {
            let _ = writeln!(
                out,
                "  shard {start}..{} -> {} (attempt {attempts})",
                start + count,
                workers.get(*worker).map(String::as_str).unwrap_or("?"),
            );
        }
        let _ = writeln!(out, "  runs         {}", self.runs);
        let _ = writeln!(out, "  agreements   {}", self.agreements);
        let _ = writeln!(out, "  divergences  {}", self.divergences);
        let _ = writeln!(out, "  escalations  {}", self.escalations);
        for (i, a) in self.artifacts.iter().enumerate() {
            let _ = writeln!(out, "\ndivergence artifact {}:", i + 1);
            for line in a.lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
        let clean = self.divergences == 0;
        let _ = writeln!(
            out,
            "\nverdict: {}",
            if clean { "CLEAN" } else { "DIVERGENT" }
        );
        (out, i32::from(!clean))
    }
}

impl FuzzFanoutReport {
    /// Merged JSON stats — the fleet analogue of the local `--stats`
    /// artifact. `elapsed_ms` is the coordinator's wall clock for the
    /// whole fan-out, so `kernels_per_sec` measures fleet throughput.
    pub fn to_json(&self, elapsed_ms: u128) -> String {
        let kps = if elapsed_ms > 0 {
            self.kernels as f64 * 1000.0 / elapsed_ms as f64
        } else {
            0.0
        };
        Json::Obj(vec![
            ("kernels".into(), Json::U64(self.kernels)),
            ("runs".into(), Json::U64(self.runs)),
            ("agreements".into(), Json::U64(self.agreements)),
            ("divergences".into(), Json::U64(self.divergences)),
            ("escalations".into(), Json::U64(self.escalations)),
            ("cache_hits".into(), Json::U64(self.cache_hits)),
            ("cache_misses".into(), Json::U64(self.cache_misses)),
            ("compiles".into(), Json::U64(self.compiles)),
            ("shards".into(), Json::U64(self.shards.len() as u64)),
            ("elapsed_ms".into(), Json::U64(elapsed_ms as u64)),
            ("kernels_per_sec".into(), Json::F64(kps)),
            (
                "artifacts".into(),
                Json::Arr(
                    self.artifacts
                        .iter()
                        .map(|a| Json::Str(a.clone()))
                        .collect(),
                ),
            ),
        ])
        .encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_json_encodes_counters() {
        let report = FuzzFanoutReport {
            kernels: 10,
            runs: 50,
            agreements: 10,
            compiles: 10,
            cache_misses: 50,
            ..FuzzFanoutReport::default()
        };
        let j = report.to_json(2000);
        assert!(j.contains("\"kernels\":10"), "{j}");
        assert!(j.contains("\"compiles\":10"), "{j}");
        assert!(j.contains("\"cache_hits\":0,\"cache_misses\":50"), "{j}");
        assert!(j.contains("\"kernels_per_sec\":5"), "{j}");
    }

    #[test]
    fn shard_split_covers_the_range_exactly() {
        for (iters, shards) in [(10u64, 3u64), (7, 7), (100, 4), (5, 5)] {
            let covered: Vec<u64> = (0..shards)
                .flat_map(|s| {
                    let (start, count) = shard_range(iters, shards, s);
                    start..start + count
                })
                .collect();
            assert_eq!(covered, (0..iters).collect::<Vec<_>>(), "{iters}/{shards}");
        }
    }

    /// Two stub workers, each of which answers its `/v1/fuzz` shard only
    /// once both shards have arrived: a fan-out that ran its shards one
    /// after another would time out on the first.
    #[test]
    fn shards_run_concurrently() {
        use regmutex_server::http::{encode_response, parse_request_buf, Limits, Response};
        use std::io::{Read, Write};
        use std::net::TcpListener;
        use std::sync::{Arc, Barrier};

        let barrier = Arc::new(Barrier::new(2));
        let workers = (0..2)
            .map(|_| {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let addr = listener.local_addr().unwrap().to_string();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let (mut stream, _) = listener.accept().unwrap();
                    let mut buf = Vec::new();
                    let req = loop {
                        let mut chunk = [0u8; 4096];
                        let n = stream.read(&mut chunk).unwrap();
                        buf.extend_from_slice(&chunk[..n]);
                        if let Some((req, _)) = parse_request_buf(&buf, &Limits::default()).unwrap()
                        {
                            break req;
                        }
                    };
                    barrier.wait();
                    let body = json::parse(core::str::from_utf8(&req.body).unwrap()).unwrap();
                    let field = |k: &str| body.get(k).and_then(Json::as_u64).unwrap();
                    let (start, count) = (field("start"), field("count"));
                    let reply = format!(
                        "{{\"start\":{start},\"processed\":{count},\"kernels\":{count},\
                         \"runs\":{},\"agreements\":{count},\"divergences\":0,\
                         \"escalations\":0,\"artifacts\":[]}}",
                        5 * count
                    );
                    let resp = encode_response(&Response::json(200, reply), false);
                    stream.write_all(&resp).unwrap();
                });
                addr
            })
            .collect();
        let cfg = FuzzFanoutConfig {
            workers,
            iters: 10,
            max_attempts: 1,
            timeout: Duration::from_secs(10),
            ..FuzzFanoutConfig::default()
        };
        let report = run_fuzz_fanout(&cfg).expect("both shards answered");
        assert_eq!((report.kernels, report.runs), (10, 50));
        assert_eq!(report.shards, [(0, 5, 0, 1), (5, 5, 1, 1)]);
    }

    #[test]
    fn empty_fleet_is_an_error() {
        let cfg = FuzzFanoutConfig::default();
        assert!(run_fuzz_fanout(&cfg).is_err());
    }
}
