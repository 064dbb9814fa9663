//! Fan a fuzzing campaign out across fleet workers.
//!
//! A fuzz campaign cannot ride the [`MatrixJob`](regmutex_bench::MatrixJob)
//! path — that wire names registry workloads, while fuzz kernels exist
//! only as `(seed, index)` pairs. Instead the coordinator shards the
//! campaign's index range into disjoint `start..start+count` slices and
//! POSTs each slice to a worker's `/v1/fuzz` endpoint; the worker
//! regenerates every kernel locally from `mix(seed, index)`. Both
//! directions use the one `/v1/fuzz` codec in [`regmutex_server::wire`]:
//! the request is the shard's [`CampaignConfig`], and the reply is the
//! shard's [`FuzzReport`], divergences and all.
//!
//! There is one shard per worker, and every shard runs on its own
//! thread, so an N-worker fan-out runs N shards at once.
//!
//! Determinism contract: shard boundaries are a pure function of
//! `(iters, workers)`, kernel `i` is the same kernel on every worker,
//! and shard reports are joined in shard order with [`FuzzReport::merge`]
//! — so the merged report renders byte-identically to a local run over
//! the same range, no matter which worker served which shard, which
//! shard finished first, or how many attempts failover took. The one
//! exception is the divergence cap: each shard stops at
//! `max_divergences` of its own, so once the campaign reaches the cap the
//! merged report ends with the shard that reached it and may hold more
//! divergences than a local run, which stops at the cap exactly.

use std::time::{Duration, Instant};

use regmutex_fuzz::{CampaignConfig, FuzzReport};
use regmutex_server::http::client_request;
use regmutex_server::json;
use regmutex_server::wire::{campaign_to_json, fuzz_report_from_json};

use crate::backoff::BackoffPolicy;

/// Attempts per shard before the fan-out fails (failover walks the
/// worker list from the shard's home worker).
const MAX_ATTEMPTS: u32 = 4;

/// Per-request timeout (a shard is one long-running request).
const SHARD_TIMEOUT: Duration = Duration::from_secs(600);

/// A shard's `(start, count, worker, attempts)` attribution: its index
/// range, the index of the worker that served it, and the attempts it
/// took.
pub type Shard = (u64, u64, usize, u32);

/// Run `cfg` over `workers`, one shard each. Returns the merged report —
/// its `elapsed` is the fan-out's wall clock, so `kernels_per_sec`
/// measures fleet throughput — and each merged shard's attribution.
/// Fails (with a description) when the campaign cannot cross the wire
/// or a shard exhausts its attempts on every reachable worker — partial
/// results are never reported as a complete campaign.
pub fn run_fuzz_fanout(
    workers: &[String],
    cfg: &CampaignConfig,
) -> Result<(FuzzReport, Vec<Shard>), String> {
    if workers.is_empty() {
        return Err("fuzz fan-out has no workers; pass at least one host:port".to_string());
    }
    if cfg.iters == 0 {
        return Err("fuzz fan-out needs iters >= 1".to_string());
    }
    if cfg.fault.is_some() || cfg.duration.is_some() {
        return Err("a planted fault or a wall-clock budget cannot cross /v1/fuzz".to_string());
    }
    let shards = (workers.len() as u64).min(cfg.iters);
    let started = Instant::now();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                let (start, count) = shard_range(cfg.iters, shards, shard);
                let shard_cfg = CampaignConfig {
                    start: cfg.start + start,
                    iters: count,
                    ..cfg.clone()
                };
                s.spawn(move || run_shard(workers, &shard_cfg, shard as usize))
            })
            .collect();
        // Merged in shard order: the first failing shard names the error.
        handles
            .into_iter()
            .map(|h| h.join().expect("fuzz shard thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;

    let mut merged = FuzzReport::empty(cfg.seed, cfg.start);
    let mut attribution = Vec::new();
    for (shard, report) in results {
        merged.merge(report);
        attribution.push(shard);
        // A local campaign stops at the cap; the merged one stops after
        // the shard that reached it.
        if merged.stats.divergences >= cfg.max_divergences {
            break;
        }
    }
    merged.stats.elapsed = started.elapsed();
    Ok((merged, attribution))
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

/// Dispatch one shard with failover: attempt `a` goes to worker
/// `(shard + a) % n`, so consecutive attempts walk the whole fleet before
/// giving up, and a healthy fleet spreads shards round-robin. A 400 fails
/// the shard at once: the body is refused, and every worker would refuse
/// it alike. Returns the shard's attribution and the worker's report.
fn run_shard(
    workers: &[String],
    cfg: &CampaignConfig,
    shard: usize,
) -> Result<(Shard, FuzzReport), String> {
    let (start, count) = (cfg.start, cfg.iters);
    let body = campaign_to_json(cfg).encode();
    let mut last_err = String::new();
    for attempt in 0..MAX_ATTEMPTS {
        std::thread::sleep(BackoffPolicy::default().delay(cfg.seed, shard as u64, attempt));
        let worker = (shard + attempt as usize) % workers.len();
        let addr = &workers[worker];
        last_err = match client_request(
            addr.as_str(),
            "POST",
            "/v1/fuzz",
            Some(body.as_bytes()),
            SHARD_TIMEOUT,
        ) {
            Ok(resp) if resp.status == 200 => match decode_shard(&resp.body, cfg) {
                Ok(report) => return Ok(((start, count, worker, attempt + 1), report)),
                Err(e) => format!("worker {addr}: {e}"),
            },
            Ok(resp) if resp.status == 400 => {
                let why = String::from_utf8_lossy(&resp.body);
                return Err(format!(
                    "shard {shard} refused by worker {addr}: HTTP 400 {why}"
                ));
            }
            Ok(resp) => format!(
                "worker {addr}: HTTP {} {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ),
            Err(e) => format!("worker {addr}: {e:?}"),
        };
    }
    Err(format!(
        "shard {shard} ({start}..{}) failed after {MAX_ATTEMPTS} attempts; last error: {last_err}",
        start + count
    ))
}

/// Decode a worker's reply to the shard `cfg`. A reply that does not
/// decode, or does not cover the shard it was asked to run, is a
/// corrupted reply, not a result. A shard may end early only at the
/// divergence cap.
fn decode_shard(body: &[u8], cfg: &CampaignConfig) -> Result<FuzzReport, String> {
    let text = core::str::from_utf8(body).map_err(|_| "non-UTF-8 fuzz reply".to_string())?;
    let parsed = json::parse(text).map_err(|e| format!("bad fuzz reply JSON: {e}"))?;
    let report = fuzz_report_from_json(&parsed).map_err(|e| format!("bad fuzz reply: {e}"))?;
    let kernels = report.stats.kernels;
    let complete = kernels == cfg.iters
        || (kernels < cfg.iters && report.stats.divergences >= cfg.max_divergences);
    if (report.seed, report.start) != (cfg.seed, cfg.start) || !complete {
        return Err(format!(
            "shard echo mismatch (want seed {:#x} start {} count {}, got {:#x}/{}/{})",
            cfg.seed, cfg.start, cfg.iters, report.seed, report.start, kernels
        ));
    }
    Ok(report)
}

/// The shard attribution lines: which worker served each shard, and on
/// which attempt.
pub fn render_shards(shards: &[Shard], workers: &[String]) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "fuzz fleet: {} shards on {} workers\n",
        shards.len(),
        workers.len()
    );
    for (start, count, worker, attempts) in shards {
        let _ = writeln!(
            out,
            "  shard {start}..{} -> {} (attempt {attempts})",
            start + count,
            workers.get(*worker).map(String::as_str).unwrap_or("?"),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmutex::Technique;
    use regmutex_fuzz::{
        Artifact, CampaignStats, Divergence, DivergenceKind, Expectation, FoundDivergence,
    };
    use regmutex_server::http::{encode_response, parse_request_buf, Limits, Request, Response};
    use regmutex_server::wire::{campaign_from_json, fuzz_report_to_json};

    /// A clean report over `cfg`'s whole range, as a worker would send it.
    fn clean(cfg: &CampaignConfig) -> FuzzReport {
        FuzzReport {
            stats: CampaignStats {
                kernels: cfg.iters,
                runs: 5 * cfg.iters,
                agreements: cfg.iters,
                ..CampaignStats::default()
            },
            ..FuzzReport::empty(cfg.seed, cfg.start)
        }
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

    #[test]
    fn a_reply_must_cover_its_shard() {
        let cfg = CampaignConfig {
            seed: 9,
            start: 10,
            iters: 4,
            max_divergences: 1,
            ..CampaignConfig::default()
        };
        let reply = |r: &FuzzReport| fuzz_report_to_json(r).encode().into_bytes();
        assert!(decode_shard(&reply(&clean(&cfg)), &cfg).is_ok());
        // Another shard's range, or a short one, is refused ...
        let other = CampaignConfig {
            start: 11,
            ..cfg.clone()
        };
        assert!(decode_shard(&reply(&clean(&other)), &cfg).is_err());
        let mut short = clean(&cfg);
        short.stats.kernels = 3;
        assert!(decode_shard(&reply(&short), &cfg).is_err());
        // ... unless the shard stopped at the divergence cap.
        short.stats.divergences = 1;
        let (technique, kind) = (Technique::RegMutex, DivergenceKind::Verdict);
        short.divergences.push(FoundDivergence {
            index: 12,
            seed: 1,
            divergence: Divergence {
                technique,
                kind,
                detail: "stub".into(),
            },
            artifact: Artifact {
                seed: 1,
                trace: vec![0],
                fault: None,
                expect: Expectation::Divergence(technique, kind),
                note: None,
            },
            instructions: 3,
            minimize_steps: 0,
            minimize_tests: 0,
        });
        assert!(decode_shard(&reply(&short), &cfg).is_ok());
        assert!(decode_shard(b"{}", &cfg).is_err());
    }

    /// One whole request read off a stub worker's connection.
    fn read_request(stream: &mut std::net::TcpStream) -> Request {
        use std::io::Read;
        let mut buf = Vec::new();
        loop {
            let mut chunk = [0u8; 4096];
            let n = stream.read(&mut chunk).unwrap();
            buf.extend_from_slice(&chunk[..n]);
            if let Some((req, _)) = parse_request_buf(&buf, &Limits::default()).unwrap() {
                return req;
            }
        }
    }

    /// Two stub workers, each of which answers its `/v1/fuzz` shard only
    /// once both shards have arrived: a fan-out that ran its shards one
    /// after another would time out on the first.
    #[test]
    fn shards_run_concurrently() {
        use std::io::Write;
        use std::net::TcpListener;
        use std::sync::{Arc, Barrier};

        let barrier = Arc::new(Barrier::new(2));
        let workers: Vec<String> = (0..2)
            .map(|_| {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let addr = listener.local_addr().unwrap().to_string();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let (mut stream, _) = listener.accept().unwrap();
                    let req = read_request(&mut stream);
                    barrier.wait();
                    let body = json::parse(core::str::from_utf8(&req.body).unwrap()).unwrap();
                    let (cfg, _) = campaign_from_json(&body).unwrap();
                    let reply = fuzz_report_to_json(&clean(&cfg)).encode();
                    let resp = encode_response(&Response::json(200, reply), false);
                    stream.write_all(&resp).unwrap();
                });
                addr
            })
            .collect();
        let cfg = CampaignConfig {
            iters: 10,
            ..CampaignConfig::default()
        };
        let (report, shards) = run_fuzz_fanout(&workers, &cfg).expect("both shards answered");
        assert_eq!((report.stats.kernels, report.stats.runs), (10, 50));
        assert_eq!(shards, [(0, 5, 0, 1), (5, 5, 1, 1)]);
    }

    /// A 400 depends only on the body, so the shard fails on the first
    /// one with the worker's message instead of trying every worker.
    #[test]
    fn a_refused_shard_fails_at_once() {
        use std::io::Write;
        use std::net::TcpListener;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let workers = [listener.local_addr().unwrap().to_string()];
        let requests = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&requests);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let mut stream = stream.unwrap();
                read_request(&mut stream);
                seen.fetch_add(1, Ordering::SeqCst);
                let resp = Response::json(400, r#"{"error":"stub refuses 'seed'"}"#);
                stream.write_all(&encode_response(&resp, false)).unwrap();
            }
        });
        let err = run_fuzz_fanout(&workers, &CampaignConfig::default()).unwrap_err();
        assert!(err.contains("stub refuses 'seed'"), "{err}");
        assert_eq!(requests.load(Ordering::SeqCst), 1, "{err}");
    }

    #[test]
    fn campaigns_the_wire_cannot_carry_are_refused() {
        let cfg = CampaignConfig::default();
        assert!(run_fuzz_fanout(&[], &cfg).is_err());
        let workers = ["127.0.0.1:1".to_string()];
        let timed = CampaignConfig {
            duration: Some(Duration::from_secs(1)),
            ..CampaignConfig::default()
        };
        assert!(run_fuzz_fanout(&workers, &timed).is_err());
    }
}
