//! `serve_cold` and `serve_warm`: closed-loop `/v1/run` traffic against
//! a real `regmutex-cli serve` daemon over nproc keep-alive connections.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use regmutex::{Technique, ALL_TECHNIQUES};
use regmutex_bench::{CachedResult, JobSpec, ResultCache, Runner, DEFAULT_CACHE_BUDGET};
use regmutex_server::http::{encode_response, parse_request_buf, Limits, Response};
use regmutex_server::{json, spec_for_request, wire};
use regmutex_sim::{GpuConfig, LaunchConfig};
use regmutex_workloads::suite;

use crate::http::{Client, Daemon, Scrape};
use crate::pipeline::{pool, run_job, Counters, SimSum};
use crate::report::Outcome;
use crate::trace::{aggregate_all, span};
use crate::util::{nproc, peak_rss_mb, percentile_u64, secs, Rng};
use crate::Args;

/// Daemon spawns per run; the median is `setup_s`.
const SETUPS: usize = 5;
/// Distinct bodies `serve_warm` primes and then samples from.
const WARM_BODIES: usize = 64;
/// Bodies of the seeded order `serve_cold` replays in-process when traced.
const COLD_REPLAY: usize = 256;
/// `serve_warm` samples its request rate over windows this long.
const WINDOW_S: f64 = 0.5;

/// One `/v1/run` body of the workload's space.
#[derive(Clone)]
struct Body {
    app: &'static str,
    technique: Technique,
    half_rf: bool,
    ctas: u32,
    json: String,
}

impl Body {
    fn spec(&self, apps: &[regmutex_workloads::Workload]) -> JobSpec {
        let w = apps
            .iter()
            .find(|w| w.name == self.app)
            .expect("body names a Table I app");
        JobSpec::new(
            &self.json,
            &w.kernel,
            &rf(self.half_rf),
            LaunchConfig::new(self.ctas),
            self.technique,
        )
    }
}

fn rf(half: bool) -> GpuConfig {
    if half {
        GpuConfig::gtx480_half_rf()
    } else {
        GpuConfig::gtx480()
    }
}

/// 16 apps × 5 techniques × 2 register files × `ctas = grid + 15k`,
/// k = 0..7, less the pairs that do not fit (1,240 distinct jobs), in a
/// seeded order.
fn bodies(seed: u64) -> Vec<Body> {
    let mut out = Vec::new();
    for w in suite::all() {
        for technique in ALL_TECHNIQUES {
            for half_rf in [false, true] {
                if !crate::sim::fits(&w, &rf(half_rf)) {
                    continue;
                }
                for k in 0..8 {
                    let ctas = w.grid_ctas + 15 * k;
                    let json = format!(
                        r#"{{"app":"{}","technique":"{technique}","half_rf":{half_rf},"ctas":{ctas}}}"#,
                        w.name
                    );
                    out.push(Body {
                        app: w.name,
                        technique,
                        half_rf,
                        ctas,
                        json,
                    });
                }
            }
        }
    }
    Rng::new(seed).shuffle(&mut out);
    out
}

/// What the closed-loop phase saw.
#[derive(Default)]
struct Load {
    latencies_ns: Vec<u64>,
    /// Completed requests per [`WINDOW_S`] window.
    windows: Vec<u64>,
    elapsed_s: f64,
    /// `(body index, status, response body)` when kept.
    responses: Vec<(usize, u16, Vec<u8>)>,
}

/// nproc client threads, one keep-alive connection each, each waiting
/// for its reply before sending again, until `pick` runs dry or
/// `seconds` pass. `pick` draws from a per-thread stream of `seed`;
/// `check` judges each response; `keep` retains them.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    out: &mut Outcome,
    addr: &str,
    seconds: f64,
    seed: u64,
    bodies: &[Body],
    pick: impl Fn(usize, &mut Rng) -> Option<usize> + Sync,
    check: impl Fn(usize, u16, &[u8]) -> Result<(), String> + Sync,
    keep: bool,
) -> Load {
    let load = Mutex::new(Load::default());
    // (attempted, failed, first errors)
    let tally = Mutex::new((0u64, 0u64, Vec::<String>::new()));
    let start = Instant::now();
    std::thread::scope(|s| {
        for thread in 0..nproc() {
            let (load, tally, pick, check) = (&load, &tally, &pick, &check);
            s.spawn(move || {
                let mut rng = Rng::new(seed ^ ((thread as u64 + 1) << 48));
                let mut mine = Load::default();
                let fail = |why: String| {
                    let mut t = tally.lock().expect("client thread panicked");
                    t.1 += 1;
                    if t.2.len() < 10 {
                        t.2.push(why);
                    }
                };
                let mut attempted = 0u64;
                match Client::connect(addr) {
                    Err(e) => fail(format!("connect {addr}: {e}")),
                    Ok(mut client) => {
                        let mut body = Vec::new();
                        let mut n = 0u64;
                        while secs(start) < seconds {
                            let Some(i) = pick(thread, &mut rng) else {
                                break;
                            };
                            attempted += 1;
                            let t = Instant::now();
                            let status = span("request", n, || {
                                client.request(
                                    "POST",
                                    "/v1/run",
                                    bodies[i].json.as_bytes(),
                                    &mut body,
                                )
                            });
                            n += 1;
                            let status = match status {
                                Ok(s) => s,
                                Err(e) => {
                                    fail(format!("request {}: {e}", bodies[i].json));
                                    break;
                                }
                            };
                            mine.latencies_ns.push(t.elapsed().as_nanos() as u64);
                            let window = (secs(start) / WINDOW_S) as usize;
                            if mine.windows.len() <= window {
                                mine.windows.resize(window + 1, 0);
                            }
                            mine.windows[window] += 1;
                            if let Err(why) = check(i, status, &body) {
                                fail(why);
                            }
                            if keep {
                                mine.responses.push((i, status, body.clone()));
                            }
                        }
                    }
                }
                crate::trace::flush();
                tally.lock().expect("client thread panicked").0 += attempted;
                let mut all = load.lock().expect("client thread panicked");
                all.latencies_ns.extend(mine.latencies_ns);
                all.responses.extend(mine.responses);
                if all.windows.len() < mine.windows.len() {
                    all.windows.resize(mine.windows.len(), 0);
                }
                for (a, m) in all.windows.iter_mut().zip(mine.windows) {
                    *a += m;
                }
            });
        }
    });
    let mut load = load.into_inner().expect("client thread panicked");
    load.elapsed_s = secs(start);
    let (attempted, failed, errors) = tally.into_inner().expect("client thread panicked");
    out.attempted += attempted.max(1);
    out.failed += failed;
    out.errors.extend(errors);
    load
}

/// `"cycles":N` and `"checksum":"0x…"` from a `/v1/run` response.
fn cycles_checksum(body: &[u8]) -> Option<(u64, u64)> {
    let text = std::str::from_utf8(body).ok()?;
    let field = |key: &str| -> Option<&str> {
        let rest = &text[text.find(key)? + key.len()..];
        Some(rest.split([',', '}', '"']).next()?.trim())
    };
    let cycles = field("\"cycles\":")?.parse().ok()?;
    let checksum =
        u64::from_str_radix(field("\"checksum\":\"")?.trim_start_matches("0x"), 16).ok()?;
    Some((cycles, checksum))
}

/// Compare daemon responses with in-process runs of the same jobs.
fn verify(out: &mut Outcome, responses: &[(usize, &[u8])], bodies: &[Body]) {
    let apps = suite::all();
    let specs: Vec<JobSpec> = responses
        .iter()
        .map(|(i, _)| bodies[*i].spec(&apps))
        .collect();
    for ((i, body), result) in responses.iter().zip(Runner::new(nproc()).run_all(&specs)) {
        let want = result.map(|r| (r.stats.cycles, r.stats.checksum));
        if want.as_ref().ok() != cycles_checksum(body).as_ref() {
            out.fail(format!(
                "{}: daemon answered {:?}, in-process run {want:?}",
                bodies[*i].json,
                cycles_checksum(body)
            ));
        }
    }
}

/// Spawn the daemon [`SETUPS`] times (priming each with `prime`), keep
/// the last one, and record the median spawn-to-ready time.
fn set_up<T>(
    out: &mut Outcome,
    args: &Args,
    prime: impl Fn(&Daemon) -> Result<T, String>,
) -> Result<(Daemon, T), String> {
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some((d, _)) = last.take() {
            Daemon::shutdown(d)?;
        }
        let t = Instant::now();
        let daemon = Daemon::spawn(&args.cli, nproc())?;
        let primed = prime(&daemon)?;
        out.sample("setup_s", secs(t));
        last = Some((daemon, primed));
    }
    Ok(last.expect("at least one set-up"))
}

fn scrape(daemon: &Daemon) -> Result<Scrape, String> {
    match daemon.get("/metrics")? {
        (200, body) => Ok(Scrape::parse(&String::from_utf8_lossy(&body))),
        (status, _) => Err(format!("/metrics answered {status}")),
    }
}

/// The in-process replay of `items` through the server's public calls:
/// HTTP parse → JSON parse → wire decode → spec → the runner's job steps
/// → wire encode → HTTP encode. Each result must match `expect`, the
/// daemon's bytes for that body, when one is given.
fn replay(
    out: &mut Outcome,
    items: &[(usize, Option<&[u8]>)],
    bodies: &[Body],
    cached: bool,
) -> (Counters, u64, u64, SimSum) {
    let ctr = Counters::default();
    let cache = ResultCache::new(DEFAULT_CACHE_BUDGET);
    let limits = Limits::default();
    let results: Vec<Result<(CachedResult, Vec<u8>), String>> = pool(nproc(), items.len(), |n| {
        let (i, _) = items[n];
        let unit = i as u64;
        span("workloads_build", unit, suite::all);
        let b = &bodies[i];
        let raw = format!(
            "POST /v1/run HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}",
            b.json.len(),
            b.json
        );
        span("replay", unit, || {
            let (req, _) = span("http_parse", unit, || {
                parse_request_buf(raw.as_bytes(), &limits)
            })
            .map_err(|e| e.to_string())?
            .ok_or("incomplete request")?;
            let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
            let value =
                span("json_parse", unit, || json::parse(text)).map_err(|e| e.to_string())?;
            let run =
                span("wire_decode", unit, || wire::parse_run_request(&value)).map_err(|e| e.0)?;
            let spec = span("spec_build", unit, || spec_for_request(&run, 0, None));
            let result = run_job(&spec, &cache, &ctr, unit);
            let report = result.as_ref().map_err(|e| e.to_string())?;
            let body = span("wire_encode", unit, || {
                wire::run_response_json(&run.app, report, cached, None).encode()
            });
            let bytes = span("http_encode", unit, || {
                encode_response(&Response::json(200, body.clone()), true)
            });
            std::hint::black_box(bytes);
            Ok((result, body.into_bytes()))
        })
    });
    let mut done = Vec::new();
    for ((i, expect), r) in items.iter().zip(results) {
        out.attempted += 1;
        match r {
            Err(e) => out.fail(format!("replay {}: {e}", bodies[*i].json)),
            Ok((result, body)) => {
                if expect.is_some_and(|want| want != body.as_slice()) {
                    out.fail(format!(
                        "replay {}: encoding differs from the daemon's response",
                        bodies[*i].json
                    ));
                }
                done.push(result);
            }
        }
    }
    (ctr, cache.hits(), cache.misses(), SimSum::of(&done))
}

/// Client-side and `/metrics`-derived numbers shared by both workloads.
fn finish(out: &mut Outcome, load: &mut Load, before: &Scrape, after: &Scrape, pid: u32) {
    load.latencies_ns.sort_unstable();
    let p50 = percentile_u64(&load.latencies_ns, 50.0) as f64 / 1e6;
    out.sample("p50_ms", p50);
    out.sample(
        "p99_ms",
        percentile_u64(&load.latencies_ns, 99.0) as f64 / 1e6,
    );
    out.sample("peak_rss_mb", peak_rss_mb(Some(pid)));
    if crate::trace::enabled() {
        let client_mean = load.latencies_ns.iter().sum::<u64>() as f64
            / load.latencies_ns.len().max(1) as f64
            / 1e6;
        let daemon_mean = after.mean_ms_since(before);
        let hits = after.cache_hits - before.cache_hits;
        let misses = after.cache_misses - before.cache_misses;
        out.layers
            .insert("server.daemon_p50_ms", after.p50_ms_since(before));
        out.layers.insert("server.daemon_mean_ms", daemon_mean);
        out.layers
            .insert("server.outside_ms", client_mean - daemon_mean);
        out.layers
            .insert("server.cache_hit_ratio", hits / (hits + misses).max(1.0));
    }
}

/// Layer metrics from the replay's and the clients' spans.
fn server_layers(out: &mut Outcome, ctr: &Counters, hits: u64, misses: u64) {
    let mut layers = aggregate_all();
    out.common_layers(&mut layers, ctr, hits, misses, nproc());
    for (metric, span) in [
        ("workloads.build_us", "workloads_build"),
        ("server.http_parse_us", "http_parse"),
        ("server.json_parse_us", "json_parse"),
        ("server.wire_decode_us", "wire_decode"),
        ("server.spec_build_us", "spec_build"),
        ("server.wire_encode_us", "wire_encode"),
        ("server.http_encode_us", "http_encode"),
    ] {
        out.layers
            .insert(metric, layers.get(span).map_or(f64::NAN, |l| l.mean_us()));
    }
}

fn cold(out: &mut Outcome, args: &Args) -> Result<(), String> {
    let bodies = bodies(args.seed);
    let (daemon, ()) = set_up(out, args, |_| Ok(()))?;
    let before = scrape(&daemon)?;
    let cursor = AtomicUsize::new(0);
    let mut load = closed_loop(
        out,
        &daemon.addr,
        args.seconds,
        args.seed,
        &bodies,
        |_, _| Some(cursor.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < bodies.len()),
        |i, status, _| match status {
            200 => Ok(()),
            s => Err(format!("{}: status {s}", bodies[i].json)),
        },
        true,
    );
    let after = scrape(&daemon)?;
    out.sample("ops_per_s", load.latencies_ns.len() as f64 / load.elapsed_s);
    finish(out, &mut load, &before, &after, daemon.pid());
    daemon.shutdown()?;
    out.rounds = 1;

    // After the timed phase: every answer against an in-process run.
    let answered: Vec<(usize, &[u8])> = load
        .responses
        .iter()
        .filter(|(_, status, _)| *status == 200)
        .map(|(i, _, b)| (*i, b.as_slice()))
        .collect();
    verify(out, &answered, &bodies);
    if args.traced {
        let sent: std::collections::HashMap<usize, &[u8]> = answered.iter().copied().collect();
        let items: Vec<(usize, Option<&[u8]>)> = (0..COLD_REPLAY)
            .map(|i| (i, sent.get(&i).copied()))
            .collect();
        let (ctr, hits, misses, sum) = replay(out, &items, &bodies, false);
        out.sim = Some(sum);
        server_layers(out, &ctr, hits, misses);
    }
    Ok(())
}

fn warm(out: &mut Outcome, args: &Args) -> Result<(), String> {
    let bodies: Vec<Body> = bodies(args.seed).into_iter().take(WARM_BODIES).collect();
    // Priming sends each body twice on one connection per client thread;
    // the second answer is the memoized response every later one must
    // equal byte for byte.
    let prime = |daemon: &Daemon| -> Result<Vec<Vec<u8>>, String> {
        type Answers = Result<Vec<(usize, Vec<u8>)>, String>;
        let per_thread: Vec<Answers> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..nproc())
                .map(|thread| {
                    let bodies = &bodies;
                    s.spawn(move || {
                        let mut client =
                            Client::connect(&daemon.addr).map_err(|e| e.to_string())?;
                        let mut mine = Vec::new();
                        for i in (thread..bodies.len()).step_by(nproc()) {
                            let mut body = Vec::new();
                            for _ in 0..2 {
                                match client.request(
                                    "POST",
                                    "/v1/run",
                                    bodies[i].json.as_bytes(),
                                    &mut body,
                                ) {
                                    Ok(200) => {}
                                    Ok(s) => {
                                        return Err(format!(
                                            "priming {}: status {s}",
                                            bodies[i].json
                                        ))
                                    }
                                    Err(e) => {
                                        return Err(format!("priming {}: {e}", bodies[i].json))
                                    }
                                }
                            }
                            mine.push((i, body));
                        }
                        Ok(mine)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("priming thread panicked"))
                .collect()
        });
        let mut primed = vec![Vec::new(); bodies.len()];
        for answers in per_thread {
            for (i, body) in answers? {
                primed[i] = body;
            }
        }
        Ok(primed)
    };
    let (daemon, primed) = set_up(out, args, prime)?;
    let before = scrape(&daemon)?;
    let mut load = closed_loop(
        out,
        &daemon.addr,
        args.seconds,
        args.seed,
        &bodies,
        |_, rng| Some(rng.below(bodies.len())),
        |i, status, body| {
            if status == 200 && body == primed[i].as_slice() {
                Ok(())
            } else {
                Err(format!(
                    "{}: status {status}, body differs from the primed response",
                    bodies[i].json
                ))
            }
        },
        false,
    );
    let after = scrape(&daemon)?;
    let full = (load.elapsed_s / WINDOW_S) as usize;
    for n in load.windows.iter().take(full) {
        out.sample("ops_per_s", *n as f64 / WINDOW_S);
        out.rounds += 1;
    }
    finish(out, &mut load, &before, &after, daemon.pid());
    daemon.shutdown()?;

    let answers: Vec<(usize, &[u8])> = primed
        .iter()
        .enumerate()
        .map(|(i, b)| (i, b.as_slice()))
        .collect();
    verify(out, &answers, &bodies);
    if args.traced {
        let items: Vec<(usize, Option<&[u8]>)> =
            answers.iter().map(|(i, b)| (*i, Some(*b))).collect();
        let (ctr, hits, misses, sum) = replay(out, &items, &bodies, true);
        out.sim = Some(sum);
        server_layers(out, &ctr, hits, misses);
    }
    Ok(())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new(args.workload);
    let started = Instant::now();
    let result = match args.workload {
        "serve_cold" => cold(&mut out, args),
        _ => warm(&mut out, args),
    };
    if let Err(e) = result {
        out.attempted += 1;
        out.fail(e);
    }
    out.wall_s = secs(started);
    out
}
