//! The simulation service daemon.
//!
//! Topology (all std threads, no async runtime):
//!
//! ```text
//!  event-loop thread (epoll) ──► per-connection state machines
//!        │   keep-alive + pipelining, incremental parse, timer wheel
//!        │   dispatch: cheap routes answered inline; job routes queued
//!        ▼
//!  BoundedQueue<QueuedJob>   ── full → 429 + Retry-After
//!        │
//!        ▼
//!  sim worker threads ──► Runner::run_one (shared LRU ResultCache)
//!        │
//!        └──► CompletionQueue (+ eventfd wake) back to the loop:
//!             full responses, or chunked stream rows for sweeps/fuzz
//! ```
//!
//! Every route answers JSON except `/metrics` (Prometheus text). Requests
//! that fail to parse get structured 400/408/413 bodies — hostile bytes
//! never panic a worker or hang a connection (the HTTP layer enforces
//! head/body caps; the timer wheel enforces absolute read deadlines).
//!
//! Shutdown is two-phase: *draining* (`POST /v1/shutdown` or SIGTERM)
//! rejects new jobs with 503 but keeps serving probes and finishing
//! admitted work; *quiescing* ([`Server::shutdown_and_wait`]) closes the
//! listener, lets every in-flight response and stream complete, then
//! closes the queue and joins the workers.

use std::collections::HashMap;
use std::net::{IpAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use regmutex::{RunError, RunReport, Technique};
use regmutex_bench::runner::default_jobs;
use regmutex_bench::{CachedResult, JobSpec, ResultCache, Runner, DEFAULT_CACHE_BUDGET};
use regmutex_compiler::CompileOptions;
use regmutex_fuzz::{CampaignConfig, CampaignStats, FuzzReport};
use regmutex_sim::{GpuConfig, LaunchConfig};
use regmutex_workloads::suite;

use crate::event_loop::{run_event_loop, Completion, CompletionQueue, SlotToken, TokenBuckets};
use crate::http::{Limits, Request, Response};
use crate::json::{self, Json};
use crate::metrics::{Metrics, ServiceGauges};
use crate::queue::{BoundedQueue, PushError};
use crate::wire::{self, RunRequest};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Simulation worker threads draining the job queue.
    pub sim_workers: usize,
    /// Bounded job-queue capacity (beyond it: 429).
    pub queue_capacity: usize,
    /// Result-cache byte budget.
    pub cache_budget: usize,
    /// Cycle cap applied to every job (min-ed with per-request budgets);
    /// `None` leaves only the config watchdog.
    pub cycle_budget: Option<u64>,
    /// HTTP read limits and timeouts.
    pub limits: Limits,
    /// Maximum concurrent connections (beyond it: 503).
    pub max_connections: usize,
    /// Per-client token-bucket refill rate (job requests per second per
    /// client IP). `0.0` disables the fairness policy.
    pub client_rate: f64,
    /// Token-bucket burst size per client IP.
    pub client_burst: f64,
    /// Quiesce the event loop directly on SIGINT/SIGTERM (set by the
    /// `serve` daemon; embedded servers drain via
    /// [`Server::shutdown_and_wait`] instead).
    pub drain_on_signal: bool,
    /// Durable result tier directory (`serve --cache-dir`): results are
    /// written through to `<dir>/store` and probed on cache misses, so a
    /// restarted server comes up warm. `None` keeps the cache
    /// memory-only.
    pub cache_dir: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8077".to_string(),
            sim_workers: default_jobs(),
            queue_capacity: 64,
            cache_budget: DEFAULT_CACHE_BUDGET,
            cycle_budget: None,
            limits: Limits::default(),
            max_connections: 64,
            client_rate: 0.0,
            client_burst: 8.0,
            drain_on_signal: false,
            cache_dir: None,
        }
    }
}

/// Where a finished job's result goes.
enum Sink {
    /// A `/v1/run` request: answer the slot directly.
    Run {
        token: SlotToken,
        app: String,
        lease: Option<u64>,
        /// Raw request body, kept when the response is memoizable
        /// (lease-less): the warm variant is stored for the fast path.
        body_key: Option<Vec<u8>>,
        started: Instant,
    },
    /// One step of a `/v1/sweep`: baseline (`es: None`) or a row.
    Sweep {
        task: Arc<Mutex<SweepTask>>,
        es: Option<u16>,
    },
}

/// One admitted job: the spec plus its result sink.
struct QueuedJob {
    spec: JobSpec,
    sink: Sink,
}

/// A `/v1/sweep` in flight: rows run one at a time (each completion
/// queues the next point), streamed or buffered.
struct SweepTask {
    token: SlotToken,
    base_req: RunRequest,
    es_points: Vec<u16>,
    /// Next index into `es_points` to submit.
    next: usize,
    stream: bool,
    base_report: Option<RunReport>,
    /// Buffered-mode accumulator (exactly the bytes streaming would send).
    buf: String,
    rows_emitted: usize,
}

/// Bound on the warm-response memo (entries, not bytes — responses are
/// small). Overflow clears the map; the ResultCache below still bounds
/// recompute cost.
const MEMO_MAX_ENTRIES: usize = 4096;

/// State shared by every thread of one server.
pub(crate) struct ServerState {
    pub(crate) cfg: ServerConfig,
    pub(crate) metrics: Metrics,
    cache: Arc<ResultCache>,
    runner: Runner,
    queue: BoundedQueue<QueuedJob>,
    /// Worker → event-loop channel (and its eventfd wake).
    pub(crate) completions: CompletionQueue,
    /// Set once shutdown begins: reject new jobs, report draining.
    pub(crate) draining: AtomicBool,
    /// Set to make the event loop close the listener and wind down.
    pub(crate) quiesce: AtomicBool,
    pub(crate) active_connections: AtomicUsize,
    pub(crate) pipeline_depth: AtomicUsize,
    inflight_jobs: AtomicUsize,
    /// Detached `/v1/fuzz` campaign threads still running.
    active_fuzz: AtomicUsize,
    /// Total 429 responses (mirrors metrics, readable without the map lock).
    rejected: AtomicU64,
    /// Exact warm-path memo: raw lease-less `/v1/run` body → stored
    /// `"cached":true` response bytes. Repeat requests never touch the
    /// job queue — this is what makes the closed-loop warm RPS target
    /// reachable on one core.
    memo: Mutex<HashMap<Vec<u8>, Vec<u8>>>,
    /// When the server started (uptime in `/healthz`).
    started: Instant,
}

/// A running simulation service. Dropping it without
/// [`Server::shutdown_and_wait`] aborts ungracefully; call it.
pub struct Server {
    state: Arc<ServerState>,
    local_addr: std::net::SocketAddr,
    loop_thread: Option<std::thread::JoinHandle<()>>,
    sim_threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind and start all threads. Fails only on bind/eventfd errors.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let cache = ResultCache::shared(cfg.cache_budget);
        let mut runner = Runner::with_cache(1, Arc::clone(&cache));
        if let Some(dir) = &cfg.cache_dir {
            // A broken cache dir must not stop the service from coming up;
            // it just serves cold (and says so once).
            match crate::persist::DiskTier::shared(std::path::Path::new(dir)) {
                Ok(tier) => runner.set_tier(tier),
                Err(e) => eprintln!(
                    "warning: cache-dir {dir} unavailable ({e}); serving without a durable tier"
                ),
            }
        }
        let state = Arc::new(ServerState {
            runner,
            queue: BoundedQueue::new(cfg.queue_capacity),
            metrics: Metrics::default(),
            cache,
            completions: CompletionQueue::new()?,
            draining: AtomicBool::new(false),
            quiesce: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            pipeline_depth: AtomicUsize::new(0),
            inflight_jobs: AtomicUsize::new(0),
            active_fuzz: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
            memo: Mutex::new(HashMap::new()),
            started: Instant::now(),
            cfg,
        });

        let mut sim_threads = Vec::new();
        for i in 0..state.cfg.sim_workers.max(1) {
            let state = Arc::clone(&state);
            sim_threads.push(
                std::thread::Builder::new()
                    .name(format!("sim-worker-{i}"))
                    .spawn(move || sim_worker(&state))
                    .expect("spawn sim worker"),
            );
        }
        let loop_state = Arc::clone(&state);
        let loop_thread = std::thread::Builder::new()
            .name("event-loop".to_string())
            .spawn(move || run_event_loop(listener, loop_state))
            .expect("spawn event loop");

        Ok(Server {
            state,
            local_addr,
            loop_thread: Some(loop_thread),
            sim_threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Whether a shutdown was requested (SIGINT path or `POST
    /// /v1/shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        self.state.draining.load(Ordering::SeqCst)
    }

    /// The event loop's wake eventfd (registered with the signal handler
    /// by the serve daemon).
    pub(crate) fn wake_fd(&self) -> std::os::fd::RawFd {
        self.state.completions.wake_fd()
    }

    /// Graceful shutdown: stop admissions, quiesce the event loop (every
    /// admitted job and in-flight stream completes, idle keep-alive
    /// sockets close), then close the queue and join all threads.
    pub fn shutdown_and_wait(mut self) {
        self.state.draining.store(true, Ordering::SeqCst);
        self.state.quiesce.store(true, Ordering::SeqCst);
        self.state.completions.wake_now();
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
        // Detached fuzz campaigns whose connections are already gone.
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.state.active_fuzz.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.state.queue.close();
        for t in self.sim_threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Sim workers: pull admitted jobs until the queue closes and drains,
/// route each result to its sink, and post completions to the loop.
fn sim_worker(state: &Arc<ServerState>) {
    while let Some(job) = state.queue.pop() {
        state.inflight_jobs.fetch_add(1, Ordering::SeqCst);
        let (outcome, cached) = state.runner.run_one(&job.spec);
        state.inflight_jobs.fetch_sub(1, Ordering::SeqCst);
        match job.sink {
            Sink::Run {
                token,
                app,
                lease,
                body_key,
                started,
            } => {
                let response = match outcome {
                    Ok(report) => {
                        state.metrics.jobs_ok.fetch_add(1, Ordering::Relaxed);
                        if !cached {
                            state.metrics.sim.add(&report.stats);
                        }
                        if let Some(key) = body_key {
                            let warm = wire::run_response_json(&app, &report, true, None).encode();
                            memo_store(state, key, warm.into_bytes());
                        }
                        Response::json(
                            200,
                            wire::run_response_json(&app, &report, cached, lease).encode(),
                        )
                    }
                    Err(RunError::Panicked(msg)) => {
                        state.metrics.jobs_panicked.fetch_add(1, Ordering::Relaxed);
                        Response::json(
                            500,
                            wire::error_json(&format!("simulation panicked: {msg}")),
                        )
                    }
                    Err(e) => {
                        state.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
                        Response::json(422, wire::error_json(&e.to_string()))
                    }
                };
                state.metrics.run_latency.observe(started.elapsed());
                state.metrics.record_request("/v1/run", response.status);
                state.completions.post(Completion::Respond(token, response));
            }
            Sink::Sweep { task, es } => sweep_step(state, &task, es, outcome, cached),
        }
    }
}

fn memo_probe(state: &ServerState, key: &[u8]) -> Option<Vec<u8>> {
    state.memo.lock().unwrap().get(key).cloned()
}

fn memo_store(state: &ServerState, key: Vec<u8>, mut value: Vec<u8>) {
    // The response was encoded into a buffer that grew by doubling, and the
    // memo keeps it for its lifetime. The key is a clone, so already exact.
    value.shrink_to_fit();
    let mut memo = state.memo.lock().unwrap();
    if memo.len() >= MEMO_MAX_ENTRIES {
        memo.clear();
    }
    memo.insert(key, value);
}

/// Stable route label for metrics (bounded cardinality).
fn route_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/v1/workloads" => "/v1/workloads",
        "/v1/run" => "/v1/run",
        "/v1/sweep" => "/v1/sweep",
        "/v1/fuzz" => "/v1/fuzz",
        "/v1/shutdown" => "/v1/shutdown",
        _ => "other",
    }
}

/// How the event loop should treat one parsed request.
pub(crate) enum RequestAction {
    /// Answer now (the slot becomes `Ready` immediately).
    Respond(Response),
    /// A completion (or stream) will arrive for this slot's token later.
    Pending,
}

/// Route one request. Called on the event-loop thread, so everything here
/// must be fast: job routes only validate + enqueue; cheap routes answer
/// from atomics. Metrics for immediate responses are recorded here;
/// pending responses are recorded where they complete.
pub(crate) fn dispatch_request(
    state: &Arc<ServerState>,
    request: &Request,
    token: SlotToken,
    peer: IpAddr,
    fair: &mut TokenBuckets,
) -> RequestAction {
    let route = route_label(&request.path);
    let started = Instant::now();
    let action = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => RequestAction::Respond(healthz(state)),
        ("GET", "/metrics") => RequestAction::Respond(metrics(state)),
        ("GET", "/v1/workloads") => {
            RequestAction::Respond(Response::json(200, wire::workloads_json().encode()))
        }
        ("POST", "/v1/run") => run_endpoint(request, token, peer, fair, state),
        ("POST", "/v1/sweep") => sweep_endpoint(request, token, peer, fair, state),
        ("POST", "/v1/fuzz") => fuzz_endpoint(request, token, peer, fair, state),
        ("POST", "/v1/shutdown") => {
            state.draining.store(true, Ordering::SeqCst);
            RequestAction::Respond(Response::json(200, r#"{"status":"draining"}"#))
        }
        ("GET" | "POST", _) => {
            RequestAction::Respond(Response::json(404, wire::error_json("no such route")))
        }
        _ => RequestAction::Respond(Response::json(405, wire::error_json("method not allowed"))),
    };
    if let RequestAction::Respond(resp) = &action {
        if route == "/v1/run" {
            state.metrics.run_latency.observe(started.elapsed());
        }
        state.metrics.record_request(route, resp.status);
    }
    action
}

/// Readiness probe: everything a coordinator needs to rank this worker,
/// from cheap atomic loads only (the plain-200 fast path stays fast —
/// no simulation state is touched and nothing blocks).
fn healthz(state: &ServerState) -> Response {
    let draining = state.draining.load(Ordering::SeqCst);
    let body = Json::Obj(vec![
        (
            "status".into(),
            Json::Str(if draining { "draining" } else { "ok" }.into()),
        ),
        ("draining".into(), Json::Bool(draining)),
        ("queue_depth".into(), Json::U64(state.queue.len() as u64)),
        (
            "queue_capacity".into(),
            Json::U64(state.queue.capacity() as u64),
        ),
        (
            "inflight_jobs".into(),
            Json::U64(state.inflight_jobs.load(Ordering::SeqCst) as u64),
        ),
        (
            "active_connections".into(),
            Json::U64(state.active_connections.load(Ordering::SeqCst) as u64),
        ),
        (
            "pipeline_depth".into(),
            Json::U64(state.pipeline_depth.load(Ordering::SeqCst) as u64),
        ),
        (
            "throttled_total".into(),
            Json::U64(state.metrics.throttled.load(Ordering::Relaxed)),
        ),
        (
            "streamed_rows_total".into(),
            Json::U64(state.metrics.streamed_rows.load(Ordering::Relaxed)),
        ),
        ("cache_bytes".into(), Json::U64(state.cache.bytes() as u64)),
        (
            "cache_entries".into(),
            Json::U64(state.cache.entries() as u64),
        ),
        (
            "uptime_seconds".into(),
            Json::U64(state.started.elapsed().as_secs()),
        ),
        (
            "workers".into(),
            Json::U64(state.cfg.sim_workers.max(1) as u64),
        ),
    ]);
    Response::json(200, body.encode())
}

fn metrics(state: &ServerState) -> Response {
    let gauges = ServiceGauges {
        queue_depth: state.queue.len() as u64,
        queue_capacity: state.queue.capacity() as u64,
        inflight_jobs: state.inflight_jobs.load(Ordering::SeqCst) as u64,
        active_connections: state.active_connections.load(Ordering::SeqCst) as u64,
        pipeline_depth: state.pipeline_depth.load(Ordering::SeqCst) as u64,
        cache_hits: state.cache.hits(),
        cache_misses: state.cache.misses(),
        cache_evictions: state.cache.evictions(),
        cache_bytes: state.cache.bytes() as u64,
        cache_entries: state.cache.entries() as u64,
        durable_degradations: regmutex_durable::degradation_count(),
    };
    Response::text(200, state.metrics.render(&gauges))
}

/// Decode a JSON body, or answer 400.
fn parse_body(request: &Request) -> Result<Json, Response> {
    let text = core::str::from_utf8(&request.body)
        .map_err(|_| Response::json(400, wire::error_json("body is not valid UTF-8")))?;
    if text.trim().is_empty() {
        return Err(Response::json(400, wire::error_json("empty body")));
    }
    json::parse(text)
        .map_err(|e| Response::json(400, wire::error_json(&format!("invalid JSON: {e}"))))
}

/// Build the [`JobSpec`] a [`RunRequest`] runs as, under a server's cycle
/// cap. Public so a coordinator can compute the *same* content fingerprint
/// the worker will key its cache with — consistent-hash routing by that
/// fingerprint shards the workers' LRU caches cleanly. Without a server cap
/// the spec is identical to the one the local harness builds for the same
/// job.
///
/// The second argument is ignored. It is kept only so the benchmark
/// package's existing `spec_for_request(&run, 0, None)` call still
/// compiles; pass `0`.
pub fn spec_for_request(req: &RunRequest, _: u32, server_budget: Option<u64>) -> JobSpec {
    let w = suite::by_name(&req.app).expect("validated by parse_run_request");
    let cfg = if req.half_rf {
        GpuConfig::gtx480_half_rf()
    } else {
        GpuConfig::gtx480()
    };
    let launch = LaunchConfig::new(req.ctas.unwrap_or(w.grid_ctas));
    let mut spec = JobSpec::new(
        format!("{}/{}", w.name, req.technique),
        &w.kernel,
        &cfg,
        launch,
        req.technique,
    )
    .with_options(CompileOptions {
        force_es: req.force_es,
        force_apply: req.force_es.is_some(),
    });
    let budget = match (req.cycle_budget, server_budget) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    if let Some(b) = budget {
        spec = spec.with_cycle_budget(b);
    }
    spec
}

/// Build the job spec for one run request under this server's config.
fn build_spec(req: &RunRequest, state: &ServerState) -> JobSpec {
    spec_for_request(req, 0, state.cfg.cycle_budget)
}

/// The 503 every job route answers while draining.
fn draining_response() -> Response {
    Response::json(503, wire::error_json("server is draining")).with_header("retry-after", "1")
}

/// Gate a job-bearing request through the per-client token bucket.
fn throttle(state: &ServerState, peer: IpAddr, fair: &mut TokenBuckets) -> Result<(), Response> {
    match fair.try_take(peer, Instant::now()) {
        Ok(()) => Ok(()),
        Err(retry_secs) => {
            state.metrics.throttled.fetch_add(1, Ordering::Relaxed);
            Err(
                Response::json(429, wire::error_json("client request rate limited"))
                    .with_header("retry-after", retry_secs.to_string()),
            )
        }
    }
}

/// Map a queue push result onto the backpressure responses.
fn admit(state: &ServerState, job: QueuedJob) -> Result<(), Response> {
    match state.queue.try_push(job) {
        Ok(()) => Ok(()),
        Err(PushError::Full(_)) => {
            state.rejected.fetch_add(1, Ordering::Relaxed);
            state.metrics.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            Err(
                Response::json(429, wire::error_json("job queue is full; retry shortly"))
                    .with_header("retry-after", "1"),
            )
        }
        Err(PushError::Closed(_)) => Err(Response::json(
            503,
            wire::error_json("server is shutting down"),
        )
        .with_header("retry-after", "1")),
    }
}

fn run_endpoint(
    request: &Request,
    token: SlotToken,
    peer: IpAddr,
    fair: &mut TokenBuckets,
    state: &ServerState,
) -> RequestAction {
    if state.draining.load(Ordering::SeqCst) {
        return RequestAction::Respond(draining_response());
    }
    if let Err(resp) = throttle(state, peer, fair) {
        return RequestAction::Respond(resp);
    }
    // Warm fast path: an identical body already has a stored response —
    // serve it without parsing, queueing, or a worker. Bodies are only
    // memoized when lease-less, and adding a lease changes the bytes, so
    // a byte-identical probe cannot alias a leased request.
    if let Some(bytes) = memo_probe(state, &request.body) {
        state.metrics.jobs_ok.fetch_add(1, Ordering::Relaxed);
        state.cache.note_hit();
        return RequestAction::Respond(Response::json(200, bytes));
    }
    let body = match parse_body(request) {
        Ok(v) => v,
        Err(resp) => return RequestAction::Respond(resp),
    };
    let run = match wire::parse_run_request(&body) {
        Ok(r) => r,
        Err(e) => return RequestAction::Respond(Response::json(400, wire::error_json(&e.0))),
    };
    let spec = build_spec(&run, state);
    let job = QueuedJob {
        spec,
        sink: Sink::Run {
            token,
            body_key: run.lease.is_none().then(|| request.body.clone()),
            app: run.app,
            lease: run.lease,
            started: Instant::now(),
        },
    };
    match admit(state, job) {
        Ok(()) => RequestAction::Pending,
        Err(resp) => RequestAction::Respond(resp),
    }
}

/// Default `|Es|` points for `/v1/sweep` (the Fig 10 sweep).
const SWEEP_ES: [u16; 6] = [2, 4, 6, 8, 10, 12];

fn sweep_endpoint(
    request: &Request,
    token: SlotToken,
    peer: IpAddr,
    fair: &mut TokenBuckets,
    state: &ServerState,
) -> RequestAction {
    if state.draining.load(Ordering::SeqCst) {
        return RequestAction::Respond(draining_response());
    }
    if let Err(resp) = throttle(state, peer, fair) {
        return RequestAction::Respond(resp);
    }
    let body = match parse_body(request) {
        Ok(v) => v,
        Err(resp) => return RequestAction::Respond(resp),
    };
    // Reuse the run-request parser for the shared fields; `es` is ours.
    let es_points: Vec<u16> = match body.get("es") {
        None | Some(Json::Null) => SWEEP_ES.to_vec(),
        Some(Json::Arr(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                match item.as_u64().and_then(|n| u16::try_from(n).ok()) {
                    Some(v) if v > 0 => out.push(v),
                    _ => {
                        return RequestAction::Respond(Response::json(
                            400,
                            wire::error_json("'es' entries must be positive integers"),
                        ))
                    }
                }
            }
            out
        }
        Some(_) => {
            return RequestAction::Respond(Response::json(
                400,
                wire::error_json("'es' must be an array"),
            ))
        }
    };
    if es_points.len() > 64 {
        return RequestAction::Respond(Response::json(
            400,
            wire::error_json("'es' is limited to 64 points"),
        ));
    }
    // Rows stream as chunks by default; `"stream": false` buffers the
    // identical bytes into one response.
    let stream = body.get("stream").and_then(Json::as_bool).unwrap_or(true);
    let mut base_body = match body {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| k != "es" && k != "technique" && k != "force_es" && k != "stream")
                .collect(),
        ),
        _ => {
            return RequestAction::Respond(Response::json(
                400,
                wire::error_json("body must be a JSON object"),
            ))
        }
    };
    // The sweep always runs baseline + forced-|Es| RegMutex.
    if let Json::Obj(pairs) = &mut base_body {
        pairs.push(("technique".into(), Json::Str("baseline".into())));
    }
    let base_req = match wire::parse_run_request(&base_body) {
        Ok(r) => r,
        Err(e) => return RequestAction::Respond(Response::json(400, wire::error_json(&e.0))),
    };

    // Baseline first: everything in the response is relative to it. Each
    // completion submits the next point, so one sweep holds at most one
    // queue slot at a time.
    let spec = build_spec(&base_req, state);
    let task = Arc::new(Mutex::new(SweepTask {
        token,
        base_req,
        es_points,
        next: 0,
        stream,
        base_report: None,
        buf: String::new(),
        rows_emitted: 0,
    }));
    let job = QueuedJob {
        spec,
        sink: Sink::Sweep { task, es: None },
    };
    match admit(state, job) {
        Ok(()) => RequestAction::Pending,
        Err(resp) => RequestAction::Respond(resp),
    }
}

/// `{"app":...,"baseline":{...},"rows":[` — the stream prefix. Rows and
/// the `]}` footer concatenate to exactly the buffered (and pre-rewrite)
/// encoding.
fn sweep_prefix(app: &str, base: &RunReport) -> String {
    let head = Json::Obj(vec![
        ("app".into(), Json::Str(app.to_string())),
        (
            "baseline".into(),
            Json::Obj(vec![
                ("cycles".into(), Json::U64(base.stats.cycles)),
                (
                    "checksum".into(),
                    Json::Str(format!("{:#018x}", base.stats.checksum)),
                ),
            ]),
        ),
    ]);
    let mut s = head.encode();
    s.pop(); // strip the closing '}' to splice in the rows array
    s.push_str(",\"rows\":[");
    s
}

/// Handle one finished sweep job (baseline or row) and queue the next.
fn sweep_step(
    state: &Arc<ServerState>,
    task: &Arc<Mutex<SweepTask>>,
    es: Option<u16>,
    outcome: CachedResult,
    cached: bool,
) {
    let mut t = task.lock().unwrap();
    match es {
        None => {
            // Baseline finished.
            let report = match outcome {
                Ok(r) => {
                    state.metrics.jobs_ok.fetch_add(1, Ordering::Relaxed);
                    if !cached {
                        state.metrics.sim.add(&r.stats);
                    }
                    r
                }
                Err(e) => {
                    state.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
                    state.metrics.record_request("/v1/sweep", 422);
                    state.completions.post(Completion::Respond(
                        t.token,
                        Response::json(422, wire::error_json(&format!("baseline failed: {e}"))),
                    ));
                    return;
                }
            };
            let prefix = sweep_prefix(&t.base_req.app, &report);
            t.base_report = Some(report);
            if t.stream {
                state
                    .completions
                    .post(Completion::StreamStart(t.token, 200, "application/json"));
                state
                    .completions
                    .post(Completion::StreamChunk(t.token, prefix.into_bytes()));
            } else {
                t.buf.push_str(&prefix);
            }
        }
        Some(es) => {
            let row = match outcome {
                Ok(report) => {
                    state.metrics.jobs_ok.fetch_add(1, Ordering::Relaxed);
                    if !cached {
                        state.metrics.sim.add(&report.stats);
                    }
                    let base = t.base_report.as_ref().expect("rows run after baseline");
                    let reduction = regmutex::cycle_reduction_percent(base, &report);
                    Json::Obj(vec![
                        ("es".into(), Json::U64(u64::from(es))),
                        ("cached".into(), Json::Bool(cached)),
                        ("cycles".into(), Json::U64(report.stats.cycles)),
                        ("reduction_percent".into(), Json::F64(reduction)),
                        (
                            "occupancy_percent".into(),
                            Json::U64(u64::from(report.occupancy_percent())),
                        ),
                        (
                            "acquire_success_rate".into(),
                            Json::F64(report.acquire_success_rate()),
                        ),
                        (
                            "checksum".into(),
                            Json::Str(format!("{:#018x}", report.stats.checksum)),
                        ),
                    ])
                }
                Err(e) => {
                    state.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
                    Json::Obj(vec![
                        ("es".into(), Json::U64(u64::from(es))),
                        ("error".into(), Json::Str(e.to_string())),
                    ])
                }
            };
            let mut chunk = String::new();
            if t.rows_emitted > 0 {
                chunk.push(',');
            }
            chunk.push_str(&row.encode());
            t.rows_emitted += 1;
            if t.stream {
                state.metrics.streamed_rows.fetch_add(1, Ordering::Relaxed);
                state
                    .completions
                    .post(Completion::StreamChunk(t.token, chunk.into_bytes()));
            } else {
                t.buf.push_str(&chunk);
            }
        }
    }

    // Submit the next point, or finish. `push_overflow` ignores the
    // capacity bound and the draining flag: this is the continuation of
    // already-admitted work, which a drain promises to complete.
    if t.next < t.es_points.len() {
        let es = t.es_points[t.next];
        t.next += 1;
        let mut req = t.base_req.clone();
        req.technique = Technique::RegMutex;
        req.force_es = Some(es);
        let spec = spec_for_request(&req, 0, state.cfg.cycle_budget);
        let job = QueuedJob {
            spec,
            sink: Sink::Sweep {
                task: Arc::clone(task),
                es: Some(es),
            },
        };
        if state.queue.push_overflow(job).is_ok() {
            return;
        }
        // Queue closed: fall through and finish with the rows we have.
    }
    state.metrics.record_request("/v1/sweep", 200);
    if t.stream {
        state
            .completions
            .post(Completion::StreamChunk(t.token, b"]}".to_vec()));
        state.completions.post(Completion::StreamEnd(t.token));
    } else {
        let body = format!("{}]}}", t.buf);
        state
            .completions
            .post(Completion::Respond(t.token, Response::json(200, body)));
    }
}

/// Upper bound on kernels per `/v1/fuzz` request (shard further instead).
const FUZZ_MAX_COUNT: u64 = 100_000;

/// Kernels per sub-batch in `"progress": true` streaming mode.
const FUZZ_PROGRESS_BATCH: u64 = 256;

/// Decode a u64 field that may arrive as a JSON number or a hex string
/// (`"0x..."`), since campaign seeds use the full u64 range.
fn parse_u64_field(v: &Json) -> Option<u64> {
    if let Some(n) = v.as_u64() {
        return Some(n);
    }
    let s = v.as_str()?;
    let s = s.strip_prefix("0x").unwrap_or(s);
    u64::from_str_radix(s, 16).ok()
}

/// `POST /v1/fuzz`: run one shard of a fuzzing campaign on this worker.
///
/// Body: `{"seed": <u64|hex string>, "start": <u64>, "count": <u64>,
/// "cycle_budget"?: <u64>, "minimize"?: <bool>, "max_divergences"?: <u64>,
/// "progress"?: <bool>}`. Workers regenerate every kernel locally from
/// `mix(seed, index)` over `start..start+count`, so the coordinator ships
/// a few integers instead of kernels, and disjoint shards of one seed
/// merged in index order are byte-identical to a local run of the whole
/// range.
///
/// The shard runs on a detached thread against the shared runner/cache
/// (fuzz jobs are batch work; the bounded sim queue stays free for
/// interactive `/v1/run` traffic). With `"progress": true` the response
/// is NDJSON over chunked encoding: one `{"event":"progress",...}` line
/// per sub-batch, then the final merged report as the last line.
fn fuzz_endpoint(
    request: &Request,
    token: SlotToken,
    peer: IpAddr,
    fair: &mut TokenBuckets,
    state: &Arc<ServerState>,
) -> RequestAction {
    if state.draining.load(Ordering::SeqCst) {
        return RequestAction::Respond(draining_response());
    }
    if let Err(resp) = throttle(state, peer, fair) {
        return RequestAction::Respond(resp);
    }
    let body = match parse_body(request) {
        Ok(v) => v,
        Err(resp) => return RequestAction::Respond(resp),
    };
    let seed = match body.get("seed").and_then(parse_u64_field) {
        Some(s) => s,
        None => {
            return RequestAction::Respond(Response::json(
                400,
                wire::error_json("'seed' (u64 or hex string) is required"),
            ))
        }
    };
    let count = match body.get("count").and_then(parse_u64_field) {
        Some(c) if (1..=FUZZ_MAX_COUNT).contains(&c) => c,
        Some(_) => {
            return RequestAction::Respond(Response::json(
                400,
                wire::error_json(&format!("'count' must be in 1..={FUZZ_MAX_COUNT}")),
            ))
        }
        None => {
            return RequestAction::Respond(Response::json(
                400,
                wire::error_json("'count' (u64) is required"),
            ))
        }
    };
    let start = match body.get("start") {
        None => 0,
        Some(v) => match parse_u64_field(v) {
            Some(s) => s,
            None => {
                return RequestAction::Respond(Response::json(
                    400,
                    wire::error_json("'start' must be a u64"),
                ))
            }
        },
    };
    let mut oracle = regmutex_fuzz::OracleConfig::default();
    if let Some(b) = body.get("cycle_budget").and_then(parse_u64_field) {
        oracle.cycle_budget = b;
    }
    let cfg = CampaignConfig {
        seed,
        start,
        iters: count,
        oracle,
        minimize: body.get("minimize").and_then(Json::as_bool).unwrap_or(true),
        max_divergences: body
            .get("max_divergences")
            .and_then(parse_u64_field)
            .unwrap_or(5),
        ..CampaignConfig::default()
    };
    let progress = body
        .get("progress")
        .and_then(Json::as_bool)
        .unwrap_or(false);

    state.active_fuzz.fetch_add(1, Ordering::SeqCst);
    let thread_state = Arc::clone(state);
    let spawned = std::thread::Builder::new()
        .name("fuzz-campaign".to_string())
        .spawn(move || {
            run_fuzz_job(&thread_state, token, &cfg, progress);
            thread_state.active_fuzz.fetch_sub(1, Ordering::SeqCst);
        });
    if spawned.is_err() {
        state.active_fuzz.fetch_sub(1, Ordering::SeqCst);
        return RequestAction::Respond(Response::json(
            500,
            wire::error_json("could not spawn campaign thread"),
        ));
    }
    RequestAction::Pending
}

fn merge_stats(into: &mut CampaignStats, from: &CampaignStats) {
    into.kernels += from.kernels;
    into.runs += from.runs;
    into.agreements += from.agreements;
    into.divergences += from.divergences;
    into.escalations += from.escalations;
    into.minimize_steps += from.minimize_steps;
    into.minimize_tests += from.minimize_tests;
    into.cache_hits += from.cache_hits;
    into.cache_misses += from.cache_misses;
    into.elapsed += from.elapsed;
}

/// Run one campaign shard on a detached thread and post its response.
fn run_fuzz_job(state: &Arc<ServerState>, token: SlotToken, cfg: &CampaignConfig, progress: bool) {
    if !progress {
        let report = regmutex_fuzz::run_campaign(cfg, &state.runner);
        state.metrics.record_request("/v1/fuzz", 200);
        state.completions.post(Completion::Respond(
            token,
            Response::json(200, report.to_json()),
        ));
        return;
    }

    // Streaming mode: run in sub-batches, emitting an NDJSON progress line
    // after each, then the merged report (identical in content to the
    // buffered response for the same shard) as the final line.
    state
        .completions
        .post(Completion::StreamStart(token, 200, "application/x-ndjson"));
    let mut merged = FuzzReport {
        seed: cfg.seed,
        start: cfg.start,
        processed: 0,
        stats: CampaignStats::default(),
        divergences: Vec::new(),
    };
    while merged.processed < cfg.iters {
        let mut sub = cfg.clone();
        sub.start = cfg.start + merged.processed;
        sub.iters = FUZZ_PROGRESS_BATCH.min(cfg.iters - merged.processed);
        sub.max_divergences = cfg.max_divergences - merged.stats.divergences;
        let asked = sub.iters;
        let r = regmutex_fuzz::run_campaign(&sub, &state.runner);
        merged.processed += r.processed;
        merge_stats(&mut merged.stats, &r.stats);
        merged.divergences.extend(r.divergences);
        let line = format!(
            "{{\"event\":\"progress\",\"processed\":{},\"total\":{},\"divergences\":{}}}\n",
            merged.processed, cfg.iters, merged.stats.divergences
        );
        state.metrics.streamed_rows.fetch_add(1, Ordering::Relaxed);
        state
            .completions
            .post(Completion::StreamChunk(token, line.into_bytes()));
        // A short batch means the campaign stopped itself (divergence cap).
        if r.processed < asked || merged.stats.divergences >= cfg.max_divergences {
            break;
        }
    }
    let mut last = merged.to_json();
    last.push('\n');
    state.metrics.record_request("/v1/fuzz", 200);
    state
        .completions
        .post(Completion::StreamChunk(token, last.into_bytes()));
    state.completions.post(Completion::StreamEnd(token));
}

/// Run a server until SIGINT/SIGTERM or `POST /v1/shutdown`, then drain
/// gracefully. This is the body of `regmutex-cli serve`.
pub fn serve_until_shutdown(mut cfg: ServerConfig) -> std::io::Result<()> {
    crate::signal::install();
    cfg.drain_on_signal = true;
    let server = Server::start(cfg)?;
    // Let the signal handler wake the epoll loop directly (write(2) on an
    // eventfd is async-signal-safe), so drains start immediately instead
    // of on the next tick.
    crate::signal::set_wake_fd(server.wake_fd());
    println!(
        "regmutex-server listening on http://{} ({} sim workers, queue {})",
        server.local_addr(),
        server.state.cfg.sim_workers.max(1),
        server.state.cfg.queue_capacity
    );
    while !crate::signal::triggered() && !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(25));
    }
    println!("regmutex-server: draining in-flight work ...");
    server.shutdown_and_wait();
    println!("regmutex-server: shutdown complete");
    Ok(())
}
