//! The fleet coordinator: dispatches [`MatrixJob`]s to `regmutex-server`
//! workers with deadlines, bounded retries, backoff, and failover, and
//! assembles results in submission order.
//!
//! ## Dispatch policy
//!
//! Each unique job (deduplicated by content fingerprint, exactly like the
//! local [`Runner`](regmutex_bench::Runner)) is routed by its fingerprint
//! onto the consistent-hash [`Ring`]; attempt *k* goes to the *k*-th ring
//! successor, skipping quarantined workers. Between attempts the
//! dispatcher sleeps a seeded-jittered exponential backoff.
//!
//! Per attempt, the response is classified three ways:
//!
//! * **Verified result** — a 200 whose body passes integrity checks (app
//!   echo, lease echo, checksum cross-check, lossless report parse).
//!   Success; the worker's strike count resets.
//! * **Deterministic job failure** — the worker *answered* and the
//!   simulation itself failed (422, or 500 `simulation panicked`).
//!   Retrying elsewhere would fail identically, so this becomes the job's
//!   error row immediately and is not a strike against the worker.
//! * **Worker fault** — transport error, timeout past the job deadline,
//!   truncated/corrupt/unparsable reply, integrity mismatch, 503, or 429
//!   still saturated after its own `Retry-After` retries. The worker
//!   takes a strike (quarantine at the threshold) and the job fails over
//!   to the next ring successor.
//!
//! A job that exhausts [`FleetConfig::max_attempts`] becomes a labeled
//! [`RunError::Remote`] row — never a missing one.
//!
//! ## 429 handling
//!
//! A 429 is backpressure, not failure: the job queue is full but the
//! worker is alive, and it names its own wait. The dispatcher honors
//! `Retry-After` (capped) up to [`FleetConfig::max_retries_429`] times
//! against the *same* worker — moving away would abandon cache affinity —
//! and only after that treats saturation as a worker fault.
//!
//! ## Deadlines
//!
//! The per-attempt socket deadline is derived from the job's cycle
//! budget: `deadline_base + budget / cycles_per_ms`, capped at
//! [`FleetConfig::deadline_cap`]. A budget-less job gets the cap. A hung
//! socket therefore costs one deadline, not forever.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use regmutex::{RunError, RunReport};
use regmutex_bench::{CachedResult, DurableTier, JobExecutor, MatrixJob};
use regmutex_durable::{Campaign, Run};
use regmutex_server::json::{self, Json};
use regmutex_server::loadgen::{JobTrace, Target, Verdict};
use regmutex_server::wire::{report_from_json, run_request_json, RunRequest};
use regmutex_workloads::suite;

use crate::backoff::BackoffPolicy;
use crate::journal::FleetRecord;
use crate::metrics::FleetMetrics;
use crate::ring::Ring;
use crate::worker::WorkerHandle;

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker addresses (`host:port`), index-stable for the whole run.
    pub workers: Vec<String>,
    /// Fleet seed: reproduces the backoff jitter schedule exactly.
    pub seed: u64,
    /// Concurrent dispatch threads.
    pub dispatch_threads: usize,
    /// Attempts per job (first dispatch + failovers) before giving up.
    pub max_attempts: u32,
    /// `Retry-After` retries per attempt before a 429 counts as a fault.
    pub max_retries_429: u32,
    /// Cap on a single `Retry-After` wait.
    pub retry_after_cap: Duration,
    /// Fixed part of the per-attempt deadline.
    pub deadline_base: Duration,
    /// Budgeted cycles assumed per millisecond of wall clock when deriving
    /// a deadline from a job's cycle budget.
    pub cycles_per_ms: u64,
    /// Ceiling on the per-attempt deadline (and the deadline for jobs
    /// without a cycle budget).
    pub deadline_cap: Duration,
    /// Backoff between failover attempts.
    pub backoff: BackoffPolicy,
    /// Consecutive worker faults before quarantine.
    pub failure_threshold: u32,
    /// How often the prober re-checks quarantined workers.
    pub probe_interval: Duration,
    /// Socket timeout for health probes and metric scrapes.
    pub probe_timeout: Duration,
    /// Virtual nodes per worker on the routing ring.
    pub vnodes: usize,
    /// Reuse worker connections across dispatches (HTTP keep-alive).
    /// Off for chaos campaigns: the fault proxy frames responses by EOF.
    pub keep_alive: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: Vec::new(),
            seed: 0x5eed_2024,
            dispatch_threads: 4,
            max_attempts: 4,
            max_retries_429: 4,
            retry_after_cap: Duration::from_secs(2),
            deadline_base: Duration::from_secs(2),
            cycles_per_ms: 10_000,
            deadline_cap: Duration::from_secs(120),
            backoff: BackoffPolicy::default(),
            failure_threshold: 3,
            probe_interval: Duration::from_millis(250),
            probe_timeout: Duration::from_millis(500),
            vnodes: 32,
            keep_alive: true,
        }
    }
}

/// One attempt's classification (see module docs).
enum Attempt {
    Verified(Box<RunReport>, bool),
    JobError(RunError),
    Fault(String),
}

/// The fleet coordinator. Cheap to share by reference across threads;
/// [`JobExecutor::execute`] runs its own dispatch pool internally.
pub struct Coordinator {
    cfg: FleetConfig,
    workers: Vec<Arc<WorkerHandle>>,
    ring: Ring,
    metrics: Arc<FleetMetrics>,
    lease_counter: AtomicU64,
    tier: Option<Arc<dyn DurableTier>>,
    journal: Option<Campaign<FleetRecord>>,
    cancel: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
}

impl Coordinator {
    /// Build a coordinator over `cfg.workers`. Errors if the fleet is
    /// empty — there is nowhere to dispatch.
    pub fn new(cfg: FleetConfig) -> Result<Coordinator, String> {
        if cfg.workers.is_empty() {
            return Err("fleet has no workers; pass at least one host:port".to_string());
        }
        let workers: Vec<Arc<WorkerHandle>> = cfg
            .workers
            .iter()
            .map(|a| Arc::new(WorkerHandle::with_keep_alive(a.clone(), cfg.keep_alive)))
            .collect();
        let ring = Ring::new(workers.len(), cfg.vnodes.max(1));
        let metrics = Arc::new(FleetMetrics::new(workers.len()));
        Ok(Coordinator {
            cfg,
            workers,
            ring,
            metrics,
            lease_counter: AtomicU64::new(0),
            tier: None,
            journal: None,
            cancel: None,
        })
    }

    /// Attach a durable result tier. Before dispatching, each unique job
    /// is probed by fingerprint; a hit replays from disk without touching
    /// a worker. Every verified result is saved back, so a killed sweep
    /// resumes from its last completed job.
    pub fn set_tier(&mut self, tier: Arc<dyn DurableTier>) {
        self.tier = Some(tier);
    }

    /// Attach a campaign journal. Its worker-health transitions fold
    /// last-wins, and a worker whose last one was a quarantine starts
    /// benched: execution re-probes it before dispatching, so a worker
    /// that recovered while the campaign was down is re-admitted instead
    /// of staying benched on stale state. Verified completions and health
    /// transitions are appended as they happen.
    pub fn set_journal(&mut self, journal: Campaign<FleetRecord>) {
        let mut benched: HashMap<&str, bool> = HashMap::new();
        for rec in journal.keyless() {
            match rec {
                FleetRecord::Quarantine(addr) => benched.insert(addr, true),
                FleetRecord::Readmit(addr) => benched.insert(addr, false),
                FleetRecord::JobOk(_) => None,
            };
        }
        for w in &self.workers {
            if benched.get(w.addr.as_str()) == Some(&true) {
                w.quarantine();
            }
        }
        self.journal = Some(journal);
    }

    /// Install a cancellation hook, polled by dispatch threads between
    /// jobs. When it fires, [`Coordinator::execute_durable`] stops
    /// claiming work, flushes the journal, and returns a checkpoint.
    pub fn set_cancel(&mut self, cancel: Arc<dyn Fn() -> bool + Send + Sync>) {
        self.cancel = Some(cancel);
    }

    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c())
    }

    /// Synchronously probe every quarantined worker once, re-admitting
    /// (and journaling) those that answer. Returns how many came back.
    pub fn reprobe_quarantined(&self) -> usize {
        let mut readmitted = 0;
        for w in &self.workers {
            if w.is_quarantined() && w.probe(self.cfg.probe_timeout).is_ok() {
                w.readmit();
                if let Some(j) = &self.journal {
                    j.append(&FleetRecord::Readmit(w.addr.clone()));
                }
                readmitted += 1;
            }
        }
        readmitted
    }

    /// The coordinator's own counters.
    pub fn metrics(&self) -> &FleetMetrics {
        &self.metrics
    }

    /// The worker handles, index-aligned with the config's address list.
    pub fn workers(&self) -> &[Arc<WorkerHandle>] {
        &self.workers
    }

    /// Render the aggregated Prometheus exposition (coordinator counters
    /// + live per-worker gauges + folded worker cache counters).
    pub fn render_metrics(&self) -> String {
        self.metrics.render(&self.workers, self.cfg.probe_timeout)
    }

    /// The per-attempt socket deadline for a job with `cycle_budget` (see
    /// module docs).
    pub fn deadline_for(&self, cycle_budget: Option<u64>) -> Duration {
        match cycle_budget {
            None => self.cfg.deadline_cap,
            Some(b) => {
                let budget_ms = b / self.cfg.cycles_per_ms.max(1) + 1;
                (self.cfg.deadline_base + Duration::from_millis(budget_ms))
                    .min(self.cfg.deadline_cap)
            }
        }
    }

    /// Run one job through the full retry/failover policy, reporting how.
    /// An unknown workload, or a config the wire cannot carry, is an
    /// immediate labeled error (no dispatch).
    pub fn run_traced(&self, job: &MatrixJob) -> (CachedResult, JobTrace) {
        match wire_request(job) {
            Ok((req, fingerprint)) => self.run_fingerprinted(&req, fingerprint),
            Err(e) => (Err(RunError::Remote(e)), JobTrace::default()),
        }
    }

    fn pick_worker(&self, order: &[usize], attempt: u32) -> usize {
        let n = order.len();
        let base = attempt as usize;
        for k in 0..n {
            let w = order[(base + k) % n];
            if !self.workers[w].is_quarantined() {
                return w;
            }
        }
        // Everyone is quarantined: a last-resort attempt beats giving up.
        order[base % n]
    }

    fn run_fingerprinted(&self, req: &RunRequest, fingerprint: u64) -> (CachedResult, JobTrace) {
        // Durable warm start: a fingerprint already in the result store
        // was verified end-to-end by a previous run (or this one) — no
        // worker round-trip needed. A corrupt store entry reads as a
        // miss, so the job simply re-dispatches.
        if let Some(v) = self.tier.as_ref().and_then(|t| t.load(fingerprint)) {
            if let Some(j) = &self.journal {
                j.append(&FleetRecord::JobOk(fingerprint));
            }
            self.metrics.jobs_ok.fetch_add(1, Ordering::Relaxed);
            self.metrics.jobs_cached.fetch_add(1, Ordering::Relaxed);
            let trace = JobTrace {
                verdict: Verdict::Ok,
                cached: true,
                ..JobTrace::default()
            };
            return (v, trace);
        }
        let order = self.ring.route(fingerprint);
        let deadline = self.deadline_for(req.cycle_budget);
        let mut trace = JobTrace::default();
        let mut last_fault = String::new();
        for attempt in 0..self.cfg.max_attempts {
            if attempt > 0 {
                let wait = self.cfg.backoff.delay(self.cfg.seed, fingerprint, attempt);
                self.metrics.backoff_waits.fetch_add(1, Ordering::Relaxed);
                self.metrics.backoff_us.fetch_add(
                    wait.as_micros().min(u128::from(u64::MAX)) as u64,
                    Ordering::Relaxed,
                );
                std::thread::sleep(wait);
                self.metrics.redispatches.fetch_add(1, Ordering::Relaxed);
            }
            let widx = self.pick_worker(&order, attempt);
            let worker = &self.workers[widx];
            trace.attempts += 1;
            trace.served_by = Some(widx);
            self.metrics.attempts.fetch_add(1, Ordering::Relaxed);
            self.metrics.per_worker[widx]
                .attempts
                .fetch_add(1, Ordering::Relaxed);
            match self.attempt_once(worker, req, deadline, &mut trace) {
                Attempt::Verified(report, cached) => {
                    self.note_worker_ok(worker);
                    if let Some(t) = &self.tier {
                        t.save(fingerprint, &Ok((*report).clone()));
                        t.sync();
                    }
                    if let Some(j) = &self.journal {
                        j.append(&FleetRecord::JobOk(fingerprint));
                    }
                    trace.verdict = Verdict::Ok;
                    trace.cached = cached;
                    self.metrics.jobs_ok.fetch_add(1, Ordering::Relaxed);
                    self.metrics.per_worker[widx]
                        .ok
                        .fetch_add(1, Ordering::Relaxed);
                    if cached {
                        self.metrics.jobs_cached.fetch_add(1, Ordering::Relaxed);
                    }
                    return (Ok(*report), trace);
                }
                Attempt::JobError(e) => {
                    // The worker answered; the job itself is the failure.
                    self.note_worker_ok(worker);
                    self.metrics.job_errors.fetch_add(1, Ordering::Relaxed);
                    return (Err(e), trace);
                }
                Attempt::Fault(desc) => {
                    self.metrics.worker_faults.fetch_add(1, Ordering::Relaxed);
                    self.metrics.per_worker[widx]
                        .faults
                        .fetch_add(1, Ordering::Relaxed);
                    if worker.note_failure(self.cfg.failure_threshold) {
                        self.metrics.per_worker[widx]
                            .quarantines
                            .fetch_add(1, Ordering::Relaxed);
                        if let Some(j) = &self.journal {
                            j.append(&FleetRecord::Quarantine(worker.addr.clone()));
                        }
                    }
                    last_fault = format!("worker {}: {desc}", worker.addr);
                }
            }
        }
        self.metrics.gave_up.fetch_add(1, Ordering::Relaxed);
        trace.verdict = Verdict::GaveUp;
        trace.served_by = None;
        (
            Err(RunError::Remote(format!(
                "gave up after {} attempts; last fault: {last_fault}",
                self.cfg.max_attempts
            ))),
            trace,
        )
    }

    /// One leased dispatch to one worker, including its 429 retry loop.
    fn attempt_once(
        &self,
        worker: &WorkerHandle,
        req: &RunRequest,
        deadline: Duration,
        trace: &mut JobTrace,
    ) -> Attempt {
        let lease = self.lease_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let body = run_request_json(&RunRequest {
            lease: Some(lease),
            ..req.clone()
        })
        .encode();
        let mut tries_429 = 0u32;
        loop {
            let resp = match worker.request("POST", "/v1/run", Some(body.as_bytes()), deadline) {
                Ok(resp) => resp,
                Err(e) => return Attempt::Fault(format!("transport: {e}")),
            };
            match resp.status {
                200 => return self.verify_response(&resp.body, req, lease),
                429 if tries_429 < self.cfg.max_retries_429 => {
                    tries_429 += 1;
                    trace.retried_429 += 1;
                    self.metrics.retries_429.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(resp.retry_after_wait(self.cfg.retry_after_cap));
                }
                429 => {
                    return Attempt::Fault(format!(
                        "still saturated after {tries_429} Retry-After waits"
                    ))
                }
                500 => {
                    let msg = error_message(&resp.body);
                    // A simulation panic is deterministic: the same job
                    // panics on every worker. Anything else 500 is the
                    // worker malfunctioning.
                    return match msg.strip_prefix("simulation panicked: ") {
                        Some(rest) => Attempt::JobError(RunError::Panicked(rest.to_string())),
                        None => Attempt::Fault(format!("http 500: {msg}")),
                    };
                }
                422 => {
                    return Attempt::JobError(RunError::Remote(error_message(&resp.body)));
                }
                s => return Attempt::Fault(format!("http {s}: {}", error_message(&resp.body))),
            }
        }
    }

    /// Integrity-check and decode a 200 body. Any mismatch is a worker
    /// fault — the bytes cannot be trusted, so the job re-runs elsewhere.
    fn verify_response(&self, body: &[u8], req: &RunRequest, lease: u64) -> Attempt {
        let fault = |why: String| {
            self.metrics
                .integrity_failures
                .fetch_add(1, Ordering::Relaxed);
            Attempt::Fault(format!("integrity: {why}"))
        };
        let text = match core::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => return fault("response body is not UTF-8".into()),
        };
        let v = match json::parse(text) {
            Ok(v) => v,
            Err(e) => return fault(format!("unparsable response body: {e}")),
        };
        match v.get("app").and_then(Json::as_str) {
            Some(app) if app == req.app => {}
            other => return fault(format!("app echo mismatch: {other:?}")),
        }
        match v.get("lease").and_then(Json::as_u64) {
            Some(l) if l == lease => {}
            other => {
                return fault(format!(
                    "lease echo mismatch: sent {lease}, got {other:?} (stale reply?)"
                ))
            }
        }
        let report = match report_from_json(&v) {
            Ok(r) => r,
            Err(e) => return fault(format!("malformed report: {e}")),
        };
        let announced = v.get("checksum").and_then(Json::as_str).unwrap_or("");
        if announced != format!("{:#018x}", report.stats.checksum) {
            return fault(format!(
                "checksum cross-check failed: body announces {announced:?}, report carries {:#018x}",
                report.stats.checksum
            ));
        }
        if v.get("cycles").and_then(Json::as_u64) != Some(report.stats.cycles) {
            return fault("cycle count cross-check failed".into());
        }
        let cached = v.get("cached").and_then(Json::as_bool).unwrap_or(false);
        Attempt::Verified(Box::new(report), cached)
    }

    /// A dispatch got an answer: clear strikes, journaling the
    /// re-admission if the worker had been quarantined (last-resort hit).
    fn note_worker_ok(&self, worker: &WorkerHandle) {
        if worker.is_quarantined() {
            if let Some(j) = &self.journal {
                j.append(&FleetRecord::Readmit(worker.addr.clone()));
            }
        }
        worker.note_success();
    }

    /// Poll quarantined workers; a passing `/healthz` probe re-admits.
    fn probe_loop(&self, stop: &AtomicBool) {
        let tick = Duration::from_millis(25);
        let mut since_probe = Duration::ZERO;
        while !stop.load(Ordering::SeqCst) {
            std::thread::sleep(tick);
            since_probe += tick;
            if since_probe < self.cfg.probe_interval {
                continue;
            }
            since_probe = Duration::ZERO;
            for w in &self.workers {
                if w.is_quarantined() && w.probe(self.cfg.probe_timeout).is_ok() {
                    w.readmit();
                    if let Some(j) = &self.journal {
                        j.append(&FleetRecord::Readmit(w.addr.clone()));
                    }
                }
            }
        }
    }
}

/// The `/v1/run` request that runs `job`, and the fingerprint it is routed
/// and cached by — or why the job cannot be dispatched at all (an unknown
/// workload, or a GPU config the wire cannot name).
fn wire_request(job: &MatrixJob) -> Result<(RunRequest, u64), String> {
    let fingerprint = job.to_spec()?.fingerprint();
    Ok((RunRequest::for_job(job)?, fingerprint))
}

/// Pull the `error` string out of a JSON error body (or show raw bytes).
fn error_message(body: &[u8]) -> String {
    core::str::from_utf8(body)
        .ok()
        .and_then(|t| json::parse(t).ok())
        .and_then(|v| v.get("error").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_else(|| {
            format!(
                "{:?}",
                String::from_utf8_lossy(&body[..body.len().min(120)])
            )
        })
}

impl JobExecutor for Coordinator {
    fn execute(&self, jobs: &[MatrixJob]) -> Result<Vec<CachedResult>, String> {
        match self.execute_durable(jobs)? {
            Run::Complete(results) => Ok(results),
            Run::Checkpointed { completed, total } => Err(format!(
                "checkpointed: {completed} of {total} unique jobs complete"
            )),
        }
    }
}

impl Coordinator {
    /// Dispatch the batch across the fleet. Unique jobs (by fingerprint)
    /// run once each over a shared-cursor thread pool; duplicates reuse
    /// the first result; assembly is in submission order — exactly the
    /// local `Runner`'s contract, so renderers can't tell the substrates
    /// apart. A fired cancel hook ends the run as a checkpoint counting
    /// unique jobs. A job the wire cannot carry refuses the whole batch
    /// before any worker is contacted.
    pub fn execute_durable(&self, jobs: &[MatrixJob]) -> Result<Run<Vec<CachedResult>>, String> {
        let (requests, fingerprints): (Vec<RunRequest>, Vec<u64>) = jobs
            .iter()
            .map(wire_request)
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .unzip();
        // Resume replay may have restored quarantine state that went
        // stale while the campaign was down: give every benched worker
        // one synchronous probe before routing around it.
        self.reprobe_quarantined();
        let mut first: HashMap<u64, usize> = HashMap::new();
        let mut unique: Vec<usize> = Vec::new();
        for (i, fp) in fingerprints.iter().enumerate() {
            first.entry(*fp).or_insert_with(|| {
                unique.push(i);
                i
            });
        }
        let results: Vec<Mutex<Option<CachedResult>>> =
            (0..jobs.len()).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let stop_probing = AtomicBool::new(false);
        let interrupted = AtomicBool::new(false);
        let threads = self.cfg.dispatch_threads.clamp(1, unique.len().max(1));
        std::thread::scope(|s| {
            let prober = s.spawn(|| self.probe_loop(&stop_probing));
            let mut handles = Vec::with_capacity(threads);
            for _ in 0..threads {
                let cursor = &cursor;
                let unique = &unique;
                let results = &results;
                let fingerprints = &fingerprints;
                let requests = &requests;
                let interrupted = &interrupted;
                handles.push(s.spawn(move || loop {
                    if self.cancelled() {
                        interrupted.store(true, Ordering::SeqCst);
                        break;
                    }
                    let u = cursor.fetch_add(1, Ordering::SeqCst);
                    if u >= unique.len() {
                        break;
                    }
                    let i = unique[u];
                    let (res, _) = self.run_fingerprinted(&requests[i], fingerprints[i]);
                    *results[i].lock().expect("result slot lock") = Some(res);
                }));
            }
            for h in handles {
                h.join().expect("dispatch thread panicked");
            }
            stop_probing.store(true, Ordering::SeqCst);
            prober.join().expect("prober thread panicked");
        });
        if let Some(j) = &self.journal {
            j.sync();
        }
        if interrupted.load(Ordering::SeqCst) {
            let done = unique
                .iter()
                .filter(|&&i| results[i].lock().expect("result slot lock").is_some())
                .count();
            return Ok(Run::Checkpointed {
                completed: done as u64,
                total: unique.len() as u64,
            });
        }
        Ok(Run::Complete(
            fingerprints
                .iter()
                .map(|fp| {
                    results[first[fp]]
                        .lock()
                        .expect("result slot lock")
                        .clone()
                        .expect("every unique job was dispatched")
                })
                .collect(),
        ))
    }
}

/// The coordinator as a load-generator target (`loadgen --workers`):
/// every request goes through routing, retries, backoff and failover, and
/// its outcome names the worker that served it.
impl Target for Coordinator {
    type Client = ();

    fn workloads(&self) -> Result<Vec<String>, String> {
        Ok(suite::all().iter().map(|w| w.name.to_string()).collect())
    }

    fn workers(&self) -> Vec<String> {
        self.workers.iter().map(|w| w.addr.clone()).collect()
    }

    fn client(&self) {}

    fn send(&self, (): &mut (), batch: &[RunRequest]) -> Vec<JobTrace> {
        batch.iter().map(|r| self.run_traced(&r.job()).1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmutex::Technique;

    fn coordinator(workers: Vec<String>) -> Coordinator {
        Coordinator::new(FleetConfig {
            workers,
            ..FleetConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn empty_fleet_is_rejected() {
        assert!(Coordinator::new(FleetConfig::default()).is_err());
    }

    #[test]
    fn deadline_scales_with_cycle_budget_and_caps() {
        let c = coordinator(vec!["127.0.0.1:1".into()]);
        assert_eq!(c.deadline_for(None), c.cfg.deadline_cap);
        let d = c.deadline_for(Some(100_000));
        assert!(d > c.cfg.deadline_base && d < c.cfg.deadline_cap, "{d:?}");
        assert_eq!(c.deadline_for(Some(u64::MAX)), c.cfg.deadline_cap);
    }

    #[test]
    fn dead_fleet_yields_labeled_give_up_rows_not_missing_ones() {
        // Nothing listens on these ports; every attempt is a transport
        // fault and the job must come back as a labeled Remote error.
        let c = Coordinator::new(FleetConfig {
            workers: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
            max_attempts: 2,
            backoff: BackoffPolicy {
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
            },
            deadline_base: Duration::from_millis(50),
            deadline_cap: Duration::from_millis(200),
            ..FleetConfig::default()
        })
        .unwrap();
        let jobs = vec![
            MatrixJob::new("BFS", Technique::Baseline),
            MatrixJob::new("BFS", Technique::Baseline), // duplicate: one dispatch
        ];
        let results = c.execute(&jobs).unwrap();
        assert_eq!(results.len(), 2);
        for r in &results {
            match r {
                Err(RunError::Remote(msg)) => {
                    assert!(msg.contains("gave up after 2 attempts"), "{msg}")
                }
                other => panic!("expected a labeled give-up, got {other:?}"),
            }
        }
        assert_eq!(c.metrics().gave_up.load(Ordering::Relaxed), 1, "deduped");
        assert_eq!(c.metrics().attempts.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn unknown_workloads_and_unwired_configs_are_refused_before_dispatch() {
        let c = coordinator(vec!["127.0.0.1:1".into()]);
        let mut banked = MatrixJob::new("BFS", Technique::Baseline);
        banked.cfg.reg_banks = 16;
        for job in [MatrixJob::new("Nope", Technique::Baseline), banked] {
            let batch = [MatrixJob::new("SAD", Technique::Baseline), job.clone()];
            assert!(c.execute(&batch).is_err());
            let (res, trace) = c.run_traced(&job);
            assert!(matches!(res, Err(RunError::Remote(_))));
            assert_eq!(trace.attempts, 0);
        }
        assert_eq!(c.metrics().attempts.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn verify_response_rejects_corruption_and_mismatched_leases() {
        let c = coordinator(vec!["127.0.0.1:1".into()]);
        let req = RunRequest {
            app: "BFS".into(),
            ..RunRequest::default()
        };
        for (body, why) in [
            (&b"garbage"[..], "unparsable"),
            (br#"{"app":"SAD","lease":7}"#, "wrong app"),
            (br#"{"app":"BFS","lease":8}"#, "wrong lease"),
            (
                br#"{"app":"BFS","lease":7,"cached":false}"#,
                "missing report",
            ),
        ] {
            match c.verify_response(body, &req, 7) {
                Attempt::Fault(msg) => assert!(msg.starts_with("integrity:"), "{why}: {msg}"),
                _ => panic!("{why}: should be an integrity fault"),
            }
        }
        assert!(c.metrics().integrity_failures.load(Ordering::Relaxed) >= 4);
    }

    #[test]
    fn durable_tier_serves_jobs_without_touching_a_worker() {
        struct MemTier(Mutex<HashMap<u64, CachedResult>>);
        impl DurableTier for MemTier {
            fn load(&self, k: u64) -> Option<CachedResult> {
                self.0.lock().unwrap().get(&k).cloned()
            }
            fn save(&self, k: u64, v: &CachedResult) {
                self.0.lock().unwrap().insert(k, v.clone());
            }
        }
        let job = MatrixJob::new("BFS", Technique::Baseline);
        let spec = job.to_spec().unwrap();
        let fp = spec.fingerprint();
        let want = regmutex_bench::Runner::new(1).run_all(&[spec]).remove(0);
        let tier = Arc::new(MemTier(Mutex::new(HashMap::from([(fp, want.clone())]))));
        // Nothing listens on this address: a dispatch would fail loudly.
        let mut c = Coordinator::new(FleetConfig {
            workers: vec!["127.0.0.1:1".into()],
            ..FleetConfig::default()
        })
        .unwrap();
        c.set_tier(tier);
        let (res, trace) = c.run_traced(&job);
        assert!(trace.cached && trace.attempts == 0, "{trace:?}");
        assert_eq!(
            res.unwrap().stats.checksum,
            want.unwrap().stats.checksum,
            "tier result must be the verified one"
        );
        assert_eq!(c.metrics().jobs_cached.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn cancel_checkpoints_instead_of_dispatching() {
        let mut c = coordinator(vec!["127.0.0.1:1".into()]);
        c.set_cancel(Arc::new(|| true));
        let run = c
            .execute_durable(&[MatrixJob::new("BFS", Technique::Baseline)])
            .unwrap();
        assert!(
            matches!(
                run,
                Run::Checkpointed {
                    completed: 0,
                    total: 1
                }
            ),
            "{run:?}"
        );
        assert_eq!(c.metrics().attempts.load(Ordering::Relaxed), 0);
    }

    /// A campaign journal resumed after a run that journaled `recs`.
    fn journal(tag: &str, recs: &[FleetRecord]) -> Campaign<FleetRecord> {
        let d = std::env::temp_dir().join(format!("rmx-coord-{tag}-{}", std::process::id()));
        let j = Campaign::create(&d, "test").unwrap();
        recs.iter().for_each(|r| j.append(r));
        drop(j);
        Campaign::resume(&d, "test").unwrap()
    }

    #[test]
    fn journaled_quarantine_is_applied_and_dead_workers_stay_benched() {
        let mut c = coordinator(vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()]);
        let (w1, w2) = (c.workers[0].addr.clone(), c.workers[1].addr.clone());
        c.set_journal(journal(
            "benched",
            &[
                FleetRecord::Quarantine(w2),
                FleetRecord::Quarantine(w1.clone()),
                FleetRecord::Readmit(w1),
            ],
        ));
        assert!(!c.workers[0].is_quarantined());
        assert!(c.workers[1].is_quarantined());
        // The address is dead, so the re-probe fails and the quarantine
        // (correctly) survives.
        assert_eq!(c.reprobe_quarantined(), 0);
        assert!(c.workers[1].is_quarantined());
    }

    #[test]
    fn reprobe_readmits_a_recovered_worker() {
        // A journaled quarantine from a previous run must not bench a
        // worker that is answering /healthz now (satellite of the resume
        // contract: stale quarantine state is advisory, not permanent).
        let server = regmutex_server::Server::start(regmutex_server::ServerConfig {
            addr: "127.0.0.1:0".into(),
            sim_workers: 1,
            ..regmutex_server::ServerConfig::default()
        })
        .expect("boot worker");
        let addr = server.local_addr().to_string();
        let mut c = coordinator(vec![addr.clone()]);
        c.set_journal(journal("recovered", &[FleetRecord::Quarantine(addr)]));
        assert!(c.workers[0].is_quarantined());
        assert_eq!(c.reprobe_quarantined(), 1);
        assert!(!c.workers[0].is_quarantined());
        server.shutdown_and_wait();
    }

    #[test]
    fn pick_worker_skips_quarantined_until_none_remain() {
        let c = coordinator(vec!["a".into(), "b".into(), "c".into()]);
        let order = vec![0, 1, 2];
        assert_eq!(c.pick_worker(&order, 0), 0);
        c.workers[0].note_failure(1);
        assert!(c.workers[0].is_quarantined());
        assert_eq!(c.pick_worker(&order, 0), 1);
        c.workers[1].note_failure(1);
        c.workers[2].note_failure(1);
        // All quarantined: last resort is the ring-ordered pick.
        assert_eq!(c.pick_worker(&order, 0), 0);
        assert_eq!(c.pick_worker(&order, 1), 1);
    }
}
