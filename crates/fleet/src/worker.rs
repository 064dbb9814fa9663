//! Per-worker health: a consecutive-failure circuit breaker with
//! quarantine, and the `/healthz` readiness probe that re-admits workers.
//!
//! A worker fault (transport error, timeout, truncated or corrupt reply,
//! integrity mismatch) increments the worker's consecutive-failure count;
//! at [`threshold`](WorkerHandle::note_failure) the worker is
//! **quarantined** — the dispatcher routes around it. Two things re-admit
//! a quarantined worker: a successful `/healthz` probe (the prober thread
//! polls quarantined workers), or a successful dispatch (a last-resort
//! attempt that happened to land). A deterministic job failure (the
//! worker *answered*, the simulation itself failed) is not a strike — the
//! worker is healthy, the job is not.
//!
//! Every handle also owns a small keep-alive connection pool
//! ([`WorkerHandle::request`]): dispatch threads check a persistent
//! [`HttpClient`] out, run one exchange, and return it — so a steady job
//! stream reuses a few warm sockets instead of paying a TCP handshake per
//! attempt. A client whose exchange *failed* is dropped, never pooled:
//! its socket state can't be trusted. Chaos campaigns construct handles
//! with keep-alive off, because the fault proxy frames responses by EOF.

use std::sync::Mutex;
use std::time::Duration;

use regmutex_server::http::{ClientResponse, HttpClient, HttpError};
use regmutex_server::json::{self, Json};

/// What `GET /healthz` reports about a worker.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStatus {
    /// `status == "ok"` (false while draining).
    pub ok: bool,
    /// The worker is draining and will refuse new jobs.
    pub draining: bool,
    /// Jobs queued but not yet picked up.
    pub queue_depth: u64,
    /// Jobs currently simulating.
    pub inflight_jobs: u64,
    /// Result-cache residency in bytes.
    pub cache_bytes: u64,
    /// Seconds since the worker started.
    pub uptime_seconds: u64,
    /// Simulation worker threads.
    pub workers: u64,
}

fn u64_of(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or(0)
}

impl WorkerStatus {
    /// Parse the `/healthz` JSON body. Tolerates missing numeric fields
    /// (older workers) — only `status` is required.
    pub fn parse(body: &[u8]) -> Result<WorkerStatus, String> {
        let text = core::str::from_utf8(body).map_err(|e| e.to_string())?;
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let status = v
            .get("status")
            .and_then(Json::as_str)
            .ok_or_else(|| "healthz body has no 'status'".to_string())?;
        Ok(WorkerStatus {
            ok: status == "ok",
            draining: v
                .get("draining")
                .and_then(Json::as_bool)
                .unwrap_or(status != "ok"),
            queue_depth: u64_of(&v, "queue_depth"),
            inflight_jobs: u64_of(&v, "inflight_jobs"),
            cache_bytes: u64_of(&v, "cache_bytes"),
            uptime_seconds: u64_of(&v, "uptime_seconds"),
            workers: u64_of(&v, "workers"),
        })
    }
}

#[derive(Debug, Default)]
struct Health {
    consecutive_failures: u32,
    quarantined: bool,
}

/// Idle pooled connections kept per worker (dispatch threads beyond this
/// just open-and-return; the pool bounds sockets, not concurrency).
const POOL_CAP: usize = 8;

/// One worker the coordinator dispatches to.
#[derive(Debug)]
pub struct WorkerHandle {
    /// `host:port` of the worker's HTTP endpoint.
    pub addr: String,
    health: Mutex<Health>,
    keep_alive: bool,
    pool: Mutex<Vec<HttpClient>>,
}

impl WorkerHandle {
    /// A healthy handle for `addr` with connection reuse on.
    pub fn new(addr: impl Into<String>) -> WorkerHandle {
        WorkerHandle::with_keep_alive(addr, true)
    }

    /// A healthy handle with explicit connection-reuse policy. Pass
    /// `false` when something between coordinator and worker (e.g. the
    /// chaos fault proxy) frames responses by connection close.
    pub fn with_keep_alive(addr: impl Into<String>, keep_alive: bool) -> WorkerHandle {
        WorkerHandle {
            addr: addr.into(),
            health: Mutex::new(Health::default()),
            keep_alive,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// One HTTP exchange against this worker through the connection pool.
    ///
    /// Checks a pooled client out (or opens one), runs the request with
    /// `timeout` as both connect and socket deadline, and pools the
    /// client back only on success — a failed exchange retires its
    /// connection.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        timeout: Duration,
    ) -> Result<ClientResponse, HttpError> {
        let mut client = self
            .pool
            .lock()
            .expect("conn pool lock")
            .pop()
            .unwrap_or_else(|| HttpClient::new(self.addr.clone(), timeout, self.keep_alive));
        client.set_timeout(timeout);
        let result = client.request(method, path, body);
        if result.is_ok() && self.keep_alive {
            let mut pool = self.pool.lock().expect("conn pool lock");
            if pool.len() < POOL_CAP {
                pool.push(client);
            }
        }
        result
    }

    /// Whether the dispatcher should route around this worker.
    pub fn is_quarantined(&self) -> bool {
        self.health.lock().expect("health lock").quarantined
    }

    /// A dispatch succeeded: clear the strike count and re-admit.
    pub fn note_success(&self) {
        let mut h = self.health.lock().expect("health lock");
        h.consecutive_failures = 0;
        h.quarantined = false;
    }

    /// A worker fault occurred. Returns `true` if this strike crossed
    /// `threshold` and newly quarantined the worker.
    pub fn note_failure(&self, threshold: u32) -> bool {
        let mut h = self.health.lock().expect("health lock");
        h.consecutive_failures = h.consecutive_failures.saturating_add(1);
        if !h.quarantined && h.consecutive_failures >= threshold {
            h.quarantined = true;
            return true;
        }
        false
    }

    /// Quarantine directly — used when resuming a journaled campaign to
    /// restore circuit-breaker state (the resume path re-probes before
    /// dispatching, so this never permanently benches a healthy worker).
    pub fn quarantine(&self) {
        self.health.lock().expect("health lock").quarantined = true;
    }

    /// Re-admit after a successful health probe.
    pub fn readmit(&self) {
        let mut h = self.health.lock().expect("health lock");
        h.consecutive_failures = 0;
        h.quarantined = false;
    }

    /// `GET /healthz` — `Ok` only for a 200 with `status == "ok"`.
    pub fn probe(&self, timeout: Duration) -> Result<WorkerStatus, String> {
        let resp = self
            .request("GET", "/healthz", None, timeout)
            .map_err(|e| e.to_string())?;
        if resp.status != 200 {
            return Err(format!("healthz status {}", resp.status));
        }
        let status = WorkerStatus::parse(&resp.body)?;
        if !status.ok {
            return Err("worker is draining".to_string());
        }
        Ok(status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_trips_at_threshold_and_resets_on_success() {
        let w = WorkerHandle::new("127.0.0.1:1");
        assert!(!w.note_failure(3));
        assert!(!w.note_failure(3));
        assert!(!w.is_quarantined());
        assert!(w.note_failure(3), "third strike quarantines");
        assert!(w.is_quarantined());
        // Further failures don't re-report the transition.
        assert!(!w.note_failure(3));
        w.note_success();
        assert!(!w.is_quarantined());
        // The strike count restarted from zero.
        assert!(!w.note_failure(3));
        assert!(!w.note_failure(3));
        assert!(w.note_failure(3));
        w.readmit();
        assert!(!w.is_quarantined());
    }

    #[test]
    fn status_parses_the_enriched_healthz_body() {
        let body = br#"{"status":"ok","draining":false,"queue_depth":2,"queue_capacity":64,"inflight_jobs":1,"active_connections":3,"cache_bytes":1024,"cache_entries":4,"uptime_seconds":9,"workers":4}"#;
        let s = WorkerStatus::parse(body).unwrap();
        assert!(s.ok && !s.draining);
        assert_eq!(s.queue_depth, 2);
        assert_eq!(s.inflight_jobs, 1);
        assert_eq!(s.cache_bytes, 1024);
        assert_eq!(s.uptime_seconds, 9);
        assert_eq!(s.workers, 4);
    }

    #[test]
    fn status_tolerates_the_plain_fast_path_body() {
        let s = WorkerStatus::parse(br#"{"status":"draining"}"#).unwrap();
        assert!(!s.ok);
        assert!(s.draining);
        assert!(WorkerStatus::parse(b"not json").is_err());
        assert!(WorkerStatus::parse(br#"{"queue_depth":1}"#).is_err());
    }
}
