//! # regmutex-fleet
//!
//! The fault-tolerant sweep fabric: a coordinator that schedules
//! [`MatrixJob`](regmutex_bench::MatrixJob)s across N `regmutex-server`
//! workers over the existing HTTP/1.1 + JSON wire protocol, surviving
//! worker crashes, hangs, truncated replies, and corrupted bytes without
//! losing a job or printing a silently-wrong row.
//!
//! ## Architecture
//!
//! * **Routing** ([`ring`]): jobs are placed on a consistent-hash ring by
//!   their FNV-1a content fingerprint — the same fingerprint the worker
//!   keys its result cache with — so each worker's LRU cache shards
//!   cleanly and re-runs of a sweep hit warm caches at any fleet size.
//! * **Retry policy** ([`backoff`]): bounded attempts with seeded,
//!   jittered exponential backoff. The jitter is a pure function of
//!   `(seed, fingerprint, attempt)`, so a fixed seed reproduces the exact
//!   same delay schedule.
//! * **Worker health** ([`worker`]): per-worker consecutive-failure
//!   circuit breaker with quarantine, plus `/healthz` probing that
//!   re-admits workers that come back.
//! * **Dispatch** ([`coordinator`]): per-job deadlines derived from the
//!   job's cycle budget, `Retry-After`-honoring 429 handling, lease ids
//!   that tell a late reply from the attempt actually being waited on,
//!   and response integrity checks (app echo, lease echo, checksum
//!   cross-check) that turn corrupted bytes into a re-dispatch instead of
//!   a wrong row.
//! * **Determinism contract**: results are assembled in submission order
//!   and every row is derived from the returned reports alone, so a fleet
//!   sweep is byte-identical to the local [`Runner`](regmutex_bench::Runner)
//!   sweep at any worker count and under any injected failure that does
//!   not exhaust retries. Exhausted retries become a labeled
//!   `RunError::Remote` row — never a missing one.
//! * **Fault injection** ([`fault`], [`chaos`]): a deterministic
//!   test-only TCP proxy that can kill, hang, truncate, corrupt, or delay
//!   a worker's traffic, and a campaign driver (`regmutex-cli
//!   chaos-fleet`) that proves zero lost jobs and zero silently-wrong
//!   rows across fault classes × workloads × seeds.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod backoff;
pub mod chaos;
pub mod coordinator;
pub mod fault;
pub mod fuzz_fanout;
pub mod journal;
pub mod metrics;
pub mod ring;
pub mod worker;

pub use backoff::BackoffPolicy;
pub use chaos::{run_fleet_campaign, FleetCampaignReport, FleetCampaignSpec, ScenarioResult};
pub use coordinator::{Coordinator, FleetConfig};
pub use fault::{FaultKind, FaultPlan, FaultProxy};
pub use fuzz_fanout::{render_shards, run_fuzz_fanout, Shard};
pub use journal::FleetRecord;
pub use metrics::FleetMetrics;
pub use ring::Ring;
pub use worker::{WorkerHandle, WorkerStatus};
