//! # regmutex-server
//!
//! A dependency-free simulation service for the RegMutex reproduction:
//! a hand-rolled HTTP/1.1 daemon (`regmutex-cli serve`) that exposes the
//! simulator over a small JSON API, plus a closed-loop load generator
//! (`regmutex-cli loadgen`) for measuring it, directly or through a fleet
//! coordinator.
//!
//! Everything is `std`-only to preserve the fully offline build: sockets
//! are `std::net` driven by a raw-epoll event loop ([`poll`] +
//! `event_loop`), JSON is [`json`], HTTP framing is [`http`]
//! (keep-alive, bounded pipelining, chunked streaming), connection
//! deadlines come from a [`timer`] wheel, the job queue is a
//! `Mutex`/`Condvar` [`queue::BoundedQueue`], and metrics are atomics
//! rendered as Prometheus text ([`metrics`]).
//!
//! ## Routes
//!
//! | Route               | Meaning                                        |
//! |---------------------|------------------------------------------------|
//! | `GET /healthz`      | liveness + drain state                         |
//! | `GET /metrics`      | Prometheus text exposition                     |
//! | `GET /v1/workloads` | the Table I workload registry                  |
//! | `POST /v1/run`      | simulate one (workload, technique) job         |
//! | `POST /v1/sweep`    | baseline + forced-`|Es|` RegMutex sweep        |
//! | `POST /v1/shutdown` | begin graceful drain                           |
//!
//! ## Guarantees
//!
//! * **Backpressure, not collapse.** The job queue is bounded; beyond it
//!   clients get `429` + `Retry-After` immediately. Every request gets a
//!   response — nothing is silently dropped.
//! * **Shared, bounded caching.** All workers share one content-addressed
//!   result cache (LRU, byte budget), so repeated requests are served in
//!   microseconds without re-simulating.
//! * **Hostile input is survivable.** Oversized heads/bodies, malformed
//!   requests, and slow-loris reads yield structured `400`/`408`/`413`
//!   responses under read timeouts; simulator panics are isolated per job
//!   and answered with `500`.
//! * **Graceful shutdown.** SIGINT/SIGTERM (or `POST /v1/shutdown`) stops
//!   admissions, drains in-flight connections and every admitted job,
//!   then joins all threads.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod event_loop;
pub mod http;
pub mod json;
pub mod loadgen;
pub mod metrics;
pub mod persist;
pub mod poll;
pub mod queue;
pub mod server;
pub mod signal;
pub mod timer;
pub mod wire;

pub use loadgen::{run_loadgen, Direct, LoadgenConfig, LoadgenReport};
pub use persist::DiskTier;
pub use server::{serve_until_shutdown, spec_for_request, Server, ServerConfig};
