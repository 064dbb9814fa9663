//! # regmutex-fuzz
//!
//! Mass kernel fuzzing with a differential cross-technique oracle and
//! decision-trace auto-minimization.
//!
//! The subsystem has four moving parts, each its own module:
//!
//! - [`trace`] — a recorded/replayable stream of bounded random draws.
//!   Every generator choice is one [`trace::Decisions::draw`]; the trace
//!   stores offsets from each draw's lower bound, so an all-zero (or
//!   empty) trace is the *minimal* kernel and shrinking trace values
//!   shrinks the kernel.
//! - [`gen`] — a seeded random kernel generator over
//!   [`regmutex_isa::KernelBuilder`], sweeping register counts, loop
//!   nesting, pressure-spike shapes, memory intensity, barriers, and
//!   branch divergence. Every `(seed, trace)` pair maps to a valid
//!   kernel by construction.
//! - [`oracle`] — runs one generated kernel through every
//!   [`regmutex::Technique`] and judges each against the baseline with
//!   [`regmutex::verdict`], re-running watchdog expiries at a larger
//!   budget first.
//! - [`minimize`] — delta debugging over the decision trace (never the
//!   instruction list), producing small replayable [`artifact`]s.
//!
//! [`campaign`] wires them into deterministic batched campaigns whose
//! rendered reports are byte-identical at any worker count, which is
//! what lets `regmutex-cli fuzz --fleet` shard a seed range across
//! coordinator workers and merge shard reports losslessly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifact;
pub mod campaign;
pub mod gen;
pub mod journal;
pub mod minimize;
pub mod oracle;
pub mod trace;

pub use artifact::{parse_fault, Artifact, Expectation};
pub use campaign::{
    replay_artifact, run_campaign, run_campaign_durable, CampaignConfig, CampaignStats,
    FoundDivergence, FuzzReport, FuzzRun,
};
pub use gen::{generate, replay, Generated};
pub use journal::{FuzzJournal, KernelRecord};
pub use minimize::{minimize, Minimized};
pub use oracle::{Divergence, DivergenceKind, OracleConfig, Outcome, PlantedFault};
pub use trace::{trace_from_text, trace_to_text, Decisions};
