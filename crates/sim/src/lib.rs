//! # regmutex-sim
//!
//! A cycle-level GPU streaming-multiprocessor simulator — the substrate the
//! RegMutex (ISCA 2018) reproduction evaluates on, standing in for
//! GPGPU-Sim v3.2.2 with its GTX480 (Fermi) configuration.
//!
//! The simulator is execution-driven and deterministic. It models the
//! mechanisms RegMutex's results depend on:
//!
//! * **Occupancy**: CTA admission limited by warp slots, register file
//!   (rounded, CTA-granular), shared memory, and CTA slots ([`occupancy`]).
//! * **Issue-stage semantics**: per-scheduler greedy-then-oldest warp
//!   selection, in-order issue with a scoreboard, barrier arrival, and —
//!   crucially — the `acq.es`/`rel.es` primitives handled at the issue stage
//!   exactly where the paper's Fig 4 places them.
//! * **Latency hiding**: a global-memory pipe with bounded outstanding
//!   requests, so more resident warps mean better tolerance of memory
//!   latency (the mechanism behind the paper's speedups).
//! * **Functional execution**: a warp-granular value layer with store
//!   checksums, the oracle for compiler-transform correctness, plus a
//!   register-ownership [`manager::Ledger`] that validates every
//!   access against the active allocation technique.
//!
//! Register-allocation techniques plug in through the
//! [`manager::RegisterManager`] trait; this crate ships the
//! conventional static/exclusive baseline, while RegMutex itself, the
//! paired-warps specialization, RFV, and OWF live in the `regmutex` crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod barrier;
mod config;
pub mod fault;
mod gpu;
pub mod manager;
mod memory;
pub mod occupancy;
mod scheduler;
mod simt;
mod sm;
mod stats;
pub mod trace;
pub mod value;
mod warp;

pub use barrier::BarrierUnit;
pub use config::{GpuConfig, LaunchConfig, SchedulerPolicy};
pub use fault::{
    Fault, FaultClass, FaultInjector, FaultKind, FaultLog, FaultPlan, HwFault, InjectOutcome,
    Severity, ALL_FAULT_CLASSES,
};
pub use gpu::{run_kernel, run_kernel_faulted, run_kernel_traced, SimError};
pub use manager::{AcquireResult, Ledger, LedgerViolation, RegisterManager, StaticManager};
pub use memory::MemoryPipe;
pub use occupancy::{theoretical, theoretical_with_base_set, KernelResources, Limiter, Occupancy};
pub use scheduler::SchedulerState;
pub use simt::{full_mask, ReconvEntry, SimtStack};
pub use sm::{IssueFault, KernelImage, Shortfall, Sm};
pub use stats::SimStats;
pub use trace::{render_timeline, TraceEvent, TraceKind};
pub use warp::{StallReason, WarpState};
