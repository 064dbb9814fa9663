//! # regmutex-bench
//!
//! The experiment harness: every table and figure of the paper as a
//! [`JobSource`] in one table ([`figures::all`]), shared report-formatting
//! helpers, and the parallel experiment engine ([`runner`]) the figures
//! submit their `(kernel × config × technique)` jobs to. Each figure
//! renders the same rows/series the paper's artifact reports, regenerated
//! on the Rust simulator substrate; the worker count never changes a byte
//! of output. `regmutex-cli figures` runs them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod chaos;
pub mod figures;
pub mod report;
pub mod runner;
pub mod source;

pub use cache::{CachedResult, DurableTier, ResultCache, DEFAULT_CACHE_BUDGET};
pub use chaos::{CampaignReport, CampaignSpec, InjectionRecord, Outcome};
pub use figures::ES_VALUES;
pub use report::{fmt_pct, Mean, Table};
pub use runner::{error_table, JobSpec, Runner};
pub use source::{job_spec, JobExecutor, JobSource, MatrixJob};
