//! The job path every workload shares, plus the worker pool the traced
//! run replays it on.
//!
//! [`run_job`] performs the steps `Runner::run_one` performs —
//! fingerprint, cache probe, compile, simulate, insert — as separate
//! public calls, so each gets its own span.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use regmutex::{RunError, Session};
use regmutex_bench::{CachedResult, JobSpec, ResultCache};

use crate::trace::span;

/// Counts taken where the work happens.
#[derive(Debug, Default)]
pub struct Counters {
    pub compiles: AtomicU64,
    pub transformed: AtomicU64,
    /// `SimStats::step_calls` over every simulation the spans cover.
    pub step_calls: AtomicU64,
    pub jobs: AtomicU64,
}

/// One job through the runner's steps, each step a span.
pub fn run_job(spec: &JobSpec, cache: &ResultCache, ctr: &Counters, unit: u64) -> CachedResult {
    ctr.jobs.fetch_add(1, Ordering::Relaxed);
    let result = span("job", unit, || {
        let key = span("fingerprint", unit, || spec.fingerprint());
        if let Some(hit) = span("probe", unit, || cache.probe(key)) {
            cache.note_hit();
            return hit;
        }
        cache.note_miss();
        let mut cfg = spec.cfg.clone();
        if let Some(budget) = spec.cycle_budget {
            cfg.watchdog_cycles = cfg.watchdog_cycles.min(budget);
        }
        let session = Session::with_options(cfg, spec.options.clone());
        let result = match span("compile", unit, || session.compile(&spec.kernel)) {
            Err(e) => Err(RunError::InvalidKernel(e)),
            Ok(compiled) => {
                ctr.compiles.fetch_add(1, Ordering::Relaxed);
                if compiled.plan.is_some() {
                    ctr.transformed.fetch_add(1, Ordering::Relaxed);
                }
                span("simulate", unit, || {
                    session.run_compiled(&compiled, spec.launch, spec.technique)
                })
            }
        };
        if let Ok(report) = &result {
            ctr.step_calls
                .fetch_add(report.stats.step_calls, Ordering::Relaxed);
        }
        span("insert", unit, || cache.insert(key, result.clone()));
        result
    });
    // The liveness analysis `compile` runs first, timed on its own.
    span("liveness", unit, || {
        std::hint::black_box(regmutex_compiler::analyze(&spec.kernel));
    });
    result
}

/// Run `f(0..n)` on `workers` threads pulling indices from a shared
/// cursor (the runner's scheduling), inside one `phase` span. Results
/// come back in index order.
pub fn pool<T: Send>(workers: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    span("phase", 0, || {
        let cursor = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|s| {
            for _ in 0..workers.min(n).max(1) {
                s.spawn(|| {
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let out = f(i);
                        done.lock().expect("pool worker panicked").push((i, out));
                    }
                    crate::trace::flush();
                });
            }
        });
        let mut done = done.into_inner().expect("pool worker panicked");
        done.sort_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, t)| t).collect()
    })
}

/// Exact simulator counters summed over a fixed set of results.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimSum {
    pub cycles: u64,
    pub instructions: u64,
    pub step_calls: u64,
    pub skipped_cycles: u64,
}

impl SimSum {
    pub fn of<'a>(results: impl IntoIterator<Item = &'a CachedResult>) -> SimSum {
        let mut sum = SimSum::default();
        for r in results.into_iter().flatten() {
            sum.cycles += r.stats.cycles;
            sum.instructions += r.stats.instructions;
            sum.step_calls += r.stats.step_calls;
            sum.skipped_cycles += r.stats.skipped_cycles;
        }
        sum
    }
}
