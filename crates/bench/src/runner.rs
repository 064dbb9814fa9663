//! Shared parallel experiment engine for the harness binaries.
//!
//! Every figure/table/ablation binary used to re-run its own
//! `(kernel × config × technique)` matrix on the strictly single-threaded
//! simulator, one simulation after another. Independent simulations are
//! embarrassingly parallel, so this module gives all of them one engine:
//!
//! * **Submission API** — describe each simulation as a [`JobSpec`]
//!   (kernel, [`GpuConfig`], compile options, [`Technique`], launch) and
//!   submit the whole batch with [`Runner::run_all`].
//! * **Thread pool** — jobs execute across `std::thread` workers (default
//!   [`std::thread::available_parallelism`], overridable with `--jobs N` on
//!   every harness binary via [`Runner::from_env`]).
//! * **Determinism** — each simulation is single-threaded and seeded
//!   exactly as before; the pool only changes *which OS thread* a job runs
//!   on, never its inputs. Results come back in submission order, so a
//!   `--jobs 16` sweep prints byte-identical output to `--jobs 1`.
//! * **Content-addressed cache** — jobs are keyed by a fingerprint of the
//!   kernel text, config, options, technique, and launch. Repeated jobs
//!   (e.g. the baseline run that nearly every figure re-simulates) are
//!   simulated once and served from the cache afterwards, within and
//!   across batches of one process.
//! * **Fault isolation** — a job that panics inside the simulator is
//!   caught at the worker boundary and reported as
//!   [`RunError::Panicked`]; a job that blows its [`JobSpec::cycle_budget`]
//!   is cut off by the simulator's watchdog. Either way the rest of the
//!   batch completes and the survivors' results are byte-identical to a
//!   run without the sick job (see [`error_table`]).

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use regmutex::{RunError, RunReport, Session, Technique};
use regmutex_compiler::CompileOptions;
use regmutex_durable::Fnv1a;
use regmutex_isa::Kernel;
use regmutex_sim::{GpuConfig, LaunchConfig};

use crate::cache::{CachedResult, DurableTier, ResultCache, DEFAULT_CACHE_BUDGET};

/// One simulation to run: everything [`Session::run`] needs, plus a label
/// used in error messages.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable job name for diagnostics, e.g. `"BFS/regmutex"`.
    pub label: String,
    /// The kernel to simulate (pre-transformation; each job compiles for
    /// its own technique, which is deterministic and cheap next to the
    /// simulation itself).
    pub kernel: Kernel,
    /// GPU configuration.
    pub cfg: GpuConfig,
    /// Compile options (forced `|Es|` etc.).
    pub options: CompileOptions,
    /// Technique to run.
    pub technique: Technique,
    /// Grid size.
    pub launch: LaunchConfig,
    /// Optional per-job cycle ceiling: the effective watchdog becomes
    /// `min(cfg.watchdog_cycles, budget)`, so one runaway simulation cannot
    /// stall a whole sweep. `None` keeps the config's watchdog.
    pub cycle_budget: Option<u64>,
}

impl JobSpec {
    /// A job with default compile options.
    pub fn new(
        label: impl Into<String>,
        kernel: &Kernel,
        cfg: &GpuConfig,
        launch: LaunchConfig,
        technique: Technique,
    ) -> Self {
        JobSpec {
            label: label.into(),
            kernel: kernel.clone(),
            cfg: cfg.clone(),
            options: CompileOptions::default(),
            technique,
            launch,
            cycle_budget: None,
        }
    }

    /// Override the compile options.
    #[must_use]
    pub fn with_options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// Cap this job at `cycles` simulated cycles (see
    /// [`JobSpec::cycle_budget`]).
    #[must_use]
    pub fn with_cycle_budget(mut self, cycles: u64) -> Self {
        self.cycle_budget = Some(cycles);
        self
    }

    /// The configuration the job actually runs under: the spec's config
    /// with the cycle budget folded into the watchdog.
    fn effective_cfg(&self) -> GpuConfig {
        let mut cfg = self.cfg.clone();
        if let Some(budget) = self.cycle_budget {
            cfg.watchdog_cycles = cfg.watchdog_cycles.min(budget);
        }
        cfg
    }

    /// Content fingerprint: identical fingerprints mean identical
    /// simulations (same kernel text, config, options, technique, grid),
    /// so their results are interchangeable.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        // The kernel's disassembly covers every instruction; name/seed and
        // the resource declaration are folded in separately because they
        // affect execution but may not appear in the listing.
        h.write_field(self.kernel.name.as_bytes());
        h.write_field(&self.kernel.seed.to_le_bytes());
        h.write_field(&self.kernel.regs_per_thread.to_le_bytes());
        h.write_field(&self.kernel.shmem_per_cta.to_le_bytes());
        h.write_field(&self.kernel.threads_per_cta.to_le_bytes());
        h.write_field(self.kernel.to_string().as_bytes());
        // The budget is hashed via the effective config, so a job with a
        // budget below the watchdog is distinct from the uncapped job while
        // a no-op budget (≥ watchdog) shares its cache entry.
        h.write_field(format!("{:?}", self.effective_cfg()).as_bytes());
        h.write_field(format!("{:?}", self.options).as_bytes());
        h.write_field(format!("{}", self.technique).as_bytes());
        h.write_field(&self.launch.grid_ctas.to_le_bytes());
        h.finish()
    }
}

/// Parallel experiment engine: a fixed worker count and a cache of
/// completed simulations, shared by every batch submitted to it.
///
/// The cache is a [`ResultCache`] behind an [`Arc`]: by default each
/// `Runner` makes its own (the PR 1 behaviour, now bounded by
/// [`DEFAULT_CACHE_BUDGET`]), but [`Runner::with_cache`] lets many runners
/// — or a long-lived server — share one store, so results computed for one
/// batch are reused by every later batch in the process.
pub struct Runner {
    jobs: usize,
    cache: Arc<ResultCache>,
    /// Optional durable spill tier consulted on cache misses and written
    /// through on fresh simulations (see [`DurableTier`]).
    tier: Option<Arc<dyn DurableTier>>,
}

impl Runner {
    /// An engine with `jobs` worker threads (clamped to at least 1) and a
    /// private, default-budget result cache.
    pub fn new(jobs: usize) -> Self {
        Self::with_cache(jobs, ResultCache::shared(DEFAULT_CACHE_BUDGET))
    }

    /// An engine that shares `cache` with other runners in the process.
    pub fn with_cache(jobs: usize, cache: Arc<ResultCache>) -> Self {
        Runner {
            jobs: jobs.max(1),
            cache,
            tier: None,
        }
    }

    /// Attach a durable result tier: cache misses probe it before
    /// simulating, and fresh results are written through to it. Results
    /// are keyed by [`JobSpec::fingerprint`], so a tier loaded from disk
    /// is exactly as trustworthy as the cache it backs.
    pub fn set_tier(&mut self, tier: Arc<dyn DurableTier>) {
        self.tier = Some(tier);
    }

    /// The attached durable tier, if any.
    pub fn tier(&self) -> Option<&Arc<dyn DurableTier>> {
        self.tier.as_ref()
    }

    /// An engine sized from the environment, in precedence order:
    /// `--jobs N` (or `--jobs=N`) in `std::env::args`, then a
    /// `REGMUTEX_JOBS` environment variable, then
    /// [`std::thread::available_parallelism`]. Unknown flags are left for
    /// the binary's own parsing; unparsable values fall through to the
    /// next source.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let env = std::env::var("REGMUTEX_JOBS").ok();
        Self::new(jobs_from_env(&args, env.as_deref()))
    }

    /// Worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The engine's result cache (shared or private).
    pub fn cache(&self) -> &Arc<ResultCache> {
        &self.cache
    }

    /// Jobs served from the cache so far (cache-wide when shared).
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Jobs actually simulated so far (cache-wide when shared).
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Run a batch. Results are returned in **submission order** regardless
    /// of the worker count or completion order, so harness output is
    /// byte-identical for any `--jobs` value.
    ///
    /// Identical jobs — same fingerprint, whether duplicated inside this
    /// batch or already completed in an earlier batch — are simulated once.
    /// With a durable tier attached, the batch's fresh results are on
    /// stable storage when this returns (one [`DurableTier::sync`] per
    /// batch).
    pub fn run_all(&self, specs: &[JobSpec]) -> Vec<CachedResult> {
        let keys: Vec<u64> = specs.iter().map(JobSpec::fingerprint).collect();

        // Resolve what we can from the shared cache, pinning every resolved
        // value in a batch-local map so a concurrent writer (or our own
        // inserts) evicting an entry mid-batch cannot lose it. `todo` holds
        // the first occurrence of each unresolved fingerprint.
        let mut local: HashMap<u64, CachedResult> = HashMap::new();
        let mut todo: Vec<usize> = Vec::new();
        let mut scheduled: HashSet<u64> = HashSet::new();
        for (i, k) in keys.iter().enumerate() {
            if local.contains_key(k) {
                self.cache.note_hit();
            } else if let Some(v) = self.cache.probe(*k) {
                local.insert(*k, v);
                self.cache.note_hit();
            } else if let Some(v) = self.tier.as_ref().and_then(|t| t.load(*k)) {
                // Durable-tier warm start: promote into the cache so the
                // rest of the process sees it at memory speed.
                self.cache.insert(*k, v.clone());
                local.insert(*k, v);
                self.cache.note_hit();
            } else if scheduled.insert(*k) {
                todo.push(i);
                self.cache.note_miss();
            } else {
                self.cache.note_hit();
            }
        }

        // Execute the unique jobs across the pool. Workers pull the next
        // index from a shared cursor; each simulation is single-threaded
        // and deterministic, so scheduling cannot affect any result.
        let fresh: Mutex<Vec<(u64, CachedResult)>> = Mutex::new(Vec::with_capacity(todo.len()));
        let cursor = AtomicUsize::new(0);
        let workers = self.jobs.min(todo.len().max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let n = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = todo.get(n) else { break };
                    let spec = &specs[i];
                    let result = run_isolated(spec);
                    fresh.lock().unwrap().push((keys[i], result));
                });
            }
        });

        // Persist the batch with one group commit, publish results to the
        // shared cache and the batch-local map, then assemble the batch in
        // submission order.
        let fresh = fresh.into_inner().unwrap();
        if let Some(t) = self.tier.as_ref().filter(|_| !fresh.is_empty()) {
            for (k, r) in &fresh {
                t.save(*k, r);
            }
            t.sync();
        }
        for (k, r) in fresh {
            self.cache.insert(k, r.clone());
            local.insert(k, r);
        }
        keys.iter()
            .map(|k| local.get(k).expect("every submitted job resolved").clone())
            .collect()
    }

    /// Run a single job on the calling thread, consulting the shared cache
    /// first. Returns the result plus whether it was served from the cache
    /// — the primitive a serving worker wants (its concurrency comes from
    /// its own thread pool, not from batch fan-out).
    ///
    /// Two threads racing on the same fingerprint may both simulate it;
    /// the simulations are deterministic, so the duplicate work is a
    /// performance wrinkle, never a correctness one. With a durable tier
    /// attached, a fresh result is on stable storage when this returns.
    pub fn run_one(&self, spec: &JobSpec) -> (CachedResult, bool) {
        let key = spec.fingerprint();
        if let Some(v) = self.cache.probe(key) {
            self.cache.note_hit();
            return (v, true);
        }
        if let Some(v) = self.tier.as_ref().and_then(|t| t.load(key)) {
            self.cache.insert(key, v.clone());
            self.cache.note_hit();
            return (v, true);
        }
        self.cache.note_miss();
        let result = run_isolated(spec);
        if let Some(t) = &self.tier {
            t.save(key, &result);
            t.sync();
        }
        self.cache.insert(key, result.clone());
        (result, false)
    }

    /// Like [`Runner::run_all`], but panics (with the job's label) on the
    /// first error — the behaviour every figure binary wants.
    pub fn run_reports(&self, specs: &[JobSpec]) -> Vec<RunReport> {
        self.run_all(specs)
            .into_iter()
            .zip(specs)
            .map(|(r, s)| r.unwrap_or_else(|e| panic!("{}: {e}", s.label)))
            .collect()
    }

    /// One-line execution summary for stderr (stdout stays byte-stable).
    pub fn summary(&self) -> String {
        format!(
            "[runner] {} worker(s), {} simulated, {} cache hit(s)",
            self.jobs,
            self.cache_misses(),
            self.cache_hits()
        )
    }
}

/// Execute one job behind a panic boundary. A panic anywhere in
/// compile/simulate becomes [`RunError::Panicked`] carrying the panic
/// message, so one sick job can never take down a sweep.
fn run_isolated(spec: &JobSpec) -> Result<RunReport, RunError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let session = Session::with_options(spec.effective_cfg(), spec.options.clone());
        session.run(&spec.kernel, spec.launch, spec.technique)
    }));
    outcome.unwrap_or_else(|payload| Err(RunError::Panicked(panic_message(&payload))))
}

/// Best-effort extraction of a panic payload's message (`&str` and `String`
/// payloads cover everything `panic!`/`assert!` produce).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Render failed jobs as a fixed-width error table for the end of a sweep,
/// or `None` when every job succeeded. Labels come from the specs, so the
/// caller can tell exactly which `kernel/technique` combinations died.
pub fn error_table(specs: &[JobSpec], results: &[Result<RunReport, RunError>]) -> Option<String> {
    let failures: Vec<(&JobSpec, &RunError)> = specs
        .iter()
        .zip(results)
        .filter_map(|(s, r)| r.as_ref().err().map(|e| (s, e)))
        .collect();
    if failures.is_empty() {
        return None;
    }
    let width = failures
        .iter()
        .map(|(s, _)| s.label.len())
        .max()
        .unwrap_or(0)
        .max("job".len());
    let mut out = String::new();
    out.push_str(&format!(
        "{} of {} job(s) failed:\n",
        failures.len(),
        results.len()
    ));
    out.push_str(&format!("  {:width$}  error\n", "job"));
    for (spec, err) in failures {
        out.push_str(&format!("  {:width$}  {err}\n", spec.label));
    }
    Some(out)
}

/// Default worker count: every available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Extract a `--jobs N` / `--jobs=N` override from an argument list.
/// Returns `None` when absent; invalid values also fall back to `None` so
/// a typo degrades to the default rather than aborting a long sweep.
pub fn jobs_from_args(args: &[String]) -> Option<usize> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--jobs" {
            return it.next()?.parse().ok();
        }
        if let Some(v) = a.strip_prefix("--jobs=") {
            return v.parse().ok();
        }
    }
    None
}

/// Resolve the worker count from an argument list plus an optional
/// `REGMUTEX_JOBS` value: flag, then env, then [`default_jobs`]. A zero or
/// unparsable env value falls through to the default.
pub fn jobs_from_env(args: &[String], env: Option<&str>) -> usize {
    jobs_from_args(args)
        .or_else(|| env.and_then(|v| v.trim().parse().ok()).filter(|&n| n > 0))
        .unwrap_or_else(default_jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmutex_isa::{ArchReg, KernelBuilder, TripCount};

    fn r(i: u16) -> ArchReg {
        ArchReg(i)
    }

    /// A small memory-bound kernel with enough register pressure to make
    /// every technique do real work on the tiny test config.
    fn kernel() -> Kernel {
        let mut b = KernelBuilder::new("runner-test");
        b.threads_per_cta(64);
        b.declared_regs(12);
        b.movi(r(0), 1);
        let top = b.here();
        b.ld_global(r(1), r(0));
        b.iadd(r(0), r(1), r(0));
        for i in 2..12 {
            b.movi(r(i), u64::from(i));
        }
        for i in (2..12).step_by(2) {
            b.imad(r(1), r(i), r(i + 1), r(1));
        }
        b.bra_loop(top, TripCount::Fixed(4));
        b.st_global(r(0), r(1));
        b.exit();
        b.build().unwrap()
    }

    fn specs() -> Vec<JobSpec> {
        let k = kernel();
        let cfg = GpuConfig::test_tiny();
        let launch = LaunchConfig::new(3);
        regmutex::ALL_TECHNIQUES
            .iter()
            .map(|&t| JobSpec::new(format!("runner-test/{t}"), &k, &cfg, launch, t))
            .collect()
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        // The acceptance property: a jobs=4 sweep produces byte-identical
        // per-job stats (cycles + checksum, and everything else) to jobs=1.
        let serial = Runner::new(1).run_reports(&specs());
        let parallel = Runner::new(4).run_reports(&specs());
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.technique, p.technique, "submission order changed");
            assert_eq!(s.stats.cycles, p.stats.cycles, "{}", s.technique);
            assert_eq!(s.stats.checksum, p.stats.checksum, "{}", s.technique);
            assert_eq!(s.stats.instructions, p.stats.instructions);
            assert_eq!(s.stats.acquire_attempts, p.stats.acquire_attempts);
            assert_eq!(s.theoretical_occupancy_warps, p.theoretical_occupancy_warps);
        }
    }

    #[test]
    fn repeated_jobs_hit_the_cache() {
        let runner = Runner::new(2);
        let batch = specs();
        let first = runner.run_reports(&batch);
        assert_eq!(runner.cache_misses(), batch.len() as u64);
        assert_eq!(runner.cache_hits(), 0);
        // The same batch again: zero new simulations.
        let second = runner.run_reports(&batch);
        assert_eq!(
            runner.cache_misses(),
            batch.len() as u64,
            "re-simulated a cached job"
        );
        assert_eq!(runner.cache_hits(), batch.len() as u64);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.stats.cycles, b.stats.cycles);
            assert_eq!(a.stats.checksum, b.stats.checksum);
        }
    }

    #[test]
    fn duplicates_within_a_batch_are_deduped() {
        let runner = Runner::new(4);
        let mut batch = specs();
        let dup = batch[0].clone();
        batch.push(dup); // same fingerprint as batch[0]
        let reports = runner.run_reports(&batch);
        assert_eq!(runner.cache_misses(), (batch.len() - 1) as u64);
        assert_eq!(runner.cache_hits(), 1);
        let last = reports.last().unwrap();
        assert_eq!(reports[0].stats.cycles, last.stats.cycles);
        assert_eq!(reports[0].stats.checksum, last.stats.checksum);
    }

    #[test]
    fn distinct_configs_do_not_collide() {
        // Same kernel/technique, different launch: must be separate jobs.
        let k = kernel();
        let cfg = GpuConfig::test_tiny();
        let a = JobSpec::new("a", &k, &cfg, LaunchConfig::new(1), Technique::Baseline);
        let b = JobSpec::new("b", &k, &cfg, LaunchConfig::new(2), Technique::Baseline);
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut half = cfg.clone();
        half.regs_per_sm /= 2;
        let c = JobSpec::new("c", &k, &half, LaunchConfig::new(1), Technique::Baseline);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let d = a.clone().with_options(CompileOptions {
            force_es: Some(4),
            force_apply: true,
        });
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn errors_are_reported_in_order() {
        // An unsatisfiable config (watchdog tiny) must error, not hang or
        // panic inside the pool, and land at its submission index.
        let k = kernel();
        let mut cfg = GpuConfig::test_tiny();
        cfg.watchdog_cycles = 1;
        let good = JobSpec::new(
            "good",
            &k,
            &GpuConfig::test_tiny(),
            LaunchConfig::new(1),
            Technique::Baseline,
        );
        let bad = JobSpec::new("bad", &k, &cfg, LaunchConfig::new(1), Technique::Baseline);
        let results = Runner::new(2).run_all(&[good, bad]);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
    }

    #[test]
    fn panicking_job_is_isolated_and_survivors_match() {
        // warp_size = 0 makes occupancy placement divide by zero, which is
        // a genuine panic (not a SimError) inside the worker.
        let k = kernel();
        let mut sick_cfg = GpuConfig::test_tiny();
        sick_cfg.warp_size = 0;
        let healthy = specs();
        let mut batch = healthy.clone();
        batch.insert(
            1,
            JobSpec::new(
                "sick",
                &k,
                &sick_cfg,
                LaunchConfig::new(1),
                Technique::Baseline,
            ),
        );

        let clean = Runner::new(2).run_all(&healthy);
        let mixed = Runner::new(2).run_all(&batch);

        // The sick job failed with a panic report...
        assert!(
            matches!(&mixed[1], Err(RunError::Panicked(_))),
            "expected Panicked, got {:?}",
            mixed[1]
        );
        // ...and every survivor is byte-identical to the clean sweep.
        let survivors: Vec<_> = mixed
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 1)
            .map(|(_, r)| r.as_ref().unwrap())
            .collect();
        for (c, s) in clean.iter().zip(survivors) {
            let c = c.as_ref().unwrap();
            assert_eq!(c.stats.cycles, s.stats.cycles);
            assert_eq!(c.stats.checksum, s.stats.checksum);
        }

        // The error table names the sick job and only it.
        let table = error_table(&batch, &mixed).expect("one failure => table");
        assert!(table.contains("sick"), "{table}");
        assert!(table.contains("panicked"), "{table}");
        assert!(table.contains("1 of"), "{table}");
        assert!(error_table(&healthy, &clean).is_none());
    }

    #[test]
    fn cycle_budget_cuts_off_runaway_jobs() {
        let k = kernel();
        let cfg = GpuConfig::test_tiny();
        let uncapped = JobSpec::new("u", &k, &cfg, LaunchConfig::new(1), Technique::Baseline);
        let capped = uncapped.clone().with_cycle_budget(10);
        // A real budget changes the fingerprint; a no-op one (≥ watchdog)
        // shares the uncapped job's cache entry.
        assert_ne!(uncapped.fingerprint(), capped.fingerprint());
        let noop = uncapped.clone().with_cycle_budget(u64::MAX);
        assert_eq!(uncapped.fingerprint(), noop.fingerprint());

        let results = Runner::new(2).run_all(&[uncapped, capped]);
        assert!(results[0].is_ok());
        assert!(
            matches!(
                &results[1],
                Err(RunError::Sim(regmutex_sim::SimError::WatchdogExpired {
                    limit: 10
                }))
            ),
            "budget must trip the watchdog: {:?}",
            results[1]
        );
    }

    #[test]
    fn run_one_hits_the_shared_cache() {
        let cache = crate::cache::ResultCache::shared(crate::cache::DEFAULT_CACHE_BUDGET);
        let a = Runner::with_cache(1, Arc::clone(&cache));
        let b = Runner::with_cache(4, Arc::clone(&cache));
        let spec = &specs()[0];
        let (first, cached) = a.run_one(spec);
        assert!(!cached, "cold cache must simulate");
        // A *different* runner sharing the cache gets a hit.
        let (second, cached) = b.run_one(spec);
        assert!(cached, "shared cache must serve the repeat");
        let (f, s) = (first.unwrap(), second.unwrap());
        assert_eq!(f.stats.cycles, s.stats.cycles);
        assert_eq!(f.stats.checksum, s.stats.checksum);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn batches_survive_a_tiny_cache_budget() {
        // With a budget too small to keep every result resident, batches
        // still assemble completely (the batch-local pin map) and repeats
        // are re-simulated rather than lost.
        let cache = crate::cache::ResultCache::shared(1);
        let runner = Runner::with_cache(2, cache);
        let batch = specs();
        let first = runner.run_reports(&batch);
        let second = runner.run_reports(&batch);
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.stats.cycles, b.stats.cycles);
            assert_eq!(a.stats.checksum, b.stats.checksum);
        }
        assert!(runner.cache().evictions() > 0, "a 1-byte budget must evict");
    }

    #[test]
    fn durable_tier_warm_starts_a_cold_cache() {
        #[derive(Default)]
        struct MemTier {
            map: Mutex<HashMap<u64, CachedResult>>,
            saves: AtomicUsize,
            syncs: AtomicUsize,
        }
        impl DurableTier for MemTier {
            fn load(&self, key: u64) -> Option<CachedResult> {
                self.map.lock().unwrap().get(&key).cloned()
            }
            fn save(&self, key: u64, value: &CachedResult) {
                self.saves.fetch_add(1, Ordering::Relaxed);
                self.map.lock().unwrap().insert(key, value.clone());
            }
            fn sync(&self) {
                self.syncs.fetch_add(1, Ordering::Relaxed);
            }
        }

        let tier = Arc::new(MemTier::default());
        let batch = specs();

        let mut a = Runner::new(2);
        a.set_tier(Arc::clone(&tier) as Arc<dyn DurableTier>);
        let first = a.run_reports(&batch);
        assert_eq!(tier.saves.load(Ordering::Relaxed), batch.len());
        assert_eq!(
            tier.syncs.load(Ordering::Relaxed),
            1,
            "one group commit per batch"
        );

        // A different runner with a cold cache but the same tier must not
        // simulate anything — every job is a (tier) hit, and the results
        // match the originals exactly.
        let mut b = Runner::with_cache(2, ResultCache::shared(DEFAULT_CACHE_BUDGET));
        b.set_tier(Arc::clone(&tier) as Arc<dyn DurableTier>);
        let second = b.run_reports(&batch);
        assert_eq!(b.cache_misses(), 0, "tier must serve the warm start");
        assert_eq!(b.cache_hits(), batch.len() as u64);
        assert_eq!(
            tier.syncs.load(Ordering::Relaxed),
            1,
            "nothing fresh to commit"
        );
        for (x, y) in first.iter().zip(&second) {
            assert_eq!(x.stats.cycles, y.stats.cycles);
            assert_eq!(x.stats.checksum, y.stats.checksum);
        }

        // run_one probes the tier too.
        let mut c = Runner::with_cache(1, ResultCache::shared(DEFAULT_CACHE_BUDGET));
        c.set_tier(tier as Arc<dyn DurableTier>);
        let (res, cached) = c.run_one(&batch[0]);
        assert!(cached, "tier hit must report as cached");
        assert_eq!(
            res.unwrap().stats.checksum,
            first[0].stats.checksum,
            "tier round-trip changed the result"
        );
    }

    #[test]
    fn jobs_env_precedence() {
        let v = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        // Flag beats env.
        assert_eq!(jobs_from_env(&v(&["--jobs", "3"]), Some("7")), 3);
        // Env beats the default.
        assert_eq!(jobs_from_env(&[], Some("7")), 7);
        assert_eq!(jobs_from_env(&[], Some(" 2 ")), 2);
        // Bad env values fall through to the default.
        assert_eq!(jobs_from_env(&[], Some("zero")), default_jobs());
        assert_eq!(jobs_from_env(&[], Some("0")), default_jobs());
        assert_eq!(jobs_from_env(&[], None), default_jobs());
    }

    #[test]
    fn jobs_flag_parsing() {
        let v = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(jobs_from_args(&v(&["--jobs", "4"])), Some(4));
        assert_eq!(jobs_from_args(&v(&["--csv", "--jobs=2"])), Some(2));
        assert_eq!(jobs_from_args(&v(&["--csv"])), None);
        assert_eq!(jobs_from_args(&v(&["--jobs", "zero"])), None);
        assert_eq!(jobs_from_args(&[]), None);
    }
}
