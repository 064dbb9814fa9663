//! Shared parallel experiment engine for every figure and campaign.
//!
//! A figure is a `(kernel × config × technique)` matrix on the strictly
//! single-threaded simulator. Independent simulations are embarrassingly
//! parallel, so this module gives all of them one engine:
//!
//! * **Submission API** — describe each simulation as a [`JobSpec`]
//!   (kernel, [`GpuConfig`], compile options, [`Technique`], launch) and
//!   submit the whole batch with [`Runner::run_all`].
//! * **Thread pool** — jobs execute across `std::thread` workers (see
//!   [`default_jobs`]; the CLI's `--jobs N` overrides it).
//! * **Determinism** — each simulation is single-threaded and seeded
//!   exactly as before; the pool only changes *which OS thread* a job runs
//!   on, never its inputs. Results come back in submission order, so a
//!   `--jobs 16` sweep prints byte-identical output to `--jobs 1`.
//! * **Content-addressed cache** — jobs are keyed by a fingerprint of the
//!   kernel text, config, options, technique, and launch. Repeated jobs
//!   (e.g. the baseline run that nearly every figure re-simulates) are
//!   simulated once and served from the cache afterwards, within and
//!   across batches of one process.
//! * **One compile per kernel** — compilation depends on the kernel, the
//!   config and the options, never on the technique. A batch hashes each
//!   kernel once, and its jobs that share a compile key (the fingerprint
//!   minus technique and grid) share one [`CompiledKernel`], built by
//!   whichever worker reaches the group first. Each technique is still
//!   its own pool job.
//! * **Planted faults** — a job may carry a [`FaultSpec`]: its technique's
//!   register manager runs under a seeded [`FaultPlan`] and the injectors
//!   record into the spec's own [`FaultLog`]. Such a job is always
//!   simulated: it never reads or writes the cache or the durable tier and
//!   is never deduplicated, but it shares its group's compile.
//! * **Fault isolation** — a job that panics inside the simulator is
//!   caught at the worker boundary and reported as
//!   [`RunError::Panicked`]; a job that blows its [`JobSpec::cycle_budget`]
//!   is cut off by the simulator's watchdog. Either way the rest of the
//!   batch completes and the survivors' results are byte-identical to a
//!   run without the sick job (see [`error_table`]).

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use regmutex::{RunError, Session, Technique};
use regmutex_compiler::{CompileOptions, CompiledKernel};
use regmutex_durable::Fnv1a;
use regmutex_isa::{Kernel, ValidateKernelError};
use regmutex_sim::{FaultClass, FaultLog, FaultPlan, GpuConfig, LaunchConfig, Severity};

use crate::cache::{CachedResult, DurableTier, ResultCache, DEFAULT_CACHE_BUDGET};

/// One simulation to run: everything [`Session::run`] needs, plus a label
/// used in error messages.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable job name for diagnostics, e.g. `"BFS/regmutex"`.
    pub label: String,
    /// The kernel to simulate (pre-transformation). Shared, so the specs
    /// one kernel fans out to (one per technique) hold a single copy;
    /// [`Runner::run_all`] compiles it once for every job with the same
    /// kernel, config and options.
    pub kernel: Arc<Kernel>,
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
    /// A fault planted in the technique's register manager. A faulted job
    /// has its fault-free twin's fingerprint, but is always simulated and
    /// never cached.
    pub fault: Option<FaultSpec>,
}

/// A seeded fault for one job: [`FaultPlan::generate`] builds the plan from
/// these and the job's effective config.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Fault class to inject.
    pub class: FaultClass,
    /// Light or severe.
    pub severity: Severity,
    /// Plan seed.
    pub seed: u64,
    /// What the injectors did, readable after the run even when it errors.
    pub log: Arc<FaultLog>,
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
        Self::shared(label, Arc::new(kernel.clone()), cfg, launch, technique)
    }

    /// A job with default compile options on a kernel other specs may
    /// share (no copy).
    pub fn shared(
        label: impl Into<String>,
        kernel: Arc<Kernel>,
        cfg: &GpuConfig,
        launch: LaunchConfig,
        technique: Technique,
    ) -> Self {
        JobSpec {
            label: label.into(),
            kernel,
            cfg: cfg.clone(),
            options: CompileOptions::default(),
            technique,
            launch,
            cycle_budget: None,
            fault: None,
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

    /// Plant `fault` in this job's register manager (see
    /// [`JobSpec::fault`]).
    #[must_use]
    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.fault = Some(fault);
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
    ///
    /// FNV-1a is sequential, so the key is built in three stages over one
    /// field order: the kernel prefix (`kernel_prefix`), the compile key
    /// (`JobSpec::compile_state`) and this job key. [`Runner::run_all`]
    /// reuses the first two across a batch and gets the same values.
    pub fn fingerprint(&self) -> u64 {
        self.job_key(self.compile_state(kernel_prefix(&self.kernel)))
    }

    /// Stage 2: the kernel prefix plus everything else compilation depends
    /// on. Specs with equal compile keys compile to the same kernel.
    fn compile_state(&self, kernel_prefix: Fnv1a) -> Fnv1a {
        let mut h = kernel_prefix;
        // The budget is hashed via the effective config, so a job with a
        // budget below the watchdog is distinct from the uncapped job while
        // a no-op budget (≥ watchdog) shares its cache entry.
        h.write_field(format!("{:?}", self.effective_cfg()).as_bytes());
        h.write_field(format!("{:?}", self.options).as_bytes());
        h
    }

    /// Stage 3: the compile key plus the technique and the grid.
    fn job_key(&self, compile_state: Fnv1a) -> u64 {
        let mut h = compile_state;
        h.write_field(self.technique.to_string().as_bytes());
        h.write_field(&self.launch.grid_ctas.to_le_bytes());
        h.finish()
    }

    /// True when `other` has this spec's compile key by construction: the
    /// same kernel, config, budget and options.
    fn same_compile(&self, other: &JobSpec) -> bool {
        (Arc::ptr_eq(&self.kernel, &other.kernel) || self.kernel == other.kernel)
            && self.cfg == other.cfg
            && self.cycle_budget == other.cycle_budget
            && self.options == other.options
    }
}

/// Stage 1 of every key: the kernel's name, seed, resources and text. The
/// disassembly covers every instruction; name/seed and the resource
/// declaration are folded in separately because they affect execution but
/// may not appear in the listing.
fn kernel_prefix(kernel: &Kernel) -> Fnv1a {
    let mut h = Fnv1a::new();
    h.write_field(kernel.name.as_bytes());
    h.write_field(&kernel.seed.to_le_bytes());
    h.write_field(&kernel.regs_per_thread.to_le_bytes());
    h.write_field(&kernel.shmem_per_cta.to_le_bytes());
    h.write_field(&kernel.threads_per_cta.to_le_bytes());
    h.write_field(kernel.to_string().as_bytes());
    h
}

/// Every spec's `(job key, compile key)`, with the job key equal to
/// [`JobSpec::fingerprint`]. Each distinct kernel `Arc` is hashed once,
/// and consecutive specs with the same compile inputs reuse the compile
/// stage.
fn batch_keys(specs: &[JobSpec]) -> Vec<(u64, u64)> {
    let mut prefixes: HashMap<*const Kernel, Fnv1a> = HashMap::new();
    let mut prev: Option<(&JobSpec, Fnv1a)> = None;
    specs
        .iter()
        .map(|spec| {
            let compile = match prev {
                Some((p, state)) if p.same_compile(spec) => state,
                _ => {
                    let prefix = *prefixes
                        .entry(Arc::as_ptr(&spec.kernel))
                        .or_insert_with(|| kernel_prefix(&spec.kernel));
                    spec.compile_state(prefix)
                }
            };
            prev = Some((spec, compile));
            (spec.job_key(compile), compile.finish())
        })
        .collect()
}

/// One compile group's shared compilation, filled by the first job of the
/// group that runs. A compile that panics leaves it empty.
type CompileSlot = OnceLock<Result<CompiledKernel, ValidateKernelError>>;

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
    /// Kernel compilations this runner performed.
    compiles: AtomicU64,
    /// This runner's own cache lookups, whoever else shares the cache.
    hits: AtomicU64,
    misses: AtomicU64,
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
            compiles: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
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

    /// Worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The engine's result cache (shared or private).
    pub fn cache(&self) -> &Arc<ResultCache> {
        &self.cache
    }

    /// Jobs this runner served from the cache (or its tier) so far. Other
    /// runners sharing the cache do not count here.
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Jobs this runner actually simulated so far, faulted jobs included.
    pub fn cache_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Count a job served without simulating, here and in the cache.
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.cache.note_hit();
    }

    /// Count a job that will be simulated, here and in the cache.
    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.cache.note_miss();
    }

    /// Kernel compilations this runner has performed. A batch compiles
    /// once per compile group, so this stays at or below the number of
    /// distinct `(kernel, config, options, budget)` tuples it simulated.
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Run a batch. Results are returned in **submission order** regardless
    /// of the worker count or completion order, so harness output is
    /// byte-identical for any `--jobs` value.
    ///
    /// Identical jobs — same fingerprint, whether duplicated inside this
    /// batch or already completed in an earlier batch — are simulated once,
    /// and the jobs left to simulate compile once per compile key. A
    /// faulted job is always simulated and never stored. With a durable
    /// tier attached, the batch's fresh results are on stable storage when
    /// this returns (one [`DurableTier::sync`] per batch).
    pub fn run_all(&self, specs: &[JobSpec]) -> Vec<CachedResult> {
        self.run_batch(specs).into_iter().map(|(r, _)| r).collect()
    }

    /// Run a single job on the calling thread: a one-job batch. Returns the
    /// result plus whether it was served without simulating (from the
    /// cache or the durable tier) — the primitive a serving worker wants
    /// (its concurrency comes from its own thread pool, not from batch
    /// fan-out).
    ///
    /// Two threads racing on the same fingerprint may both simulate it;
    /// the simulations are deterministic, so the duplicate work is a
    /// performance wrinkle, never a correctness one. With a durable tier
    /// attached, a fresh result is on stable storage when this returns. A
    /// faulted job is simulated and returned without touching either store.
    pub fn run_one(&self, spec: &JobSpec) -> (CachedResult, bool) {
        self.run_batch(std::slice::from_ref(spec))
            .pop()
            .expect("a one-job batch has one result")
    }

    /// [`Runner::run_all`], with each job's result paired with whether it
    /// was served without being simulated for this batch.
    fn run_batch(&self, specs: &[JobSpec]) -> Vec<(CachedResult, bool)> {
        let (keys, compile_keys): (Vec<u64>, Vec<u64>) = batch_keys(specs).into_iter().unzip();

        // Resolve what we can from the shared cache, pinning every resolved
        // value in a batch-local map so a concurrent writer (or our own
        // inserts) evicting an entry mid-batch cannot lose it. `todo` holds
        // the first occurrence of each unresolved fingerprint, and every
        // faulted job; every other job is `cached`.
        let mut local: HashMap<u64, CachedResult> = HashMap::new();
        let mut todo: Vec<usize> = Vec::new();
        let mut scheduled: HashSet<u64> = HashSet::new();
        let mut cached = vec![true; specs.len()];
        for (i, k) in keys.iter().enumerate() {
            if specs[i].fault.is_some() {
                todo.push(i);
                cached[i] = false;
                self.miss();
            } else if local.contains_key(k) {
                self.hit();
            } else if let Some(v) = self.cache.probe(*k) {
                local.insert(*k, v);
                self.hit();
            } else if let Some(v) = self.tier.as_ref().and_then(|t| t.load(*k)) {
                // Durable-tier warm start: promote into the cache so the
                // rest of the process sees it at memory speed.
                self.cache.insert(*k, v.clone());
                local.insert(*k, v);
                self.hit();
            } else if scheduled.insert(*k) {
                todo.push(i);
                cached[i] = false;
                self.miss();
            } else {
                self.hit();
            }
        }

        // Group the unique jobs by compile key: one compile slot per group.
        let mut groups: HashMap<u64, usize> = HashMap::new();
        let group_of: Vec<usize> = todo
            .iter()
            .map(|&i| {
                let next = groups.len();
                *groups.entry(compile_keys[i]).or_insert(next)
            })
            .collect();
        let slots: Vec<CompileSlot> = (0..groups.len()).map(|_| OnceLock::new()).collect();

        // Execute the unique jobs across the pool. Workers pull the next
        // index from a shared cursor; each simulation is single-threaded
        // and deterministic, so scheduling cannot affect any result.
        let fresh: Mutex<Vec<(usize, CachedResult)>> = Mutex::new(Vec::with_capacity(todo.len()));
        let cursor = AtomicUsize::new(0);
        let workers = self.jobs.min(todo.len().max(1));
        let work = || loop {
            let n = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&i) = todo.get(n) else { break };
            let result = self.run_isolated(&specs[i], &slots[group_of[n]]);
            fresh.lock().unwrap().push((i, result));
        };
        // The calling thread is one of the workers, so a one-worker batch
        // (a minimizer probe, an escalation) spawns no thread at all.
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });

        // Persist the fault-free results with one group commit, publish
        // them to the shared cache and the batch-local map, then assemble
        // the batch in submission order.
        let (faulted, clean): (Vec<_>, Vec<_>) = fresh
            .into_inner()
            .unwrap()
            .into_iter()
            .partition(|(i, _)| specs[*i].fault.is_some());
        if let Some(t) = self.tier.as_ref().filter(|_| !clean.is_empty()) {
            for (i, r) in &clean {
                t.save(keys[*i], r);
            }
            t.sync();
        }
        for (i, r) in clean {
            self.cache.insert(keys[i], r.clone());
            local.insert(keys[i], r);
        }
        let mut faulted: HashMap<usize, CachedResult> = faulted.into_iter().collect();
        keys.iter()
            .enumerate()
            .map(|(i, k)| match faulted.remove(&i) {
                Some(r) => (r, false),
                None => {
                    let r = local.get(k).expect("every submitted job resolved").clone();
                    (r, cached[i])
                }
            })
            .collect()
    }

    /// Execute one job behind a panic boundary, compiling through `slot`
    /// unless another job of its compile group already has. A panic
    /// anywhere in compile/simulate becomes [`RunError::Panicked`]
    /// carrying the panic message, so one sick job can never take down a
    /// sweep; a compile that panics leaves `slot` empty, so every job of
    /// its group compiles again and reports its own panic. A faulted job
    /// builds its plan from the effective config.
    fn run_isolated(&self, spec: &JobSpec, slot: &CompileSlot) -> CachedResult {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let session = Session::with_options(spec.effective_cfg(), spec.options.clone());
            let compiled = slot.get_or_init(|| {
                self.compiles.fetch_add(1, Ordering::Relaxed);
                session.compile(&spec.kernel)
            });
            let c = compiled
                .as_ref()
                .map_err(|e| RunError::InvalidKernel(e.clone()))?;
            match &spec.fault {
                None => session.run_compiled(c, spec.launch, spec.technique),
                Some(f) => {
                    let plan = FaultPlan::generate(f.class, f.severity, f.seed, session.config());
                    let log = Arc::clone(&f.log);
                    session.run_compiled_faulted(c, spec.launch, spec.technique, &plan, log)
                }
            }
        }));
        outcome.unwrap_or_else(|payload| Err(RunError::Panicked(panic_message(&payload))))
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

/// Render failures — `(job label, what went wrong)` — as the fixed-width
/// error table that ends a sweep of `total` jobs, or `None` when nothing
/// failed. The labels tell the reader exactly which `kernel/technique`
/// combinations died.
pub fn error_table(failures: &[(String, String)], total: usize) -> Option<String> {
    if failures.is_empty() {
        return None;
    }
    let width = failures
        .iter()
        .map(|(label, _)| label.len())
        .max()
        .unwrap_or(0)
        .max("job".len());
    let mut out = format!("{} of {total} job(s) failed:\n", failures.len());
    out.push_str(&format!("  {:width$}  error\n", "job"));
    for (label, err) in failures {
        out.push_str(&format!("  {label:width$}  {err}\n"));
    }
    Some(out)
}

/// Default worker count when no `--jobs`/`--workers` flag names one:
/// `REGMUTEX_JOBS` if it holds a positive integer, else every available
/// core. Every pool in the workspace (the figures, CLI verbs, the server)
/// resolves its size through this one rule.
pub fn default_jobs() -> usize {
    jobs_from_env(std::env::var("REGMUTEX_JOBS").ok().as_deref())
}

/// [`default_jobs`] for a given `REGMUTEX_JOBS` value: a zero or
/// unparsable value falls through to the core count.
fn jobs_from_env(env: Option<&str>) -> usize {
    env.and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmutex::RunReport;
    use regmutex_isa::{ArchReg, KernelBuilder, TripCount};

    fn r(i: u16) -> ArchReg {
        ArchReg(i)
    }

    /// Run a batch that must succeed.
    fn reports(runner: &Runner, specs: &[JobSpec]) -> Vec<RunReport> {
        runner
            .run_all(specs)
            .into_iter()
            .map(|r| r.expect("job succeeds"))
            .collect()
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
        let serial = reports(&Runner::new(1), &specs());
        let parallel = reports(&Runner::new(4), &specs());
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
        let first = reports(&runner, &batch);
        assert_eq!(runner.cache_misses(), batch.len() as u64);
        assert_eq!(runner.cache_hits(), 0);
        // The same batch again: zero new simulations.
        let second = reports(&runner, &batch);
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
        let reports = reports(&runner, &batch);
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
        // warp_size = 0 makes occupancy placement divide by zero inside
        // the compiler, which is a genuine panic (not a SimError) inside
        // the worker — for every technique of the sick compile group.
        let mut sick_cfg = GpuConfig::test_tiny();
        sick_cfg.warp_size = 0;
        let healthy = specs();
        let mut batch = healthy.clone();
        let sick = shared_specs(&sick_cfg, "sick");
        batch.splice(1..1, sick.iter().cloned());

        let clean = Runner::new(2).run_all(&healthy);
        let runner = Runner::new(2);
        let mixed = runner.run_all(&batch);

        // Each sick job failed with its own panic report: the compile
        // panicked, left the group's slot empty, and every job retried...
        for r in &mixed[1..=sick.len()] {
            assert!(
                matches!(r, Err(RunError::Panicked(_))),
                "expected Panicked, got {r:?}"
            );
        }
        assert_eq!(runner.compiles(), 1 + sick.len() as u64);
        // ...and every survivor is byte-identical to the clean sweep.
        let survivors: Vec<_> = mixed
            .iter()
            .enumerate()
            .filter(|&(i, _)| !(1..=sick.len()).contains(&i))
            .map(|(_, r)| r.as_ref().unwrap())
            .collect();
        assert_eq!(survivors.len(), clean.len());
        for (c, s) in clean.iter().zip(survivors) {
            assert_eq!(format!("{:?}", c.as_ref().unwrap()), format!("{s:?}"));
        }

        // The error table names the sick jobs and only them.
        let failures: Vec<(String, String)> = batch
            .iter()
            .zip(&mixed)
            .filter_map(|(s, r)| r.as_ref().err().map(|e| (s.label.clone(), e.to_string())))
            .collect();
        let table = error_table(&failures, mixed.len()).expect("failures => table");
        assert!(table.contains("sick/"), "{table}");
        assert!(!table.contains("runner-test/"), "{table}");
        assert!(table.contains("panicked"), "{table}");
        assert!(table.contains("5 of"), "{table}");
        assert!(error_table(&[], clean.len()).is_none());
    }

    /// The five techniques on `cfg`, all holding one shared kernel.
    fn shared_specs(cfg: &GpuConfig, label: &str) -> Vec<JobSpec> {
        let k = Arc::new(kernel());
        regmutex::ALL_TECHNIQUES
            .iter()
            .map(|&t| {
                JobSpec::shared(
                    format!("{label}/{t}"),
                    Arc::clone(&k),
                    cfg,
                    LaunchConfig::new(3),
                    t,
                )
            })
            .collect()
    }

    #[test]
    fn a_kernel_compiles_once_for_every_technique() {
        let runner = Runner::new(2);
        reports(&runner, &shared_specs(&GpuConfig::test_tiny(), "shared"));
        assert_eq!(runner.compiles(), 1);

        // Content-equal kernels in separate `Arc`s share one compile too,
        // and the results match one compile per job exactly.
        let copies = specs();
        assert!(!Arc::ptr_eq(&copies[0].kernel, &copies[1].kernel));
        let runner = Runner::new(2);
        let grouped = reports(&runner, &copies);
        assert_eq!(runner.compiles(), 1);
        let single = Runner::new(1);
        for (spec, g) in copies.iter().zip(&grouped) {
            let one = single.run_one(spec).0.expect("job succeeds");
            assert_eq!(format!("{one:?}"), format!("{g:?}"), "{}", spec.label);
        }
        assert_eq!(
            single.compiles(),
            copies.len() as u64,
            "run_one compiles per call"
        );
    }

    #[test]
    fn different_compile_inputs_do_not_share() {
        let base = shared_specs(&GpuConfig::test_tiny(), "base").remove(1);
        let mut half = base.clone();
        half.cfg.regs_per_sm /= 2;
        let forced = base.clone().with_options(CompileOptions {
            force_es: Some(4),
            force_apply: true,
        });
        let capped = base.clone().with_cycle_budget(1_000_000);
        let other_technique = JobSpec {
            technique: Technique::Rfv,
            ..base.clone()
        };
        let runner = Runner::new(2);
        runner.run_all(&[base, half, forced, capped, other_technique]);
        assert_eq!(runner.compiles(), 4, "only the technique change shares");
    }

    #[test]
    fn invalid_kernel_fails_every_job_of_its_group() {
        let mut k = kernel();
        k.instrs.clear();
        let k = Arc::new(k);
        let cfg = GpuConfig::test_tiny();
        let batch: Vec<JobSpec> = regmutex::ALL_TECHNIQUES
            .iter()
            .map(|&t| {
                JobSpec::shared(
                    format!("empty/{t}"),
                    Arc::clone(&k),
                    &cfg,
                    LaunchConfig::new(1),
                    t,
                )
            })
            .collect();
        let runner = Runner::new(2);
        for r in runner.run_all(&batch) {
            assert!(matches!(r, Err(RunError::InvalidKernel(_))), "{r:?}");
        }
        assert_eq!(runner.compiles(), 1);
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
    fn runners_sharing_a_cache_count_only_their_own_lookups() {
        let cache = ResultCache::shared(DEFAULT_CACHE_BUDGET);
        let batch = specs();
        let (a, b) = (
            Runner::with_cache(1, Arc::clone(&cache)),
            Runner::with_cache(2, Arc::clone(&cache)),
        );
        // `a` submits the batch three times and `b` twice, concurrently:
        // whoever simulates a job first, each runner looks up exactly its
        // own submissions.
        std::thread::scope(|scope| {
            scope.spawn(|| (0..3).for_each(|_| drop(a.run_all(&batch))));
            scope.spawn(|| (0..2).for_each(|_| drop(b.run_all(&batch))));
        });
        let n = batch.len() as u64;
        assert_eq!(a.cache_hits() + a.cache_misses(), 3 * n);
        assert_eq!(b.cache_hits() + b.cache_misses(), 2 * n);
        assert_eq!(a.cache_misses() + b.cache_misses(), cache.misses());
        assert_eq!(a.cache_hits() + b.cache_hits(), cache.hits());
        // Each job was simulated at most once per runner.
        assert!(a.cache_misses() <= n && b.cache_misses() <= n);
    }

    #[test]
    fn faulted_jobs_are_always_simulated_and_share_the_compile() {
        use regmutex_sim::{FaultClass, Severity};
        let clean = shared_specs(&GpuConfig::test_tiny(), "f");
        let fault = || FaultSpec {
            class: FaultClass::MemLatencySpike,
            severity: Severity::Severe,
            seed: 3,
            log: Arc::new(FaultLog::default()),
        };
        let faulted = clean[1].clone().with_fault(fault());
        let twin = clean[1].clone().with_fault(fault());
        let mut batch = clean.clone();
        batch.extend([faulted.clone(), twin.clone()]);

        let runner = Runner::new(2);
        let results = runner.run_all(&batch);
        assert_eq!(runner.compiles(), 1, "faulted jobs share their group");
        assert_eq!(runner.cache_misses(), batch.len() as u64, "none deduped");
        assert_eq!(
            runner.cache().entries(),
            clean.len(),
            "faults are not cached"
        );

        // Each faulted result is its own run, logged into its own spec, and
        // equals a direct faulted run of the same compiled kernel.
        let session = Session::new(faulted.effective_cfg());
        let compiled = session.compile(&faulted.kernel).unwrap();
        let plan = FaultPlan::generate(
            FaultClass::MemLatencySpike,
            Severity::Severe,
            3,
            session.config(),
        );
        let log = Arc::new(FaultLog::default());
        let direct = session.run_compiled_faulted(
            &compiled,
            faulted.launch,
            faulted.technique,
            &plan,
            Arc::clone(&log),
        );
        for (spec, result) in [&faulted, &twin].into_iter().zip(&results[clean.len()..]) {
            assert_eq!(format!("{result:?}"), format!("{direct:?}"));
            let spec_log = &spec.fault.as_ref().unwrap().log;
            assert_eq!(spec_log.injections(), log.injections());
        }
        assert!(log.injections() > 0, "the fault never fired");

        // A repeat simulates the faulted jobs again and serves the clean
        // ones from the cache; `run_one` never caches a fault either.
        runner.run_all(&batch);
        assert_eq!(runner.cache_misses(), batch.len() as u64 + 2);
        assert_eq!(runner.cache_hits(), clean.len() as u64);
        assert!(!runner.run_one(&faulted).1);
        assert_eq!(runner.cache().entries(), clean.len());
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
        let first = reports(&runner, &batch);
        let second = reports(&runner, &batch);
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
        let first = reports(&a, &batch);
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
        let second = reports(&b, &batch);
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
        assert_eq!(jobs_from_env(Some("7")), 7);
        assert_eq!(jobs_from_env(Some(" 2 ")), 2);
        // No env, or a bad one, falls through to the core count.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(jobs_from_env(None), cores);
        assert_eq!(jobs_from_env(Some("zero")), cores);
        assert_eq!(jobs_from_env(Some("0")), cores);
    }
}
