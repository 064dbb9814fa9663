//! High-level experiment runner: compile a kernel for a technique, simulate
//! it, and report the metrics the paper's figures are built from.

use std::sync::Arc;

use regmutex_compiler::{compile, CompileOptions, CompiledKernel, RegPlan};
use regmutex_isa::{Kernel, ValidateKernelError};
use regmutex_sim::fault::{FaultLog, FaultPlan};
use regmutex_sim::manager::RegisterManager;
use regmutex_sim::{
    run_kernel, run_kernel_faulted, run_kernel_traced, GpuConfig, LaunchConfig, SchedulerPolicy,
    SimError, SimStats, StaticManager, TraceEvent,
};

use crate::baselines::owf::OwfManager;
use crate::baselines::rfv::RfvManager;
use crate::manager::RegMutexManager;
use crate::paired::PairedWarpsManager;
use crate::storage;

/// A register-allocation technique under evaluation. The default is
/// RegMutex, the paper's technique.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Technique {
    /// Conventional static/exclusive allocation (§II).
    Baseline,
    /// RegMutex with the communal Shared Register Pool (§III).
    #[default]
    RegMutex,
    /// The paired-warps specialization (§III-C).
    RegMutexPaired,
    /// Register File Virtualization, Jeon et al. \[3\].
    Rfv,
    /// Resource sharing + Owner-Warp-First, Jatala et al. \[7\].
    Owf,
}

impl core::fmt::Display for Technique {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Technique::Baseline => "baseline",
            Technique::RegMutex => "regmutex",
            Technique::RegMutexPaired => "regmutex-paired",
            Technique::Rfv => "rfv",
            Technique::Owf => "owf",
        };
        f.write_str(s)
    }
}

/// Error from parsing a [`Technique`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTechniqueError(pub String);

impl core::fmt::Display for ParseTechniqueError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "unknown technique '{}' (expected baseline|regmutex|paired|rfv|owf)",
            self.0
        )
    }
}

impl std::error::Error for ParseTechniqueError {}

impl core::str::FromStr for Technique {
    type Err = ParseTechniqueError;

    /// Accepts the display names (case-insensitive) plus the `paired`
    /// shorthand, so CLI flags and the HTTP wire format parse identically.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "baseline" => Ok(Technique::Baseline),
            "regmutex" => Ok(Technique::RegMutex),
            "paired" | "regmutex-paired" => Ok(Technique::RegMutexPaired),
            "rfv" => Ok(Technique::Rfv),
            "owf" => Ok(Technique::Owf),
            other => Err(ParseTechniqueError(other.to_string())),
        }
    }
}

/// All five techniques, in the paper's comparison order.
pub const ALL_TECHNIQUES: [Technique; 5] = [
    Technique::Baseline,
    Technique::RegMutex,
    Technique::RegMutexPaired,
    Technique::Rfv,
    Technique::Owf,
];

/// Errors from [`Session::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The kernel failed structural validation.
    InvalidKernel(ValidateKernelError),
    /// The simulation aborted.
    Sim(SimError),
    /// The simulation panicked (caught by a harness's isolation boundary;
    /// the payload is the panic message).
    Panicked(String),
    /// A remote worker failed to produce this result (distributed sweeps:
    /// the job was dispatched but retries were exhausted, or the worker
    /// answered with a non-simulation error). The payload describes the
    /// last failure.
    Remote(String),
}

impl core::fmt::Display for RunError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RunError::InvalidKernel(e) => write!(f, "invalid kernel: {e}"),
            RunError::Sim(e) => write!(f, "simulation failed: {e}"),
            RunError::Panicked(msg) => write!(f, "simulation panicked: {msg}"),
            RunError::Remote(msg) => write!(f, "remote worker error: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ValidateKernelError> for RunError {
    fn from(e: ValidateKernelError) -> Self {
        RunError::InvalidKernel(e)
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        match e {
            // The simulator validates in every build profile now; fold its
            // rejection into the same variant compile-time validation uses.
            SimError::InvalidKernel(v) => RunError::InvalidKernel(v),
            other => RunError::Sim(other),
        }
    }
}

/// Everything one simulated configuration produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The technique that ran.
    pub technique: Technique,
    /// Kernel name.
    pub kernel_name: String,
    /// Simulation counters.
    pub stats: SimStats,
    /// The compiler's register plan (RegMutex variants; `None` when the
    /// kernel ran untransformed).
    pub plan: Option<RegPlan>,
    /// Theoretical occupancy (warps) under this technique.
    pub theoretical_occupancy_warps: u32,
    /// Warp-slot ceiling (for percentages).
    pub max_warps: u32,
    /// Hardware storage the technique adds to the SM, in bits.
    pub storage_overhead_bits: u64,
}

impl RunReport {
    /// Execution cycles.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Theoretical occupancy as a percentage.
    pub fn occupancy_percent(&self) -> u32 {
        (100.0 * f64::from(self.theoretical_occupancy_warps) / f64::from(self.max_warps.max(1)))
            .round() as u32
    }

    /// Acquire success rate (1.0 when no acquires executed).
    pub fn acquire_success_rate(&self) -> f64 {
        self.stats.acquire_success_rate()
    }
}

/// `100 × (base − other) / base`: the paper's "execution cycle reduction"
/// (higher is better).
pub fn cycle_reduction_percent(baseline: &RunReport, other: &RunReport) -> f64 {
    let b = baseline.cycles() as f64;
    if b == 0.0 {
        0.0
    } else {
        100.0 * (b - other.cycles() as f64) / b
    }
}

/// `100 × (other − base) / base`: the paper's "execution cycle increase"
/// (lower is better; used for the half-register-file studies).
pub fn cycle_increase_percent(baseline: &RunReport, other: &RunReport) -> f64 {
    -cycle_reduction_percent(baseline, other)
}

/// Runs kernels under a fixed GPU configuration.
#[derive(Debug, Clone)]
pub struct Session {
    cfg: GpuConfig,
    options: CompileOptions,
}

impl Session {
    /// A session on `cfg` with default compile options.
    pub fn new(cfg: GpuConfig) -> Self {
        Session {
            cfg,
            options: CompileOptions::default(),
        }
    }

    /// Override compile options (e.g. `force_es` for sensitivity sweeps).
    pub fn with_options(cfg: GpuConfig, options: CompileOptions) -> Self {
        Session { cfg, options }
    }

    /// The session's GPU configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Compile `kernel` with this session's configuration and options.
    ///
    /// # Errors
    ///
    /// Structural kernel validation errors only.
    pub fn compile(&self, kernel: &Kernel) -> Result<CompiledKernel, ValidateKernelError> {
        compile(kernel, &self.cfg, &self.options)
    }

    /// Run `kernel` under `technique`.
    ///
    /// # Errors
    ///
    /// [`RunError::InvalidKernel`] or [`RunError::Sim`] (deadlock/watchdog).
    pub fn run(
        &self,
        kernel: &Kernel,
        launch: LaunchConfig,
        technique: Technique,
    ) -> Result<RunReport, RunError> {
        let compiled = self.compile(kernel)?;
        self.run_compiled(&compiled, launch, technique)
    }

    /// Run an already-compiled kernel under `technique` (lets callers reuse
    /// one compilation across techniques).
    ///
    /// # Errors
    ///
    /// [`RunError::Sim`] on deadlock or watchdog expiry.
    pub fn run_compiled(
        &self,
        compiled: &CompiledKernel,
        launch: LaunchConfig,
        technique: Technique,
    ) -> Result<RunReport, RunError> {
        self.run_compiled_inner(compiled, launch, technique, false, None)
            .map(|(rep, _)| rep)
    }

    /// Run an already-compiled kernel under `technique` with fault
    /// injection: every SM's manager is wrapped in a
    /// [`regmutex_sim::FaultInjector`] executing `plan`, and what the
    /// injectors did is recorded into `log` (readable even when the run
    /// errors — how chaos campaigns tell *detected* from *never
    /// triggered*).
    ///
    /// # Errors
    ///
    /// Same as [`Session::run_compiled`], plus the fault-detection variants
    /// of [`SimError`] when the safety net catches the injected corruption.
    pub fn run_compiled_faulted(
        &self,
        compiled: &CompiledKernel,
        launch: LaunchConfig,
        technique: Technique,
        plan: &FaultPlan,
        log: Arc<FaultLog>,
    ) -> Result<RunReport, RunError> {
        self.run_compiled_inner(compiled, launch, technique, false, Some((plan, log)))
            .map(|(rep, _)| rep)
    }

    /// Like [`Session::run_compiled`], but records issue-stage trace events
    /// on the first simulated SM (see
    /// [`regmutex_sim::render_timeline`]).
    ///
    /// # Errors
    ///
    /// Same as [`Session::run_compiled`].
    pub fn run_compiled_traced(
        &self,
        compiled: &CompiledKernel,
        launch: LaunchConfig,
        technique: Technique,
    ) -> Result<(RunReport, Vec<TraceEvent>), RunError> {
        self.run_compiled_inner(compiled, launch, technique, true, None)
    }

    fn run_compiled_inner(
        &self,
        compiled: &CompiledKernel,
        launch: LaunchConfig,
        technique: Technique,
        traced: bool,
        faults: Option<(&FaultPlan, Arc<FaultLog>)>,
    ) -> Result<(RunReport, Vec<TraceEvent>), RunError> {
        let cfg = &self.cfg;
        let original = &compiled.original;
        let regs = original.regs_per_thread;
        let mut sim = Simulation {
            cfg: cfg.clone(),
            launch,
            traced,
            faults,
        };

        // The one technique switch: it picks the kernel image and plan, the
        // manager (whose probe states the warp capacity) and the storage
        // the technique adds. Each technique runs its own manager type, so
        // the step loop is compiled once per manager with static dispatch.
        // The RegMutex variants fall back to static allocation, and so to
        // no added storage, when the compiler left the kernel untransformed.
        let c = cfg.clone();
        let (plan, storage_bits, run) = match (technique, compiled.plan) {
            (Technique::RegMutex, Some(p)) => (
                Some(p),
                storage::regmutex_bits(cfg),
                sim.run(&compiled.kernel, move || RegMutexManager::new(&c, &p)),
            ),
            (Technique::RegMutexPaired, Some(p)) => (
                Some(p),
                storage::paired_bits(cfg),
                sim.run(&compiled.kernel, move || PairedWarpsManager::new(&c, &p)),
            ),
            (Technique::Rfv, _) => {
                let dead = Arc::clone(&compiled.dead_after);
                let avg = compiled.avg_live;
                let make = move || RfvManager::new(&c, Arc::clone(&dead), regs, avg);
                (None, storage::rfv_bits(cfg), sim.run(original, make))
            }
            (Technique::Owf, _) => {
                sim.cfg.policy = SchedulerPolicy::OwnerWarpFirst;
                match OwfManager::sharing_threshold(cfg, original) {
                    Some(t) => {
                        let make = move || OwfManager::new(&c, regs, t);
                        (None, storage::owf_bits(cfg), sim.run(original, make))
                    }
                    None => (
                        None,
                        0,
                        sim.run(original, move || StaticManager::new(&c, regs)),
                    ),
                }
            }
            _ => (
                None,
                0,
                sim.run(original, move || StaticManager::new(&c, regs)),
            ),
        };
        let (stats, trace, warp_capacity) = run?;
        Ok((
            RunReport {
                technique,
                kernel_name: original.name.clone(),
                stats,
                plan,
                theoretical_occupancy_warps: cta_granular_warps(cfg, original, warp_capacity),
                max_warps: cfg.max_warps_per_sm,
                storage_overhead_bits: storage_bits,
            },
            trace,
        ))
    }
}

/// One simulation, waiting for its kernel image and the manager type it
/// runs with.
struct Simulation<'a> {
    cfg: GpuConfig,
    launch: LaunchConfig,
    traced: bool,
    faults: Option<(&'a FaultPlan, Arc<FaultLog>)>,
}

impl Simulation<'_> {
    /// Run `kernel` with a manager from `make` on every SM: statically
    /// dispatched, except that fault injection and tracing run the same
    /// loop over `Box<dyn RegisterManager>`. Returns the stats, the trace
    /// (empty unless traced) and the warp capacity a probe manager states.
    fn run<M: RegisterManager + 'static>(
        &self,
        kernel: &Kernel,
        make: impl Fn() -> M + Send + Sync,
    ) -> Result<(SimStats, Vec<TraceEvent>, u32), SimError> {
        let warp_capacity = make().warp_capacity();
        let boxed = |_| -> Box<dyn RegisterManager> { Box::new(make()) };
        let (cfg, launch) = (&self.cfg, self.launch);
        let (stats, trace) = match &self.faults {
            Some((plan, log)) => (
                run_kernel_faulted(cfg, kernel, launch, boxed, plan, Arc::clone(log))?,
                Vec::new(),
            ),
            None if self.traced => run_kernel_traced(cfg, kernel, launch, boxed)?,
            None => (
                run_kernel(cfg, kernel, launch, |_| Box::new(make()))?,
                Vec::new(),
            ),
        };
        Ok((stats, trace, warp_capacity))
    }
}

/// `kernel`'s occupancy in warps, in whole CTAs, when registers admit
/// `warp_capacity` warps: the CTAs that fit the warp slots, that capacity,
/// the shared memory and the CTA slots at once.
fn cta_granular_warps(cfg: &GpuConfig, kernel: &Kernel, warp_capacity: u32) -> u32 {
    let wpc = kernel.warps_per_cta(cfg.warp_size).max(1);
    let by_warps = cfg.max_warps_per_sm / wpc;
    let by_capacity = warp_capacity / wpc;
    let by_shmem = cfg
        .shmem_per_sm
        .checked_div(kernel.shmem_per_cta)
        .unwrap_or(u32::MAX);
    let ctas = by_warps
        .min(by_capacity)
        .min(by_shmem)
        .min(cfg.max_ctas_per_sm);
    ctas * wpc
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmutex_isa::{ArchReg, KernelBuilder, TripCount};

    fn r(i: u16) -> ArchReg {
        ArchReg(i)
    }

    /// A register-hungry, memory-bound kernel (24 regs/thread) whose
    /// occupancy is register-limited on Fermi: a long low-pressure phase of
    /// dependent global loads, then a short high-pressure spike — the shape
    /// the paper's Fig 1 documents for real workloads.
    fn hungry_kernel() -> Kernel {
        let mut b = KernelBuilder::new("hungry");
        b.threads_per_cta(256);
        b.declared_regs(24);
        b.movi(r(0), 1);
        b.movi(r(1), 2);
        let top = b.here();
        // Memory-bound low-pressure phase.
        let inner = b.here();
        b.ld_global(r(2), r(0));
        b.ld_global(r(3), r(1));
        b.iadd(r(1), r(2), r(1));
        b.iadd(r(0), r(3), r(0));
        b.bra_loop(inner, TripCount::Fixed(8));
        // Short high-pressure spike.
        for i in 2..24 {
            b.movi(r(i), u64::from(i));
        }
        for i in (2..24).step_by(2) {
            b.imad(r(1), r(i), r(i + 1), r(1));
        }
        b.bra_loop(top, TripCount::Fixed(2));
        b.st_global(r(0), r(1));
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn baseline_and_regmutex_checksums_match() {
        let s = Session::new(GpuConfig::gtx480());
        let k = hungry_kernel();
        let launch = LaunchConfig::new(30);
        let base = s.run(&k, launch, Technique::Baseline).unwrap();
        let rm = s.run(&k, launch, Technique::RegMutex).unwrap();
        assert_eq!(
            base.stats.checksum, rm.stats.checksum,
            "compiler transformation must preserve semantics"
        );
        assert!(rm.plan.is_some());
        assert!(rm.stats.acquire_attempts > 0);
    }

    #[test]
    fn regmutex_raises_occupancy_and_reduces_cycles() {
        let s = Session::new(GpuConfig::gtx480());
        let k = hungry_kernel();
        // Enough CTAs that the occupancy difference matters: the baseline
        // fits 5 CTAs per SM, RegMutex 6.
        let launch = LaunchConfig::new(12 * 15);
        let base = s.run(&k, launch, Technique::Baseline).unwrap();
        let rm = s.run(&k, launch, Technique::RegMutex).unwrap();
        assert!(
            rm.theoretical_occupancy_warps > base.theoretical_occupancy_warps,
            "{} vs {}",
            rm.theoretical_occupancy_warps,
            base.theoretical_occupancy_warps
        );
        let red = cycle_reduction_percent(&base, &rm);
        assert!(red > 0.0, "reduction {red:.1}%");
    }

    #[test]
    fn all_techniques_complete_and_agree_functionally() {
        let s = Session::new(GpuConfig::gtx480());
        let k = hungry_kernel();
        let launch = LaunchConfig::new(15);
        let mut checksums = Vec::new();
        for t in ALL_TECHNIQUES {
            let rep = s.run(&k, launch, t).unwrap_or_else(|e| panic!("{t}: {e}"));
            checksums.push((t, rep.stats.checksum));
        }
        let first = checksums[0].1;
        for (t, c) in checksums {
            assert_eq!(c, first, "{t} diverged functionally");
        }
    }

    #[test]
    fn storage_bits_ranking_matches_paper() {
        let s = Session::new(GpuConfig::gtx480());
        let k = hungry_kernel();
        let launch = LaunchConfig::new(15);
        let rm = s.run(&k, launch, Technique::RegMutex).unwrap();
        let rfv = s.run(&k, launch, Technique::Rfv).unwrap();
        let paired = s.run(&k, launch, Technique::RegMutexPaired).unwrap();
        assert_eq!(rm.storage_overhead_bits, 384);
        assert_eq!(rfv.storage_overhead_bits, 31_264);
        assert!(rfv.storage_overhead_bits / rm.storage_overhead_bits >= 81);
        assert!(paired.storage_overhead_bits < rm.storage_overhead_bits);
    }

    #[test]
    fn reduction_and_increase_are_negatives() {
        let s = Session::new(GpuConfig::gtx480());
        let k = hungry_kernel();
        let launch = LaunchConfig::new(15);
        let base = s.run(&k, launch, Technique::Baseline).unwrap();
        let rm = s.run(&k, launch, Technique::RegMutex).unwrap();
        let red = cycle_reduction_percent(&base, &rm);
        let inc = cycle_increase_percent(&base, &rm);
        assert!((red + inc).abs() < 1e-9);
    }

    #[test]
    fn forced_es_session() {
        let s = Session::with_options(
            GpuConfig::gtx480(),
            CompileOptions {
                force_es: Some(8),
                force_apply: false,
            },
        );
        let k = hungry_kernel();
        let rep = s
            .run(&k, LaunchConfig::new(15), Technique::RegMutex)
            .unwrap();
        assert_eq!(rep.plan.unwrap().es, 8);
    }

    #[test]
    fn half_rf_baseline_slower_regmutex_recovers() {
        let k = hungry_kernel();
        let launch = LaunchConfig::new(45);
        let full = Session::new(GpuConfig::gtx480());
        let half = Session::new(GpuConfig::gtx480_half_rf());
        let base_full = full.run(&k, launch, Technique::Baseline).unwrap();
        let base_half = half.run(&k, launch, Technique::Baseline).unwrap();
        let rm_half = half.run(&k, launch, Technique::RegMutex).unwrap();
        let inc_none = cycle_increase_percent(&base_full, &base_half);
        let inc_rm = cycle_increase_percent(&base_full, &rm_half);
        assert!(inc_none > 0.0, "halving the RF must hurt: {inc_none:.1}%");
        assert!(
            inc_rm < inc_none,
            "RegMutex must recover: {inc_rm:.1}% vs {inc_none:.1}%"
        );
    }

    #[test]
    fn mean_live_count_is_positive_for_real_kernels() {
        let k = hungry_kernel();
        let avg = Session::new(GpuConfig::gtx480())
            .compile(&k)
            .unwrap()
            .avg_live;
        assert!(avg > 1.0 && avg < 24.0, "avg {avg}");
    }

    #[test]
    fn corrupt_lut_fault_is_caught_by_the_ledger() {
        use regmutex_sim::fault::{FaultClass, Severity};
        let cfg = GpuConfig::gtx480();
        let plan = FaultPlan::generate(FaultClass::CorruptLut, Severity::Severe, 7, &cfg);
        let s = Session::new(cfg);
        let k = hungry_kernel();
        let launch = LaunchConfig::new(45);
        let log = Arc::new(FaultLog::default());
        let compiled = s.compile(&k).unwrap();
        let err = s
            .run_compiled_faulted(
                &compiled,
                launch,
                Technique::RegMutex,
                &plan,
                Arc::clone(&log),
            )
            .expect_err("a corrupted LUT entry must not complete cleanly");
        assert!(log.injections() > 0, "the fault never fired");
        assert!(
            matches!(
                err,
                RunError::Sim(SimError::LedgerViolation { .. } | SimError::NoMapping { .. })
            ),
            "expected a ledger/translation detection, got {err}"
        );
    }

    #[test]
    fn faulted_run_with_untriggered_plan_matches_clean_run() {
        use regmutex_sim::fault::Fault;
        let cfg = GpuConfig::gtx480();
        let s = Session::new(cfg);
        let k = hungry_kernel();
        let launch = LaunchConfig::new(15);
        let clean = s.run(&k, launch, Technique::RegMutex).unwrap();
        // An empty plan injects nothing: the wrapped run must be identical.
        let plan = FaultPlan {
            class: regmutex_sim::fault::FaultClass::DroppedRelease,
            severity: regmutex_sim::fault::Severity::Light,
            seed: 0,
            faults: Vec::<Fault>::new(),
        };
        let log = Arc::new(FaultLog::default());
        let compiled = s.compile(&k).unwrap();
        let faulted = s
            .run_compiled_faulted(
                &compiled,
                launch,
                Technique::RegMutex,
                &plan,
                Arc::clone(&log),
            )
            .unwrap();
        assert_eq!(log.injections(), 0);
        assert_eq!(clean.stats.cycles, faulted.stats.cycles);
        assert_eq!(clean.stats.checksum, faulted.stats.checksum);
    }
}
