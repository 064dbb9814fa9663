//! GPU hardware configuration.

/// Warp scheduler selection policy (per SM scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerPolicy {
    /// Greedy-Then-Oldest: keep issuing the last warp while it is ready,
    /// otherwise fall back to the oldest ready warp. GPGPU-Sim's default and
    /// the baseline policy in the paper (§IV).
    #[default]
    Gto,
    /// Loose round robin.
    Lrr,
    /// Owner-Warp-First: warps that currently own a shared register
    /// allocation get priority (the scheduling optimization of Jatala et
    /// al. \[7\], used by the OWF baseline), GTO among equals.
    OwnerWarpFirst,
}

/// Microarchitectural parameters of the simulated GPU.
///
/// Defaults model the paper's baseline, a GeForce GTX480 (Fermi) as
/// configured in GPGPU-Sim v3.2.2: 15 SMs, 128 KB of registers per SM
/// (32 K × 32-bit thread registers = 1 K warp-granular rows), up to 48
/// resident warps and 8 CTAs per SM, 48 KB shared memory, and 2 warp
/// schedulers with greedy-then-oldest selection.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Streaming multiprocessors on the device.
    pub num_sms: u32,
    /// How many SMs the simulator actually instantiates. CTAs are divided
    /// evenly among `num_sms`, so simulating one SM with `1/num_sms` of the
    /// grid reproduces per-SM behaviour at a fraction of the cost. Set equal
    /// to `num_sms` for whole-device simulation.
    ///
    /// **Sampling contract** (`simulated_sms < num_sms`): this is explicit
    /// *SM sampling*, not an approximation of the whole device. Only the
    /// CTAs that [`LaunchConfig::ctas_for_sm`] assigns to SMs
    /// `0..simulated_sms` execute; the tail assigned to the un-instantiated
    /// SMs is intentionally never simulated and never appears in
    /// [`crate::SimStats`] (`stats.ctas` equals
    /// [`LaunchConfig::simulated_ctas`], not `grid_ctas`). Because the
    /// remainder of an uneven split goes to the *low* SM ids, the sampled
    /// SMs see the worst-case (largest) per-SM CTA load. Whole-device
    /// counts require `simulated_sms == num_sms`.
    pub simulated_sms: u32,
    /// 32-bit thread-granular registers per SM (32 768 on Fermi = 128 KB).
    pub regs_per_sm: u32,
    /// Maximum resident warps per SM (`Nw` in the paper; 48 on Fermi).
    pub max_warps_per_sm: u32,
    /// Maximum resident CTAs per SM.
    pub max_ctas_per_sm: u32,
    /// Shared-memory bytes per SM.
    pub shmem_per_sm: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// Warp schedulers per SM; warps are statically assigned by slot parity.
    pub num_schedulers: u32,
    /// Per-thread register allocation rounding multiple (4 on Fermi —
    /// "the numbers in the parenthesis show the number of registers rounded
    /// to the upper multiple of 4", §IV).
    pub reg_alloc_granularity: u32,
    /// Scheduler policy.
    pub policy: SchedulerPolicy,
    /// Result latency of simple ALU ops, cycles.
    pub alu_latency: u32,
    /// Result latency of SFU ops (rcp/sqrt/exp), cycles.
    pub sfu_latency: u32,
    /// Shared-memory access latency, cycles.
    pub shmem_latency: u32,
    /// Global-memory round-trip latency, cycles.
    pub gmem_latency: u32,
    /// Maximum outstanding global-memory requests per SM (MSHR-ish bound).
    pub max_outstanding_mem: u32,
    /// Global-memory requests an SM may issue per cycle (LSU throughput).
    pub mem_issue_per_cycle: u32,
    /// Cycle count after which a run aborts, assuming deadlock/livelock.
    pub watchdog_cycles: u64,
    /// Multiplier on `gmem_latency` for the no-progress deadlock detector:
    /// the simulator declares deadlock after
    /// `gmem_latency × stall_multiplier + 50 000` cycles without a single
    /// issued instruction device-wide (see [`GpuConfig::stall_limit`]).
    pub stall_multiplier: u32,
    /// Register-file banks for operand-collector conflict modelling. Two
    /// source operands whose physical rows fall into the same bank add one
    /// cycle of result latency each (the operand collector gathers them over
    /// extra cycles). `0` disables the model (the default — the paper's
    /// evaluation does not model bank conflicts either; this is an
    /// extension, see the `ablation_bank_conflicts` figure).
    pub reg_banks: u32,
    /// Event-driven cycle skipping: when every resident warp on an SM is
    /// provably asleep until a known future event (memory completion,
    /// scoreboard writeback, …), that SM's clock jumps straight to the
    /// earliest such event instead of ticking through the dead cycles. The
    /// skip is exact — every [`crate::SimStats`] field is identical to the
    /// tick loop's — but the legacy loop is kept behind this switch
    /// (`--no-cycle-skip` on the CLI) for differential testing.
    pub cycle_skipping: bool,
}

impl GpuConfig {
    /// The paper's baseline: GeForce GTX480 (Fermi) as in GPGPU-Sim v3.2.2.
    ///
    /// ```
    /// let cfg = regmutex_sim::GpuConfig::gtx480();
    /// assert_eq!(cfg.regs_per_sm, 32_768);
    /// assert_eq!(cfg.max_warps_per_sm, 48);
    /// ```
    pub fn gtx480() -> Self {
        GpuConfig {
            num_sms: 15,
            simulated_sms: 1,
            regs_per_sm: 32_768,
            max_warps_per_sm: 48,
            max_ctas_per_sm: 8,
            shmem_per_sm: 48 * 1024,
            warp_size: 32,
            num_schedulers: 2,
            reg_alloc_granularity: 4,
            policy: SchedulerPolicy::Gto,
            alu_latency: 10,
            sfu_latency: 20,
            shmem_latency: 28,
            gmem_latency: 380,
            max_outstanding_mem: 128,
            mem_issue_per_cycle: 1,
            watchdog_cycles: 200_000_000,
            stall_multiplier: 64,
            reg_banks: 0,
            cycle_skipping: true,
        }
    }

    /// GTX480 with half the register file (64 KB per SM), the §IV-B
    /// "Register File Size Reduction" configuration (as in GPU-Shrink \[3\]).
    pub fn gtx480_half_rf() -> Self {
        GpuConfig {
            regs_per_sm: 16_384,
            ..Self::gtx480()
        }
    }

    /// The half-RF variant when `half_rf`, else the GTX480: the two GPUs
    /// the CLI's `--half-rf` and `/v1/run`'s `half_rf` choose between.
    pub fn gtx480_rf(half_rf: bool) -> Self {
        if half_rf {
            Self::gtx480_half_rf()
        } else {
            Self::gtx480()
        }
    }

    /// A Volta-generation SM model (§IV: "per-SM register file size has been
    /// doubled in newer architectures, but the maximum number of resident
    /// warps … is also increased. As a result, in all post-Fermi Nvidia GPUs
    /// having more than 32 registers per thread definitely results in
    /// incomplete occupancy"): 64 K thread-registers, 64 warp slots, 32 CTA
    /// slots, 96 KB shared memory, 4 schedulers.
    pub fn volta_like() -> Self {
        GpuConfig {
            num_sms: 80,
            simulated_sms: 1,
            regs_per_sm: 65_536,
            max_warps_per_sm: 64,
            max_ctas_per_sm: 32,
            shmem_per_sm: 96 * 1024,
            num_schedulers: 4,
            ..Self::gtx480()
        }
    }

    /// A deliberately tiny configuration for fast unit tests: 1 SM, 8 warp
    /// slots, 2 CTAs, a small register file, short latencies.
    pub fn test_tiny() -> Self {
        GpuConfig {
            num_sms: 1,
            simulated_sms: 1,
            regs_per_sm: 2_048,
            max_warps_per_sm: 8,
            max_ctas_per_sm: 4,
            shmem_per_sm: 16 * 1024,
            warp_size: 32,
            num_schedulers: 2,
            reg_alloc_granularity: 4,
            policy: SchedulerPolicy::Gto,
            alu_latency: 4,
            sfu_latency: 8,
            shmem_latency: 10,
            gmem_latency: 60,
            max_outstanding_mem: 8,
            mem_issue_per_cycle: 1,
            watchdog_cycles: 10_000_000,
            stall_multiplier: 64,
            reg_banks: 0,
            cycle_skipping: true,
        }
    }

    /// No-progress bound for the deadlock detector: the longest structural
    /// wait is a full memory pipe plus barrier convergence, so
    /// `gmem_latency × stall_multiplier` round trips (plus a constant floor)
    /// is far beyond anything a live configuration produces.
    pub fn stall_limit(&self) -> u64 {
        u64::from(self.gmem_latency) * u64::from(self.stall_multiplier.max(1)) + 50_000
    }

    /// Per-thread register count rounded up to the allocation granularity.
    pub fn round_regs(&self, regs_per_thread: u16) -> u32 {
        let g = self.reg_alloc_granularity.max(1);
        (regs_per_thread as u32).div_ceil(g) * g
    }

    /// Thread-granular registers one warp occupies for `regs_per_thread`
    /// (after rounding): `round4(r) × warp_size`.
    pub fn regs_per_warp(&self, regs_per_thread: u16) -> u32 {
        self.round_regs(regs_per_thread) * self.warp_size
    }

    /// Warp-granular register-file rows per SM (1 024 on Fermi).
    pub fn reg_rows_per_sm(&self) -> u32 {
        self.regs_per_sm / self.warp_size
    }

    /// Warp-granular rows one warp occupies for `regs_per_thread`.
    pub fn rows_per_warp(&self, regs_per_thread: u16) -> u32 {
        self.round_regs(regs_per_thread)
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::gtx480()
    }
}

/// Grid dimensions of a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Total CTAs in the grid (across the whole device). Each SM gets
    /// `grid_ctas / num_sms` of them, and SMs `0..grid_ctas % num_sms` one
    /// more each (see [`ctas_for_sm`](Self::ctas_for_sm)).
    pub grid_ctas: u32,
}

impl LaunchConfig {
    /// A launch with the given CTA count.
    pub fn new(grid_ctas: u32) -> Self {
        LaunchConfig { grid_ctas }
    }

    /// CTAs assigned to one simulated SM (even split, remainder to low SMs).
    pub fn ctas_for_sm(&self, sm: u32, cfg: &GpuConfig) -> u32 {
        let per = self.grid_ctas / cfg.num_sms;
        let rem = self.grid_ctas % cfg.num_sms;
        per + u32::from(sm < rem)
    }

    /// CTAs that actually execute under `cfg`'s sampling contract: the sum
    /// of [`ctas_for_sm`](Self::ctas_for_sm) over the instantiated SMs
    /// `0..simulated_sms`. Equals `grid_ctas` iff the whole device is
    /// simulated (`simulated_sms >= num_sms`); otherwise the tail assigned
    /// to un-instantiated SMs is deliberately dropped (see
    /// [`GpuConfig::simulated_sms`]) and `SimStats::ctas` reports this
    /// value, not `grid_ctas`.
    pub fn simulated_ctas(&self, cfg: &GpuConfig) -> u32 {
        let simulated = cfg.simulated_sms.min(cfg.num_sms).max(1);
        (0..simulated).map(|sm| self.ctas_for_sm(sm, cfg)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fermi_parameters() {
        let c = GpuConfig::gtx480();
        assert_eq!(c.num_sms, 15);
        assert_eq!(c.reg_rows_per_sm(), 1024);
        assert_eq!(c.max_warps_per_sm, 48);
        assert_eq!(c.max_ctas_per_sm, 8);
        assert_eq!(c.policy, SchedulerPolicy::Gto);
    }

    #[test]
    fn half_rf_halves_registers_only() {
        let full = GpuConfig::gtx480();
        let half = GpuConfig::gtx480_half_rf();
        assert_eq!(half.regs_per_sm, full.regs_per_sm / 2);
        assert_eq!(half.max_warps_per_sm, full.max_warps_per_sm);
        assert_eq!(half.shmem_per_sm, full.shmem_per_sm);
    }

    #[test]
    fn register_rounding_matches_paper_table1() {
        let c = GpuConfig::gtx480();
        // Table I parenthesized values.
        assert_eq!(c.round_regs(21), 24); // BFS
        assert_eq!(c.round_regs(25), 28); // CUTCP
        assert_eq!(c.round_regs(44), 44); // DWT2D
        assert_eq!(c.round_regs(32), 32); // HotSpot3D
        assert_eq!(c.round_regs(33), 36); // RadixSort
        assert_eq!(c.round_regs(30), 32); // SAD
        assert_eq!(c.round_regs(12), 12); // Gaussian
        assert_eq!(c.round_regs(37), 40); // LavaMD
        assert_eq!(c.round_regs(15), 16); // MergeSort
        assert_eq!(c.round_regs(13), 16); // MonteCarlo
        assert_eq!(c.round_regs(18), 20); // SRAD
    }

    #[test]
    fn regs_per_warp_uses_rounded_count() {
        let c = GpuConfig::gtx480();
        assert_eq!(c.regs_per_warp(21), 24 * 32);
        assert_eq!(c.rows_per_warp(21), 24);
    }

    #[test]
    fn launch_split_across_sms() {
        let c = GpuConfig::gtx480();
        let l = LaunchConfig::new(31);
        let total: u32 = (0..c.num_sms).map(|s| l.ctas_for_sm(s, &c)).sum();
        assert_eq!(total, 31);
        assert_eq!(l.ctas_for_sm(0, &c), 3); // 31 = 2*15 + 1
        assert_eq!(l.ctas_for_sm(1, &c), 2);
    }

    #[test]
    fn simulated_ctas_matches_sampling_contract() {
        let mut c = GpuConfig::gtx480();
        let l = LaunchConfig::new(31);
        // One sampled SM: it gets the worst-case share (3 of 31 = 2*15+1).
        assert_eq!(l.simulated_ctas(&c), 3);
        // Whole device: every CTA executes, including the uneven tail.
        c.simulated_sms = c.num_sms;
        assert_eq!(l.simulated_ctas(&c), 31);
        // Partial sampling: exactly the low SMs' shares, nothing more.
        c.simulated_sms = 4;
        assert_eq!(l.simulated_ctas(&c), 3 + 2 + 2 + 2);
        // simulated_sms is clamped into 1..=num_sms.
        c.simulated_sms = 0;
        assert_eq!(l.simulated_ctas(&c), 3);
        c.simulated_sms = 100;
        assert_eq!(l.simulated_ctas(&c), 31);
    }

    #[test]
    fn default_is_gtx480() {
        assert_eq!(GpuConfig::default(), GpuConfig::gtx480());
    }

    #[test]
    fn volta_has_the_paper_stated_property() {
        // §IV: on post-Fermi GPUs, more than 32 regs/thread implies
        // incomplete occupancy: 64 warps x 32 regs x 32 lanes = 64K exactly.
        let v = GpuConfig::volta_like();
        assert_eq!(
            v.max_warps_per_sm * v.round_regs(32) * v.warp_size,
            v.regs_per_sm
        );
        assert!(v.max_warps_per_sm * v.round_regs(33) * v.warp_size > v.regs_per_sm);
        assert_eq!(v.reg_rows_per_sm(), 2048);
    }
}
