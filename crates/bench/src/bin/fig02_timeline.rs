//! Figure 2: the illustrative two-warp example.
//!
//! A machine with 48 hardware registers per thread runs a kernel demanding
//! 31 registers per thread. The baseline cannot co-locate two warps (2 × 32
//! rounded = 64 > 48) and serializes them; RegMutex with |Bs| = 16 and
//! |Es| = 16 overlaps their base-set phases and time-shares one SRP section
//! for the spikes.

use regmutex::{cycle_reduction_percent, Session, Technique};
use regmutex_compiler::CompileOptions;
use regmutex_isa::{ArchReg, Kernel, KernelBuilder, TripCount};
use regmutex_sim::{GpuConfig, LaunchConfig, SchedulerPolicy};

fn r(i: u16) -> ArchReg {
    ArchReg(i)
}

/// The Fig 2 machine: one SM with 48 registers per thread worth of RF and
/// two warp slots.
fn fig2_config() -> GpuConfig {
    GpuConfig {
        num_sms: 1,
        simulated_sms: 1,
        regs_per_sm: 48 * 32,
        max_warps_per_sm: 2,
        max_ctas_per_sm: 2,
        shmem_per_sm: 48 * 1024,
        warp_size: 32,
        num_schedulers: 1,
        reg_alloc_granularity: 4,
        policy: SchedulerPolicy::Gto,
        alu_latency: 4,
        sfu_latency: 8,
        shmem_latency: 10,
        gmem_latency: 80,
        max_outstanding_mem: 16,
        mem_issue_per_cycle: 1,
        watchdog_cycles: 10_000_000,
        stall_multiplier: 64,
        reg_banks: 0,
        cycle_skipping: true,
    }
}

/// A kernel demanding 31 registers with base-phase memory work and a
/// 31-register spike.
fn fig2_kernel() -> Kernel {
    let mut b = KernelBuilder::new("fig2");
    b.threads_per_cta(32).declared_regs(31);
    for i in 0..6 {
        b.movi(r(i), 10 + u64::from(i));
    }
    let top = b.here();
    b.ld_global(r(6), r(0));
    b.iadd(r(1), r(6), r(1));
    b.ld_global(r(6), r(1));
    b.iadd(r(0), r(6), r(0));
    // Spike to 31 live: r6..r30 (25) + 6 persistent.
    for i in 6..31 {
        b.xor(r(i), r(i % 6), r((i + 1) % 6));
    }
    let mut i = 6;
    while i + 1 < 31 {
        b.imad(r(1), r(i), r(i + 1), r(1));
        i += 2;
    }
    b.bra_loop(top, TripCount::Fixed(4));
    b.st_global(r(0), r(1));
    b.exit();
    b.build().expect("fig2 kernel valid")
}

fn main() {
    let cfg = fig2_config();
    let kernel = fig2_kernel();
    let launch = LaunchConfig::new(2); // warps A and B

    let baseline = Session::new(cfg.clone())
        .run(&kernel, launch, Technique::Baseline)
        .expect("baseline");
    let session = Session::with_options(
        cfg.clone(),
        CompileOptions {
            force_es: Some(16),
            force_apply: true,
        },
    );
    let compiled = session.compile(&kernel).expect("compile");
    let (rm, trace) = session
        .run_compiled_traced(&compiled, launch, Technique::RegMutex)
        .expect("regmutex");
    assert_eq!(baseline.stats.checksum, rm.stats.checksum);

    println!("Figure 2 — two warps, 48 hardware registers/thread, kernel wants 31\n");
    println!("Register-file layout under RegMutex (|Bs|=16, |Es|=16):");
    println!("  rows   0..16   warp A base set   (static, exclusive)");
    println!("  rows  16..32   warp B base set   (static, exclusive)");
    println!("  rows  32..48   shared pool       (one Es section, time-shared)\n");

    println!(
        "baseline : {} cycles — warps serialized (2 x 32 rounded regs > 48)",
        baseline.cycles()
    );
    println!(
        "regmutex : {} cycles — base phases overlap; {} acquires ({} successful)",
        rm.cycles(),
        rm.stats.acquire_attempts,
        rm.stats.acquire_successes
    );
    println!(
        "\ncycle reduction: {:.1}% (paper's figure illustrates the same overlap)",
        cycle_reduction_percent(&baseline, &rm)
    );
    assert!(
        rm.cycles() < baseline.cycles(),
        "RegMutex must overlap the two warps"
    );

    println!("\nRegMutex execution timeline (Fig 2(b), from the actual run):");
    print!(
        "{}",
        regmutex_sim::render_timeline(&trace, cfg.max_warps_per_sm, 72)
    );
}
