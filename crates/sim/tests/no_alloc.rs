//! Proof that `Sm::step` performs no heap allocation in steady state.
//!
//! The device loop calls `step` once per simulated cycle (modulo cycle
//! skipping), so a single allocation on that path multiplies into millions
//! over a run. The schedulers pick from ready masks they keep up to date,
//! the scoreboard and the divergent-branch lane keys are tables sized at
//! admission, and admission reuses a scratch buffer (`slot_buf`), precisely
//! so the hot path stays allocation-free; this test pins that property,
//! under every scheduling policy, with a counting global allocator. Every
//! step that admits no CTA counts, including the ones that issue a load, a
//! divergent branch, a barrier arrival or release, or an exit.
//!
//! Gated behind the `count-alloc` feature because a `#[global_allocator]`
//! wraps every allocation in the whole test process:
//!
//! ```text
//! cargo test -p regmutex-sim --features count-alloc --test no_alloc
//! ```
//!
//! This file must contain exactly ONE test: the counter is process-global,
//! and the harness runs tests on parallel threads, so a sibling test's
//! allocations would bleed into the measured window.
#![cfg(feature = "count-alloc")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use regmutex_isa::{ArchReg, CtaId, KernelBuilder, TripCount};
use regmutex_sim::{GpuConfig, KernelImage, SchedulerPolicy, Sm, StaticManager};

/// Counts allocation events (alloc + realloc); frees are not interesting
/// here — a steady-state step must not request memory at all.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic
// side effect and cannot violate the GlobalAlloc contract.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_step_does_not_allocate() {
    // Memory-bound loop: each trip stalls the warp on a `gmem_latency`-long
    // load, giving long windows of no-issue, no-admission steps — the
    // steady state the cycle-skipping engine replays multiplicatively. Each
    // trip also splits the warp on a divergent branch, reconverges it, and
    // meets the CTA's other warps at a barrier. Four warps, so each
    // policy has several candidates to pick from.
    let r = ArchReg;
    let mut b = KernelBuilder::new("noalloc");
    b.threads_per_cta(128);
    b.movi(r(0), 1);
    let top = b.here();
    let join = b.new_label();
    b.ld_global(r(1), r(0));
    b.iadd(r(0), r(1), r(0));
    b.bra_div(join, 500, None);
    b.iadd(r(2), r(0), r(1));
    b.place(join);
    b.bar();
    b.bra_loop(top, TripCount::Fixed(16));
    b.exit();
    let kernel = b.build().expect("kernel builds");

    let regs = kernel.regs_per_thread;
    let image = Arc::new(KernelImage::new(kernel));
    for policy in [
        SchedulerPolicy::Gto,
        SchedulerPolicy::Lrr,
        SchedulerPolicy::OwnerWarpFirst,
    ] {
        let cfg = GpuConfig {
            policy,
            ..GpuConfig::test_tiny()
        };
        let (steady_steps, issue_steps) = run_steady_window(&cfg, &image, regs);
        assert!(
            steady_steps > 100,
            "{policy:?}: only {steady_steps} steady-state steps observed; \
             workload not memory-bound enough"
        );
        assert!(
            issue_steps > 50,
            "{policy:?}: only {issue_steps} issuing steps observed"
        );
    }
}

/// Step one SM through warm-up and then a measured window, asserting that
/// no step of the window that admitted no CTA allocated; returns how many
/// of those steps issued nothing and how many issued.
fn run_steady_window(cfg: &GpuConfig, image: &Arc<KernelImage>, regs: u16) -> (u32, u32) {
    // One CTA: once it is admitted nothing is queued, so every later
    // no-issue step is steady state.
    let mut sm = Sm::new(
        cfg.clone(),
        Arc::clone(image),
        Box::new(StaticManager::new(cfg, regs)),
        [CtaId(0)],
    );

    // Warm-up: admit the CTA and let every scratch buffer reach its final
    // capacity (first issues, first divergence, first mem request).
    let warmup = u64::from(cfg.gmem_latency) * 2;
    let mut now = 0u64;
    while now < warmup && !sm.idle() {
        sm.step(now).expect("warm-up step");
        now += 1;
    }
    assert!(
        !sm.idle(),
        "kernel finished during warm-up; window too short"
    );

    // Measure: any step that admitted no CTA (observable as an unchanged
    // `warps` counter) must not have touched the allocator.
    let (mut steady_steps, mut issue_steps) = (0u32, 0u32);
    while !sm.idle() {
        let instrs_before = sm.stats.instructions;
        let warps_before = sm.stats.warps;
        let allocs_before = ALLOC_EVENTS.load(Ordering::Relaxed);
        sm.step(now).expect("measured step");
        let allocs_after = ALLOC_EVENTS.load(Ordering::Relaxed);
        if sm.stats.warps == warps_before {
            assert_eq!(
                allocs_after - allocs_before,
                0,
                "{:?}: step allocated at cycle {now}",
                cfg.policy
            );
            if sm.stats.instructions == instrs_before {
                steady_steps += 1;
            } else {
                issue_steps += 1;
            }
        }
        now += 1;
    }
    (steady_steps, issue_steps)
}
