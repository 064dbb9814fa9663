//! The seeded random kernel generator.
//!
//! Every structural choice (register ceiling, block mix, loop nesting and
//! trip counts, pressure-spike shape, memory intensity, barriers, branch
//! divergence) is one [`Decisions::draw`], so a kernel is fully described
//! by its `(seed, trace)` pair and the minimizer can shrink the *trace*
//! instead of the instruction list. Generated kernels are valid by
//! construction:
//!
//! * barriers and shared-memory exchanges are emitted only in warp-uniform
//!   context (outside `If`/`Divergent` regions, under `Fixed`-trip loops
//!   only), so every warp of a CTA reaches every barrier;
//! * loop nesting is depth-bounded and the product of mean trip counts is
//!   capped, so dynamic length stays inside the oracle's cycle budget;
//! * the body always ends with the [`epilogue`] store+exit, so validation
//!   (`FallsOffEnd`, `NoExit`) holds.
//!
//! The instruction vocabulary deliberately reuses the
//! [`regmutex_workloads::gen`] motifs — the fuzzer explores the space *in
//! between* the 16 hand-built Table I workloads, not a different ISA
//! dialect.

use regmutex_isa::{Kernel, KernelBuilder, TripCount};
use regmutex_workloads::gen::{
    dependent_loads, epilogue, independent_loads, pressure_spike, r, shared_exchange, varied,
    SpikeStyle,
};

use crate::trace::Decisions;

/// Upper bound on static instructions; generation stops opening new
/// top-level blocks beyond it (far below ISA limits — it keeps single
/// simulations in the low-millisecond range on one core).
const MAX_STATIC_INSTRS: u32 = 220;
/// Cap on the product of mean trip counts of nested loops (bounds dynamic
/// instructions per warp).
const MAX_LOOP_WEIGHT: u64 = 24;
/// Maximum loop/branch-region nesting depth.
const MAX_DEPTH: u32 = 2;

/// A generated kernel plus everything needed to run and reproduce it.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The kernel (valid by construction; `build()` is still checked).
    pub kernel: Kernel,
    /// Grid size to launch (a multiple of the device SM count, so the one
    /// simulated SM sees `grid_ctas / num_sms` resident-CTA candidates).
    pub grid_ctas: u32,
    /// Run on the half-size register file (more register-limited kernels).
    pub half_rf: bool,
    /// The generator seed (also the kernel's behavioral-branch seed).
    pub seed: u64,
    /// The canonical decision trace (one entry per draw).
    pub trace: Vec<u64>,
}

/// Generate the kernel for `seed` with fresh random decisions.
pub fn generate(seed: u64) -> Generated {
    gen_with(Decisions::fresh(seed), seed)
}

/// Regenerate a kernel from a recorded (possibly mutated) decision trace.
/// Out-of-range entries clamp, missing entries take the minimal choice, so
/// *any* trace maps to a valid kernel.
pub fn replay(seed: u64, trace: &[u64]) -> Generated {
    gen_with(Decisions::replay(trace), seed)
}

/// Per-nesting-level generation context.
#[derive(Debug, Clone, Copy)]
struct Ctx {
    depth: u32,
    /// True while control flow is warp-uniform (barriers are legal).
    uniform: bool,
    /// Product of enclosing mean trip counts.
    weight: u64,
}

/// The block menu. Order matters: offset 0 (the minimizer's target) is the
/// cheapest straight-line block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    AluChain,
    DepLoads,
    Spike,
    Loop,
    IfRegion,
    DivRegion,
    IndepLoads,
    SharedExchange,
    Barrier,
}

fn menu(ctx: Ctx, rmax: u16) -> Vec<Block> {
    let mut m = vec![Block::AluChain, Block::DepLoads];
    if rmax >= 6 {
        m.push(Block::Spike);
    }
    if ctx.depth < MAX_DEPTH {
        m.push(Block::Loop);
        m.push(Block::IfRegion);
        m.push(Block::DivRegion);
    }
    if rmax >= 12 {
        m.push(Block::IndepLoads);
    }
    if ctx.uniform {
        m.push(Block::SharedExchange);
        m.push(Block::Barrier);
    }
    m
}

fn gen_with(mut d: Decisions, seed: u64) -> Generated {
    let mut b = KernelBuilder::new(format!("fuzz_{seed:016x}"));
    b.seed(seed);

    // Launch shape. Threads per CTA stay small (one core simulates every
    // warp); the grid is a whole multiple of the SM count so the sampled
    // SM sees `ctas_per_sm` CTAs competing for registers.
    let warps_per_cta = d.draw(1, 6) as u32;
    b.threads_per_cta(32 * warps_per_cta);
    let ctas_per_sm = d.draw(1, 6) as u32;
    let half_rf = d.flip();
    // Register ceiling: registers r0..r{rmax-1} are available to blocks.
    let rmax = d.draw(6, 40) as u16;

    // Base registers: r0 = accumulator, r1 = address, r2 = value,
    // r3 = scratch. Seeded immediates give every kernel distinct values
    // without spending trace entries.
    b.movi(r(0), (seed & 0xffff) | 1);
    b.movi(r(1), 64);
    b.movi(r(2), ((seed >> 16) & 0xffff) | 1);
    b.movi(r(3), 8);

    let blocks = d.draw(0, 4);
    let ctx = Ctx {
        depth: 0,
        uniform: true,
        weight: 1,
    };
    let mut used_shared = false;
    for _ in 0..blocks {
        if b.pc() > MAX_STATIC_INSTRS {
            break;
        }
        emit_block(&mut b, &mut d, ctx, rmax, &mut used_shared);
    }
    if used_shared {
        b.shmem_per_cta(2048);
    }
    // Optional padding registers (models compiler over-allocation).
    if d.draw(0, 3) == 3 {
        b.declared_regs(rmax + 4);
    }
    epilogue(&mut b, r(1), r(0));

    let kernel = b
        .build()
        .expect("generated kernels are valid by construction");
    Generated {
        kernel,
        grid_ctas: ctas_per_sm * 15,
        half_rf,
        seed,
        trace: d.into_trace(),
    }
}

fn emit_block(b: &mut KernelBuilder, d: &mut Decisions, ctx: Ctx, rmax: u16, shared: &mut bool) {
    let m = menu(ctx, rmax);
    let pick = m[d.draw(0, m.len() as u64 - 1) as usize];
    match pick {
        Block::AluChain => {
            let n = 1 + d.draw(0, 5);
            let kind = d.draw(0, 3);
            for _ in 0..n {
                match kind {
                    0 => b.iadd(r(0), r(0), r(2)),
                    1 => b.imad(r(0), r(2), r(3), r(0)),
                    2 => b.xor(r(0), r(0), r(3)),
                    _ => b.ffma(r(0), r(2), r(3), r(0)),
                };
            }
        }
        Block::DepLoads => {
            let loads = 1 + d.draw(0, 2) as u32;
            dependent_loads(b, r(0), r(3), loads);
        }
        Block::Spike => {
            // Spike occupies r4..=hi; peak pressure = 4 + width.
            let width = 1 + d.draw(0, (rmax - 5).min(27) as u64) as u16;
            let style = if d.flip() {
                SpikeStyle::FloatFma
            } else {
                SpikeStyle::IntMad
            };
            pressure_spike(b, 4, 4 + width - 1, r(0), style, &[r(1), r(2)]);
        }
        Block::Loop => {
            let body_blocks = 1 + d.draw(0, 1);
            let base = 1 + d.draw(0, 3) as u32;
            let spread = d.draw(0, 2) as u32;
            let per_warp = d.flip();
            let mean = u64::from(base) + u64::from(spread / 2);
            // Demote to a single trip when nesting would blow the dynamic
            // budget; per-warp spreads break barrier uniformity below.
            let (trips, mean) = if ctx.weight * mean > MAX_LOOP_WEIGHT {
                (TripCount::Fixed(1), 1)
            } else if per_warp && spread > 0 {
                (varied(base, spread), mean)
            } else {
                (TripCount::Fixed(base), u64::from(base))
            };
            let inner = Ctx {
                depth: ctx.depth + 1,
                uniform: ctx.uniform && matches!(trips, TripCount::Fixed(_)),
                weight: ctx.weight * mean,
            };
            let top = b.here();
            for _ in 0..body_blocks {
                emit_block(b, d, inner, rmax, shared);
            }
            b.bra_loop(top, trips);
        }
        Block::IfRegion => {
            let permille = d.draw(0, 1000) as u16;
            let inner_blocks = 1 + d.draw(0, 1);
            let skip = b.new_label();
            b.bra_if(skip, permille, None);
            let inner = Ctx {
                depth: ctx.depth + 1,
                uniform: false,
                weight: ctx.weight,
            };
            for _ in 0..inner_blocks {
                emit_block(b, d, inner, rmax, shared);
            }
            b.place(skip);
        }
        Block::DivRegion => {
            let permille = d.draw(0, 1000) as u16;
            let inner_blocks = 1 + d.draw(0, 1);
            let skip = b.new_label();
            b.bra_div(skip, permille, None);
            let inner = Ctx {
                depth: ctx.depth + 1,
                uniform: false,
                weight: ctx.weight,
            };
            for _ in 0..inner_blocks {
                emit_block(b, d, inner, rmax, shared);
            }
            b.place(skip);
        }
        Block::IndepLoads => {
            let k = 1 + d.draw(0, 2) as usize;
            let addrs: Vec<_> = (0..k).map(|i| r(4 + i as u16)).collect();
            let tmps: Vec<_> = (0..k).map(|i| r(8 + i as u16)).collect();
            for (i, a) in addrs.iter().enumerate() {
                b.movi(*a, 32 + 8 * i as u64);
            }
            independent_loads(b, &addrs, &tmps, r(0));
        }
        Block::SharedExchange => {
            *shared = true;
            shared_exchange(b, r(1), r(2), r(3));
        }
        Block::Barrier => {
            b.bar();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmutex_isa::Op;

    #[test]
    fn generation_is_deterministic_and_valid() {
        for seed in 0..200u64 {
            let a = generate(seed);
            let b = generate(seed);
            assert_eq!(a.kernel, b.kernel, "seed {seed}");
            assert_eq!(a.trace, b.trace, "seed {seed}");
            assert!(a.kernel.validate().is_ok(), "seed {seed}");
            assert!(a.kernel.len() as u32 <= MAX_STATIC_INSTRS + 40);
        }
    }

    #[test]
    fn replay_of_own_trace_reproduces_the_kernel() {
        for seed in 0..200u64 {
            let a = generate(seed);
            let b = replay(seed, &a.trace);
            assert_eq!(a.kernel, b.kernel, "seed {seed}");
            assert_eq!(a.trace, b.trace, "canonical trace must be stable");
        }
    }

    #[test]
    fn any_mutated_trace_still_builds_a_valid_kernel() {
        // The minimizer relies on totality: every trace mutation maps to
        // *some* valid kernel.
        let g = generate(99);
        for i in 0..g.trace.len() {
            for v in [0u64, 1, 7, u64::MAX] {
                let mut t = g.trace.clone();
                t[i] = v;
                let k = replay(99, &t);
                assert!(k.kernel.validate().is_ok(), "entry {i} = {v}");
            }
            let truncated = replay(99, &g.trace[..i]);
            assert!(truncated.kernel.validate().is_ok(), "truncated at {i}");
        }
    }

    #[test]
    fn empty_trace_is_the_minimal_kernel() {
        let g = replay(5, &[]);
        // Minimal choices: no blocks, just prologue + epilogue.
        assert_eq!(g.kernel.len(), 6);
        assert!(g.kernel.validate().is_ok());
    }

    #[test]
    fn generator_covers_the_vocabulary() {
        // Across a modest seed range the generator must exercise barriers,
        // loops, divergence, and memory traffic — the Table I vocabulary.
        let mut bars = 0;
        let mut loops = 0;
        let mut divs = 0;
        let mut loads = 0;
        for seed in 0..300u64 {
            let g = generate(seed);
            bars += g.kernel.count_ops(|o| matches!(o, Op::Bar));
            loops += g.kernel.count_ops(|o| {
                matches!(
                    o,
                    Op::Bra {
                        behavior: regmutex_isa::BranchBehavior::Loop { .. },
                        ..
                    }
                )
            });
            divs += g.kernel.count_ops(|o| {
                matches!(
                    o,
                    Op::Bra {
                        behavior: regmutex_isa::BranchBehavior::Divergent { .. },
                        ..
                    }
                )
            });
            loads += g.kernel.count_ops(|o| matches!(o, Op::Ld(_)));
        }
        assert!(bars > 0, "no barriers generated");
        assert!(loops > 20, "too few loops: {loops}");
        assert!(divs > 10, "too little divergence: {divs}");
        assert!(loads > 100, "too little memory traffic: {loads}");
    }

    /// Fresh-mode output is pinned: a seed names one kernel and one
    /// trace on every build, so a change to the generator or to the
    /// stream it draws from shows here first.
    #[test]
    fn fresh_generation_is_pinned() {
        let pins: [(u64, u64, &[u64]); 3] = [
            (
                0,
                0x9055_d8b4_534d_dff2,
                &[0, 5, 0, 32, 2, 4, 282, 0, 4, 749, 0, 1, 2, 2, 9, 1, 2],
            ),
            (
                1,
                0x78d8_dc41_148a_215b,
                &[
                    1, 5, 1, 3, 3, 1, 0, 5, 48, 1, 0, 4, 0, 5, 925, 1, 2, 2, 0, 0, 3, 1, 2, 2, 0, 0,
                ],
            ),
            (
                0xA001,
                0xe6ee_4d02_640b_53e4,
                &[5, 3, 1, 31, 4, 2, 8, 1, 0, 3, 2, 7, 8, 1],
            ),
        ];
        for (seed, kernel_hash, trace) in pins {
            let g = generate(seed);
            let text = g.kernel.to_string();
            assert_eq!(
                regmutex_durable::fnv1a(text.as_bytes()),
                kernel_hash,
                "seed {seed:#x}"
            );
            assert_eq!(g.trace, trace, "seed {seed:#x}");
        }
    }
}
