//! Model-based property tests: the Fig 4/5 hardware structures (SRP bitmask
//! with FFZ, warp-status bitmask, section LUT) driven by random
//! acquire/release sequences against a plain `HashSet`/`HashMap` model.
//!
//! Sequences come from the workspace's seeded `Rng`, started at
//! `seed * φ | 1`; the case number in a failure message replays the input
//! exactly.

use std::collections::{HashMap, HashSet};

use regmutex::hw::bitmask::{SectionLut, SrpBitmask, WarpStatusBitmask};
use regmutex_isa::Rng;

/// The case generator for `seed`.
fn case_rng(seed: u64) -> Rng {
    Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
}

/// One random hardware operation.
#[derive(Debug, Clone, Copy)]
enum HwOp {
    /// Warp `w` executes an acquire.
    Acquire(u32),
    /// Warp `w` executes a release.
    Release(u32),
}

fn gen_ops(rng: &mut Rng, nw: u32) -> Vec<HwOp> {
    let n = rng.range(1, 200);
    (0..n)
        .map(|_| {
            let w = rng.below(u64::from(nw)) as u32;
            if rng.next_u64() & 1 == 1 {
                HwOp::Acquire(w)
            } else {
                HwOp::Release(w)
            }
        })
        .collect()
}

/// The bitmask/LUT implementation of Fig 5 agrees with a reference model (a
/// set of free sections + a warp→section map) on every step, for any
/// interleaving of (possibly redundant) acquires and releases.
#[test]
fn fig5_procedures_match_reference_model() {
    for case in 0..256u64 {
        let mut rng = case_rng(0x3009 + case);
        let nw = rng.range(2, 48) as u32;
        let valid = (rng.range(1, 48) as u32).min(nw);
        let ops = gen_ops(&mut rng, 48);

        let mut status = WarpStatusBitmask::new(nw);
        let mut srp = SrpBitmask::new(nw, valid);
        let mut lut = SectionLut::new(nw);

        // Reference model.
        let mut model_free: HashSet<u32> = (0..valid).collect();
        let mut model_held: HashMap<u32, u32> = HashMap::new(); // warp -> section

        for op in ops {
            match op {
                HwOp::Acquire(w) => {
                    let w = w % nw;
                    if status.get(w) {
                        // Nested acquire: no effect (§III).
                        assert!(model_held.contains_key(&w), "case {case}");
                        continue;
                    }
                    match srp.ffz() {
                        Some(section) => {
                            // Hardware grants the lowest free section; the
                            // model must agree it is free, and FFZ must be
                            // the minimum.
                            assert!(model_free.contains(&section), "case {case}");
                            assert_eq!(
                                Some(section),
                                model_free.iter().min().copied(),
                                "case {case}"
                            );
                            srp.set(section);
                            lut.set(w, section);
                            status.set(w);
                            model_free.remove(&section);
                            model_held.insert(w, section);
                        }
                        None => {
                            assert!(
                                model_free.is_empty(),
                                "case {case}: FFZ missed a free section"
                            );
                        }
                    }
                }
                HwOp::Release(w) => {
                    let w = w % nw;
                    if !status.get(w) {
                        assert!(!model_held.contains_key(&w), "case {case}");
                        continue; // redundant release: no effect
                    }
                    let section = lut.get(w);
                    assert_eq!(model_held.remove(&w), Some(section), "case {case}");
                    status.unset(w);
                    srp.unset(section);
                    model_free.insert(section);
                }
            }
            // Global invariants after every step.
            assert_eq!(status.count() as usize, model_held.len(), "case {case}");
            assert_eq!(
                srp.acquired_count(valid) as usize,
                valid as usize - model_free.len(),
                "case {case}"
            );
            // No two warps map to the same section.
            let mut seen = HashSet::new();
            for (&w, &s) in &model_held {
                assert!(seen.insert(s), "case {case}: section {s} double-held");
                assert_eq!(lut.get(w), s, "case {case}");
            }
        }
    }
}

/// Sections beyond `valid` are never granted, for any workload.
#[test]
fn invalid_sections_never_granted() {
    for case in 0..256u64 {
        let mut rng = case_rng(0x400A + case);
        let valid = rng.range(1, 8) as u32;
        let ops = gen_ops(&mut rng, 8);
        let nw = 8;
        let mut status = WarpStatusBitmask::new(nw);
        let mut srp = SrpBitmask::new(nw, valid);
        for op in ops {
            match op {
                HwOp::Acquire(w) if !status.get(w % nw) => {
                    if let Some(s) = srp.ffz() {
                        assert!(s < valid, "case {case}: granted invalid section {s}");
                        srp.set(s);
                        status.set(w % nw);
                        // Track with the status bit only; release below.
                    }
                }
                HwOp::Release(_) => { /* keep it held: strictly monotone fill */ }
                _ => {}
            }
        }
    }
}
