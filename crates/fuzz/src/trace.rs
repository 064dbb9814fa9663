//! The generator's decision trace: every random choice the kernel
//! generator makes flows through one [`Decisions`] source and is recorded
//! as an offset into its legal range.
//!
//! The trace — not the instruction list — is the unit of replay and
//! minimization. A `(seed, trace)` pair regenerates a kernel exactly;
//! shrinking trace entries toward zero shrinks each decision toward its
//! *minimal* legal choice (fewer blocks, shallower loops, smaller spikes),
//! so delta debugging over the trace walks through structurally valid
//! kernels only. Entries past the end of a replayed trace read as zero,
//! which makes plain truncation a legal shrink step.

use regmutex_isa::Rng;

/// The single source every generator decision is drawn from.
///
/// In *fresh* mode draws come from the seeded PRNG; in *replay* mode they
/// come from a recorded trace (clamped into the requested range, zero once
/// the trace runs out). Both modes re-record what they actually chose, so
/// the trace that comes back from [`Decisions::into_trace`] is canonical:
/// exactly one in-range entry per draw the generator performed.
#[derive(Debug, Clone)]
pub struct Decisions {
    rng: Rng,
    replay: Option<Vec<u64>>,
    cursor: usize,
    recorded: Vec<u64>,
}

impl Decisions {
    /// Draw fresh decisions from the PRNG seeded with `seed`. Seed 0, a
    /// real `generate` input, starts from a fixed odd constant instead.
    pub fn fresh(seed: u64) -> Self {
        let state = if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        };
        Decisions {
            rng: Rng::new(state),
            replay: None,
            cursor: 0,
            recorded: Vec::new(),
        }
    }

    /// Replay a recorded trace. Out-of-range entries clamp to the top of
    /// the range; missing entries (trace shorter than the generator's
    /// demand) read as the minimal choice.
    pub fn replay(trace: &[u64]) -> Self {
        Decisions {
            rng: Rng::new(0),
            replay: Some(trace.to_vec()),
            cursor: 0,
            recorded: Vec::new(),
        }
    }

    /// Draw one decision from `lo..=hi` (inclusive).
    pub fn draw(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi, "empty draw range");
        let span = hi - lo;
        let off = match &self.replay {
            Some(t) => t.get(self.cursor).copied().unwrap_or(0).min(span),
            None => {
                if span == 0 {
                    0
                } else {
                    self.rng.next_u64() % (span + 1)
                }
            }
        };
        self.cursor += 1;
        self.recorded.push(off);
        lo + off
    }

    /// Draw a boolean (`draw(0, 1) == 1`).
    pub fn flip(&mut self) -> bool {
        self.draw(0, 1) == 1
    }

    /// The canonical trace of everything drawn so far: one in-range offset
    /// per decision, in decision order.
    pub fn into_trace(self) -> Vec<u64> {
        self.recorded
    }

    /// Decisions drawn so far.
    pub fn len(&self) -> usize {
        self.recorded.len()
    }

    /// True before the first draw.
    pub fn is_empty(&self) -> bool {
        self.recorded.is_empty()
    }
}

/// Render a trace as the comma-separated decimal list the artifact format
/// stores (`"3,0,17"`; empty trace renders as `"-"`).
pub fn trace_to_text(trace: &[u64]) -> String {
    if trace.is_empty() {
        return "-".to_string();
    }
    trace
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Parse the textual trace form produced by [`trace_to_text`].
pub fn trace_from_text(text: &str) -> Result<Vec<u64>, String> {
    let text = text.trim();
    if text == "-" || text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|p| {
            p.trim()
                .parse::<u64>()
                .map_err(|_| format!("invalid trace entry '{p}'"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_draws_are_deterministic_and_in_range() {
        let mut a = Decisions::fresh(42);
        let mut b = Decisions::fresh(42);
        for _ in 0..100 {
            let (lo, hi) = (3, 17);
            let va = a.draw(lo, hi);
            assert_eq!(va, b.draw(lo, hi));
            assert!((lo..=hi).contains(&va));
        }
        let mut c = Decisions::fresh(43);
        let differs = (0..100).any(|_| c.draw(0, 1000) != Decisions::fresh(42).draw(0, 1000));
        assert!(differs, "different seeds must diverge");
    }

    #[test]
    fn replay_reproduces_fresh_choices() {
        let mut fresh = Decisions::fresh(7);
        let picks: Vec<u64> = (0..20).map(|i| fresh.draw(0, 5 + i)).collect();
        let trace = fresh.into_trace();
        let mut replay = Decisions::replay(&trace);
        let replayed: Vec<u64> = (0..20).map(|i| replay.draw(0, 5 + i)).collect();
        assert_eq!(picks, replayed);
    }

    #[test]
    fn replay_clamps_and_pads_with_minimal_choices() {
        let mut d = Decisions::replay(&[100, 2]);
        assert_eq!(d.draw(10, 13), 13); // 100 clamps to span 3
        assert_eq!(d.draw(0, 5), 2);
        assert_eq!(d.draw(4, 9), 4); // exhausted -> lo
                                     // Re-recorded trace is canonical: clamped and exactly 3 entries.
        assert_eq!(d.into_trace(), vec![3, 2, 0]);
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut d = Decisions::fresh(0);
        let any_nonzero = (0..64).any(|_| d.draw(0, u64::MAX - 1) != 0);
        assert!(any_nonzero);
    }

    #[test]
    fn trace_text_round_trips() {
        for t in [vec![], vec![0], vec![3, 0, 17, u64::MAX]] {
            assert_eq!(trace_from_text(&trace_to_text(&t)).unwrap(), t);
        }
        assert!(trace_from_text("1,x,3").is_err());
    }
}
