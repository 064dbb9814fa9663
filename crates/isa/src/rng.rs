//! The workspace's one seeded pseudo-random generator.
//!
//! The fuzzer's kernel decisions, the load generator's request picks, the
//! fleet's backoff jitter and the property tests' cases all draw from this
//! xorshift64\* stream; behavioral branches hash with [`mix`] instead, and
//! the fault injector keeps its own 13/7/17 stream. Each caller maps its
//! seed to a start state at its own call site, so a seed fixes its stream.
//!
//! [`mix`]: crate::mix

/// Deterministic xorshift64\* generator (shifts 12/25/27, multiplier
/// `0x2545_F491_4F6C_DD1D`). Dependency-free, and the same seed replays
/// the same stream on every build.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose state is `state`; 0, the xorshift fixed point,
    /// is mapped to 1.
    pub fn new(state: u64) -> Self {
        Rng(state.max(1))
    }

    /// The next output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value in `[0, n)` from one output; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A value in `[lo, hi)` from one output; `lo < hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// An element of non-empty `items`, drawn with one output.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first3(state: u64) -> [u64; 3] {
        let mut r = Rng::new(state);
        [r.next_u64(), r.next_u64(), r.next_u64()]
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
        // The sequence itself is pinned: a seed replays the same stream
        // across builds, and seed 0 is remapped to 1.
        assert_eq!(
            first3(42),
            [
                0x56ce_4ab7_719b_a3a0,
                0xc841_eb53_ebbb_2dda,
                0xca46_6be0_c998_0276
            ]
        );
        assert_eq!(Rng::new(0).next_u64(), 0x47e4_ce4b_896c_dd1d);
    }

    /// One pin per seed-to-state mapping in use: the load generator and
    /// backoff (`new(seed)`), the fuzzer's zero remap, the property
    /// tests' `seed * φ | 1`, and the scheduler test's raw state.
    #[test]
    fn every_seeding_in_use_is_pinned() {
        let phi = 0x9E37_79B9_7F4A_7C15_u64;
        assert_eq!(
            first3(0),
            [
                0x47e4_ce4b_896c_dd1d,
                0xabcf_a6a8_e079_651d,
                0xb9d1_0d8f_eb73_1f57
            ]
        );
        assert_eq!(
            first3(phi),
            [
                0x0d83_b3e2_9a21_487a,
                0x54c4_4c79_f1fe_9d67,
                0xa845_f342_007a_0e78
            ]
        );
        assert_eq!(
            first3(0xA001_u64.wrapping_mul(phi) | 1),
            [
                0x8284_4e77_be3c_7fd4,
                0x0c5e_9707_f356_8b6d,
                0xbb56_61a9_112e_04a2
            ]
        );
        assert_eq!(
            first3(phi ^ 0xD1B5_4A32_D192_ED03),
            [
                0x2e7d_172b_ebd0_d342,
                0x3bc6_28ac_627d_470e,
                0xfce9_cba2_ce89_876b
            ]
        );
    }
}
