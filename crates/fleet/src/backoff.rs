//! Seeded, jittered exponential backoff.
//!
//! The delay before re-dispatching a job is a *pure function* of
//! `(seed, fingerprint, attempt)`: exponential growth from
//! [`BackoffPolicy::base`], capped at [`BackoffPolicy::cap`], scaled by a
//! jitter factor in `[0.5, 1.0)`: one output of the service side's
//! xorshift64\* [`Rng`] seeded with a hash of the inputs. Jitter
//! de-synchronizes a thundering herd of retries without
//! sacrificing reproducibility — the same seed replays the exact same
//! delay schedule, which is what makes chaos campaigns and retry tests
//! deterministic.

use std::time::Duration;

use regmutex_server::loadgen::Rng;

/// Exponential backoff parameters.
#[derive(Debug, Clone)]
pub struct BackoffPolicy {
    /// Delay before the first retry (attempt 1), pre-jitter.
    pub base: Duration,
    /// Ceiling on the pre-jitter delay.
    pub cap: Duration,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
        }
    }
}

impl BackoffPolicy {
    /// The delay before retry `attempt` (1-based; attempt 0 is the first
    /// dispatch and never waits) of the job with this `fingerprint`, under
    /// this fleet `seed`.
    pub fn delay(&self, seed: u64, fingerprint: u64, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let exp = self
            .base
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.cap);
        let r = Rng::new(
            seed ^ fingerprint.rotate_left(17)
                ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        )
        .next_u64();
        // Top 53 bits → uniform in [0,1); squeeze into [0.5, 1.0).
        let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(0.5 + unit / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_is_deterministic_per_seed() {
        let p = BackoffPolicy::default();
        for attempt in 1..6 {
            assert_eq!(
                p.delay(7, 0xabc, attempt),
                p.delay(7, 0xabc, attempt),
                "attempt {attempt}"
            );
        }
        // A different seed perturbs the schedule somewhere.
        assert!((1..6).any(|a| p.delay(7, 0xabc, a) != p.delay(8, 0xabc, a)));
    }

    #[test]
    fn delay_grows_exponentially_within_jitter_bounds() {
        let p = BackoffPolicy {
            base: Duration::from_millis(100),
            cap: Duration::from_secs(60),
        };
        for attempt in 1..8u32 {
            let d = p.delay(1, 2, attempt);
            let exp = Duration::from_millis(100 * (1 << (attempt - 1)));
            assert!(
                d >= exp.mul_f64(0.5),
                "attempt {attempt}: {d:?} < half of {exp:?}"
            );
            assert!(d < exp, "attempt {attempt}: {d:?} >= {exp:?}");
        }
    }

    #[test]
    fn delay_caps() {
        let p = BackoffPolicy {
            base: Duration::from_millis(100),
            cap: Duration::from_millis(300),
        };
        for attempt in 1..32 {
            assert!(p.delay(9, 9, attempt) < Duration::from_millis(300));
        }
        // Huge attempt numbers must not overflow the shift.
        assert!(p.delay(9, 9, u32::MAX) < Duration::from_millis(300));
    }

    #[test]
    fn jitter_sequence_is_pinned() {
        let p = BackoffPolicy::default();
        let us: Vec<u128> = (1..4).map(|a| p.delay(7, 0xabc, a).as_micros()).collect();
        assert_eq!(us, [35_147, 87_600, 199_487]);
    }

    #[test]
    fn attempt_zero_never_waits() {
        assert_eq!(BackoffPolicy::default().delay(1, 1, 0), Duration::ZERO);
    }
}
