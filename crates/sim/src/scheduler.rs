//! Warp scheduler ordering policies.
//!
//! Each SM has `num_schedulers` schedulers; warp slot `s` belongs to
//! scheduler `s % num_schedulers` (Fermi-style static partitioning). A
//! scheduler ranks its eligible warps each cycle and the SM issues from the
//! first one that can actually issue.
//!
//! The ranking is produced without sorting: the scheduler keeps its resident
//! warps in admission order, so every policy is a walk over a list it
//! already has.

use crate::config::SchedulerPolicy;

/// Per-scheduler persistent state.
#[derive(Debug, Clone, Default)]
pub struct SchedulerState {
    /// Slot of the warp issued last cycle (GTO greediness).
    pub last_issued: Option<u32>,
    /// Round-robin cursor (LRR).
    pub rr_cursor: u32,
    /// Every warp slot this scheduler owns, ascending (the LRR walk).
    owned: Vec<u32>,
    /// Slots of this scheduler's resident warps in admission order, oldest
    /// first: GTO's age order, kept by appending on admission.
    by_age: Vec<u32>,
    /// OWF scratch: `(slot, priority)` of the eligible warps in GTO order.
    snapshot: Vec<(u32, u8)>,
}

impl SchedulerState {
    /// A scheduler owning `owned` (ascending) with no resident warps.
    pub(crate) fn new(owned: impl IntoIterator<Item = u32>) -> Self {
        let owned: Vec<u32> = owned.into_iter().collect();
        debug_assert!(
            owned.windows(2).all(|p| p[0] < p[1]),
            "owned slots not ascending"
        );
        SchedulerState {
            by_age: Vec::with_capacity(owned.len()),
            snapshot: Vec::with_capacity(owned.len()),
            owned,
            ..Default::default()
        }
    }

    /// A warp was admitted into `slot`; it is younger than every resident
    /// warp of this scheduler.
    pub(crate) fn admit(&mut self, slot: u32) {
        self.by_age.push(slot);
    }

    /// The warp in `slot` left the SM.
    pub(crate) fn retire(&mut self, slot: u32) {
        self.by_age.retain(|&s| s != slot);
    }

    /// Write the order in which to try this scheduler's `eligible` warps
    /// into `out`:
    ///
    /// * GTO: the greedily-held warp first (if eligible), then oldest first.
    /// * LRR: the owned slots in ascending order, rotated to start after the
    ///   cursor.
    /// * OwnerWarpFirst: priority (descending), then GTO order. Priorities
    ///   are snapshotted once, before the caller tries any warp, and
    ///   `priority` is called only under this policy.
    pub(crate) fn issue_order(
        &mut self,
        policy: SchedulerPolicy,
        eligible: impl Fn(u32) -> bool,
        mut priority: impl FnMut(u32) -> u8,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        match policy {
            SchedulerPolicy::Gto => out.extend(self.gto(&eligible)),
            SchedulerPolicy::Lrr => {
                let start = self.owned.partition_point(|&s| s <= self.rr_cursor);
                let (before, after) = self.owned.split_at(start);
                out.extend(after.iter().chain(before).copied().filter(|&s| eligible(s)));
            }
            SchedulerPolicy::OwnerWarpFirst => {
                let mut snapshot = std::mem::take(&mut self.snapshot);
                snapshot.clear();
                snapshot.extend(self.gto(&eligible).map(|s| (s, priority(s))));
                // One GTO-ordered pass per distinct priority, highest first.
                let mut level = snapshot.iter().map(|&(_, p)| p).max();
                while let Some(p) = level {
                    out.extend(snapshot.iter().filter(|e| e.1 == p).map(|e| e.0));
                    level = snapshot.iter().map(|&(_, q)| q).filter(|&q| q < p).max();
                }
                self.snapshot = snapshot;
            }
        }
    }

    /// Eligible warps in GTO order.
    fn gto<'a>(&'a self, eligible: &'a impl Fn(u32) -> bool) -> impl Iterator<Item = u32> + 'a {
        let greedy = self.last_issued.filter(|&g| eligible(g));
        greedy.into_iter().chain(
            self.by_age
                .iter()
                .copied()
                .filter(move |&s| Some(s) != greedy && eligible(s)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scheduler owning the even slots `0..2*n` with `resident` admitted
    /// oldest first.
    fn sched(n: u32, resident: &[u32], last_issued: Option<u32>, rr_cursor: u32) -> SchedulerState {
        let mut st = SchedulerState::new((0..n).map(|i| 2 * i));
        for &s in resident {
            st.admit(s);
        }
        st.last_issued = last_issued;
        st.rr_cursor = rr_cursor;
        st
    }

    fn order(
        st: &mut SchedulerState,
        policy: SchedulerPolicy,
        eligible: &[u32],
        prio: &[(u32, u8)],
    ) -> Vec<u32> {
        let mut out = Vec::new();
        st.issue_order(
            policy,
            |s| eligible.contains(&s),
            |s| prio.iter().find(|e| e.0 == s).map_or(0, |e| e.1),
            &mut out,
        );
        out
    }

    #[test]
    fn gto_prefers_last_issued_then_oldest() {
        // Ages: slot 2 oldest, then 0, then 4.
        let mut st = sched(4, &[2, 0, 4], Some(4), 0);
        assert_eq!(
            order(&mut st, SchedulerPolicy::Gto, &[0, 2, 4], &[]),
            vec![4, 2, 0]
        );
    }

    #[test]
    fn gto_without_greedy_warp_is_oldest_first() {
        let mut st = sched(2, &[2, 0], None, 0);
        assert_eq!(
            order(&mut st, SchedulerPolicy::Gto, &[0, 2], &[]),
            vec![2, 0]
        );
        // A greedy slot that is no longer eligible is skipped.
        st.last_issued = Some(0);
        assert_eq!(order(&mut st, SchedulerPolicy::Gto, &[2], &[]), vec![2]);
    }

    #[test]
    fn lrr_rotates_after_cursor() {
        let mut st = sched(4, &[0, 2, 4, 6], None, 2);
        assert_eq!(
            order(&mut st, SchedulerPolicy::Lrr, &[0, 2, 4, 6], &[]),
            vec![4, 6, 0, 2]
        );
    }

    #[test]
    fn owf_puts_owners_first() {
        // Ages: 0 oldest, then 4, then 2.
        let mut st = sched(3, &[0, 4, 2], Some(0), 0);
        let got = order(
            &mut st,
            SchedulerPolicy::OwnerWarpFirst,
            &[0, 2, 4],
            &[(2, 1)],
        );
        assert_eq!(got, vec![2, 0, 4]); // owner beats greedy, then greedy
    }

    /// xorshift64* — deterministic case generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The ordering as a sort key over `(slot, age, priority)` candidates:
    /// the definition each policy's walk must reproduce.
    fn sort_reference(policy: SchedulerPolicy, st: &SchedulerState, cands: &mut [(u32, u64, u8)]) {
        let greedy = st.last_issued.unwrap_or(u32::MAX);
        match policy {
            SchedulerPolicy::Gto => cands.sort_by_key(|c| (c.0 != greedy, c.1)),
            SchedulerPolicy::Lrr => cands.sort_by_key(|c| (c.0 <= st.rr_cursor, c.0)),
            SchedulerPolicy::OwnerWarpFirst => {
                cands.sort_by_key(|c| (core::cmp::Reverse(c.2), c.0 != greedy, c.1))
            }
        }
    }

    #[test]
    fn walks_match_the_sort_key_on_random_sets() {
        for case in 0..2_000u64 {
            let mut rng =
                Rng(0x9E37_79B9_7F4A_7C15 ^ (case + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
            let nsched = 1 + rng.below(4) as u32;
            let sid = rng.below(u64::from(nsched)) as u32;
            let max_warps = 1 + rng.below(64) as u32;
            let owned: Vec<u32> = (sid..max_warps).step_by(nsched as usize).collect();
            let mut st = SchedulerState::new(owned.iter().copied());
            // Residents with distinct, increasing ages in a shuffled slot order.
            let mut resident: Vec<u32> = owned
                .iter()
                .copied()
                .filter(|_| rng.below(4) != 0)
                .collect();
            for i in (1..resident.len()).rev() {
                resident.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut cands = Vec::new();
            let mut age = rng.below(100);
            for &s in &resident {
                st.admit(s);
                age += 1 + rng.below(5);
                if rng.below(5) != 0 {
                    cands.push((s, age, rng.below(3) as u8));
                }
            }
            // Retire a few, as CTA retirement does.
            if rng.below(3) == 0 {
                if let Some(&gone) = resident.first() {
                    st.retire(gone);
                    cands.retain(|c| c.0 != gone);
                }
            }
            st.last_issued = match rng.below(3) {
                0 => None,
                1 => owned
                    .get(rng.below(owned.len().max(1) as u64) as usize)
                    .copied(),
                _ => Some(rng.below(u64::from(max_warps) + 2) as u32),
            };
            st.rr_cursor = rng.below(u64::from(max_warps) + 2) as u32;
            let eligible: Vec<u32> = cands.iter().map(|c| c.0).collect();
            let prio: Vec<(u32, u8)> = cands.iter().map(|c| (c.0, c.2)).collect();
            for policy in [
                SchedulerPolicy::Gto,
                SchedulerPolicy::Lrr,
                SchedulerPolicy::OwnerWarpFirst,
            ] {
                let mut want = cands.clone();
                sort_reference(policy, &st, &mut want);
                let want: Vec<u32> = want.iter().map(|c| c.0).collect();
                assert_eq!(
                    order(&mut st, policy, &eligible, &prio),
                    want,
                    "case {case} {policy:?}"
                );
            }
        }
    }
}
