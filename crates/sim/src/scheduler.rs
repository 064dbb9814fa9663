//! Warp scheduler ordering policies.
//!
//! Each SM has `num_schedulers` schedulers; warp slot `s` belongs to
//! scheduler `s % num_schedulers` (Fermi-style static partitioning). Each
//! cycle a scheduler walks its eligible warps in policy order and the SM
//! issues from the first one that can actually issue.
//!
//! The walk is lazy: [`SchedulerState::next`] yields one candidate at a
//! time from a [`Walk`] cursor, so a scheduler that issues from its first
//! candidate never looks at the rest. Nothing is sorted: the scheduler keeps
//! its resident warps in admission order, so every policy is a walk over a
//! list it already has.

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
}

/// Position of one scheduler's issue walk within one cycle; each cycle
/// starts from `Walk::default()`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Walk {
    /// OWF: 0 while walking the extended-set holders, 1 for the rest.
    pass: u8,
    /// Position within the pass. GTO order: 0 is the greedy warp and
    /// `i + 1` is `by_age[i]`. LRR: the offset past the cursor.
    pos: usize,
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

    /// Slots of this scheduler's resident warps, oldest first.
    pub(crate) fn resident(&self) -> &[u32] {
        &self.by_age
    }

    /// The next of this scheduler's `eligible` warps to try, in policy
    /// order:
    ///
    /// * GTO: the greedily-held warp first (if eligible), then oldest first.
    /// * LRR: the owned slots in ascending order, rotated to start after the
    ///   cursor.
    /// * OwnerWarpFirst: the warps that `holds` their extended set in GTO
    ///   order, then the rest in GTO order. `holds` is called only under
    ///   this policy.
    ///
    /// The caller stops at the first issue. Until then the walk equals the
    /// order a sort taken before the first try would give, because only an
    /// issue changes another warp's eligibility or `holds`: a stalled try
    /// can make only the warp being tried an extended-set holder, and that
    /// warp has already been visited.
    pub(crate) fn next(
        &self,
        policy: SchedulerPolicy,
        walk: &mut Walk,
        eligible: impl Fn(u32) -> bool,
        holds: impl Fn(u32) -> bool,
    ) -> Option<u32> {
        match policy {
            SchedulerPolicy::Gto => self.gto_next(&mut walk.pos, eligible),
            SchedulerPolicy::Lrr => {
                let start = self.owned.partition_point(|&s| s <= self.rr_cursor);
                while walk.pos < self.owned.len() {
                    let s = self.owned[(start + walk.pos) % self.owned.len()];
                    walk.pos += 1;
                    if eligible(s) {
                        return Some(s);
                    }
                }
                None
            }
            SchedulerPolicy::OwnerWarpFirst => {
                if walk.pass == 0 {
                    let owner = self.gto_next(&mut walk.pos, |s| eligible(s) && holds(s));
                    if owner.is_some() {
                        return owner;
                    }
                    *walk = Walk { pass: 1, pos: 0 };
                }
                self.gto_next(&mut walk.pos, |s| eligible(s) && !holds(s))
            }
        }
    }

    /// The next warp that passes `keep` in GTO order, from `pos`. Skipping
    /// the greedy slot in the age list is right either way: it was tried
    /// already, or `keep` refused it, and during one walk `keep` changes its
    /// answer only for a warp that was tried.
    fn gto_next(&self, pos: &mut usize, keep: impl Fn(u32) -> bool) -> Option<u32> {
        if *pos == 0 {
            *pos = 1;
            if let Some(greedy) = self.last_issued.filter(|&g| keep(g)) {
                return Some(greedy);
            }
        }
        while let Some(&s) = self.by_age.get(*pos - 1) {
            *pos += 1;
            if Some(s) != self.last_issued && keep(s) {
                return Some(s);
            }
        }
        None
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

    /// The whole walk when no candidate issues.
    fn order(
        st: &SchedulerState,
        policy: SchedulerPolicy,
        eligible: &[u32],
        owners: &[u32],
    ) -> Vec<u32> {
        let mut walk = Walk::default();
        std::iter::from_fn(|| {
            st.next(
                policy,
                &mut walk,
                |s| eligible.contains(&s),
                |s| owners.contains(&s),
            )
        })
        .collect()
    }

    #[test]
    fn gto_prefers_last_issued_then_oldest() {
        // Ages: slot 2 oldest, then 0, then 4.
        let st = sched(4, &[2, 0, 4], Some(4), 0);
        assert_eq!(
            order(&st, SchedulerPolicy::Gto, &[0, 2, 4], &[]),
            vec![4, 2, 0]
        );
    }

    #[test]
    fn gto_without_greedy_warp_is_oldest_first() {
        let mut st = sched(2, &[2, 0], None, 0);
        assert_eq!(order(&st, SchedulerPolicy::Gto, &[0, 2], &[]), vec![2, 0]);
        // A greedy slot that is no longer eligible is skipped.
        st.last_issued = Some(0);
        assert_eq!(order(&st, SchedulerPolicy::Gto, &[2], &[]), vec![2]);
    }

    #[test]
    fn lrr_rotates_after_cursor() {
        let st = sched(4, &[0, 2, 4, 6], None, 2);
        assert_eq!(
            order(&st, SchedulerPolicy::Lrr, &[0, 2, 4, 6], &[]),
            vec![4, 6, 0, 2]
        );
    }

    #[test]
    fn owf_puts_owners_first() {
        // Ages: 0 oldest, then 4, then 2.
        let st = sched(3, &[0, 4, 2], Some(0), 0);
        let got = order(&st, SchedulerPolicy::OwnerWarpFirst, &[0, 2, 4], &[2]);
        assert_eq!(got, vec![2, 0, 4]); // owner beats greedy, then greedy
    }

    #[test]
    fn owf_warp_that_takes_the_lock_mid_walk_is_not_tried_again() {
        // Ages: 0, 2, 4, 6; no owners. The walk reaches the non-owners and
        // slot 2 takes its pair's lock on its try, then stalls.
        let st = sched(4, &[0, 2, 4, 6], None, 0);
        let mut owners = Vec::new();
        let mut walk = Walk::default();
        let mut tried = Vec::new();
        while let Some(s) = st.next(
            SchedulerPolicy::OwnerWarpFirst,
            &mut walk,
            |_| true,
            |s| owners.contains(&s),
        ) {
            tried.push(s);
            if s == 2 {
                owners.push(2);
            }
        }
        assert_eq!(tried, vec![0, 2, 4, 6]);
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

    /// The ordering as a sort key over `(slot, age, holds)` candidates: the
    /// definition each policy's walk must reproduce.
    fn sort_reference(
        policy: SchedulerPolicy,
        st: &SchedulerState,
        cands: &mut [(u32, u64, bool)],
    ) {
        let greedy = st.last_issued.unwrap_or(u32::MAX);
        match policy {
            SchedulerPolicy::Gto => cands.sort_by_key(|c| (c.0 != greedy, c.1)),
            SchedulerPolicy::Lrr => cands.sort_by_key(|c| (c.0 <= st.rr_cursor, c.0)),
            SchedulerPolicy::OwnerWarpFirst => cands.sort_by_key(|c| (!c.2, c.0 != greedy, c.1)),
        }
    }

    /// Random warp sets, each walked under every policy until a random
    /// tried candidate issues (or none does). The tried prefix must equal
    /// the sort-key order taken before the walk, even when, under OWF, tried
    /// warps take their pair's lock without issuing.
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
                    cands.push((s, age, rng.below(3) == 0));
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
            for policy in [
                SchedulerPolicy::Gto,
                SchedulerPolicy::Lrr,
                SchedulerPolicy::OwnerWarpFirst,
            ] {
                let mut want = cands.clone();
                sort_reference(policy, &st, &mut want);
                let want: Vec<u32> = want.iter().map(|c| c.0).collect();
                // The try at this index issues and ends the walk.
                let issue_at = rng.below(want.len() as u64 + 1) as usize;
                let mut owners: Vec<u32> = cands.iter().filter(|c| c.2).map(|c| c.0).collect();
                let mut walk = Walk::default();
                let mut tried = Vec::new();
                while let Some(s) = st.next(
                    policy,
                    &mut walk,
                    |s| eligible.contains(&s),
                    |s| owners.contains(&s),
                ) {
                    tried.push(s);
                    if tried.len() > issue_at {
                        break;
                    }
                    // A stalled try that took the lock first.
                    if !owners.contains(&s) && rng.below(3) == 0 {
                        owners.push(s);
                    }
                }
                let end = want.len().min(issue_at + 1);
                assert_eq!(tried, want[..end], "case {case} {policy:?}");
            }
        }
    }
}
