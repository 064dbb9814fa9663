//! Warp scheduler state and ordering policies.
//!
//! Each SM has `num_schedulers` schedulers; warp slot `s` belongs to
//! scheduler `s % num_schedulers` (Fermi-style static partitioning). Each
//! cycle a scheduler tries its ready warps in policy order and the SM issues
//! from the first one that can actually issue.
//!
//! A scheduler keeps its resident warps in admission order, oldest first,
//! and describes them with two `u64` masks over those age positions: the
//! `ready` warps, which a try may issue, and the `blocked` ones, parked on
//! their scoreboard until a known cycle. A warp that has exited or waits at
//! a barrier is in neither. Every policy picks the minimum of a mask under
//! its own order key ([`SchedulerState::pick`]), so finding the next warp to
//! try costs a few bit operations (LRR: one pass over the mask's warps), not
//! a walk over every resident warp.

use crate::config::SchedulerPolicy;

/// [`SchedulerState::pos`] entry of a slot with no resident warp here.
const NO_POS: u8 = u8::MAX;

/// Per-scheduler persistent state.
#[derive(Debug, Clone, Default)]
pub struct SchedulerState {
    /// Slot of the warp issued last cycle (GTO greediness).
    pub last_issued: Option<u32>,
    /// Round-robin cursor (LRR).
    pub rr_cursor: u32,
    /// Slots of this scheduler's resident warps in admission order, oldest
    /// first: bit `p` of the masks is the warp in `by_age[p]`.
    by_age: Vec<u32>,
    /// Per age position: the cycle until which that warp is blocked on its
    /// scoreboard. Meaningful only while its `blocked` bit is set.
    until: Vec<u64>,
    /// Per SM slot: the age position of its warp here, or [`NO_POS`].
    pos: Vec<u8>,
    /// Warps that may be tried this cycle.
    pub(crate) ready: u64,
    /// Warps blocked on a write in flight until their `until` cycle.
    pub(crate) blocked: u64,
}

impl SchedulerState {
    /// A scheduler with no resident warps on an SM with `slots` warp slots
    /// (at most 64: one bit per warp).
    pub(crate) fn new(slots: usize) -> Self {
        assert!(slots <= 64, "{slots} warp slots do not fit a u64 mask");
        SchedulerState {
            by_age: Vec::with_capacity(slots),
            until: Vec::with_capacity(slots),
            pos: vec![NO_POS; slots],
            ..Default::default()
        }
    }

    /// A warp was admitted into `slot`, ready to issue; it is younger than
    /// every resident warp of this scheduler.
    pub(crate) fn admit(&mut self, slot: u32) {
        let p = self.by_age.len();
        self.by_age.push(slot);
        self.until.push(0);
        self.pos[slot as usize] = p as u8;
        self.ready |= 1 << p;
    }

    /// The warp in `slot` left the SM. It must be parked (exited).
    pub(crate) fn retire(&mut self, slot: u32) {
        let p = self.pos[slot as usize] as usize;
        debug_assert!(
            ((self.ready | self.blocked) >> p) & 1 == 0,
            "retiring a live warp"
        );
        self.by_age.remove(p);
        self.until.remove(p);
        self.pos[slot as usize] = NO_POS;
        for (q, &s) in self.by_age.iter().enumerate().skip(p) {
            self.pos[s as usize] = q as u8;
        }
        let below = (1u64 << p) - 1;
        self.ready = (self.ready & below) | ((self.ready >> 1) & !below);
        self.blocked = (self.blocked & below) | ((self.blocked >> 1) & !below);
    }

    /// The mask bit of the warp in `slot` (0 if it is not resident here).
    pub(crate) fn bit(&self, slot: u32) -> u64 {
        match self.pos.get(slot as usize) {
            Some(&p) if p != NO_POS => 1 << p,
            _ => 0,
        }
    }

    /// The warp in `slot` stalls on its scoreboard until `until`.
    pub(crate) fn block(&mut self, slot: u32, until: u64) {
        let b = self.bit(slot);
        self.ready &= !b;
        self.blocked |= b;
        self.until[b.trailing_zeros() as usize] = until;
    }

    /// The warp in `slot` parked at a barrier or exited.
    pub(crate) fn park(&mut self, slot: u32) {
        let b = self.bit(slot);
        self.ready &= !b;
        self.blocked &= !b;
    }

    /// The warp in `slot` left its barrier.
    pub(crate) fn wake(&mut self, slot: u32) {
        self.ready |= self.bit(slot);
    }

    /// Move the blocked warps whose gate passed by `now` to `ready`; return
    /// the earliest gate still ahead (`u64::MAX` if none).
    pub(crate) fn mature(&mut self, now: u64) -> u64 {
        let mut next = u64::MAX;
        for p in positions(self.blocked) {
            if self.until[p] <= now {
                self.blocked &= !(1 << p);
                self.ready |= 1 << p;
            } else {
                next = next.min(self.until[p]);
            }
        }
        next
    }

    /// The earliest gate among the blocked warps (`u64::MAX` if none).
    pub(crate) fn earliest_gate(&self) -> u64 {
        positions(self.blocked)
            .map(|p| self.until[p])
            .min()
            .unwrap_or(u64::MAX)
    }

    /// The gate of the warp in `slot` (meaningful while it is blocked).
    pub(crate) fn gate(&self, slot: u32) -> u64 {
        self.until[self.bit(slot).trailing_zeros() as usize]
    }

    /// The bits of `mask` whose warps `holds`.
    pub(crate) fn holders(&self, mask: u64, holds: impl Fn(u32) -> bool) -> u64 {
        positions(mask)
            .filter(|&p| holds(self.by_age[p]))
            .fold(0, |acc, p| acc | 1 << p)
    }

    /// The slot of `mask`'s first warp in policy order:
    ///
    /// * GTO: the greedily-held warp (the one issued last), else the oldest.
    /// * LRR: the lowest slot after the cursor, wrapping around.
    /// * OwnerWarpFirst: GTO among the `holders` (warps holding their
    ///   extended set), else GTO among the rest.
    ///
    /// The SM picks from its ready warps less the ones it tried this cycle,
    /// so the picks of one cycle follow the order a sort of the ready warps
    /// by these keys would give: a failed try changes no other warp's
    /// eligibility, and under OWF only the tried warp's holder status.
    pub(crate) fn pick(&self, policy: SchedulerPolicy, mask: u64, holders: u64) -> Option<u32> {
        if mask == 0 {
            return None;
        }
        let p = match policy {
            SchedulerPolicy::Gto => self.gto(mask),
            SchedulerPolicy::OwnerWarpFirst => match mask & holders {
                0 => self.gto(mask),
                owners => self.gto(owners),
            },
            SchedulerPolicy::Lrr => {
                let cursor = self.rr_cursor;
                positions(mask)
                    .min_by_key(|&p| (self.by_age[p] <= cursor, self.by_age[p]))
                    .expect("mask is not empty")
            }
        };
        Some(self.by_age[p])
    }

    /// GTO's first position in a non-empty `mask`.
    fn gto(&self, mask: u64) -> usize {
        let greedy = self.last_issued.map_or(0, |g| self.bit(g));
        (if mask & greedy != 0 { greedy } else { mask }).trailing_zeros() as usize
    }
}

/// The age positions set in `mask`, ascending.
fn positions(mask: u64) -> impl Iterator<Item = usize> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        let p = rest.trailing_zeros() as usize;
        rest &= rest.wrapping_sub(1);
        (p < 64).then_some(p)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scheduler on a `slots`-slot SM with `resident` admitted oldest
    /// first.
    fn sched(
        slots: usize,
        resident: &[u32],
        last_issued: Option<u32>,
        rr_cursor: u32,
    ) -> SchedulerState {
        let mut st = SchedulerState::new(slots);
        for &s in resident {
            st.admit(s);
        }
        st.last_issued = last_issued;
        st.rr_cursor = rr_cursor;
        st
    }

    /// Every pick of a cycle in which no try issues: the SM's loop.
    fn order(st: &SchedulerState, policy: SchedulerPolicy, owners: &[u32]) -> Vec<u32> {
        let holders = st.holders(st.ready, |s| owners.contains(&s));
        let mut tried = 0;
        std::iter::from_fn(|| {
            let s = st.pick(policy, st.ready & !tried, holders)?;
            tried |= st.bit(s);
            Some(s)
        })
        .collect()
    }

    #[test]
    fn gto_prefers_last_issued_then_oldest() {
        // Ages: slot 2 oldest, then 0, then 4.
        let st = sched(8, &[2, 0, 4], Some(4), 0);
        assert_eq!(order(&st, SchedulerPolicy::Gto, &[]), vec![4, 2, 0]);
    }

    #[test]
    fn gto_without_greedy_warp_is_oldest_first() {
        let mut st = sched(4, &[2, 0], None, 0);
        assert_eq!(order(&st, SchedulerPolicy::Gto, &[]), vec![2, 0]);
        // A greedy warp that is not ready is passed over.
        st.last_issued = Some(0);
        st.park(0);
        assert_eq!(order(&st, SchedulerPolicy::Gto, &[]), vec![2]);
    }

    #[test]
    fn lrr_rotates_after_cursor() {
        let st = sched(8, &[0, 2, 4, 6], None, 2);
        assert_eq!(order(&st, SchedulerPolicy::Lrr, &[]), vec![4, 6, 0, 2]);
    }

    #[test]
    fn owf_puts_owners_first() {
        // Ages: 0 oldest, then 4, then 2.
        let st = sched(6, &[0, 4, 2], Some(0), 0);
        let got = order(&st, SchedulerPolicy::OwnerWarpFirst, &[2]);
        assert_eq!(got, vec![2, 0, 4]); // owner beats greedy, then greedy
    }

    #[test]
    fn masks_follow_blocks_parks_wakes_and_retires() {
        let mut st = sched(8, &[6, 2, 4, 0], None, 0);
        assert_eq!(st.ready, 0b1111);
        st.block(2, 50);
        st.block(0, 30);
        st.park(4);
        assert_eq!((st.ready, st.blocked), (0b0001, 0b1010));
        assert_eq!((st.earliest_gate(), st.gate(2)), (30, 50));
        assert_eq!(st.mature(29), 30);
        assert_eq!(st.mature(30), 50);
        assert_eq!((st.ready, st.blocked), (0b1001, 0b0010));
        // Slot 4 exits and retires: the younger warp 0 moves down a place.
        st.retire(4);
        assert_eq!((st.ready, st.blocked), (0b101, 0b010));
        assert_eq!((st.bit(0), st.bit(4)), (0b100, 0));
        assert_eq!(order(&st, SchedulerPolicy::Gto, &[]), vec![6, 0]);
        st.wake(2);
        assert_eq!(st.ready, 0b111);
        assert_eq!(st.mature(100), u64::MAX);
        assert_eq!(st.earliest_gate(), u64::MAX);
    }

    /// The ordering as a sort key over `(slot, age, holds)` candidates: the
    /// definition each policy's picks must reproduce.
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

    /// Random warp sets, picked under every policy until a random tried
    /// candidate issues (or none does). The tried prefix must equal the
    /// sort-key order taken before the first try, even when, under OWF,
    /// tried warps take their pair's lock without issuing.
    #[test]
    fn picks_match_the_sort_key_on_random_sets() {
        for case in 0..2_000u64 {
            let mut rng = regmutex_isa::Rng::new(
                0x9E37_79B9_7F4A_7C15 ^ (case + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
            );
            let nsched = 1 + rng.below(4) as u32;
            let sid = rng.below(u64::from(nsched)) as u32;
            let max_warps = 1 + rng.below(64) as u32;
            let owned: Vec<u32> = (sid..max_warps).step_by(nsched as usize).collect();
            let mut st = SchedulerState::new(max_warps as usize);
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
                match rng.below(5) {
                    0 => st.park(s),
                    1 => st.block(s, 10),
                    _ => cands.push((s, age, rng.below(3) == 0)),
                }
            }
            // Retire a few, as CTA retirement does.
            if rng.below(3) == 0 {
                if let Some(&gone) = resident.first() {
                    st.park(gone);
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
            for policy in [
                SchedulerPolicy::Gto,
                SchedulerPolicy::Lrr,
                SchedulerPolicy::OwnerWarpFirst,
            ] {
                let mut want = cands.clone();
                sort_reference(policy, &st, &mut want);
                let want: Vec<u32> = want.iter().map(|c| c.0).collect();
                // The try at this index issues and ends the cycle.
                let issue_at = rng.below(want.len() as u64 + 1) as usize;
                let mut owners: Vec<u32> = cands.iter().filter(|c| c.2).map(|c| c.0).collect();
                let holders = st.holders(st.ready, |s| owners.contains(&s));
                let mut tried_mask = 0;
                let mut tried = Vec::new();
                while let Some(s) = st.pick(policy, st.ready & !tried_mask, holders) {
                    tried_mask |= st.bit(s);
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
