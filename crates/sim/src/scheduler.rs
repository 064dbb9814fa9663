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
//!
//! The cycles the blocked warps wait for (their *gates*) live in the SM's
//! [`GateWheel`], which hands back the warps whose gate passed in time
//! proportional to their number, not to the warps blocked.

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
    /// Per SM slot: the age position of its warp here, or [`NO_POS`].
    pos: Vec<u8>,
    /// Warps that may be tried this cycle.
    pub(crate) ready: u64,
    /// Warps blocked on a write in flight until their gate.
    pub(crate) blocked: u64,
}

impl SchedulerState {
    /// A scheduler with no resident warps on an SM with `slots` warp slots
    /// (at most 64: one bit per warp).
    pub(crate) fn new(slots: usize) -> Self {
        assert!(slots <= 64, "{slots} warp slots do not fit a u64 mask");
        SchedulerState {
            by_age: Vec::with_capacity(slots),
            pos: vec![NO_POS; slots],
            ..Default::default()
        }
    }

    /// A warp was admitted into `slot`, ready to issue; it is younger than
    /// every resident warp of this scheduler.
    pub(crate) fn admit(&mut self, slot: u32) {
        let p = self.by_age.len();
        self.by_age.push(slot);
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

    /// The warp in `slot` stalls on its scoreboard (its gate goes to the
    /// SM's [`GateWheel`]).
    pub(crate) fn block(&mut self, slot: u32) {
        let b = self.bit(slot);
        self.ready &= !b;
        self.blocked |= b;
    }

    /// The gate of the blocked warp in `slot` passed: it may be tried again.
    pub(crate) fn unblock(&mut self, slot: u32) {
        let b = self.bit(slot);
        debug_assert_ne!(
            self.blocked & b,
            0,
            "unblocking slot {slot}, which is not blocked"
        );
        self.blocked &= !b;
        self.ready |= b;
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

/// Cycles a gate may lie ahead of the cycle it is set on and still go into
/// a bucket of the [`GateWheel`]; gates further out (planted memory-latency
/// spikes, say) wait in its overflow list. A multiple of 64: the occupancy
/// bitmap's words then line up with the wrap-around.
const SPAN: u64 = 512;

/// The gates of an SM's blocked warps, kept as a fixed-span timing wheel.
///
/// Bucket `c % SPAN` holds, as a mask over SM warp slots, the warps whose
/// gate is cycle `c`, and one occupancy bit per bucket says which buckets
/// hold any. Before a warp blocks on cycle `now`, the SM has matured every
/// gate at or before `now`, so every bucketed gate lies in
/// `next .. next + SPAN`, where `next` is the earliest of them: a bucket
/// names one cycle. Maturing a gate, and finding the next one, costs a
/// bucket and a few bitmap words, whatever the number of warps blocked.
#[derive(Debug, Clone)]
pub(crate) struct GateWheel {
    /// Per bucket: the slots whose gate is the bucket's cycle.
    buckets: Vec<u64>,
    /// One bit per bucket: the bucket is not empty.
    occupied: [u64; (SPAN / 64) as usize],
    /// The earliest bucketed gate (`u64::MAX` if none).
    next: u64,
    /// Gates `SPAN` or more cycles past the cycle they were set on, as
    /// `(gate, slot)`; at most one per slot, so it never outgrows its
    /// initial capacity.
    overflow: Vec<(u64, u32)>,
    /// The earliest overflow gate (`u64::MAX` if none).
    overflow_next: u64,
}

impl GateWheel {
    /// An empty wheel for an SM with `slots` warp slots.
    pub(crate) fn new(slots: usize) -> Self {
        GateWheel {
            buckets: vec![0; SPAN as usize],
            occupied: [0; (SPAN / 64) as usize],
            next: u64::MAX,
            overflow: Vec::with_capacity(slots),
            overflow_next: u64::MAX,
        }
    }

    /// The earliest gate of any blocked warp (`u64::MAX` if none): until
    /// then no gate matures.
    pub(crate) fn earliest(&self) -> u64 {
        self.next.min(self.overflow_next)
    }

    /// The warp in `slot` blocks on cycle `now` until `gate`. Every gate at
    /// or before `now` must have matured.
    pub(crate) fn block(&mut self, slot: u32, gate: u64, now: u64) {
        debug_assert!(gate > now, "a gate at {gate} set on cycle {now}");
        debug_assert!(self.earliest() > now, "blocking before the gates matured");
        if gate - now >= SPAN {
            self.overflow.push((gate, slot));
            self.overflow_next = self.overflow_next.min(gate);
            return;
        }
        let i = (gate % SPAN) as usize;
        self.buckets[i] |= 1 << slot;
        self.occupied[i / 64] |= 1 << (i % 64);
        self.next = self.next.min(gate);
    }

    /// Remove every gate at or before `now` and return their slots as a
    /// mask. `now` may lie any distance past the earliest gate.
    pub(crate) fn mature(&mut self, now: u64) -> u64 {
        let mut slots = 0;
        if now >= self.next {
            // The bucketed gates lie in `next .. next + SPAN`.
            let last = now.min(self.next + SPAN - 1);
            let mut c = self.next;
            while let Some(at) = self.occupied_from(c, last) {
                let i = (at % SPAN) as usize;
                slots |= std::mem::take(&mut self.buckets[i]);
                self.occupied[i / 64] &= !(1 << (i % 64));
                c = at + 1;
            }
            // What is left lies in `now + 1 .. now + SPAN`.
            self.next = self
                .occupied_from(now + 1, now + SPAN - 1)
                .unwrap_or(u64::MAX);
        }
        if now >= self.overflow_next {
            self.overflow.retain(|&(gate, slot)| {
                let matured = gate <= now;
                if matured {
                    slots |= 1 << slot;
                }
                !matured
            });
            self.overflow_next = self
                .overflow
                .iter()
                .map(|&(g, _)| g)
                .min()
                .unwrap_or(u64::MAX);
        }
        slots
    }

    /// The first cycle in `from ..= last` whose bucket is occupied, if
    /// any. The range spans fewer than `SPAN` cycles.
    fn occupied_from(&self, from: u64, last: u64) -> Option<u64> {
        let mut c = from;
        while c <= last {
            let i = (c % SPAN) as usize;
            let word = self.occupied[i / 64] >> (i % 64);
            if word != 0 {
                let at = c + u64::from(word.trailing_zeros());
                return (at <= last).then_some(at);
            }
            c += 64 - (i % 64) as u64;
        }
        None
    }

    /// Whether the wheel holds `slot`'s gate at `gate` (debug cross-checks).
    pub(crate) fn holds(&self, slot: u32, gate: u64) -> bool {
        let bucketed = (self.next..self.next.saturating_add(SPAN)).contains(&gate)
            && self.buckets[(gate % SPAN) as usize] & (1 << slot) != 0;
        bucketed || self.overflow.contains(&(gate, slot))
    }

    /// Gates held (debug cross-checks).
    pub(crate) fn len(&self) -> usize {
        let bucketed: u32 = self.buckets.iter().map(|b| b.count_ones()).sum();
        bucketed as usize + self.overflow.len()
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
        st.block(2);
        st.block(0);
        st.park(4);
        assert_eq!((st.ready, st.blocked), (0b0001, 0b1010));
        st.unblock(0);
        assert_eq!((st.ready, st.blocked), (0b1001, 0b0010));
        // Slot 4 exits and retires: the younger warp 0 moves down a place.
        st.retire(4);
        assert_eq!((st.ready, st.blocked), (0b101, 0b010));
        assert_eq!((st.bit(0), st.bit(4)), (0b100, 0));
        assert_eq!(order(&st, SchedulerPolicy::Gto, &[]), vec![6, 0]);
        st.wake(2);
        assert_eq!(st.ready, 0b111);
    }

    #[test]
    fn wheel_matures_bucketed_and_overflow_gates() {
        let mut wheel = GateWheel::new(8);
        wheel.block(2, 50, 10);
        wheel.block(0, 30, 10);
        wheel.block(5, 10 + SPAN, 10); // just past the span
        assert_eq!(wheel.earliest(), 30);
        assert_eq!(wheel.mature(29), 0);
        assert_eq!(wheel.mature(30), 1 << 0);
        assert_eq!(wheel.earliest(), 50);
        // A skip far past every gate matures them all at once.
        assert_eq!(wheel.mature(40 * SPAN), (1 << 2) | (1 << 5));
        assert_eq!((wheel.earliest(), wheel.len()), (u64::MAX, 0));
    }

    /// The wheel against a list of `(gate, slot)` pairs, the brute-force
    /// minimum over every blocked warp's gate, on random sequences of
    /// blocks and steps. Steps advance by one cycle, to the earliest gate,
    /// or well past the span, as the SM's skips do; gates fall inside the
    /// span and far past it.
    #[test]
    fn wheel_matches_a_brute_force_gate_list() {
        let mut rng = regmutex_isa::Rng::new(0x6A7E_3E31_0000_0001);
        for case in 0..300 {
            let slots = 1 + rng.below(64) as u32;
            let mut wheel = GateWheel::new(slots as usize);
            let mut list: Vec<(u64, u32)> = Vec::new();
            let mut now = rng.below(3 * SPAN);
            for _ in 0..400 {
                // Step to a later cycle, maturing what passed.
                let earliest = list.iter().map(|&(g, _)| g).min();
                assert_eq!(
                    wheel.earliest(),
                    earliest.unwrap_or(u64::MAX),
                    "case {case}"
                );
                now = match (rng.below(4), earliest) {
                    (0, Some(g)) => g.max(now + 1),
                    (1, _) => now + SPAN + rng.below(3 * SPAN),
                    _ => now + 1 + rng.below(8),
                };
                let want = list
                    .iter()
                    .filter(|&&(g, _)| g <= now)
                    .fold(0u64, |m, &(_, s)| m | 1 << s);
                list.retain(|&(g, _)| g > now);
                assert_eq!(wheel.mature(now), want, "case {case} at {now}");
                assert_eq!(wheel.len(), list.len(), "case {case}");
                // Block a few unblocked slots on this cycle.
                for _ in 0..rng.below(4) {
                    let slot = rng.below(u64::from(slots)) as u32;
                    if list.iter().any(|&(_, s)| s == slot) {
                        continue;
                    }
                    let gate = now
                        + 1
                        + match rng.below(6) {
                            0 => SPAN - 1 + rng.below(4 * SPAN),
                            1 => SPAN - 2 + rng.below(3),
                            _ => rng.below(400),
                        };
                    wheel.block(slot, gate, now);
                    list.push((gate, slot));
                }
                for &(g, s) in &list {
                    assert!(wheel.holds(s, g), "case {case}: ({g}, {s}) lost");
                }
            }
        }
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
                    1 => st.block(s),
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
