//! A hashed timer wheel for connection deadlines.
//!
//! The blocking server leaned on `SO_RCVTIMEO`, which restarts on every
//! byte — a slow-drip client could hold a thread forever by sending one
//! header byte per second. The event loop instead arms one *absolute*
//! deadline per connection on this wheel: 256 slots of coarse
//! (default 50 ms) ticks, each holding `(conn, generation, tick)`
//! entries.
//!
//! Cancellation is lazy: the loop never removes entries. An entry fires
//! only if the connection still exists, its generation matches (the slab
//! slot was not reused), and its tick equals the connection's *current*
//! armed deadline — re-arming simply abandons the old entry. Entries
//! hashed into a slot but belonging to a future lap are re-inserted on
//! the next lap.

use std::time::Duration;

const WHEEL_SLOTS: usize = 256;

/// An armed deadline: slab index, slab generation, absolute tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerEntry {
    /// Slab index of the connection.
    pub conn: usize,
    /// Slab generation at arm time (stale entries are skipped).
    pub generation: u64,
    /// Absolute tick the deadline expires at.
    pub tick: u64,
}

/// The wheel itself. Single-owner (the event loop thread).
pub struct TimerWheel {
    slots: Vec<Vec<TimerEntry>>,
    granularity: Duration,
    /// First tick not yet processed by [`TimerWheel::advance`].
    cursor: u64,
    /// Number of live (possibly stale) entries, to let the loop pick a
    /// cheap epoll timeout when nothing is armed.
    len: usize,
}

impl TimerWheel {
    /// A wheel with the given tick granularity.
    pub fn new(granularity: Duration) -> Self {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            granularity,
            cursor: 0,
            len: 0,
        }
    }

    /// Tick granularity.
    pub fn granularity(&self) -> Duration {
        self.granularity
    }

    /// Convert an elapsed duration (since loop start) to an absolute tick,
    /// rounding up so a deadline never fires early.
    pub fn tick_after(&self, elapsed: Duration, timeout: Duration) -> u64 {
        let g = self.granularity.as_nanos().max(1);
        let end = elapsed.as_nanos() + timeout.as_nanos();
        (end.div_ceil(g)) as u64
    }

    /// Current tick for an elapsed duration (rounding down).
    pub fn now_tick(&self, elapsed: Duration) -> u64 {
        let g = self.granularity.as_nanos().max(1);
        (elapsed.as_nanos() / g) as u64
    }

    /// Arm an entry. Ticks in the past fire on the next [`Self::advance`].
    pub fn schedule(&mut self, entry: TimerEntry) {
        let tick = entry.tick.max(self.cursor);
        let slot = (tick as usize) % WHEEL_SLOTS;
        self.slots[slot].push(TimerEntry { tick, ..entry });
        self.len += 1;
    }

    /// Whether any entries (live or stale) are armed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Collect every entry with `tick <= now_tick`. Entries in visited
    /// slots that belong to later laps are retained.
    pub fn advance(&mut self, now_tick: u64) -> Vec<TimerEntry> {
        let mut fired = Vec::new();
        if now_tick < self.cursor {
            return fired;
        }
        // Visit at most one full lap; slots repeat after that.
        let first = self.cursor;
        let last = now_tick.min(first + WHEEL_SLOTS as u64 - 1);
        for tick in first..=last {
            let slot = (tick as usize) % WHEEL_SLOTS;
            let entries = std::mem::take(&mut self.slots[slot]);
            for e in entries {
                if e.tick <= now_tick {
                    self.len -= 1;
                    fired.push(e);
                } else {
                    self.slots[slot].push(e);
                }
            }
        }
        self.cursor = now_tick + 1;
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wheel() -> TimerWheel {
        TimerWheel::new(Duration::from_millis(50))
    }

    fn entry(conn: usize, tick: u64) -> TimerEntry {
        TimerEntry {
            conn,
            generation: 1,
            tick,
        }
    }

    #[test]
    fn fires_at_and_after_deadline_only() {
        let mut w = wheel();
        w.schedule(entry(1, 3));
        w.schedule(entry(2, 5));
        assert!(w.advance(2).is_empty());
        let fired = w.advance(3);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].conn, 1);
        let fired = w.advance(10);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].conn, 2);
        assert!(w.is_empty());
    }

    #[test]
    fn far_future_entries_survive_slot_collisions() {
        let mut w = wheel();
        // Same slot (tick % 256), different laps.
        w.schedule(entry(1, 10));
        w.schedule(entry(2, 10 + WHEEL_SLOTS as u64));
        let fired = w.advance(20);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].conn, 1);
        let fired = w.advance(10 + WHEEL_SLOTS as u64);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].conn, 2);
    }

    #[test]
    fn past_ticks_fire_immediately_on_next_advance() {
        let mut w = wheel();
        assert!(w.advance(100).is_empty());
        w.schedule(entry(1, 4)); // already in the past
        let fired = w.advance(101);
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn jump_beyond_one_lap_still_fires_everything() {
        let mut w = wheel();
        w.schedule(entry(1, 1));
        w.schedule(entry(2, WHEEL_SLOTS as u64 * 3));
        let fired = w.advance(WHEEL_SLOTS as u64 * 4);
        // One advance covers a single lap; the retained far entry fires
        // on the following advance.
        let total = fired.len() + w.advance(WHEEL_SLOTS as u64 * 4).len();
        assert_eq!(total, 2);
        assert!(w.is_empty());
    }

    #[test]
    fn tick_conversion_rounds_up() {
        let w = wheel();
        assert_eq!(
            w.tick_after(Duration::from_millis(0), Duration::from_millis(1)),
            1
        );
        assert_eq!(
            w.tick_after(Duration::from_millis(49), Duration::from_millis(51)),
            2
        );
        assert_eq!(w.now_tick(Duration::from_millis(49)), 0);
        assert_eq!(w.now_tick(Duration::from_millis(50)), 1);
    }
}
