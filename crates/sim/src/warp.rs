//! Per-warp execution state.

use std::collections::HashMap;

use regmutex_isa::{mix, CtaId, Instr, WarpId};

use crate::simt::SimtStack;

/// Why a warp could not issue this cycle (stall accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallReason {
    /// Operand not ready (pending write in the scoreboard).
    Scoreboard,
    /// Waiting at a CTA barrier.
    Barrier,
    /// `acq.es` could not obtain an SRP section.
    Acquire,
    /// Memory pipe full / LSU issue bound.
    MemoryStructural,
    /// Technique-specific register allocation stall (RFV).
    RegAlloc,
}

impl StallReason {
    /// Every reason, in the canonical (serialization) order.
    pub const ALL: [StallReason; 5] = [
        StallReason::Scoreboard,
        StallReason::Barrier,
        StallReason::Acquire,
        StallReason::MemoryStructural,
        StallReason::RegAlloc,
    ];

    /// Position in [`StallReason::ALL`] (the declaration order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable wire/metrics name (lower_snake_case).
    pub fn as_str(self) -> &'static str {
        match self {
            StallReason::Scoreboard => "scoreboard",
            StallReason::Barrier => "barrier",
            StallReason::Acquire => "acquire",
            StallReason::MemoryStructural => "memory_structural",
            StallReason::RegAlloc => "reg_alloc",
        }
    }
}

impl core::fmt::Display for StallReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl core::str::FromStr for StallReason {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        StallReason::ALL
            .into_iter()
            .find(|r| r.as_str() == s)
            .ok_or(())
    }
}

/// Execution state of one resident warp.
#[derive(Debug, Clone)]
pub struct WarpState {
    /// Warp slot within the SM.
    pub slot: WarpId,
    /// Owning CTA (global id).
    pub cta: CtaId,
    /// Warp index within the CTA (stable across techniques; used for
    /// behavioral-branch keys so control flow is technique-independent).
    pub warp_in_cta: u32,
    /// Behavioral key: `mix(kernel_seed, cta*K + warp_in_cta)`.
    pub warp_key: u64,
    /// Program counter (index into the kernel's instruction vector).
    pub pc: u32,
    /// Active lane mask.
    pub active_mask: u64,
    /// SIMT reconvergence stack.
    pub simt: SimtStack,
    /// Architected register values (warp-granular functional layer).
    pub regs: Vec<u64>,
    /// Scoreboard: registers with writes in flight, and their ready cycles.
    pub pending: Vec<(u16, u64)>,
    /// Cached minimum ready cycle over `pending` (`u64::MAX` when empty), so
    /// the per-cycle scoreboard drain is a single comparison until the next
    /// writeback actually matures.
    pending_min: u64,
    /// Cached scoreboard verdict: the instruction at `pc` is blocked on a
    /// pending write until this cycle. Set by the issue stage when it finds
    /// the block; any cycle before it would find the same block, since the
    /// pending set only grows when this warp issues.
    pub(crate) scoreboard_until: u64,
    /// Remaining-iteration counters per loop-branch ordinal.
    pub loop_counters: HashMap<u32, u32>,
    /// Dynamic occurrence counters per branch ordinal (seeds `If` choices).
    pub occurrences: HashMap<u32, u32>,
    /// Warp-local store checksum.
    pub checksum: u64,
    /// Warp has executed `exit`.
    pub done: bool,
    /// Warp is parked at a barrier.
    pub at_barrier: bool,
    /// Dynamic instructions issued by this warp.
    pub issued: u64,
}

impl WarpState {
    /// Fresh warp state at PC 0 with `regs` architected registers whose
    /// initial values are a deterministic function of the warp key (standing
    /// in for thread-id/special-register reads at kernel entry).
    pub fn new(
        slot: WarpId,
        cta: CtaId,
        warp_in_cta: u32,
        kernel_seed: u64,
        regs: u16,
        full_mask: u64,
    ) -> Self {
        let warp_key = mix(
            kernel_seed,
            u64::from(cta.0) * 4096 + u64::from(warp_in_cta),
        );
        let reg_values = (0..regs).map(|i| mix(warp_key, u64::from(i))).collect();
        WarpState {
            slot,
            cta,
            warp_in_cta,
            warp_key,
            pc: 0,
            active_mask: full_mask,
            simt: SimtStack::new(),
            regs: reg_values,
            pending: Vec::new(),
            pending_min: u64::MAX,
            scoreboard_until: 0,
            loop_counters: HashMap::new(),
            occurrences: HashMap::new(),
            checksum: 0,
            done: false,
            at_barrier: false,
            issued: 0,
        }
    }

    /// Remove scoreboard entries whose writes completed by `now`. The cached
    /// minimum makes this a no-op comparison until the earliest in-flight
    /// write actually matures.
    pub fn drain_scoreboard(&mut self, now: u64) {
        if now < self.pending_min {
            return;
        }
        self.pending.retain(|&(_, ready)| ready > now);
        self.pending_min = self
            .pending
            .iter()
            .map(|&(_, ready)| ready)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// True if `reg` has a pending write (RAW/WAW hazard).
    pub fn reg_pending(&self, reg: u16) -> bool {
        self.pending.iter().any(|&(r, _)| r == reg)
    }

    /// Earliest cycle at which every write `instr` reads or overwrites
    /// (RAW/WAW) has landed, when one is still in flight at `now`.
    pub(crate) fn scoreboard_block(&self, instr: &Instr, now: u64) -> Option<u64> {
        self.pending
            .iter()
            .filter(|&&(r, ready)| {
                ready > now
                    && (instr.srcs.iter().any(|s| s.0 == r) || instr.dst.is_some_and(|d| d.0 == r))
            })
            .map(|&(_, ready)| ready)
            .min()
    }

    /// Record a pending write to `reg` completing at `ready`.
    pub fn set_pending(&mut self, reg: u16, ready: u64) {
        self.pending.push((reg, ready));
        self.pending_min = self.pending_min.min(ready);
    }

    /// Candidate for issue? (resident, not finished, not parked)
    pub fn issuable(&self) -> bool {
        !self.done && !self.at_barrier
    }

    /// Read a register value.
    ///
    /// # Panics
    ///
    /// Panics if the index exceeds the architected register count — that
    /// would be a kernel or compiler bug.
    pub fn read(&self, reg: u16) -> u64 {
        self.regs[reg as usize]
    }

    /// Write a register value.
    pub fn write(&mut self, reg: u16, value: u64) {
        self.regs[reg as usize] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warp() -> WarpState {
        WarpState::new(WarpId(3), CtaId(1), 2, 42, 8, 0xFFFF_FFFF)
    }

    #[test]
    fn initial_state() {
        let w = warp();
        assert_eq!(w.pc, 0);
        assert!(w.issuable());
        assert!(!w.done);
        assert_eq!(w.regs.len(), 8);
        assert_eq!(w.active_mask, 0xFFFF_FFFF);
    }

    #[test]
    fn initial_values_depend_on_cta_not_slot() {
        let a = WarpState::new(WarpId(0), CtaId(1), 2, 42, 8, u64::MAX);
        let b = WarpState::new(WarpId(5), CtaId(1), 2, 42, 8, u64::MAX);
        assert_eq!(a.regs, b.regs);
        let c = WarpState::new(WarpId(0), CtaId(2), 2, 42, 8, u64::MAX);
        assert_ne!(a.regs, c.regs);
    }

    #[test]
    fn scoreboard_tracks_and_drains() {
        let mut w = warp();
        w.set_pending(3, 100);
        assert!(w.reg_pending(3));
        assert!(!w.reg_pending(4));
        w.drain_scoreboard(99);
        assert!(w.reg_pending(3));
        w.drain_scoreboard(100);
        assert!(!w.reg_pending(3));
    }

    #[test]
    fn scoreboard_min_cache_tracks_multiple_entries() {
        let mut w = warp();
        w.set_pending(1, 50);
        w.set_pending(2, 30);
        w.set_pending(3, 70);
        // Draining below the minimum must not remove anything.
        w.drain_scoreboard(29);
        assert_eq!(w.pending.len(), 3);
        // Draining the minimum removes exactly it and re-arms the cache.
        w.drain_scoreboard(30);
        assert!(!w.reg_pending(2));
        assert!(w.reg_pending(1) && w.reg_pending(3));
        w.drain_scoreboard(49);
        assert!(w.reg_pending(1));
        w.drain_scoreboard(70);
        assert!(w.pending.is_empty());
    }

    #[test]
    fn issuable_transitions() {
        let mut w = warp();
        w.at_barrier = true;
        assert!(!w.issuable());
        w.at_barrier = false;
        w.done = true;
        assert!(!w.issuable());
    }

    #[test]
    fn read_write_round_trip() {
        let mut w = warp();
        w.write(2, 555);
        assert_eq!(w.read(2), 555);
    }
}
