//! The three storage structures RegMutex adds to the SM (Fig 4, §III-B1):
//! the warp-status bitmask, the SRP bitmask with its Find-First-Zero port,
//! and the warp→section lookup table. Their size in bits is
//! [`crate::storage::regmutex_bits`] (384 at `Nw = 48`).

/// One bit per resident warp: set while the warp holds its extended set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpStatusBitmask {
    bits: u64,
    nw: u32,
}

impl WarpStatusBitmask {
    /// All-clear mask for `nw` warp slots (`nw ≤ 64`).
    pub fn new(nw: u32) -> Self {
        assert!(nw <= 64, "at most 64 warp slots supported");
        WarpStatusBitmask { bits: 0, nw }
    }

    /// Set warp `w`'s status bit.
    pub fn set(&mut self, w: u32) {
        debug_assert!(w < self.nw);
        self.bits |= 1 << w;
    }

    /// Clear warp `w`'s status bit.
    pub fn unset(&mut self, w: u32) {
        debug_assert!(w < self.nw);
        self.bits &= !(1 << w);
    }

    /// Is warp `w` in the acquired state?
    pub fn get(&self, w: u32) -> bool {
        debug_assert!(w < self.nw);
        self.bits & (1 << w) != 0
    }

    /// Warps currently in the acquired state.
    pub fn count(&self) -> u32 {
        self.bits.count_ones()
    }
}

/// One bit per SRP section: set while the section is acquired. Bits beyond
/// the number of real sections are pre-set at kernel placement and stay
/// intact, exactly as §III-B1 prescribes, so FFZ never returns them.
///
/// The two `stuck_*` masks model latched hardware faults: a stuck-high bit
/// always *reads* busy and a stuck-low bit always *reads* free, regardless
/// of what the write path records. Both are zero in healthy operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrpBitmask {
    bits: u64,
    nw: u32,
    stuck_set: u64,
    stuck_clear: u64,
}

impl SrpBitmask {
    /// Bitmask for `nw` potential sections of which only the first
    /// `valid_sections` exist.
    pub fn new(nw: u32, valid_sections: u32) -> Self {
        assert!(nw <= 64, "at most 64 sections supported");
        assert!(valid_sections <= nw);
        let mut bits = 0u64;
        for s in valid_sections..nw {
            bits |= 1 << s;
        }
        SrpBitmask {
            bits,
            nw,
            stuck_set: 0,
            stuck_clear: 0,
        }
    }

    /// What the read port sees: recorded state overridden by stuck bits.
    fn effective(&self) -> u64 {
        (self.bits | self.stuck_set) & !self.stuck_clear
    }

    fn is_stuck(&self, s: u32) -> bool {
        (self.stuck_set | self.stuck_clear) & (1 << s) != 0
    }

    /// Find-First-Zero: index of the least-significant clear bit, i.e. the
    /// first free section; `None` when everything is taken.
    pub fn ffz(&self) -> Option<u32> {
        let inv = !self.effective();
        if inv == 0 || inv.trailing_zeros() >= self.nw {
            None
        } else {
            Some(inv.trailing_zeros())
        }
    }

    /// Mark section `s` acquired.
    pub fn set(&mut self, s: u32) {
        debug_assert!(s < self.nw);
        debug_assert!(
            self.is_stuck(s) || self.bits & (1 << s) == 0,
            "section {s} already set"
        );
        self.bits |= 1 << s;
    }

    /// Mark section `s` free.
    pub fn unset(&mut self, s: u32) {
        debug_assert!(s < self.nw);
        debug_assert!(
            self.is_stuck(s) || self.bits & (1 << s) != 0,
            "section {s} already clear"
        );
        self.bits &= !(1 << s);
    }

    /// Fault injection: latch bit `s` high — the section reads busy forever
    /// (capacity loss).
    pub fn force_stuck_set(&mut self, s: u32) {
        debug_assert!(s < self.nw);
        self.stuck_set |= 1 << s;
    }

    /// Fault injection: latch bit `s` low — the section reads free even
    /// while owned, so FFZ will re-grant it.
    pub fn force_stuck_clear(&mut self, s: u32) {
        debug_assert!(s < self.nw);
        self.stuck_clear |= 1 << s;
    }

    /// Lowest section whose *recorded* state is acquired, among the first
    /// `valid_sections` (fault injection picks its stuck-low victim here).
    pub fn lowest_acquired(&self, valid_sections: u32) -> Option<u32> {
        let mask = if valid_sections >= 64 {
            u64::MAX
        } else {
            (1u64 << valid_sections) - 1
        };
        let owned = self.bits & mask;
        (owned != 0).then(|| owned.trailing_zeros())
    }

    /// Sections currently acquired (excluding the invalid pre-set tail), as
    /// the read port sees them.
    pub fn acquired_count(&self, valid_sections: u32) -> u32 {
        let mask = if valid_sections >= 64 {
            u64::MAX
        } else {
            (1u64 << valid_sections) - 1
        };
        (self.effective() & mask).count_ones()
    }
}

/// Per-warp section index: `Nw` entries of `⌈log₂ Nw⌉` bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionLut {
    entries: Vec<u32>,
}

impl SectionLut {
    /// LUT for `nw` warp slots.
    pub fn new(nw: u32) -> Self {
        SectionLut {
            entries: vec![0; nw as usize],
        }
    }

    /// Record that warp `w` acquired section `s`.
    pub fn set(&mut self, w: u32, s: u32) {
        self.entries[w as usize] = s;
    }

    /// The section warp `w` last acquired (only meaningful while its status
    /// bit is set).
    pub fn get(&self, w: u32) -> u32 {
        self.entries[w as usize]
    }
}

/// `⌈log₂ n⌉` (0 for n ≤ 1).
pub fn ceil_log2(n: u32) -> u32 {
    if n <= 1 {
        0
    } else {
        32 - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_set_get_unset() {
        let mut m = WarpStatusBitmask::new(48);
        assert!(!m.get(5));
        m.set(5);
        assert!(m.get(5));
        assert_eq!(m.count(), 1);
        m.unset(5);
        assert!(!m.get(5));
    }

    #[test]
    fn ffz_skips_set_bits() {
        let mut s = SrpBitmask::new(48, 48);
        assert_eq!(s.ffz(), Some(0));
        s.set(0);
        s.set(1);
        assert_eq!(s.ffz(), Some(2));
        s.unset(0);
        assert_eq!(s.ffz(), Some(0));
    }

    #[test]
    fn invalid_sections_preset_and_never_returned() {
        let mut s = SrpBitmask::new(48, 3);
        assert_eq!(s.ffz(), Some(0));
        s.set(0);
        s.set(1);
        s.set(2);
        assert_eq!(s.ffz(), None); // sections 3..48 are pre-set
        assert_eq!(s.acquired_count(3), 3);
        s.unset(1);
        assert_eq!(s.ffz(), Some(1));
    }

    #[test]
    fn ffz_none_when_full() {
        let mut s = SrpBitmask::new(4, 4);
        for i in 0..4 {
            s.set(i);
        }
        assert_eq!(s.ffz(), None);
    }

    #[test]
    fn lut_round_trip() {
        let mut l = SectionLut::new(48);
        l.set(7, 33);
        assert_eq!(l.get(7), 33);
        assert_eq!(l.get(8), 0);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(48), 6);
        assert_eq!(ceil_log2(64), 6);
        assert_eq!(ceil_log2(65), 7);
    }

    #[test]
    #[cfg(debug_assertions)] // the guard is a debug_assert
    #[should_panic(expected = "already set")]
    fn double_set_panics_in_debug() {
        let mut s = SrpBitmask::new(8, 8);
        s.set(1);
        s.set(1);
    }

    #[test]
    fn stuck_high_bit_reads_busy_forever() {
        let mut s = SrpBitmask::new(8, 8);
        s.force_stuck_set(0);
        assert_eq!(s.ffz(), Some(1)); // section 0 looks taken
        assert_eq!(s.acquired_count(8), 1);
        // Unsetting a stuck-high bit changes nothing the read port sees.
        s.unset(0);
        assert_eq!(s.ffz(), Some(1));
    }

    #[test]
    fn stuck_low_bit_is_regranted_by_ffz() {
        let mut s = SrpBitmask::new(8, 8);
        s.set(0);
        s.set(1);
        assert_eq!(s.lowest_acquired(8), Some(0));
        s.force_stuck_clear(0);
        // Section 0 is owned but reads free: FFZ re-grants it.
        assert_eq!(s.ffz(), Some(0));
        // The write path may set it again without tripping the debug guard.
        s.set(0);
        assert_eq!(s.ffz(), Some(0)); // still latched low
    }

    #[test]
    fn lowest_acquired_ignores_invalid_tail() {
        let s = SrpBitmask::new(8, 3); // sections 3..8 pre-set
        assert_eq!(s.lowest_acquired(3), None);
        let mut s = SrpBitmask::new(8, 3);
        s.set(2);
        assert_eq!(s.lowest_acquired(3), Some(2));
    }
}
