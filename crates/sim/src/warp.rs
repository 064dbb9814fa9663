//! Per-warp execution state.

use regmutex_isa::{decide, mix, BranchBehavior, CtaId, LatencyClass, Op, WarpId};

use crate::simt::{full_mask, SimtStack};
use crate::sm::KernelImage;
use crate::value;

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
    /// Scoreboard: per architected register, the cycle at which its last
    /// write lands; a write is in flight while that cycle lies ahead. One
    /// spare entry past the last register never receives a write: it pads
    /// [`KernelImage`]'s decoded operand lists.
    ready_at: Vec<u64>,
    /// `mix(warp_key, lane)` per lane, the keys of divergent-branch
    /// decisions; empty unless the kernel has a `Divergent` branch.
    pub(crate) lane_keys: Vec<u64>,
    /// Remaining-iteration counter per branch ordinal; `None` until the
    /// loop branch is first reached and again once the loop exits.
    pub loop_counters: Vec<Option<u32>>,
    /// Dynamic occurrence counter per branch ordinal (seeds `If` choices).
    pub occurrences: Vec<u32>,
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
    /// Fresh warp state at PC 0 for `image`'s kernel on a `warp_size`-lane
    /// SM. The architected registers' initial values are a deterministic
    /// function of the warp key (standing in for thread-id/special-register
    /// reads at kernel entry); the branch counters, the scoreboard and the
    /// lane keys are sized from the kernel.
    pub fn new(
        slot: WarpId,
        cta: CtaId,
        warp_in_cta: u32,
        image: &KernelImage,
        warp_size: u32,
    ) -> Self {
        let regs = usize::from(image.kernel.regs_per_thread);
        let lanes = if image.divergent { warp_size } else { 0 };
        let mut w = WarpState {
            slot,
            cta,
            warp_in_cta,
            warp_key: 0,
            pc: 0,
            active_mask: full_mask(warp_size),
            simt: SimtStack::new(),
            regs: vec![0; regs],
            ready_at: vec![0; regs + 1],
            lane_keys: vec![0; lanes as usize],
            loop_counters: vec![None; image.branches],
            occurrences: vec![0; image.branches],
            checksum: 0,
            done: false,
            at_barrier: false,
            issued: 0,
        };
        w.relaunch(cta, warp_in_cta, image.kernel.seed);
        w
    }

    /// Restart this warp at PC 0 as warp `warp_in_cta` of `cta` under
    /// kernel seed `seed`, reusing its tables: the registers, lane keys,
    /// branch counters, scoreboard and checksum start over, and nothing is
    /// allocated. The SIMT state is kept, so the warp must be converged, as
    /// a new warp and one that reached `exit` are.
    pub(crate) fn relaunch(&mut self, cta: CtaId, warp_in_cta: u32, seed: u64) {
        debug_assert!(self.simt.is_converged(), "relaunch inside divergence");
        let warp_key = mix(seed, u64::from(cta.0) * 4096 + u64::from(warp_in_cta));
        self.cta = cta;
        self.warp_in_cta = warp_in_cta;
        self.warp_key = warp_key;
        self.pc = 0;
        for (i, r) in self.regs.iter_mut().enumerate() {
            *r = mix(warp_key, i as u64);
        }
        for (lane, k) in self.lane_keys.iter_mut().enumerate() {
            *k = mix(warp_key, lane as u64);
        }
        self.ready_at.fill(0);
        self.loop_counters.fill(None);
        self.occurrences.fill(0);
        self.checksum = 0;
        self.done = false;
        self.at_barrier = false;
        self.issued = 0;
    }

    /// Carry out the instruction at this warp's PC in the value layer and
    /// move the PC on: ALU and SFU results, load values, store folds (a
    /// shared-memory address is salted by the warp's CTA), and the
    /// decisions of `Loop` and `If` branches. Barriers, acquires and
    /// releases only move the PC. At `exit` the PC stays and the warp's
    /// checksum, as its SM folds it in, is returned; every other
    /// instruction returns `None`.
    ///
    /// This is the value layer's one copy: the issue stage calls it for
    /// each instruction it issues, and a whole-device run replays warps
    /// through it alone (DESIGN.md §7).
    ///
    /// # Panics
    ///
    /// On a `Divergent` branch: the issue stage splits its lanes itself.
    pub(crate) fn execute(&mut self, image: &KernelImage) -> Option<u64> {
        let pc = self.pc as usize;
        let instr = &image.kernel.instrs[pc];
        let d = &image.decoded[pc];
        let srcs = usize::from(d.srcs);
        let dst = d.has_dst.then_some(d.operands[srcs]);
        match instr.op {
            Op::Exit => return Some(self.checksum),
            Op::Bar | Op::AcqEs | Op::RelEs => {}
            Op::Bra { target, behavior } => {
                let ord = d.ordinal;
                debug_assert_ne!(ord, u32::MAX, "no ordinal at branch pc {pc}");
                let taken = match behavior {
                    BranchBehavior::Loop { trips } => {
                        let (key, seed) = (self.warp_key, image.kernel.seed);
                        let counter = &mut self.loop_counters[ord as usize];
                        let remaining = counter.get_or_insert_with(|| {
                            trips.resolve(key, mix(seed, u64::from(ord))).max(1) - 1
                        });
                        if *remaining > 0 {
                            *remaining -= 1;
                            true
                        } else {
                            *counter = None;
                            false
                        }
                    }
                    BranchBehavior::If { taken_permille } => {
                        let occ = &mut self.occurrences[ord as usize];
                        *occ += 1;
                        decide(
                            taken_permille,
                            self.warp_key ^ mix(u64::from(ord), 0xB4A),
                            u64::from(*occ),
                        )
                    }
                    BranchBehavior::Divergent { .. } => {
                        unreachable!("pc {pc}: the issue stage splits divergent branches")
                    }
                };
                self.pc = if taken { target } else { self.pc + 1 };
                return None;
            }
            _ => match instr.op.latency_class() {
                class @ (LatencyClass::GlobalMem | LatencyClass::SharedMem) => {
                    let mut addr = self.read(d.operands[0]);
                    if class == LatencyClass::SharedMem {
                        addr ^= mix(u64::from(self.cta.0), 0x5A4E_D000);
                    }
                    match dst {
                        Some(dst) => self.write(dst, value::load_value(addr)),
                        None => {
                            let v = self.read(d.operands[1]);
                            self.checksum = value::fold_store(self.checksum, addr, v);
                        }
                    }
                }
                _ => {
                    // Fixed-size operand buffer (instructions carry at most
                    // 3 sources): no per-issue allocation.
                    let mut vals = [0u64; 3];
                    for (v, &r) in vals.iter_mut().zip(&d.operands[..srcs]) {
                        *v = self.read(r);
                    }
                    let v = value::eval(instr, &vals[..srcs]);
                    if let Some(dst) = dst {
                        self.write(dst, v);
                    }
                }
            },
        }
        self.pc += 1;
        None
    }

    /// The earliest cycle at which one of the writes in flight at `now` to
    /// the registers `operands` reads or overwrites (RAW/WAW) lands, if
    /// there is one. That is when this warp's next try can first get past
    /// its scoreboard, though a later write to another operand may block it
    /// again.
    pub(crate) fn scoreboard_block(&self, operands: &[u16; 4], now: u64) -> Option<u64> {
        let mut earliest = u64::MAX;
        for &r in operands {
            let ready = self.ready_at[usize::from(r)];
            if ready > now {
                earliest = earliest.min(ready);
            }
        }
        (earliest != u64::MAX).then_some(earliest)
    }

    /// Record a write to `reg`, issued at `now`, that lands at `ready`. The
    /// scoreboard blocks an instruction whose destination has a write in
    /// flight (WAW), so each register has at most one.
    pub(crate) fn set_pending(&mut self, reg: u16, ready: u64, now: u64) {
        let slot = &mut self.ready_at[usize::from(reg)];
        debug_assert!(*slot <= now, "a second write to r{reg} in flight");
        *slot = ready;
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
    use regmutex_isa::{ArchReg, KernelBuilder, Rng};

    /// An image of a kernel with `regs` registers and kernel seed 42.
    fn image(regs: u16) -> KernelImage {
        let mut b = KernelBuilder::new("w");
        b.seed(42).declared_regs(regs);
        b.movi(ArchReg(0), 1).exit();
        KernelImage::new(b.build().expect("kernel builds"))
    }

    fn warp() -> WarpState {
        WarpState::new(WarpId(3), CtaId(1), 2, &image(8), 32)
    }

    #[test]
    fn initial_state() {
        let w = warp();
        assert_eq!(w.pc, 0);
        assert!(w.issuable());
        assert!(!w.done);
        assert_eq!(w.regs.len(), 8);
        assert_eq!(w.active_mask, 0xFFFF_FFFF);
        assert!(w.lane_keys.is_empty(), "no divergent branch, no lane keys");
    }

    #[test]
    fn initial_values_depend_on_cta_not_slot() {
        let img = image(8);
        let a = WarpState::new(WarpId(0), CtaId(1), 2, &img, 64);
        let b = WarpState::new(WarpId(5), CtaId(1), 2, &img, 64);
        assert_eq!(a.regs, b.regs);
        let c = WarpState::new(WarpId(0), CtaId(2), 2, &img, 64);
        assert_ne!(a.regs, c.regs);
    }

    #[test]
    fn lane_keys_exist_only_for_divergent_kernels() {
        let mut b = KernelBuilder::new("div");
        let skip = b.new_label();
        b.movi(ArchReg(0), 1).bra_div(skip, 500, None);
        b.movi(ArchReg(1), 2).place(skip).exit();
        let img = KernelImage::new(b.build().expect("kernel builds"));
        let w = WarpState::new(WarpId(0), CtaId(0), 1, &img, 32);
        let want: Vec<u64> = (0..32).map(|lane| mix(w.warp_key, lane)).collect();
        assert_eq!(w.lane_keys, want);
    }

    /// The per-register scoreboard against a list of `(reg, ready)` writes
    /// in flight, on random write and query sequences: every query of the
    /// earliest blocking write must agree, and a write is only issued to a
    /// register with none in flight, as the SM's WAW check guarantees.
    #[test]
    fn scoreboard_matches_a_pending_list() {
        let mut rng = Rng::new(0x5C0E_B0A2_D000_0001);
        for case in 0..300 {
            let regs = 1 + rng.below(12) as u16;
            let img = image(regs);
            let mut w = WarpState::new(WarpId(0), CtaId(0), 0, &img, 32);
            let mut list: Vec<(u16, u64)> = Vec::new();
            let mut now = rng.below(50);
            for _ in 0..200 {
                now += rng.below(4);
                list.retain(|&(_, ready)| ready > now);
                // Up to three sources and a destination, padded with the
                // spare entry as `KernelImage` decodes them.
                let mut ops = [regs; 4];
                for op in ops.iter_mut().take(rng.below(5) as usize) {
                    *op = rng.below(u64::from(regs)) as u16;
                }
                let want = list
                    .iter()
                    .filter(|&&(r, _)| ops.contains(&r))
                    .map(|&(_, ready)| ready)
                    .min();
                assert_eq!(w.scoreboard_block(&ops, now), want, "case {case} at {now}");
                let reg = rng.below(u64::from(regs)) as u16;
                if rng.below(2) == 0 && list.iter().all(|&(r, _)| r != reg) {
                    let ready = now + 1 + rng.below(40);
                    w.set_pending(reg, ready, now);
                    list.push((reg, ready));
                }
            }
        }
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
