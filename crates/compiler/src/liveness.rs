//! Register liveness analysis (§III-A1).
//!
//! Static liveness over the CFG with the paper's conservative divergence
//! treatment. A register defined before a branch and used inside any branched
//! block is live along *all* branched blocks, and a register defined inside a
//! branch and used at the post-dominator is live in the sibling branches —
//! both fall out naturally from the backward may-dataflow over the CFG
//! because liveness propagates up every predecessor edge.

use regmutex_isa::Kernel;

use crate::bitset::BitSet;
use crate::cfg::Cfg;

/// Per-instruction liveness facts.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Registers live immediately *before* each instruction.
    pub live_in: Vec<BitSet>,
    /// Registers live immediately *after* each instruction.
    pub live_out: Vec<BitSet>,
    /// Architected register capacity used by the sets.
    pub num_regs: usize,
}

impl Liveness {
    /// Live-register count entering instruction `pc`.
    pub fn count_in(&self, pc: usize) -> usize {
        self.live_in[pc].len()
    }

    /// Live-register count leaving instruction `pc`.
    pub fn count_out(&self, pc: usize) -> usize {
        self.live_out[pc].len()
    }

    /// Mean live-in count over the static instructions (0 for an empty
    /// kernel): the average register demand RFV admits CTAs by.
    pub fn mean_live(&self) -> f64 {
        if self.live_in.is_empty() {
            return 0.0;
        }
        let total: usize = (0..self.live_in.len()).map(|pc| self.count_in(pc)).sum();
        total as f64 / self.live_in.len() as f64
    }

    /// The maximum simultaneous register demand anywhere (the kernel's true
    /// register pressure). At an instruction, sources and destination are
    /// needed at once, so the pressure there is `|live_in ∪ live_out|`.
    pub fn max_pressure(&self) -> usize {
        (0..self.live_in.len())
            .map(|i| {
                let mut u = self.live_in[i].clone();
                u.union_with(&self.live_out[i]);
                u.len()
            })
            .max()
            .unwrap_or(0)
    }

    /// Registers whose live range ends at `pc` (live-in or accessed, but not
    /// live-out): the "dead after this instruction" annotation RFV consumes.
    pub fn dead_after(&self, kernel: &Kernel, pc: usize) -> Vec<u16> {
        let instr = &kernel.instrs[pc];
        let out = &self.live_out[pc];
        let mut dead: Vec<u16> = Vec::new();
        for r in self.live_in[pc].iter() {
            if !out.contains(r) {
                dead.push(r as u16);
            }
        }
        // A def that is immediately dead (never used) also frees its row.
        if let Some(d) = instr.dst {
            if !out.contains(d.index()) && !dead.contains(&d.0) {
                dead.push(d.0);
            }
        }
        dead.sort_unstable();
        dead
    }
}

/// Compute instruction-granular liveness for `kernel`.
pub fn analyze(kernel: &Kernel) -> Liveness {
    analyze_with_cfg(kernel, &Cfg::build(kernel))
}

/// Same as [`analyze`] but reusing an already-built CFG.
pub fn analyze_with_cfg(kernel: &Kernel, cfg: &Cfg) -> Liveness {
    let nregs = kernel.regs_per_thread.max(kernel.max_reg_used()) as usize;
    let n = kernel.instrs.len();

    // Block-level use/def.
    let nb = cfg.len();
    let mut uses = vec![BitSet::new(nregs); nb];
    let mut defs = vec![BitSet::new(nregs); nb];
    for (b, blk) in cfg.blocks.iter().enumerate() {
        for pc in blk.pcs() {
            let i = &kernel.instrs[pc as usize];
            for s in &i.srcs {
                if !defs[b].contains(s.index()) {
                    uses[b].insert(s.index());
                }
            }
            if let Some(d) = i.dst {
                defs[b].insert(d.index());
            }
        }
    }

    // Backward fixpoint at block granularity.
    let mut bin = vec![BitSet::new(nregs); nb];
    let mut bout = vec![BitSet::new(nregs); nb];
    let order: Vec<usize> = cfg.reverse_post_order().into_iter().rev().collect();
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            let mut out = BitSet::new(nregs);
            for &s in &cfg.blocks[b].succs {
                out.union_with(&bin[s]);
            }
            let mut inn = out.clone();
            inn.subtract(&defs[b]);
            inn.union_with(&uses[b]);
            if inn != bin[b] {
                bin[b] = inn;
                changed = true;
            }
            bout[b] = out;
        }
    }

    // Per-instruction backward walk within blocks.
    let mut live_in = vec![BitSet::new(nregs); n];
    let mut live_out = vec![BitSet::new(nregs); n];
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let mut live = bout[b].clone();
        for pc in blk.pcs().rev() {
            live_out[pc as usize] = live.clone();
            let i = &kernel.instrs[pc as usize];
            if let Some(d) = i.dst {
                live.remove(d.index());
            }
            for s in &i.srcs {
                live.insert(s.index());
            }
            live_in[pc as usize] = live.clone();
        }
        debug_assert_eq!(live, bin[b], "block {b} in-set mismatch");
    }

    Liveness {
        live_in,
        live_out,
        num_regs: nregs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmutex_isa::{ArchReg, KernelBuilder, TripCount};

    fn r(i: u16) -> ArchReg {
        ArchReg(i)
    }

    #[test]
    fn straight_line_ranges() {
        // 0: movi r0
        // 1: movi r1
        // 2: iadd r2, r0, r1
        // 3: st r0, r2
        // 4: exit
        let mut b = KernelBuilder::new("k");
        b.movi(r(0), 1).movi(r(1), 2).iadd(r(2), r(0), r(1));
        b.st_global(r(0), r(2)).exit();
        let k = b.build().unwrap();
        let lv = analyze(&k);
        assert!(lv.live_in[0].is_empty());
        assert!(lv.live_out[0].contains(0));
        assert!(!lv.live_out[0].contains(1));
        // r1 dies at the add; r0 and r2 live to the store.
        assert_eq!(lv.dead_after(&k, 2), vec![1]);
        assert_eq!(lv.dead_after(&k, 3), vec![0, 2]);
        assert_eq!(lv.count_in(3), 2);
        assert!(lv.live_out[4].is_empty());
        assert_eq!(lv.max_pressure(), 3);
    }

    #[test]
    fn unused_def_is_dead_immediately() {
        let mut b = KernelBuilder::new("k");
        b.movi(r(0), 1).exit();
        let k = b.build().unwrap();
        let lv = analyze(&k);
        assert!(lv.live_out[0].is_empty());
        assert_eq!(lv.dead_after(&k, 0), vec![0]);
    }

    #[test]
    fn loop_keeps_carried_register_live() {
        // r0 is loop-carried: live across the back edge.
        let mut b = KernelBuilder::new("k");
        b.movi(r(0), 1);
        let top = b.here();
        b.iadd(r(0), r(0), r(0)); // pc 1
        b.bra_loop(top, TripCount::Fixed(3)); // pc 2
        b.st_global(r(0), r(0)); // pc 3
        b.exit();
        let k = b.build().unwrap();
        let lv = analyze(&k);
        // r0 live at loop bottom (back edge needs it) and after the loop.
        assert!(lv.live_out[2].contains(0));
        assert!(lv.live_in[1].contains(0));
        assert!(lv.live_in[3].contains(0));
    }

    #[test]
    fn branch_conservatism_matches_paper_fig3() {
        // Mirror of the paper's Fig 3 observations:
        //  - R3 defined before the branch, used only in the fall-through arm
        //    (s2): must be live at the branch and along the taken edge's
        //    block entry is NOT needed (it is not used later) — but it IS
        //    live throughout s1 (between def and branch).
        //  - R2 defined inside the arm, used at the post-dominator: must be
        //    considered live in the sibling path too.
        let mut b = KernelBuilder::new("fig3");
        b.movi(r(2), 9); // pc0: def R2 before branch (paper: defined within a branch; here the sibling-path liveness shows at the join)
        b.movi(r(3), 7); // pc1: def R3
        let skip = b.new_label();
        b.bra_if(skip, 500, None); // pc2
        b.iadd(r(4), r(3), r(3)); // pc3: use R3 only in arm, def R4 (dead)
        b.movi(r(2), 1); // pc4: redefine R2 in arm
        b.place(skip);
        b.st_global(r(2), r(2)); // pc5: use R2 at post-dominator
        b.exit(); // pc6
        let k = b.build().unwrap();
        let lv = analyze(&k);
        // R3 live at the branch (used in one arm -> conservative).
        assert!(lv.live_in[2].contains(3));
        // R2 (defined at pc0) live across the branch because the skip path
        // reaches the join without the pc4 redefinition.
        assert!(lv.live_in[2].contains(2));
        assert!(lv.live_out[2].contains(2));
        // R3 dead after its use in the arm.
        assert!(!lv.live_out[3].contains(3));
    }

    #[test]
    fn max_pressure_counts_peak() {
        let mut b = KernelBuilder::new("k");
        // Build 5 values then consume them all at once.
        for i in 0..5 {
            b.movi(r(i), u64::from(i));
        }
        b.imad(r(5), r(0), r(1), r(2));
        b.imad(r(6), r(3), r(4), r(5));
        b.st_global(r(6), r(6));
        b.exit();
        let k = b.build().unwrap();
        let lv = analyze(&k);
        // r0..r4 live into the first imad, whose destination r5 coexists
        // with all five sources: pressure 6.
        assert_eq!(lv.max_pressure(), 6);
    }

    #[test]
    fn predicate_reads_keep_register_live() {
        let mut b = KernelBuilder::new("k");
        b.movi(r(0), 1);
        b.setp(r(1), r(0), r(0));
        let skip = b.new_label();
        b.bra_if(skip, 300, Some(r(1)));
        b.iadd(r(2), r(0), r(0));
        b.place(skip);
        b.exit();
        let k = b.build().unwrap();
        let lv = analyze(&k);
        assert!(lv.live_in[2].contains(1)); // predicate live at the branch
        assert!(!lv.live_out[2].contains(1)); // and dead after it
    }
}
