//! Functional value layer.
//!
//! The simulator executes kernels *functionally* as well as temporally: every
//! instruction computes a deterministic 64-bit value from its source values,
//! and every global store folds `(address, value)` into a warp-local
//! checksum. Two programs that are supposed to be semantically equivalent
//! (e.g. a kernel before and after the RegMutex compaction/renaming pass)
//! must produce identical kernel checksums — this is the workhorse oracle for
//! compiler-correctness tests.
//!
//! Values are warp-granular (one value per architected register per warp),
//! which is exactly the granularity at which register allocation happens in
//! this model.

use regmutex_isa::{mix, Instr, Op};

/// Evaluate an instruction's result value from its source values.
///
/// Opcode identity is folded in so that different operations produce
/// different results, but the function is intentionally *not* real
/// arithmetic: it is a 64-bit fingerprint of the dataflow, not a
/// collision-resistant one. `Mov` and `MovImm` are exact (identity /
/// constant) because the compaction pass relies on moves preserving values.
pub fn eval(instr: &Instr, srcs: &[u64]) -> u64 {
    match instr.op {
        Op::Mov => srcs[0],
        Op::MovImm(v) => v,
        Op::Sel => {
            // Selection keyed on the third operand's parity: keeps Sel
            // genuinely dependent on all inputs while staying simple.
            if srcs.len() == 3 && srcs[2] & 1 == 1 {
                srcs[0]
            } else {
                srcs.first().copied().unwrap_or(0)
            }
        }
        _ => {
            let tag = op_tag(&instr.op);
            let mut acc = mix(tag, 0xC0FF_EE00_D15E_A5E5);
            for (i, &s) in srcs.iter().enumerate() {
                acc = mix(acc, s.wrapping_add(i as u64));
            }
            acc
        }
    }
}

/// A stable numeric tag per opcode for value fingerprinting.
fn op_tag(op: &Op) -> u64 {
    match op {
        Op::IAdd => 1,
        Op::ISub => 2,
        Op::IMul => 3,
        Op::IMad => 4,
        Op::And => 5,
        Op::Or => 6,
        Op::Xor => 7,
        Op::Shl => 8,
        Op::Shr => 9,
        Op::IMin => 10,
        Op::IMax => 11,
        Op::SetP => 12,
        Op::Sel => 13,
        Op::FAdd => 14,
        Op::FMul => 15,
        Op::FFma => 16,
        Op::FRcp => 17,
        Op::FSqrt => 18,
        Op::FExp => 19,
        Op::Mov => 20,
        Op::MovImm(v) => mix(21, *v),
        Op::Ld(_) => 22,
        Op::St(_) => 23,
        Op::Bra { .. } | Op::Bar | Op::AcqEs | Op::RelEs | Op::Exit => 24,
    }
}

/// Value returned by a load: a fingerprint of the address (global memory is
/// modelled as a pure function of address, which keeps runs order-independent
/// and techniques comparable).
pub fn load_value(addr: u64) -> u64 {
    mix(addr, 0x10AD_10AD_10AD_10AD)
}

/// Fold a store into a warp checksum.
pub fn fold_store(checksum: u64, addr: u64, value: u64) -> u64 {
    // XOR of per-store fingerprints: order-independent, so identical sets of
    // stores (regardless of interleaving) give identical checksums.
    checksum ^ mix(addr, value)
}

/// Combine warp checksums into a kernel checksum (order-independent). An
/// even number of identical warp checksums cancels out: the warp's
/// identity is not folded in, so a change that hits every warp alike can
/// leave the kernel checksum as it was.
pub fn combine_checksums(acc: u64, warp_checksum: u64) -> u64 {
    acc ^ mix(warp_checksum, 0x5EED_0FAC_ADE5_0001)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmutex_isa::{ArchReg, Instr, Op, Space};

    #[test]
    fn mov_is_identity() {
        let i = Instr::new(Op::Mov, Some(ArchReg(1)), vec![ArchReg(0)]);
        assert_eq!(eval(&i, &[42]), 42);
    }

    #[test]
    fn movimm_is_constant() {
        let i = Instr::new(Op::MovImm(7), Some(ArchReg(0)), vec![]);
        assert_eq!(eval(&i, &[]), 7);
    }

    #[test]
    fn different_opcodes_differ() {
        let add = Instr::new(Op::IAdd, Some(ArchReg(2)), vec![ArchReg(0), ArchReg(1)]);
        let sub = Instr::new(Op::ISub, Some(ArchReg(2)), vec![ArchReg(0), ArchReg(1)]);
        assert_ne!(eval(&add, &[1, 2]), eval(&sub, &[1, 2]));
    }

    #[test]
    fn source_order_matters() {
        let add = Instr::new(Op::ISub, Some(ArchReg(2)), vec![ArchReg(0), ArchReg(1)]);
        assert_ne!(eval(&add, &[1, 2]), eval(&add, &[2, 1]));
    }

    #[test]
    fn sel_picks_by_parity() {
        let sel = Instr::new(
            Op::Sel,
            Some(ArchReg(3)),
            vec![ArchReg(0), ArchReg(1), ArchReg(2)],
        );
        assert_eq!(eval(&sel, &[10, 20, 1]), 10);
        assert_eq!(eval(&sel, &[10, 20, 2]), 10); // falls back to first
    }

    #[test]
    fn loads_are_pure_functions_of_address() {
        assert_eq!(load_value(100), load_value(100));
        assert_ne!(load_value(100), load_value(101));
    }

    #[test]
    fn store_fold_is_order_independent() {
        let a = fold_store(fold_store(0, 1, 10), 2, 20);
        let b = fold_store(fold_store(0, 2, 20), 1, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn store_fold_distinguishes_addr_value_swap() {
        assert_ne!(fold_store(0, 1, 2), fold_store(0, 2, 1));
    }

    #[test]
    fn checksum_combine_order_independent() {
        let a = combine_checksums(combine_checksums(0, 111), 222);
        let b = combine_checksums(combine_checksums(0, 222), 111);
        assert_eq!(a, b);
    }

    #[test]
    fn shared_vs_global_store_same_tag_is_fine() {
        // Both fold through fold_store; spaces are distinguished by address
        // bases chosen by kernels, not by the fold itself.
        let st = Instr::new(Op::St(Space::Global), None, vec![ArchReg(0), ArchReg(1)]);
        assert_eq!(st.op.latency_class(), regmutex_isa::LatencyClass::GlobalMem);
    }
}
