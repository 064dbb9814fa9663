//! # regmutex-isa
//!
//! A synthetic, warp-level GPU instruction set for the RegMutex (ISCA 2018)
//! reproduction. Kernels in this ISA stand in for the SASS/PTXPlus binaries
//! the paper instruments: they expose exactly the properties RegMutex
//! interacts with — architected register indices and live ranges, structured
//! control flow with loops and (divergent) branches, global/shared memory
//! operations, CTA barriers, and the compiler-injected `acq.es`/`rel.es`
//! primitives.
//!
//! ```
//! use regmutex_isa::{ArchReg, KernelBuilder, TripCount};
//!
//! let mut b = KernelBuilder::new("saxpy-ish");
//! let (a, x, acc) = (ArchReg(0), ArchReg(1), ArchReg(2));
//! b.movi(a, 2).movi(x, 10).movi(acc, 0);
//! let top = b.here();
//! b.ffma(acc, a, x, acc);
//! b.bra_loop(top, TripCount::Fixed(8));
//! b.st_global(x, acc).exit();
//! let kernel = b.build()?;
//! assert_eq!(kernel.regs_per_thread, 3);
//! # Ok::<(), regmutex_isa::BuildKernelError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod branch;
mod builder;
mod display;
mod instr;
mod kernel;
mod reg;
mod rng;

pub use branch::{decide, mix, BranchBehavior, TripCount};
pub use builder::{BuildKernelError, KernelBuilder, Label};
pub use instr::{Instr, LatencyClass, Op, Space};
pub use kernel::{Kernel, ValidateKernelError, MAX_ARCH_REGS};
pub use reg::{ArchReg, CtaId, PhysReg, WarpId};
pub use rng::Rng;
