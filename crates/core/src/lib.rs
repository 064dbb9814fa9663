//! # regmutex
//!
//! The core of the RegMutex (ISCA 2018) reproduction: the microarchitecture
//! support of §III-B (warp-status/SRP bitmasks, section LUT, the augmented
//! operand-collector mapping, and the issue-stage acquire/release manager),
//! the §III-C paired-warps specialization, the two comparator techniques of
//! §IV-C (RFV and OWF), the storage-overhead model, and a high-level
//! [`Session`] runner that ties the compiler and simulator together.
//!
//! ```no_run
//! use regmutex::{Session, Technique, cycle_reduction_percent};
//! use regmutex_sim::{GpuConfig, LaunchConfig};
//! # fn kernel() -> regmutex_isa::Kernel { unimplemented!() }
//!
//! let session = Session::new(GpuConfig::gtx480());
//! let k = kernel();
//! let launch = LaunchConfig::new(120);
//! let base = session.run(&k, launch, Technique::Baseline)?;
//! let rm = session.run(&k, launch, Technique::RegMutex)?;
//! println!("cycle reduction: {:.1}%", cycle_reduction_percent(&base, &rm));
//! # Ok::<(), regmutex::RunError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod energy;
pub mod hw;
pub mod manager;
pub mod paired;
pub mod runner;
pub mod storage;
pub mod verdict;

pub use baselines::owf::OwfManager;
pub use baselines::rfv::RfvManager;
pub use manager::RegMutexManager;
pub use paired::PairedWarpsManager;
pub use runner::{
    cycle_increase_percent, cycle_reduction_percent, ParseTechniqueError, RunError, RunReport,
    Session, Technique, ALL_TECHNIQUES,
};
pub use verdict::{verdict, DivergenceKind};
