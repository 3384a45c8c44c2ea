//! Synthetic workloads calibrated to the paper's benchmark suite
//! (Table III).
//!
//! The paper drives SST with SPEC 2006, PARSEC, GAP, Mantevo and NAS
//! binaries. We do not have the binaries or an x86 front-end, so each
//! benchmark is replaced by a *memory-reference generator* whose
//! stream statistics — footprint, page-level temporal locality,
//! intra-page spatial runs, pointer-chasing (dependence) fraction, and
//! reference density — are tuned so the simulated system reproduces
//! the benchmark's published MPKI class and its sensitivity to
//! two-level translation (the per-benchmark shapes of Figs. 3–12).
//! DESIGN.md §1 documents this substitution.
//!
//! # Examples
//!
//! ```
//! use fam_workloads::{table3, Workload};
//!
//! let sssp = Workload::by_name("sssp").unwrap();
//! let mut gen = sssp.generator(42);
//! let r = gen.next_ref();
//! assert!(r.vaddr.0 >= fam_workloads::VA_BASE);
//! assert_eq!(table3().len(), 14);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod generator;
mod profiles;
pub mod trace;

pub use generator::{MemRef, TraceGenerator};
pub use profiles::{table3, Suite, Workload};
pub use trace::{RefStream, StreamedReplay, TraceReader, TraceWriter};

/// Base virtual address of the synthetic heap every generator walks.
pub const VA_BASE: u64 = 0x1000_0000;

/// Base virtual address of the cross-node shared segment. Common to
/// every rank (unlike the per-core private slices), far above any
/// private heap.
pub const SHARED_VA_BASE: u64 = 0x7000_0000_0000;
