//! Virtual-memory substrate for the DeACT reproduction.
//!
//! Implements the node-side virtual memory machinery of §II-B:
//!
//! * Typed addresses: [`VirtAddr`], [`NodePhysAddr`],
//!   [`FamAddr`] and [`NodeId`]. The three address spaces are distinct
//!   types so a node address can never be handed to the FAM without
//!   passing through a translation step.
//! * [`PageTable`] — a 4-level x86-64-style radix page table whose
//!   intermediate nodes occupy simulated physical pages, so a walk
//!   yields the exact sequence of memory reads the hardware would
//!   perform.
//! * [`TlbHierarchy`] — the two-level TLB of Table II (32 + 256
//!   entries).
//! * [`PageWalker`] + [`PtwCache`] — the MMU page-table walker with the
//!   intermediate-level walker caches of Bhargava et al.
//! * [`TwoDimWalker`] — nested (2-D) walk accounting for virtualized
//!   two-level translation (Fig. 1b), used for analysis and ablations.
//!
//! # Examples
//!
//! ```
//! use fam_vm::{PageTable, PtFlags, VirtAddr};
//!
//! let mut pt = PageTable::new(0x100_0000);
//! let mut next = 0x200_0000u64;
//! let mut alloc = |_level| { let a = next; next += 4096; a };
//! pt.map(VirtAddr(0x7000_0000).vpage(), 0x42, PtFlags::rw(), &mut alloc);
//! let walk = pt.walk(VirtAddr(0x7000_0000).vpage());
//! assert_eq!(walk.mapping.unwrap().target_page, 0x42);
//! assert_eq!(walk.steps.len(), 4); // PGD, PUD, PMD, PTE
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub(crate) mod addr;
mod page_table;
mod ptw_cache;
mod tlb;
mod walker;

pub use addr::{FamAddr, NodeId, NodePhysAddr, VirtAddr, PAGE_BYTES};
pub use page_table::{PageTable, PtFlags, Pte, Walk, WalkStep};
pub use ptw_cache::PtwCache;
pub use tlb::{TlbConfig, TlbHierarchy, TlbHit};
pub use walker::{PageWalker, TwoDimWalker, WalkAccess, WalkPlan};
