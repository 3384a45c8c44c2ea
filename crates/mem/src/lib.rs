//! Memory substrate for the DeACT reproduction.
//!
//! Provides the node-side memory system the paper configures in
//! Table II:
//!
//! * [`SetAssocCache`] — a generic set-associative LRU cache, reused for
//!   data caches, TLBs, page-table-walk caches and the STU cache
//!   organisations. It keeps no hit/miss ledger; its owners count.
//! * [`CacheHierarchy`] — private L1/L2 per core plus a shared,
//!   inclusive L3 (32 KB / 256 KB / 1 MB, 64 B blocks, LRU).
//! * [`DramModel`] — the 1 GB local DRAM with a contended channel.
//! * [`NvmModel`] — the 16 GB fabric-attached NVM: 32 banks, 60 ns
//!   reads, 150 ns writes, at most 128 outstanding requests.
//!
//! # Examples
//!
//! ```
//! use fam_mem::{CacheConfig, SetAssocCache};
//!
//! let mut l1 = SetAssocCache::new(CacheConfig::new(64, 8));
//! assert!(l1.get(0x1000).is_none());
//! l1.insert(0x1000, ());
//! assert!(l1.get(0x1000).is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod dram;
mod hierarchy;
mod nvm;

pub use cache::{CacheConfig, SetAssocCache};
pub use dram::DramModel;
pub use hierarchy::{CacheHierarchy, HierarchyConfig, HitLevel, LookupResult};
pub use nvm::{MemOpKind, NvmConfig, NvmModel};

/// Replacement policy of the in-DRAM FAM translation cache
/// (`deact::FamTranslator`). The paper's translation cache is random
/// (§III-C): tracking recency would cost extra DRAM writes; LRU is the
/// §III-C ablation. Every other cache in the model is LRU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Replacement {
    /// Evict the least-recently-used way.
    Lru,
    /// Evict a uniformly random way.
    Random,
}

/// Cache block (line) size used throughout the paper: 64 bytes.
pub(crate) const BLOCK_BYTES: u64 = 64;

/// Converts a byte address to its cache-line address.
///
/// # Examples
///
/// ```
/// assert_eq!(fam_mem::line_of(0), 0);
/// assert_eq!(fam_mem::line_of(63), 0);
/// assert_eq!(fam_mem::line_of(64), 1);
/// ```
pub fn line_of(byte_addr: u64) -> u64 {
    byte_addr / BLOCK_BYTES
}
