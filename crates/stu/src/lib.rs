//! The System Translation Unit (STU).
//!
//! The STU is the off-node hardware that vets every access to the
//! shared FAM (§II-C). It sits at the first router connecting a node
//! to the fabric, caches system-level state, and walks the FAM
//! (system) page table on misses. It is the paper's analogue of the
//! Gen-Z ZMMU.
//!
//! What the STU caches differs per scheme (Fig. 8):
//!
//! * **I-FAM** — each way holds a full `(node page → FAM page, ACM)`
//!   entry: translation and access control coupled together.
//! * **DeACT-W** — translation is decoupled away (it lives in the
//!   node's local DRAM), so each way repurposes the freed 52 bits to
//!   hold the ACM of several *contiguous* pages (4 at 16-bit ACM).
//! * **DeACT-N** — each way is split into sub-ways holding independent
//!   `(44-bit tag, ACM)` pairs for *arbitrary* pages (2 pairs at
//!   16-bit ACM), which survives the FAM's random allocation order.
//!
//! # Examples
//!
//! ```
//! use fam_broker::{AccessKind, BrokerConfig, MemoryBroker};
//! use fam_sim::RequestId;
//! use fam_stu::{Stu, StuConfig, StuOrganization};
//!
//! let mut broker = MemoryBroker::new(BrokerConfig::default());
//! let node = broker.register_node().unwrap();
//! let fam_page = broker.demand_map(node, 0x100).unwrap();
//!
//! let mut stu = Stu::new(StuConfig {
//!     organization: StuOrganization::DeactN,
//!     ..StuConfig::default()
//! });
//! let first = stu.verify(&broker, node, fam_page, AccessKind::Read, RequestId::UNTRACED);
//! assert!(first.acm_fetch_addr.is_some(), "a miss fetches the ACM block");
//! let again = stu.verify(&broker, node, fam_page, AccessKind::Read, RequestId::UNTRACED);
//! assert!(again.acm_fetch_addr.is_none(), "the refilled entry hits");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod unit;

pub use cache::{StuCache, StuConfig, StuOrganization};
pub use unit::{DeactVerification, IFamTranslation, Stu, UnmappedFault};
