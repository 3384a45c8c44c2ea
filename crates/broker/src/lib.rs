//! The centralized memory broker for FAM systems — the reproduction's
//! equivalent of Opal (Kommareddy et al., SAND2018-9199).
//!
//! The broker is the *system-level* memory manager (§II-C): nodes'
//! OSes manage an imaginary flat node-physical space, and the broker
//! owns the real FAM, deciding which FAM page backs which node page,
//! maintaining each node's system page table (the NPA→FAM table the
//! STU walks), and writing the access-control metadata (ACM) and
//! shared-page bitmaps laid out in FAM itself (Fig. 5).
//!
//! * [`FamLayout`] — the Fig. 5 address arithmetic: where a page's ACM
//!   lives, where a 1 GB region's sharing bitmap lives.
//! * [`AcmStore`] — functional storage of ACM entries and bitmaps,
//!   plus the [`AcmEntry`] bit-level encoding (owner node id + R/W/E).
//! * [`MemoryBroker`] — node registration, on-demand FAM page
//!   allocation, system-page-table maintenance, page sharing with
//!   mixed permissions, and permanent-failure evacuation. Job
//!   migration and logical node ids (§VI) are not modelled: the paper
//!   evaluates neither.
//!
//! # Examples
//!
//! ```
//! use fam_broker::{BrokerConfig, MemoryBroker};
//!
//! let mut broker = MemoryBroker::new(BrokerConfig::default());
//! let node = broker.register_node().unwrap();
//! let fam_page = broker.demand_map(node, 0x8_0000).unwrap();
//! assert!(broker.check_access(node, fam_page, fam_broker::AccessKind::Read));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod acm;
mod broker;
mod layout;

pub use acm::{AccessKind, AcmEntry, AcmStore, AcmWidth};
pub use broker::{
    BrokerConfig, BrokerError, EvacuationReport, MemoryBroker, PageRelocation, SharedSegment,
};
pub use layout::{FamLayout, Quarantine};
