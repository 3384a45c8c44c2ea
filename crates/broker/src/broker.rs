//! The memory broker: system-level allocation and mapping.

use std::fmt;

use fam_sim::SimRng;
use fam_vm::{NodeId, PageTable, PtFlags, Pte, PAGE_BYTES};

use crate::layout::{Quarantine, REGION_BYTES};
use crate::{AccessKind, AcmStore, AcmWidth, FamLayout};

/// Broker configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrokerConfig {
    /// FAM module capacity in bytes (Table II: 16 GB).
    pub fam_bytes: u64,
    /// ACM entry width (paper default 16-bit; Fig. 14 sweeps 8/32).
    pub acm_width: AcmWidth,
    /// Maximum registerable nodes.
    pub max_nodes: usize,
    /// Seed for the randomised page allocator. The paper observes that
    /// "since FAM is shared by multiple nodes, memory allocation is
    /// random" (§III-D) — the allocator hands out pages of each region
    /// in shuffled order to reproduce that poor spatial locality.
    pub seed: u64,
}

impl Default for BrokerConfig {
    fn default() -> BrokerConfig {
        BrokerConfig {
            fam_bytes: 16 << 30,
            acm_width: AcmWidth::W16,
            max_nodes: 64,
            seed: 0xB20CE2,
        }
    }
}

/// Errors returned by broker operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrokerError {
    /// All node slots are taken.
    TooManyNodes,
    /// The FAM has no free pages left.
    OutOfMemory,
    /// The node id is not registered.
    UnknownNode(NodeId),
    /// No whole 1 GB region is left for a shared segment.
    RegionExhausted,
    /// A shared segment larger than one region was requested.
    SegmentTooLarge {
        /// Pages requested.
        requested: u64,
        /// Pages in one region.
        limit: u64,
    },
}

impl fmt::Display for BrokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokerError::TooManyNodes => write!(f, "node limit reached"),
            BrokerError::OutOfMemory => write!(f, "fabric-attached memory exhausted"),
            BrokerError::UnknownNode(n) => write!(f, "unregistered node {n}"),
            BrokerError::RegionExhausted => write!(f, "no free 1 GB region for shared segment"),
            BrokerError::SegmentTooLarge { requested, limit } => {
                write!(
                    f,
                    "shared segment of {requested} pages exceeds region limit {limit}"
                )
            }
        }
    }
}

impl std::error::Error for BrokerError {}

/// A shared memory segment registered in a dedicated 1 GB region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedSegment {
    /// The 1 GB region hosting the segment.
    pub region: u64,
    /// First FAM page of the segment.
    pub first_page: u64,
    /// Number of pages.
    pub pages: u64,
    /// The members the segment is mapped into: `(node, flags,
    /// npa_start)`. Evacuation needs this to find and rewrite every
    /// member's system-table mappings.
    pub(crate) members: Vec<(NodeId, PtFlags, u64)>,
}

impl SharedSegment {
    /// Iterates over the segment's FAM page numbers.
    pub fn fam_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.first_page..self.first_page + self.pages
    }
}

/// One page's fate during a permanent-failure evacuation: the
/// shootdown worklist entry the system applies to node-side caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRelocation {
    /// The node whose system-table mapping was rewritten.
    pub node: NodeId,
    /// The node-physical page that mapped to the failed FAM page.
    pub npa_page: u64,
    /// The quarantined FAM page the mapping used to name.
    pub old_fam_page: u64,
    /// Where the data lives now — `None` means the data is lost and
    /// the mapping was removed (a later access takes a fresh demand
    /// fault, or surfaces as data loss to whoever needed the bytes).
    pub new_fam_page: Option<u64>,
}

impl PageRelocation {
    /// The `npa_page` of a table-rebuild relocation: a rebuilt system-
    /// table page maps no node page, so its worklist entry carries this
    /// sentinel, which no real mapping can collide with.
    pub(crate) const TABLE_REBUILD_NPA: u64 = u64::MAX;

    /// Whether this entry announces a rebuilt table page rather than a
    /// rewritten or removed data mapping. Shootdowns keyed on node
    /// pages must skip it.
    pub fn is_table_rebuild(&self) -> bool {
        self.npa_page == Self::TABLE_REBUILD_NPA
    }
}

/// What broker-led permanent-failure recovery accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvacuationReport {
    /// Data pages copied to surviving FAM and remapped.
    pub pages_evacuated: u64,
    /// Data pages destroyed with the failed hardware.
    pub pages_lost: u64,
    /// System-page-table interior pages rebuilt on surviving FAM (the
    /// broker authored every entry, so tables are always rebuildable).
    pub table_pages_rebuilt: u64,
    /// ACM entries rewritten.
    pub(crate) acm_writes: u64,
    /// Bytes copied over the management path (drives the simulated
    /// evacuation-bandwidth cost).
    pub bytes_copied: u64,
    /// Usable capacity the quarantine removed from service, in pages.
    pub capacity_pages_lost: u64,
}

/// The centralized memory broker (Opal's role in the paper's SST
/// setup).
///
/// Owns the FAM: the randomised page pool, the per-node *system page
/// tables* (NPA→FAM; these are what the STU walks, and their interior
/// pages live in FAM), and the ACM store.
///
/// # Examples
///
/// ```
/// use fam_broker::{AccessKind, BrokerConfig, MemoryBroker};
///
/// let mut broker = MemoryBroker::new(BrokerConfig::default());
/// let a = broker.register_node().unwrap();
/// let b = broker.register_node().unwrap();
/// let page = broker.demand_map(a, 100).unwrap();
/// assert!(broker.check_access(a, page, AccessKind::Read));
/// assert!(!broker.check_access(b, page, AccessKind::Read));
/// ```
#[derive(Debug)]
pub struct MemoryBroker {
    config: BrokerConfig,
    layout: FamLayout,
    acm: AcmStore,
    /// Regions not yet handed to the page pool or a shared segment.
    /// The pool takes from the front; shared segments from the back.
    unassigned_regions: std::collections::VecDeque<u64>,
    /// Free pages of pool regions, as `u32` (the constructor checks
    /// that every usable page number fits), popped from the back.
    free_pages: Vec<u32>,
    /// Positions of `free_pages` below this still await their
    /// Fisher–Yates step; `take_page` performs it as it pops them.
    unshuffled: usize,
    /// Each registered node's system page table, by node index. A
    /// leaf holds a mapping's NPA and the ACM names its FAM page's
    /// owner; `owned_leaves` reads both for permanent-failure recovery.
    tables: Vec<PageTable>,
    shared_segments: Vec<SharedSegment>,
    rng: SimRng,
}

impl MemoryBroker {
    /// Creates a broker managing a fresh FAM module.
    pub fn new(config: BrokerConfig) -> MemoryBroker {
        let layout = FamLayout::new(config.fam_bytes, config.acm_width);
        let regions = layout.usable_bytes().div_ceil(REGION_BYTES);
        assert!(
            layout.usable_pages() <= 1 << 32,
            "{} usable FAM pages overflow the u32 free-page pool",
            layout.usable_pages()
        );
        MemoryBroker {
            config,
            layout,
            acm: AcmStore::new(config.acm_width),
            unassigned_regions: (0..regions).collect(),
            free_pages: Vec::new(),
            unshuffled: 0,
            tables: Vec::new(),
            shared_segments: Vec::new(),
            rng: SimRng::seeded(config.seed),
        }
    }

    /// The FAM layout (for metadata address arithmetic).
    pub fn layout(&self) -> &FamLayout {
        &self.layout
    }

    /// The ACM store (ground truth the STU verifies against).
    pub fn acm(&self) -> &AcmStore {
        &self.acm
    }

    /// Registers a new compute node, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::TooManyNodes`] if the configured limit,
    /// the ACM width's node-id space or [`NodeId`]'s range is
    /// exhausted, and propagates allocation failure for the node's
    /// system-page-table root.
    pub fn register_node(&mut self) -> Result<NodeId, BrokerError> {
        let id = u16::try_from(self.tables.len())
            .ok()
            .filter(|&id| {
                id < NodeId::SHARED_MARKER
                    && usize::from(id) < self.config.max_nodes
                    && u32::from(id) <= self.config.acm_width.max_nodes()
            })
            .ok_or(BrokerError::TooManyNodes)?;
        let root_page = self.take_page()?;
        self.tables.push(PageTable::new(root_page * PAGE_BYTES));
        Ok(NodeId::new(id))
    }

    fn table_ref(&self, node: NodeId) -> Result<&PageTable, BrokerError> {
        self.tables
            .get(node.index())
            .ok_or(BrokerError::UnknownNode(node))
    }

    /// Pops one free page, refilling the pool from the next unassigned
    /// region that has a surviving page when empty.
    ///
    /// Pages leave each region in Fisher–Yates order (random
    /// allocation, §III-D), one step per take: the step for pool
    /// position `top` draws `j` in `0..=top` and swaps the two, exactly
    /// as a shuffle of the whole region would at `i = top`. That
    /// shuffle runs `i` downward and never touches a position once its
    /// step is done, and `rng` feeds nothing else, so deferring each
    /// step to the pop of its position yields the same draws and the
    /// same pages while a refill costs no draws at all. Pages
    /// `map_in_table` hands back sit at or above `unshuffled` and pop
    /// without a step.
    fn take_page(&mut self) -> Result<u64, BrokerError> {
        while self.free_pages.is_empty() {
            let region = self
                .unassigned_regions
                .pop_front()
                .ok_or(BrokerError::OutOfMemory)?;
            let first = region * (REGION_BYTES / PAGE_BYTES);
            let last = ((region + 1) * (REGION_BYTES / PAGE_BYTES)).min(self.layout.usable_pages());
            let quarantine = self.layout.quarantine();
            // Extend, then filter: an exact-size extend writes the
            // region's 1 MiB several times faster than pushing through
            // a filter, and the order is the same.
            self.free_pages.extend((first..last).map(|p| p as u32));
            self.free_pages
                .retain(|&p| !quarantine.contains(u64::from(p)));
            self.unshuffled = self.free_pages.len();
        }
        let top = self.free_pages.len() - 1;
        if top < self.unshuffled {
            if top > 0 {
                let j = self.rng.index(top + 1);
                self.free_pages.swap(top, j);
            }
            self.unshuffled = top;
        }
        let page = self.free_pages.pop().expect("the refill leaves a page");
        Ok(u64::from(page))
    }

    /// Performs every pending Fisher–Yates step, leaving the pool in
    /// the order a whole-region shuffle would have.
    fn finish_shuffle(&mut self) {
        for i in (1..self.unshuffled).rev() {
            let j = self.rng.index(i + 1);
            self.free_pages.swap(i, j);
        }
        self.unshuffled = 0;
    }

    /// Installs `npa_page → fam_page` in `node`'s system table. The
    /// interior table pages a 4-level mapping may need (at most three)
    /// are taken from the pool up front; the unused ones go back.
    fn map_in_table(
        &mut self,
        node: NodeId,
        npa_page: u64,
        fam_page: u64,
        flags: PtFlags,
    ) -> Result<(), BrokerError> {
        let mut spare = [0u32; 3];
        for page in &mut spare {
            *page = self.take_page()? as u32;
        }
        let mut left = spare.len();
        let mut alloc = |_level: usize| {
            left -= 1;
            u64::from(spare[left]) * PAGE_BYTES
        };
        self.tables[node.index()].map(npa_page, fam_page, flags, &mut alloc);
        self.free_pages.extend_from_slice(&spare[..left]);
        Ok(())
    }

    /// The mappings `node` owns whose FAM page `quarantine` takes out,
    /// as `(npa_page, pte)` in ascending NPA order: one pass over the
    /// leaves of its system table, keeping those whose ACM entry names
    /// `node` as owner. Shared-segment pages carry the shared marker,
    /// so they never qualify.
    fn owned_leaves(&self, node: NodeId, quarantine: Quarantine) -> Vec<(u64, Pte)> {
        let mut leaves = Vec::new();
        self.tables[node.index()].for_each_leaf(|npa_page, pte| {
            let fam_page = pte.target_page;
            if quarantine.contains(fam_page)
                && self.acm.entry(fam_page).and_then(|e| e.owner()) == Some(node)
            {
                leaves.push((npa_page, pte));
            }
        });
        leaves
    }

    /// Maps `npa_page` (a page in the node's FAM zone) to a freshly
    /// allocated FAM page, writing ownership ACM and installing the
    /// translation in the node's system page table. Idempotent: an
    /// already-mapped page returns its existing FAM page.
    ///
    /// This is the path taken when the STU faults on an unmapped node
    /// address and "requests physical pages from the system-level
    /// memory broker" (§II-C).
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownNode`] or
    /// [`BrokerError::OutOfMemory`].
    pub fn demand_map(&mut self, node: NodeId, npa_page: u64) -> Result<u64, BrokerError> {
        if let Some(pte) = self.table_ref(node)?.translate(npa_page) {
            return Ok(pte.target_page);
        }
        let fam_page = self.take_page()?;
        self.map_in_table(node, npa_page, fam_page, PtFlags::rw())?;
        self.acm.set_owner(fam_page, node, PtFlags::rw());
        Ok(fam_page)
    }

    /// Looks up a node's system-level translation without faulting.
    pub fn translate(&self, node: NodeId, npa_page: u64) -> Option<Pte> {
        self.table_ref(node).ok()?.translate(npa_page)
    }

    /// The node's system page table — what the STU's FAM-PTW walks.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::UnknownNode`] for unregistered ids.
    pub fn system_table(&self, node: NodeId) -> Result<&PageTable, BrokerError> {
        self.table_ref(node)
    }

    /// Vets an access: the STU's verification decision, delegated to
    /// the ACM ground truth.
    pub fn check_access(&self, node: NodeId, fam_page: u64, kind: AccessKind) -> bool {
        let region = fam_page * PAGE_BYTES / REGION_BYTES;
        self.acm.check(fam_page, region, node, kind)
    }

    /// Creates a shared segment of `pages` pages in a dedicated 1 GB
    /// region (shared pages are confined to 1 GB physical pages,
    /// §III-A), grants each member its flags in the region bitmap, and
    /// maps the segment into each member's system table starting at
    /// that member's `npa_start` page.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::SegmentTooLarge`],
    /// [`BrokerError::RegionExhausted`] or
    /// [`BrokerError::UnknownNode`].
    pub fn share_segment(
        &mut self,
        pages: u64,
        members: &[(NodeId, PtFlags, u64)],
    ) -> Result<SharedSegment, BrokerError> {
        let region_pages = REGION_BYTES / PAGE_BYTES;
        if pages > region_pages {
            return Err(BrokerError::SegmentTooLarge {
                requested: pages,
                limit: region_pages,
            });
        }
        for (node, _, _) in members {
            self.table_ref(*node)?;
        }
        let region = self
            .unassigned_regions
            .pop_back()
            .ok_or(BrokerError::RegionExhausted)?;
        let first_page = region * region_pages;
        let segment = SharedSegment {
            region,
            first_page,
            pages,
            members: members.to_vec(),
        };
        for fam_page in segment.fam_pages() {
            // All node-id bits set marks the page shared (§III-A); the
            // entry's own permission bits are the default for bitmap
            // members.
            self.acm.set_shared(fam_page, PtFlags::ro());
        }
        for &(node, flags, npa_start) in members {
            self.acm.grant_shared(region, node, flags);
            for (i, fam_page) in segment.fam_pages().enumerate() {
                self.map_in_table(node, npa_start + i as u64, fam_page, flags)?;
            }
        }
        self.shared_segments.push(segment.clone());
        Ok(segment)
    }

    /// Quarantines the FAM pages a permanent failure took out and
    /// rewrites every mapping that named them — the broker half of the
    /// permanent-failure recovery protocol.
    ///
    /// * The free pool and future region refills shed quarantined
    ///   pages, so nothing doomed is ever handed out again.
    /// * Data pages still reachable over the management path
    ///   (`evacuable`, i.e. a severed data link) are copied to
    ///   surviving FAM and their system-table mappings rewritten in
    ///   place; unreachable pages (dead node, failed media) are lost —
    ///   their mappings are removed and their ACM entries cleared, so
    ///   a later touch takes a fresh demand fault.
    /// * System-page-table pages on failed media are rebuilt on
    ///   surviving FAM regardless of `evacuable`: the broker authored
    ///   every entry, so tables are always reconstructible.
    ///
    /// Returns the accounting plus the shootdown worklist — one
    /// [`PageRelocation`] per rewritten or removed mapping — which the
    /// caller must apply to node-side caches (TLBs, STU, PTW caches)
    /// before any core may observe the new state. Evacuation that runs
    /// out of surviving capacity degrades page-by-page into loss
    /// rather than failing the protocol.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice (capacity exhaustion degrades
    /// to loss); the `Result` reserves room for future broker errors.
    pub fn quarantine_and_evacuate(
        &mut self,
        quarantine: Quarantine,
        evacuable: bool,
    ) -> Result<(EvacuationReport, Vec<PageRelocation>), BrokerError> {
        let _prof = fam_sim::profile::span(fam_sim::profile::PhaseId::Evacuation);
        self.layout.set_quarantine(quarantine);
        let mut report = EvacuationReport {
            capacity_pages_lost: self.layout.quarantined_pages(),
            ..EvacuationReport::default()
        };
        let mut relocations = Vec::new();

        // Compaction moves pages across positions, so the pending
        // steps must be done first.
        self.finish_shuffle();
        self.free_pages
            .retain(|&p| !quarantine.contains(u64::from(p)));

        // Owned data pages, node by node in NPA order. Each node's
        // doomed pages are collected before its table is rewritten.
        for node_idx in 0..self.tables.len() {
            let node = NodeId::new(node_idx as u16);
            let doomed = self.owned_leaves(node, quarantine);
            for (npa_page, old) in doomed {
                let old_fam = old.target_page;
                let replacement = if evacuable {
                    self.take_page().ok()
                } else {
                    None
                };
                let table = &mut self.tables[node_idx];
                match replacement {
                    Some(new_fam) => {
                        let mut alloc = |_level: usize| -> u64 {
                            unreachable!("remapping an existing leaf allocates nothing")
                        };
                        table.map(npa_page, new_fam, old.flags, &mut alloc);
                        self.acm.clear(old_fam);
                        self.acm.set_owner(new_fam, node, old.flags);
                        report.acm_writes += 2;
                        report.pages_evacuated += 1;
                        report.bytes_copied += PAGE_BYTES;
                        relocations.push(PageRelocation {
                            node,
                            npa_page,
                            old_fam_page: old_fam,
                            new_fam_page: Some(new_fam),
                        });
                    }
                    None => {
                        table.unmap(npa_page);
                        self.acm.clear(old_fam);
                        report.acm_writes += 1;
                        report.pages_lost += 1;
                        relocations.push(PageRelocation {
                            node,
                            npa_page,
                            old_fam_page: old_fam,
                            new_fam_page: None,
                        });
                    }
                }
            }
        }

        // Shared-segment pages: one data fate per page, one mapping
        // rewrite per member.
        for seg_idx in 0..self.shared_segments.len() {
            let segment = self.shared_segments[seg_idx].clone();
            for (i, old_fam) in segment.fam_pages().enumerate() {
                if !quarantine.contains(old_fam) {
                    continue;
                }
                let replacement = if evacuable {
                    self.take_page().ok()
                } else {
                    None
                };
                match replacement {
                    Some(new_fam) => {
                        self.acm.set_shared(new_fam, PtFlags::ro());
                        report.acm_writes += 1;
                        report.pages_evacuated += 1;
                        report.bytes_copied += PAGE_BYTES;
                        let new_region = new_fam * PAGE_BYTES / REGION_BYTES;
                        for &(member, flags, npa_start) in &segment.members {
                            self.acm.grant_shared(new_region, member, flags);
                            report.acm_writes += 1;
                            let npa_page = npa_start + i as u64;
                            let mut alloc = |_level: usize| -> u64 {
                                unreachable!("remapping an existing leaf allocates nothing")
                            };
                            self.tables[member.index()].map(npa_page, new_fam, flags, &mut alloc);
                            relocations.push(PageRelocation {
                                node: member,
                                npa_page,
                                old_fam_page: old_fam,
                                new_fam_page: Some(new_fam),
                            });
                        }
                    }
                    None => {
                        self.acm.clear(old_fam);
                        report.acm_writes += 1;
                        report.pages_lost += 1;
                        for &(member, _, npa_start) in &segment.members {
                            let npa_page = npa_start + i as u64;
                            self.tables[member.index()].unmap(npa_page);
                            relocations.push(PageRelocation {
                                node: member,
                                npa_page,
                                old_fam_page: old_fam,
                                new_fam_page: None,
                            });
                        }
                    }
                }
            }
        }

        // Table pages: always rebuildable, relocated in place so every
        // later walk reads surviving addresses.
        for node_idx in 0..self.tables.len() {
            let doomed: Vec<u64> = self.tables[node_idx]
                .table_page_addrs()
                .filter(|&addr| quarantine.contains(addr / PAGE_BYTES))
                .collect();
            for old_base in doomed {
                // Capacity exhaustion here would leave the table
                // unreadable; in practice table pages are a tiny
                // fraction of the pool, and the refill filter already
                // excludes quarantined pages.
                let new_page = self.take_page()?;
                self.tables[node_idx].relocate_table_page(old_base, new_page * PAGE_BYTES);
                report.table_pages_rebuilt += 1;
                report.bytes_copied += PAGE_BYTES;
                // Announce the rebuild as a relocation too, so in-flight
                // walks that already read the old address can redirect
                // instead of surfacing rebuildable metadata as loss.
                // Shootdowns keyed on NPAs must skip the sentinel
                // (`PageRelocation::is_table_rebuild`).
                relocations.push(PageRelocation {
                    node: NodeId::new(node_idx as u16),
                    npa_page: PageRelocation::TABLE_REBUILD_NPA,
                    old_fam_page: old_base / PAGE_BYTES,
                    new_fam_page: Some(new_page),
                });
            }
        }

        Ok((report, relocations))
    }

    /// Pages currently owned (demand-mapped) by `node`: its system
    /// table's leaves less those in its shared-segment windows that
    /// still map a shared page. O(1) for a node in no segment.
    pub fn owned_pages(&self, node: NodeId) -> usize {
        let Ok(table) = self.table_ref(node) else {
            return 0;
        };
        let shared = self
            .shared_segments
            .iter()
            .flat_map(|s| {
                s.members
                    .iter()
                    .filter(|&&(member, _, _)| member == node)
                    .flat_map(move |&(_, _, npa_start)| npa_start..npa_start + s.pages)
            })
            .filter(|&npa_page| {
                table.translate(npa_page).is_some_and(|pte| {
                    self.acm
                        .entry(pte.target_page)
                        .is_some_and(|e| e.is_shared())
                })
            })
            .count();
        table.mapped_pages() as usize - shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fam_vm::FamAddr;

    fn small_broker() -> MemoryBroker {
        MemoryBroker::new(BrokerConfig {
            fam_bytes: 4 << 30,
            ..BrokerConfig::default()
        })
    }

    #[test]
    fn register_and_map() {
        let mut b = small_broker();
        let n = b.register_node().unwrap();
        let page = b.demand_map(n, 0x1000).unwrap();
        assert_eq!(b.translate(n, 0x1000).unwrap().target_page, page);
        assert_eq!(b.owned_pages(n), 1);
    }

    #[test]
    fn demand_map_is_idempotent() {
        let mut b = small_broker();
        let n = b.register_node().unwrap();
        let p1 = b.demand_map(n, 7).unwrap();
        let p2 = b.demand_map(n, 7).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(b.owned_pages(n), 1);
    }

    #[test]
    fn nodes_get_disjoint_pages() {
        let mut b = small_broker();
        let n1 = b.register_node().unwrap();
        let n2 = b.register_node().unwrap();
        let mut pages = std::collections::HashSet::new();
        for i in 0..100 {
            assert!(pages.insert(b.demand_map(n1, i).unwrap()));
            assert!(pages.insert(b.demand_map(n2, i).unwrap()));
        }
    }

    #[test]
    fn allocation_order_is_randomised() {
        let mut b = small_broker();
        let n = b.register_node().unwrap();
        let pages: Vec<u64> = (0..64).map(|i| b.demand_map(n, i).unwrap()).collect();
        let sorted = {
            let mut s = pages.clone();
            s.sort_unstable();
            s
        };
        assert_ne!(pages, sorted, "random allocation (§III-D)");
    }

    #[test]
    fn ownership_is_enforced() {
        let mut b = small_broker();
        let n1 = b.register_node().unwrap();
        let n2 = b.register_node().unwrap();
        let page = b.demand_map(n1, 0).unwrap();
        assert!(b.check_access(n1, page, AccessKind::Read));
        assert!(b.check_access(n1, page, AccessKind::Write));
        assert!(!b.check_access(n1, page, AccessKind::Execute));
        assert!(!b.check_access(n2, page, AccessKind::Read));
    }

    #[test]
    fn shared_segment_grants_mixed_permissions() {
        let mut b = small_broker();
        let n1 = b.register_node().unwrap();
        let n2 = b.register_node().unwrap();
        let n3 = b.register_node().unwrap();
        let seg = b
            .share_segment(
                16,
                &[(n1, PtFlags::rw(), 0x9000), (n2, PtFlags::ro(), 0xA000)],
            )
            .unwrap();
        let page = seg.first_page;
        assert!(b.check_access(n1, page, AccessKind::Write));
        assert!(b.check_access(n2, page, AccessKind::Read));
        assert!(!b.check_access(n2, page, AccessKind::Write));
        assert!(!b.check_access(n3, page, AccessKind::Read));
        // Mapped into both members' system tables at their NPAs.
        assert_eq!(b.translate(n1, 0x9000).unwrap().target_page, page);
        assert_eq!(b.translate(n2, 0xA000).unwrap().target_page, page);
    }

    #[test]
    fn shared_pages_marked_with_all_ones_node_field() {
        let mut b = small_broker();
        let n1 = b.register_node().unwrap();
        let seg = b.share_segment(1, &[(n1, PtFlags::ro(), 0)]).unwrap();
        let entry = b.acm().entry(seg.first_page).unwrap();
        assert!(entry.is_shared());
    }

    #[test]
    fn segment_too_large_rejected() {
        let mut b = small_broker();
        b.register_node().unwrap();
        let err = b.share_segment(1 << 30, &[]).unwrap_err();
        assert!(matches!(err, BrokerError::SegmentTooLarge { .. }));
    }

    #[test]
    fn evacuation_relocates_reachable_pages_and_reports_them() {
        let mut b = small_broker();
        let n = b.register_node().unwrap();
        let pages: Vec<u64> = (0..50).map(|i| b.demand_map(n, i).unwrap()).collect();
        let quarantine = Quarantine::Module {
            index: 1,
            stride: 4,
        };
        let doomed: Vec<u64> = pages.iter().copied().filter(|p| p % 4 == 1).collect();
        assert!(!doomed.is_empty(), "the stride must hit some allocations");
        let (report, relocations) = b.quarantine_and_evacuate(quarantine, true).unwrap();
        assert_eq!(report.pages_evacuated, doomed.len() as u64);
        assert_eq!(report.pages_lost, 0, "a severed link loses no data");
        assert_eq!(report.bytes_copied % PAGE_BYTES, 0);
        assert!(report.capacity_pages_lost > 0);
        // Data relocations carry the real NPA; rebuilt table pages ride
        // along under the sentinel NPA so in-flight walks can redirect.
        let (table_moves, data_moves): (Vec<&PageRelocation>, Vec<&PageRelocation>) =
            relocations.iter().partition(|r| r.is_table_rebuild());
        assert_eq!(data_moves.len(), doomed.len());
        assert_eq!(table_moves.len(), report.table_pages_rebuilt as usize);
        for r in table_moves {
            assert!(r.new_fam_page.is_some(), "tables are always rebuildable");
        }
        for r in data_moves {
            let new_fam = r.new_fam_page.expect("evacuable pages relocate");
            assert!(!quarantine.contains(new_fam), "destination must survive");
            assert_eq!(b.translate(n, r.npa_page).unwrap().target_page, new_fam);
            assert!(b.check_access(n, new_fam, AccessKind::Read));
            assert!(!b.check_access(n, r.old_fam_page, AccessKind::Read));
        }
        // Future allocations never land on quarantined pages.
        for i in 100..200 {
            let p = b.demand_map(n, i).unwrap();
            assert!(!quarantine.contains(p));
        }
    }

    #[test]
    fn dead_node_loses_pages_and_unmaps_them() {
        let mut b = small_broker();
        let n = b.register_node().unwrap();
        for i in 0..50 {
            b.demand_map(n, i).unwrap();
        }
        let quarantine = Quarantine::Module {
            index: 0,
            stride: 4,
        };
        let (report, relocations) = b.quarantine_and_evacuate(quarantine, false).unwrap();
        assert_eq!(report.pages_evacuated, 0);
        assert!(report.pages_lost > 0, "a dead module destroys data");
        for r in &relocations {
            assert_eq!(r.new_fam_page, None);
            assert_eq!(
                b.translate(n, r.npa_page),
                None,
                "lost mappings are removed so a re-touch demand-faults"
            );
        }
        // A re-touch of a lost NPA maps a fresh, surviving page.
        let lost_npa = relocations[0].npa_page;
        let fresh = b.demand_map(n, lost_npa).unwrap();
        assert!(!quarantine.contains(fresh));
    }

    #[test]
    fn evacuation_rebuilds_table_pages_on_failed_media() {
        let mut b = small_broker();
        let n = b.register_node().unwrap();
        b.demand_map(n, 42).unwrap();
        // Quarantine exactly the pages holding the node's table, as a
        // media-failure range; the broker must rebuild them.
        let table_page = b.system_table(n).unwrap().root_addr() / PAGE_BYTES;
        let quarantine = Quarantine::Range {
            first_page: table_page,
            pages: 1,
        };
        let (report, _) = b.quarantine_and_evacuate(quarantine, false).unwrap();
        assert_eq!(report.table_pages_rebuilt, 1);
        let rebuilt_root = b.system_table(n).unwrap().root_addr() / PAGE_BYTES;
        assert!(!quarantine.contains(rebuilt_root));
        // The logical mapping survived the rebuild.
        assert!(b.translate(n, 42).is_some());
    }

    #[test]
    fn unknown_node_is_an_error() {
        let mut b = small_broker();
        let err = b.demand_map(NodeId::new(9), 0).unwrap_err();
        assert_eq!(err, BrokerError::UnknownNode(NodeId::new(9)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut b = MemoryBroker::new(BrokerConfig {
            fam_bytes: 16 << 20, // 16 MB: ~4K usable pages
            ..BrokerConfig::default()
        });
        let n = b.register_node().unwrap();
        let mut npa = 0u64;
        let err = loop {
            match b.demand_map(n, npa) {
                Ok(_) => npa += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(err, BrokerError::OutOfMemory);
        assert!(npa > 1000, "most pages were allocatable first");
    }

    #[test]
    fn refill_skips_regions_a_quarantine_emptied() {
        let mut b = small_broker();
        let n = b.register_node().unwrap();
        let region_pages = REGION_BYTES / PAGE_BYTES;
        // All but 8 pages of region 0 (the pool's) and all of region 1.
        let quarantine = Quarantine::Range {
            first_page: 8,
            pages: 2 * region_pages - 8,
        };
        b.quarantine_and_evacuate(quarantine, false).unwrap();
        for npa in 0..64 {
            let page = b.demand_map(n, npa).expect("regions 2 and 3 are untouched");
            assert!(!quarantine.contains(page));
        }
    }

    /// The allocation order a whole-region Fisher–Yates shuffle at each
    /// refill gives: the reference for the one-step-per-take pool.
    struct UpFrontPool {
        rng: SimRng,
        regions: std::collections::VecDeque<u64>,
        usable_pages: u64,
        quarantine: Quarantine,
        free: Vec<u32>,
    }

    impl UpFrontPool {
        fn take(&mut self) -> Option<u64> {
            let region_pages = REGION_BYTES / PAGE_BYTES;
            while self.free.is_empty() {
                let region = self.regions.pop_front()?;
                let last = ((region + 1) * region_pages).min(self.usable_pages);
                let quarantine = self.quarantine;
                self.free.extend(
                    (region * region_pages..last)
                        .filter(|&p| !quarantine.contains(p))
                        .map(|p| p as u32),
                );
                for i in (1..self.free.len()).rev() {
                    let j = self.rng.index(i + 1);
                    self.free.swap(i, j);
                }
            }
            self.free.pop().map(u64::from)
        }
    }

    #[test]
    fn pool_hands_out_pages_in_whole_region_shuffle_order() {
        let config = BrokerConfig {
            fam_bytes: 2 << 30,
            ..BrokerConfig::default()
        };
        let mut b = MemoryBroker::new(config);
        let mut model = UpFrontPool {
            rng: SimRng::seeded(config.seed),
            regions: b.unassigned_regions.clone(),
            usable_pages: b.layout().usable_pages(),
            quarantine: Quarantine::None,
            free: Vec::new(),
        };
        assert!(model.regions.len() >= 2, "the run must cross a refill");
        let region_pages = REGION_BYTES / PAGE_BYTES;
        // Straddles the end of region 0 (already in the pool when it
        // lands) and the start of region 1 (filtered at its refill).
        let quarantine = Quarantine::Range {
            first_page: region_pages - 5_000,
            pages: 20_000,
        };
        let mut ops = SimRng::seeded(3);
        let mut handed_out = vec![false; model.usable_pages as usize];
        let mut record = |pages: &[u32]| {
            for &p in pages {
                assert!(!std::mem::replace(&mut handed_out[p as usize], true));
            }
        };
        for step in 0u64.. {
            if step == 100_000 {
                b.quarantine_and_evacuate(quarantine, false).unwrap();
                model.quarantine = quarantine;
                model.free.retain(|&p| !quarantine.contains(u64::from(p)));
            }
            // `map_in_table` takes three and hands the unused back.
            let want = if ops.chance(0.3) { 3 } else { 1 };
            let pages: Vec<u32> = (0..want)
                .map_while(|_| b.take_page().ok())
                .map(|p| p as u32)
                .collect();
            let expected: Vec<u32> = (0..want)
                .map_while(|_| model.take())
                .map(|p| p as u32)
                .collect();
            assert_eq!(pages, expected, "step {step}");
            if pages.len() < want {
                record(&pages);
                break;
            }
            let unused = if want == 3 { ops.index(3) } else { 0 };
            b.free_pages.extend_from_slice(&pages[..unused]);
            model.free.extend_from_slice(&pages[..unused]);
            record(&pages[unused..]);
        }
        for (page, &out) in handed_out.iter().enumerate() {
            assert!(
                out || quarantine.contains(page as u64),
                "page {page} was never handed out"
            );
        }
    }

    #[test]
    fn registering_a_node_takes_one_shuffle_step() {
        let config = BrokerConfig::default();
        let mut b = MemoryBroker::new(config);
        b.register_node().unwrap();
        // One draw over the whole first region, nothing more.
        let mut expected = SimRng::seeded(config.seed);
        expected.index((REGION_BYTES / PAGE_BYTES) as usize);
        assert_eq!(b.rng.next_u64(), expected.next_u64());
    }

    #[test]
    fn node_limit_enforced() {
        let mut b = MemoryBroker::new(BrokerConfig {
            max_nodes: 1,
            ..BrokerConfig::default()
        });
        b.register_node().unwrap();
        assert_eq!(b.register_node().unwrap_err(), BrokerError::TooManyNodes);
    }

    #[test]
    fn system_table_walkable_by_stu() {
        let mut b = small_broker();
        let n = b.register_node().unwrap();
        let page = b.demand_map(n, 42).unwrap();
        let table = b.system_table(n).unwrap();
        let walk = table.walk(42);
        assert_eq!(walk.mapping.unwrap().target_page, page);
        assert_eq!(walk.steps.len(), 4, "4-level system page table");
        // Interior pages live in FAM's usable region.
        for step in &walk.steps {
            assert!(b.layout().is_usable(FamAddr(step.entry_addr)));
        }
    }

    /// A demand-ordered `(npa_page, fam_page)` list per node: the
    /// reference that evacuation, which reads the system tables and
    /// the ACM, must agree with.
    struct OwnershipModel {
        nodes: Vec<NodeId>,
        owned: Vec<Vec<(u64, u64)>>,
        segment: SharedSegment,
    }

    /// Three nodes demand-map E-FAM-style keys, data pages below 2^30
    /// interleaved with kernel-table pages at and above it, so demand
    /// order differs from NPA order; nodes 0 and 2 share a segment.
    fn three_nodes_and_a_segment() -> (MemoryBroker, OwnershipModel) {
        let mut b = small_broker();
        let nodes: Vec<NodeId> = (0..3).map(|_| b.register_node().unwrap()).collect();
        let mut owned = vec![Vec::new(); 3];
        for i in 0..300u64 {
            for (n, &node) in nodes.iter().enumerate() {
                let base = n as u64 * 10_000;
                let mut keys = vec![base + i];
                if i % 3 == 0 {
                    keys.push((1 << 30) + base + i / 3);
                }
                for key in keys {
                    owned[n].push((key, b.demand_map(node, key).unwrap()));
                }
                // A repeated demand map installs nothing new.
                b.demand_map(node, base + i / 2).unwrap();
            }
        }
        let segment = b
            .share_segment(
                64,
                &[
                    (nodes[0], PtFlags::rw(), 1 << 20),
                    (nodes[2], PtFlags::ro(), 1 << 21),
                ],
            )
            .unwrap();
        let model = OwnershipModel {
            nodes,
            owned,
            segment,
        };
        model.assert_matches(&b);
        (b, model)
    }

    impl OwnershipModel {
        fn is_segment_page(&self, fam_page: u64) -> bool {
            self.segment.fam_pages().any(|p| p == fam_page)
        }

        /// Owned counts agree with the list, and every surviving leaf
        /// is either a shared-segment page or a page the ACM says its
        /// node owns — exactly the list's pairs.
        fn assert_matches(&self, b: &MemoryBroker) {
            for (n, &node) in self.nodes.iter().enumerate() {
                assert_eq!(b.owned_pages(node), self.owned[n].len(), "node {n}");
                let mut owned_leaves = Vec::new();
                b.system_table(node).unwrap().for_each_leaf(|npa, pte| {
                    let entry = b
                        .acm()
                        .entry(pte.target_page)
                        .expect("mapped pages have ACM");
                    if entry.is_shared() {
                        assert!((1 << 20..1 << 30).contains(&npa), "a shared NPA");
                    } else {
                        assert_eq!(entry.owner(), Some(node), "npa {npa:#x}");
                        owned_leaves.push((npa, pte.target_page));
                    }
                });
                let mut expected = self.owned[n].clone();
                expected.sort_unstable();
                assert_eq!(owned_leaves, expected, "node {n}");
            }
        }

        /// Quarantines module 1 of 4, which hits owned and shared pages
        /// alike, and checks the worklist against the list.
        fn evacuate(&mut self, b: &mut MemoryBroker, evacuable: bool) {
            let quarantine = Quarantine::Module {
                index: 1,
                stride: 4,
            };
            let mut expected: Vec<(NodeId, u64, u64)> = Vec::new();
            for (n, &node) in self.nodes.iter().enumerate() {
                for &(npa, fam) in &self.owned[n] {
                    if quarantine.contains(fam) {
                        expected.push((node, npa, fam));
                    }
                }
            }
            let shared_hit = self
                .segment
                .fam_pages()
                .filter(|&p| quarantine.contains(p))
                .count();
            assert!(!expected.is_empty() && shared_hit > 0);

            let (report, relocations) = b.quarantine_and_evacuate(quarantine, evacuable).unwrap();
            let data: Vec<PageRelocation> = relocations
                .into_iter()
                .filter(|r| !r.is_table_rebuild())
                .collect();
            let (owned, shared) = data.split_at(expected.len());
            // Node by node, each in ascending NPA order.
            for pair in owned.windows(2) {
                let (a, c) = (pair[0], pair[1]);
                assert!((a.node.index(), a.npa_page) < (c.node.index(), c.npa_page));
            }
            let mut got: Vec<(NodeId, u64, u64)> = owned
                .iter()
                .map(|r| (r.node, r.npa_page, r.old_fam_page))
                .collect();
            got.sort_unstable_by_key(|&(node, npa, _)| (node.index(), npa));
            expected.sort_unstable_by_key(|&(node, npa, _)| (node.index(), npa));
            assert_eq!(got, expected, "the list's doomed pages, no more");
            for r in owned {
                assert!(
                    !self.is_segment_page(r.old_fam_page),
                    "shared page as owned"
                );
                assert_eq!(r.new_fam_page.is_some(), evacuable);
            }
            assert_eq!(shared.len(), shared_hit * self.segment.members.len());
            assert!(shared.iter().all(|r| self.is_segment_page(r.old_fam_page)));
            let lost = if evacuable {
                0
            } else {
                expected.len() + shared_hit
            };
            assert_eq!(report.pages_lost, lost as u64);

            for r in owned {
                let list = &mut self.owned[r.node.index()];
                let at = list
                    .iter()
                    .position(|&p| p == (r.npa_page, r.old_fam_page))
                    .unwrap();
                match r.new_fam_page {
                    Some(new_fam) => list[at].1 = new_fam,
                    None => {
                        list.remove(at);
                    }
                }
            }
            self.assert_matches(b);
        }
    }

    #[test]
    fn evacuation_matches_the_demand_ordered_list() {
        for evacuable in [true, false] {
            let (mut b, mut model) = three_nodes_and_a_segment();
            model.evacuate(&mut b, evacuable);
        }
    }
}
