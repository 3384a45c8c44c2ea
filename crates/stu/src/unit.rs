//! The STU proper: verification and FAM page-table walking.

use fam_broker::{AccessKind, MemoryBroker};
use fam_sim::RequestId;
use fam_vm::{NodeId, PageWalker, Pte, PtwCache, WalkAccess, WalkPlan};

use crate::{StuCache, StuConfig};

/// Outcome of an I-FAM STU access: coupled translation + verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IFamTranslation {
    /// The request whose packet this access served (echoed back so the
    /// caller can attribute the walk/fetch costs to the right trace
    /// span).
    pub(crate) req: RequestId,
    /// The FAM page backing the node page.
    pub fam_page: u64,
    /// Whether the STU cache held the entry.
    pub(crate) cache_hit: bool,
    /// On a miss, the FAM page-table walk that was performed; each
    /// access is a read the timing layer must charge to the FAM.
    pub walk: Option<WalkPlan>,
    /// Whether the access passed verification.
    pub allowed: bool,
}

/// Outcome of a DeACT verification (the `V = 1` fast path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeactVerification {
    /// The request whose packet this verification served.
    pub(crate) req: RequestId,
    /// Whether the ACM was resident in the STU cache.
    pub(crate) acm_hit: bool,
    /// FAM byte address of the metadata block fetched on a miss
    /// (§III-A address arithmetic), if any.
    pub acm_fetch_addr: Option<u64>,
    /// FAM byte address of the sharing bitmap fetched when the entry
    /// marks the page shared, if any.
    pub bitmap_fetch_addr: Option<u64>,
    /// Whether the access passed verification.
    pub allowed: bool,
}

/// A fault the STU cannot resolve alone: the node address has no
/// system-level mapping, so the memory broker must allocate
/// (§II-C: an address-translation-service request to the broker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnmappedFault {
    /// The request whose packet hit the hole.
    pub(crate) req: RequestId,
    /// The faulting node-physical page.
    pub(crate) npa_page: u64,
    /// The walk performed before discovering the hole (still costs
    /// FAM reads).
    pub(crate) walk_reads: usize,
}

impl std::fmt::Display for UnmappedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no system mapping for node page {:#x}", self.npa_page)
    }
}

impl std::error::Error for UnmappedFault {}

/// One node's System Translation Unit.
///
/// Holds the organisation-specific [`StuCache`], a 32-entry PTW cache
/// for FAM page-table walks (the Bhargava-et-al. optimisation granted to all
/// schemes, §IV). Ground truth (system page
/// tables and ACM) lives in the [`MemoryBroker`]; the STU's caches
/// only determine how often that truth must be re-fetched from FAM.
///
/// # Examples
///
/// ```
/// use fam_broker::{AccessKind, BrokerConfig, MemoryBroker};
/// use fam_sim::RequestId;
/// use fam_stu::{Stu, StuConfig, StuOrganization};
///
/// let mut broker = MemoryBroker::new(BrokerConfig::default());
/// let node = broker.register_node().unwrap();
/// let fam_page = broker.demand_map(node, 0x100).unwrap();
///
/// let mut stu = Stu::new(StuConfig {
///     organization: StuOrganization::DeactN,
///     ..StuConfig::default()
/// });
/// let v = stu.verify(&broker, node, fam_page, AccessKind::Read, RequestId::UNTRACED);
/// assert!(v.allowed);
/// assert!(v.acm_fetch_addr.is_some()); // first touch fetches the metadata block
/// ```
#[derive(Debug)]
pub struct Stu {
    cache: StuCache,
    ptw_cache: PtwCache,
}

impl Stu {
    /// Default PTW-cache entries granted to the walker (§IV grants 32
    /// at the paper's full memory scale; systems scaled down for
    /// simulation speed should scale this reach too).
    pub(crate) const PTW_CACHE_ENTRIES: usize = 32;

    /// Creates an STU with the given cache configuration and the
    /// default PTW-cache size.
    pub fn new(config: StuConfig) -> Stu {
        Stu::with_ptw_entries(config, Self::PTW_CACHE_ENTRIES)
    }

    /// Creates an STU with an explicit FAM-PTW cache size.
    ///
    /// # Panics
    ///
    /// Panics if `ptw_entries` is zero.
    pub fn with_ptw_entries(config: StuConfig, ptw_entries: usize) -> Stu {
        Stu {
            cache: StuCache::new(config),
            ptw_cache: PtwCache::new(ptw_entries),
        }
    }

    /// Direct access to the organisation-specific cache.
    pub fn cache_mut(&mut self) -> &mut StuCache {
        &mut self.cache
    }

    /// DeACT ACM fill (after a modelled metadata fetch).
    pub fn acm_fill(&mut self, fam_page: u64) {
        self.cache.acm_fill(fam_page)
    }

    /// The I-FAM data path: translate a node page and verify the
    /// access in one coupled step (Fig. 2b).
    ///
    /// On a cache miss the STU walks the node's system page table; the
    /// returned [`WalkPlan`] lists the FAM reads to charge.
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedFault`] when the system table has no mapping;
    /// the caller asks the broker to demand-map and retries.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not registered with the broker, or if this
    /// STU is not configured with the I-FAM organisation.
    pub fn ifam_access(
        &mut self,
        broker: &MemoryBroker,
        node: NodeId,
        npa_page: u64,
        kind: AccessKind,
        req: RequestId,
    ) -> Result<IFamTranslation, UnmappedFault> {
        let _prof = fam_sim::profile::span(fam_sim::profile::PhaseId::Stu);
        if let Some(fam_page) = self.cache.ifam_lookup(npa_page) {
            return Ok(IFamTranslation {
                req,
                fam_page,
                cache_hit: true,
                walk: None,
                allowed: broker.check_access(node, fam_page, kind),
            });
        }
        let (fam_page, walk) = self.walk_system_table(broker, node, npa_page, req)?;
        self.cache.ifam_fill(npa_page, fam_page);
        Ok(IFamTranslation {
            req,
            fam_page,
            cache_hit: false,
            walk: Some(walk),
            allowed: broker.check_access(node, fam_page, kind),
        })
    }

    /// The DeACT verification path (`V = 1` packets): the request
    /// already carries a FAM address; only access control is checked
    /// (§III-D). On an ACM-cache miss the metadata block address is
    /// derived from the FAM address alone and reported for timing.
    ///
    /// # Panics
    ///
    /// Panics if this STU is configured with the I-FAM organisation.
    pub fn verify(
        &mut self,
        broker: &MemoryBroker,
        node: NodeId,
        fam_page: u64,
        kind: AccessKind,
        req: RequestId,
    ) -> DeactVerification {
        let _prof = fam_sim::profile::span(fam_sim::profile::PhaseId::Stu);
        let layout = broker.layout();
        let fam_addr = fam_vm::FamAddr(fam_page * fam_vm::PAGE_BYTES);
        let acm_hit = self.cache.acm_lookup(fam_page);
        let mut acm_fetch_addr = None;
        let mut bitmap_fetch_addr = None;
        if !acm_hit {
            acm_fetch_addr = Some(layout.acm_addr(fam_addr));
            self.cache.acm_fill(fam_page);
            // If the freshly read entry marks the page shared, the
            // relevant bitmap words are fetched immediately (§III-A).
            if broker.acm().entry(fam_page).is_some_and(|e| e.is_shared()) {
                bitmap_fetch_addr = Some(layout.bitmap_addr(fam_addr));
            }
        }
        DeactVerification {
            req,
            acm_hit,
            acm_fetch_addr,
            bitmap_fetch_addr,
            allowed: broker.check_access(node, fam_page, kind),
        }
    }

    /// Walks the node's system page table (the FAM-PTW of Fig. 6 ④),
    /// used for `V = 0` packets and I-FAM misses.
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedFault`] when no mapping exists.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not registered with the broker.
    pub fn walk_system_table(
        &mut self,
        broker: &MemoryBroker,
        node: NodeId,
        npa_page: u64,
        req: RequestId,
    ) -> Result<(u64, WalkPlan), UnmappedFault> {
        let mut accesses = Vec::new();
        let pte = self.walk_system_table_into(broker, node, npa_page, req, &mut accesses)?;
        Ok((
            pte.target_page,
            WalkPlan {
                accesses,
                mapping: Some(pte),
            },
        ))
    }

    /// As [`Stu::walk_system_table`], but writes the walk's entry
    /// reads into a caller-supplied buffer (cleared first) and returns
    /// the mapping, so a recycled buffer walks without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`UnmappedFault`] when no mapping exists.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not registered with the broker.
    pub fn walk_system_table_into(
        &mut self,
        broker: &MemoryBroker,
        node: NodeId,
        npa_page: u64,
        req: RequestId,
        out: &mut Vec<WalkAccess>,
    ) -> Result<Pte, UnmappedFault> {
        let _prof = fam_sim::profile::span(fam_sim::profile::PhaseId::Stu);
        let table = broker
            .system_table(node)
            .expect("node must be registered before issuing requests");
        PageWalker::plan_into(table, Some(&mut self.ptw_cache), npa_page, out).ok_or(
            UnmappedFault {
                req,
                npa_page,
                walk_reads: out.len(),
            },
        )
    }

    /// Invalidates state for a page (migration shootdown, §VI). Pass
    /// the node page for I-FAM, the FAM page for DeACT.
    pub fn invalidate_page(&mut self, key_page: u64) {
        self.cache.invalidate(key_page);
    }

    /// Applies a permanent-failure shootdown: invalidates the cached
    /// entry for every key page in the worklist (node pages for I-FAM,
    /// FAM pages for DeACT) and flushes the FAM-PTW cache — relocated
    /// table pages make every cached interior entry's address suspect.
    /// Returns the number of invalidation operations performed (one
    /// per key plus one for the PTW flush), the quantity the timing
    /// layer charges per entry.
    pub fn shootdown(&mut self, key_pages: impl IntoIterator<Item = u64>) -> u64 {
        let mut ops = 0u64;
        for key in key_pages {
            self.cache.invalidate(key);
            ops += 1;
        }
        self.ptw_cache.flush();
        ops + 1
    }

    /// ACM hit/miss ratio (Fig. 9 series).
    pub fn acm_stats(&self) -> fam_sim::stats::Ratio {
        self.cache.acm_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StuOrganization;
    use fam_broker::BrokerConfig;
    use fam_vm::PtFlags;

    const REQ: RequestId = RequestId::UNTRACED;

    fn setup(org: StuOrganization) -> (MemoryBroker, NodeId, Stu) {
        let mut broker = MemoryBroker::new(BrokerConfig {
            fam_bytes: 2 << 30,
            ..BrokerConfig::default()
        });
        let node = broker.register_node().unwrap();
        let stu = Stu::new(StuConfig {
            organization: org,
            ..StuConfig::default()
        });
        (broker, node, stu)
    }

    #[test]
    fn ifam_miss_walks_then_hits() {
        let (mut broker, node, mut stu) = setup(StuOrganization::IFam);
        let fam_page = broker.demand_map(node, 0x50).unwrap();
        let t = stu
            .ifam_access(&broker, node, 0x50, AccessKind::Read, REQ)
            .unwrap();
        assert_eq!(t.fam_page, fam_page);
        assert!(!t.cache_hit);
        assert_eq!(t.walk.as_ref().unwrap().reads(), 4);
        assert!(t.allowed);

        let t2 = stu
            .ifam_access(&broker, node, 0x50, AccessKind::Read, REQ)
            .unwrap();
        assert!(t2.cache_hit);
        assert!(t2.walk.is_none());
    }

    #[test]
    fn ifam_unmapped_faults_to_broker() {
        let (broker, node, mut stu) = setup(StuOrganization::IFam);
        let err = stu
            .ifam_access(&broker, node, 0x99, AccessKind::Read, REQ)
            .unwrap_err();
        assert_eq!(err.npa_page, 0x99);
        assert!(err.walk_reads >= 1);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn ifam_denies_foreign_access() {
        let (mut broker, node, mut stu) = setup(StuOrganization::IFam);
        let intruder = broker.register_node().unwrap();
        broker.demand_map(node, 0x10).unwrap();
        // The intruder somehow issues a request for the victim's node
        // page: the walk uses *the intruder's* table, which has no such
        // mapping -> fault, not leak.
        assert!(stu
            .ifam_access(&broker, intruder, 0x10, AccessKind::Read, REQ)
            .is_err());
    }

    #[test]
    fn deact_verify_fetches_metadata_once() {
        let (mut broker, node, mut stu) = setup(StuOrganization::DeactN);
        let fam_page = broker.demand_map(node, 0x10).unwrap();
        let v1 = stu.verify(&broker, node, fam_page, AccessKind::Read, REQ);
        assert!(v1.allowed);
        assert!(!v1.acm_hit);
        let expected = broker
            .layout()
            .acm_addr(fam_vm::FamAddr(fam_page * fam_vm::PAGE_BYTES));
        assert_eq!(v1.acm_fetch_addr, Some(expected));
        assert_eq!(v1.bitmap_fetch_addr, None, "owned page needs no bitmap");

        let v2 = stu.verify(&broker, node, fam_page, AccessKind::Read, REQ);
        assert!(v2.acm_hit);
        assert_eq!(v2.acm_fetch_addr, None);
    }

    #[test]
    fn deact_verify_denies_foreign_page() {
        let (mut broker, node, mut stu) = setup(StuOrganization::DeactN);
        let intruder = broker.register_node().unwrap();
        let fam_page = broker.demand_map(node, 0x10).unwrap();
        let v = stu.verify(&broker, intruder, fam_page, AccessKind::Read, REQ);
        assert!(!v.allowed, "decoupling must not bypass access control");
    }

    #[test]
    fn deact_verify_write_permission_checked() {
        let (mut broker, node, mut stu) = setup(StuOrganization::DeactN);
        let fam_page = broker.demand_map(node, 0x10).unwrap();
        assert!(
            stu.verify(&broker, node, fam_page, AccessKind::Write, REQ)
                .allowed
        );
        assert!(
            !stu.verify(&broker, node, fam_page, AccessKind::Execute, REQ)
                .allowed,
            "demand-mapped pages are RW, not X"
        );
    }

    #[test]
    fn shared_page_miss_also_fetches_bitmap() {
        let (mut broker, node, mut stu) = setup(StuOrganization::DeactN);
        let seg = broker
            .share_segment(4, &[(node, PtFlags::rw(), 0x200)])
            .unwrap();
        let v = stu.verify(&broker, node, seg.first_page, AccessKind::Write, REQ);
        assert!(v.allowed);
        assert!(v.bitmap_fetch_addr.is_some());
        // Once cached, no more fetches.
        let v2 = stu.verify(&broker, node, seg.first_page, AccessKind::Write, REQ);
        assert!(v2.acm_hit);
        assert_eq!(v2.bitmap_fetch_addr, None);
    }

    #[test]
    fn walk_reuses_ptw_cache() {
        let (mut broker, node, mut stu) = setup(StuOrganization::DeactN);
        broker.demand_map(node, 0x40).unwrap();
        broker.demand_map(node, 0x41).unwrap();
        let (_, plan1) = stu.walk_system_table(&broker, node, 0x40, REQ).unwrap();
        assert_eq!(plan1.reads(), 4);
        // Neighbouring page: interior levels are PTW-cached.
        let (_, plan2) = stu.walk_system_table(&broker, node, 0x41, REQ).unwrap();
        assert_eq!(plan2.reads(), 1);
    }

    #[test]
    fn invalidate_forces_refetch() {
        let (mut broker, node, mut stu) = setup(StuOrganization::DeactN);
        let fam_page = broker.demand_map(node, 0x10).unwrap();
        stu.verify(&broker, node, fam_page, AccessKind::Read, REQ);
        stu.invalidate_page(fam_page);
        let v = stu.verify(&broker, node, fam_page, AccessKind::Read, REQ);
        assert!(!v.acm_hit);
    }

    #[test]
    fn shootdown_invalidates_entries_and_ptw_cache() {
        let (mut broker, node, mut stu) = setup(StuOrganization::DeactN);
        let fam_a = broker.demand_map(node, 0x40).unwrap();
        let fam_b = broker.demand_map(node, 0x41).unwrap();
        stu.verify(&broker, node, fam_a, AccessKind::Read, REQ);
        stu.verify(&broker, node, fam_b, AccessKind::Read, REQ);
        stu.walk_system_table(&broker, node, 0x40, REQ).unwrap();
        let ops = stu.shootdown([fam_a]);
        assert_eq!(ops, 2, "one entry + the PTW flush");
        // The shot-down page re-fetches; the survivor still hits.
        assert!(
            !stu.verify(&broker, node, fam_a, AccessKind::Read, REQ)
                .acm_hit
        );
        assert!(
            stu.verify(&broker, node, fam_b, AccessKind::Read, REQ)
                .acm_hit
        );
        // The PTW cache went cold: a neighbouring walk re-reads all
        // four levels.
        let (_, plan) = stu.walk_system_table(&broker, node, 0x41, REQ).unwrap();
        assert_eq!(plan.reads(), 4);
    }

    #[test]
    fn every_access_counts_one_acm_lookup() {
        // The Fig. 9 rate and the per-reference STU call count both
        // read `acm_stats().total()` as "accesses vetted": every
        // `verify`/`ifam_access` call must add exactly one, hit or
        // miss, allowed or denied, mapped or not.
        for org in [
            StuOrganization::IFam,
            StuOrganization::DeactW,
            StuOrganization::DeactN,
        ] {
            let (mut broker, node, mut stu) = setup(org);
            let intruder = broker.register_node().unwrap();
            let fam_page = broker.demand_map(node, 0x10).unwrap();
            let mut calls = 0u64;
            for who in [node, node, intruder] {
                if org == StuOrganization::IFam {
                    let _ = stu.ifam_access(&broker, who, 0x10, AccessKind::Read, REQ);
                } else {
                    stu.verify(&broker, who, fam_page, AccessKind::Read, REQ);
                }
                calls += 1;
                assert_eq!(stu.acm_stats().total(), calls, "{org:?}");
            }
            // Walks alone are not verifications.
            stu.walk_system_table(&broker, node, 0x10, REQ).unwrap();
            assert_eq!(stu.acm_stats().total(), calls, "{org:?}");
        }
    }
}
