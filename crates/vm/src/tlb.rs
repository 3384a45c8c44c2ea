//! The node's two-level TLB (Table II: 32 + 256 entries).

use fam_mem::{CacheConfig, SetAssocCache};
use fam_sim::stats::Ratio;
use fam_sim::Duration;

use crate::Pte;

/// Which TLB level serviced a translation, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TlbHit {
    /// First-level TLB.
    L1,
    /// Second-level TLB.
    L2,
    /// Both levels missed: a page-table walk is required.
    Miss,
}

/// Geometry and latencies of the TLB hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// L1 TLB entries (paper: 32).
    pub l1_entries: usize,
    /// L1 associativity.
    pub(crate) l1_ways: usize,
    /// L1 lookup latency in cycles.
    pub(crate) l1_latency: u64,
    /// L2 TLB entries (paper: 256).
    pub l2_entries: usize,
    /// L2 associativity.
    pub(crate) l2_ways: usize,
    /// L2 lookup latency in cycles.
    pub(crate) l2_latency: u64,
}

impl Default for TlbConfig {
    /// The paper's TLB configuration (Table II) with conventional
    /// latencies (1 / 7 cycles).
    fn default() -> TlbConfig {
        TlbConfig {
            l1_entries: 32,
            l1_ways: 4,
            l1_latency: 1,
            l2_entries: 256,
            l2_ways: 8,
            l2_latency: 7,
        }
    }
}

/// A two-level TLB caching virtual-page → PTE translations.
///
/// # Examples
///
/// ```
/// use fam_vm::{Pte, PtFlags, TlbConfig, TlbHierarchy, TlbHit};
///
/// let mut tlb = TlbHierarchy::new(TlbConfig::default());
/// let pte = Pte { target_page: 9, flags: PtFlags::rw() };
/// assert_eq!(tlb.lookup(5).0, TlbHit::Miss);
/// tlb.fill(5, pte);
/// assert_eq!(tlb.lookup(5).0, TlbHit::L1);
/// ```
#[derive(Debug, Clone)]
pub struct TlbHierarchy {
    l1: SetAssocCache<Pte>,
    l2: SetAssocCache<Pte>,
    config: TlbConfig,
    overall: Ratio,
}

impl TlbHierarchy {
    /// Creates an empty TLB hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if any entry count does not divide by its associativity.
    pub fn new(config: TlbConfig) -> TlbHierarchy {
        assert_eq!(config.l1_entries % config.l1_ways, 0);
        assert_eq!(config.l2_entries % config.l2_ways, 0);
        TlbHierarchy {
            l1: SetAssocCache::new(CacheConfig::new(
                config.l1_entries / config.l1_ways,
                config.l1_ways,
            )),
            l2: SetAssocCache::new(CacheConfig::new(
                config.l2_entries / config.l2_ways,
                config.l2_ways,
            )),
            config,
            overall: Ratio::new(),
        }
    }

    /// Looks up `vpage`; on an L2 hit the entry is promoted to L1.
    /// Returns the hit level, the lookup latency, and the PTE if found.
    pub fn lookup(&mut self, vpage: u64) -> (TlbHit, Duration, Option<Pte>) {
        let _prof = fam_sim::profile::span(fam_sim::profile::PhaseId::Tlb);
        let mut latency = Duration(self.config.l1_latency);
        if let Some(pte) = self.l1.get(vpage).copied() {
            self.overall.hit();
            return (TlbHit::L1, latency, Some(pte));
        }
        latency += Duration(self.config.l2_latency);
        if let Some(pte) = self.l2.get(vpage).copied() {
            self.overall.hit();
            self.l1.insert(vpage, pte);
            return (TlbHit::L2, latency, Some(pte));
        }
        self.overall.miss();
        (TlbHit::Miss, latency, None)
    }

    /// Installs a translation after a walk (fills both levels).
    pub fn fill(&mut self, vpage: u64, pte: Pte) {
        self.l2.insert(vpage, pte);
        self.l1.insert(vpage, pte);
    }

    /// Invalidates one page (single-page shootdown).
    #[cfg(test)]
    pub(crate) fn invalidate(&mut self, vpage: u64) {
        self.l1.invalidate(vpage);
        self.l2.invalidate(vpage);
    }

    /// Invalidates every entry whose cached PTE fails `pred`, at both
    /// levels, returning how many entries were removed. This is the
    /// broadcast-shootdown primitive for permanent-failure recovery:
    /// the initiator knows which *frames* went away, not which virtual
    /// pages each surviving core happens to have mapped to them, so
    /// the match is on the cached payload.
    pub fn invalidate_stale(&mut self, mut pred: impl FnMut(&Pte) -> bool) -> usize {
        self.l1.retain(|_, pte| !pred(pte)) + self.l2.retain(|_, pte| !pred(pte))
    }

    /// Combined hit/miss statistics (a hit at either level counts).
    pub fn stats(&self) -> Ratio {
        self.overall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PtFlags;

    fn pte(p: u64) -> Pte {
        Pte {
            target_page: p,
            flags: PtFlags::rw(),
        }
    }

    #[test]
    fn miss_fill_hit() {
        let mut t = TlbHierarchy::new(TlbConfig::default());
        let (h, lat, _) = t.lookup(1);
        assert_eq!(h, TlbHit::Miss);
        assert_eq!(lat, Duration(8)); // both levels probed
        t.fill(1, pte(10));
        let (h, lat, p) = t.lookup(1);
        assert_eq!(h, TlbHit::L1);
        assert_eq!(lat, Duration(1));
        assert_eq!(p.unwrap().target_page, 10);
    }

    #[test]
    fn l2_hit_promotes_to_l1() {
        let cfg = TlbConfig {
            l1_entries: 2,
            l1_ways: 2,
            l2_entries: 8,
            l2_ways: 8,
            ..TlbConfig::default()
        };
        let mut t = TlbHierarchy::new(cfg);
        t.fill(1, pte(1));
        t.fill(2, pte(2));
        t.fill(3, pte(3)); // evicts 1 from tiny L1, still in L2
        let (h, _, _) = t.lookup(1);
        assert_eq!(h, TlbHit::L2);
        let (h, _, _) = t.lookup(1);
        assert_eq!(h, TlbHit::L1, "promoted after L2 hit");
    }

    #[test]
    fn invalidate_drops_only_that_page() {
        let mut t = TlbHierarchy::new(TlbConfig::default());
        t.fill(1, pte(1));
        t.fill(2, pte(2));
        t.invalidate(1);
        assert_eq!(t.lookup(1).0, TlbHit::Miss);
        assert_eq!(t.lookup(2).0, TlbHit::L1);
    }

    #[test]
    fn stats_accumulate() {
        let mut t = TlbHierarchy::new(TlbConfig::default());
        t.lookup(1);
        t.fill(1, pte(1));
        t.lookup(1);
        assert_eq!(t.stats().hits(), 1);
        assert_eq!(t.stats().misses(), 1);
    }

    #[test]
    fn invalidate_stale_matches_on_ptes_at_both_levels() {
        // Tiny L1 so entry 1 lives only in L2 — the shootdown must
        // reach both levels.
        let cfg = TlbConfig {
            l1_entries: 2,
            l1_ways: 2,
            l2_entries: 8,
            l2_ways: 8,
            ..TlbConfig::default()
        };
        let mut t = TlbHierarchy::new(cfg);
        t.fill(1, pte(100)); // doomed, L2-only after evictions
        t.fill(2, pte(100)); // doomed, resident in both levels
        t.fill(3, pte(3)); // survivor
        let removed = t.invalidate_stale(|p| p.target_page == 100);
        assert!(removed >= 2, "both doomed vpages leave ({removed} ways)");
        assert_eq!(t.lookup(1).0, TlbHit::Miss);
        assert_eq!(t.lookup(2).0, TlbHit::Miss);
        assert_eq!(t.lookup(3).2.unwrap().target_page, 3, "survivor untouched");
    }

    #[test]
    fn paper_default_capacity() {
        let t = TlbHierarchy::new(TlbConfig::default());
        assert_eq!(t.config.l1_entries, 32);
        assert_eq!(t.config.l2_entries, 256);
    }
}
