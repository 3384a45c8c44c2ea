//! Page-table-walker caches (Bhargava et al. \[8\]).

use fam_mem::{CacheConfig, SetAssocCache};

use crate::page_table::LEVELS;

/// A small cache of *intermediate* page-table entries (PGD/PUD/PMD),
/// letting the walker skip upper levels of a walk — the PTW-cache
/// optimisation of Bhargava et al. that the paper grants its baselines (§IV uses 32
/// entries).
///
/// Keys combine the level with the virtual-page prefix that selects the
/// entry at that level; the PTE level is never cached here (that is the
/// TLB's job).
#[derive(Debug, Clone)]
pub struct PtwCache {
    cache: SetAssocCache<()>,
}

impl PtwCache {
    /// Creates a PTW cache with `entries` total entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> PtwCache {
        let ways = entries.min(4);
        PtwCache {
            cache: SetAssocCache::new(CacheConfig::new((entries / ways).max(1), ways)),
        }
    }

    fn key(vpage: u64, level: usize) -> u64 {
        debug_assert!(level < LEVELS - 1, "PTE level is not PTW-cached");
        // Prefix that selects the entry at `level`: drop the index bits
        // of all deeper levels.
        let prefix = vpage >> (9 * (LEVELS - 1 - level));
        (level as u64) << 60 | prefix
    }

    /// The deepest intermediate level (0 = PGD … 2 = PMD) whose entry
    /// for `vpage` is cached, meaning the walk can start *below* it.
    pub(crate) fn deepest_cached(&mut self, vpage: u64) -> Option<usize> {
        let mut deepest = None;
        for level in (0..LEVELS - 1).rev() {
            if self.cache.get(Self::key(vpage, level)).is_some() {
                deepest = Some(level);
                break;
            }
        }
        deepest
    }

    /// Caches the intermediate entries of a completed walk down to
    /// `deepest_level` (inclusive).
    pub(crate) fn fill(&mut self, vpage: u64, deepest_level: usize) {
        for level in 0..=deepest_level.min(LEVELS - 2) {
            self.cache.insert(Self::key(vpage, level), ());
        }
    }

    /// Invalidates all cached entries (shootdown).
    pub fn flush(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache_misses() {
        let mut c = PtwCache::new(32);
        assert_eq!(c.deepest_cached(42), None);
    }

    #[test]
    fn fill_makes_levels_visible() {
        let mut c = PtwCache::new(32);
        c.fill(42, 2);
        assert_eq!(c.deepest_cached(42), Some(2));
    }

    #[test]
    fn partial_fill_reports_shallower_level() {
        let mut c = PtwCache::new(32);
        c.fill(42, 0); // only the PGD entry
        assert_eq!(c.deepest_cached(42), Some(0));
    }

    #[test]
    fn nearby_pages_share_interior_entries() {
        let mut c = PtwCache::new(32);
        c.fill(0x1000, 2);
        // Same PMD region (same vpage >> 9): hit at PMD level.
        assert_eq!(c.deepest_cached(0x1001), Some(2));
        // Same PUD region only (same vpage >> 18): hit at PUD level.
        assert_eq!(c.deepest_cached(0x1000 ^ (1 << 10)), Some(1));
        // Different PGD region entirely: miss.
        assert_eq!(c.deepest_cached(0x1000 ^ (1 << 30)), None);
    }

    #[test]
    fn flush_empties() {
        let mut c = PtwCache::new(32);
        c.fill(42, 2);
        c.flush();
        assert_eq!(c.deepest_cached(42), None);
    }

    #[test]
    fn capacity_bounds_entries() {
        let mut c = PtwCache::new(4);
        // Fill many disjoint regions; the cache can only keep a few.
        for i in 0..64u64 {
            c.fill(i << 30, 0);
        }
        let hits = (0..64u64)
            .filter(|i| c.deepest_cached(*i << 30).is_some())
            .count();
        assert!(hits <= 4 + 1, "tiny cache cannot retain all regions");
    }
}
