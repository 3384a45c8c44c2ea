//! The node's three-level data-cache hierarchy.

use fam_sim::stats::Ratio;
use fam_sim::Duration;

use crate::{CacheConfig, SetAssocCache};

/// Which cache level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Private per-core L1.
    L1,
    /// Private per-core L2.
    L2,
    /// Shared L3 (last-level cache).
    L3,
}

/// Outcome of a hierarchy lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// The level that hit, or `None` on an LLC miss (memory must be
    /// accessed by the caller).
    pub level: Option<HitLevel>,
    /// Cycles spent traversing the hierarchy (lookup latency of every
    /// level visited). On an LLC miss the caller adds memory latency.
    pub latency: Duration,
    /// A dirty line evicted from the LLC by this access's fill, if any;
    /// the caller is responsible for writing it back to memory.
    pub writeback: Option<u64>,
}

/// Geometry and latencies of the L1/L2/L3 hierarchy (Table II:
/// 32 KB / 256 KB / 1 MB, 64 B blocks, LRU, inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 capacity in bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L1 lookup latency in cycles.
    pub l1_latency: u64,
    /// L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 lookup latency in cycles.
    pub l2_latency: u64,
    /// Shared L3 capacity in bytes.
    pub l3_bytes: u64,
    /// L3 associativity.
    pub l3_ways: usize,
    /// L3 lookup latency in cycles.
    pub l3_latency: u64,
}

impl Default for HierarchyConfig {
    /// The paper's hierarchy (Table II) with conventional lookup
    /// latencies (4 / 12 / 38 cycles).
    fn default() -> HierarchyConfig {
        HierarchyConfig {
            l1_bytes: 32 * 1024,
            l1_ways: 8,
            l1_latency: 4,
            l2_bytes: 256 * 1024,
            l2_ways: 8,
            l2_latency: 12,
            l3_bytes: 1024 * 1024,
            l3_ways: 16,
            l3_latency: 38,
        }
    }
}

/// Bits in an L3 line's sharer mask; core `c` owns bit
/// `c % SHARER_BITS`.
const SHARER_BITS: usize = u8::BITS as usize;

/// State of one L3 line.
#[derive(Debug, Clone, Copy)]
struct LlcLine {
    /// Written since it was filled, here or in a private copy whose
    /// dirty bit has since been folded in.
    dirty: bool,
    /// One bit per core (modulo [`SHARER_BITS`]) that may hold the
    /// line in its private L1 or L2.
    sharers: u8,
}

/// The sharer-mask bit of `core`.
fn sharer_bit(core: usize) -> u8 {
    1 << (core % SHARER_BITS)
}

/// Private L1/L2 caches per core plus a shared, inclusive L3.
///
/// Keys are cache-line addresses ([`crate::line_of`]). Lines track a
/// dirty bit; dirty LLC evictions are surfaced to the caller as
/// writebacks so the NVM write asymmetry is exercised. Inclusivity is
/// enforced: an L3 eviction back-invalidates the line from the private
/// caches, as in the paper's inclusive configuration.
///
/// Like the core-valid bits of a real inclusive LLC, each L3 line
/// carries a sharer mask: every access that fills a core's private
/// caches from L3 sets that core's bit, and an eviction probes only
/// the L1/L2 of cores whose bit is set. Cores that alias onto one bit
/// (core `c` uses bit `c % 8`) are all probed, so the mask is a
/// superset of the true sharers for any core count and the outcome is
/// exactly that of probing every core.
///
/// # Examples
///
/// ```
/// use fam_mem::{CacheHierarchy, HierarchyConfig, HitLevel};
///
/// let mut h = CacheHierarchy::new(4, HierarchyConfig::default());
/// let first = h.access(0, 0x40, false);
/// assert_eq!(first.level, None); // cold miss
/// let again = h.access(0, 0x40, false);
/// assert_eq!(again.level, Some(HitLevel::L1));
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Vec<SetAssocCache<bool>>,
    l2: Vec<SetAssocCache<bool>>,
    l3: SetAssocCache<LlcLine>,
    config: HierarchyConfig,
    llc: Ratio,
}

impl CacheHierarchy {
    /// Creates a hierarchy for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or any capacity does not divide into
    /// its geometry.
    pub fn new(cores: usize, config: HierarchyConfig) -> CacheHierarchy {
        assert!(cores > 0, "need at least one core");
        let l1_cfg = CacheConfig::data_cache(config.l1_bytes, config.l1_ways);
        let l2_cfg = CacheConfig::data_cache(config.l2_bytes, config.l2_ways);
        let l3_cfg = CacheConfig::data_cache(config.l3_bytes, config.l3_ways);
        CacheHierarchy {
            l1: (0..cores).map(|_| SetAssocCache::new(l1_cfg)).collect(),
            l2: (0..cores).map(|_| SetAssocCache::new(l2_cfg)).collect(),
            l3: SetAssocCache::new(l3_cfg),
            config,
            llc: Ratio::new(),
        }
    }

    /// Looks up the line at `line_addr` for `core`, filling all levels
    /// on miss (inclusive). `is_write` marks the line dirty.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, line_addr: u64, is_write: bool) -> LookupResult {
        let _prof = fam_sim::profile::span(fam_sim::profile::PhaseId::CacheHierarchy);
        let mut latency = Duration(self.config.l1_latency);

        if let Some(dirty) = self.l1[core].get_mut(line_addr) {
            *dirty |= is_write;
            return LookupResult {
                level: Some(HitLevel::L1),
                latency,
                writeback: None,
            };
        }
        latency += Duration(self.config.l2_latency);
        if let Some(dirty) = self.l2[core].get_mut(line_addr) {
            *dirty |= is_write;
            self.fill_l1(core, line_addr, is_write);
            return LookupResult {
                level: Some(HitLevel::L2),
                latency,
                writeback: None,
            };
        }
        latency += Duration(self.config.l3_latency);
        // An L2 hit needs no sharer update: inclusion means the line
        // entered this core's L2 through one of the two paths below,
        // which set its bit, and the bit stays set until L3 evicts it.
        if let Some(line) = self.l3.get_mut(line_addr) {
            line.dirty |= is_write;
            line.sharers |= sharer_bit(core);
            self.llc.hit();
            self.fill_l2(core, line_addr, is_write);
            self.fill_l1(core, line_addr, is_write);
            return LookupResult {
                level: Some(HitLevel::L3),
                latency,
                writeback: None,
            };
        }

        // LLC miss: fill all levels, enforce inclusion on L3 eviction.
        self.llc.miss();
        let mut writeback = None;
        let fill = LlcLine {
            dirty: is_write,
            sharers: sharer_bit(core),
        };
        if let Some((victim_line, victim)) = self.l3.insert(line_addr, fill) {
            let mut victim_dirty = victim.dirty;
            let mut sharers = victim.sharers;
            while sharers != 0 {
                let bit = sharers.trailing_zeros() as usize;
                sharers &= sharers - 1;
                for c in (bit..self.l1.len()).step_by(SHARER_BITS) {
                    victim_dirty |= self.l1[c].invalidate(victim_line).unwrap_or(false);
                    victim_dirty |= self.l2[c].invalidate(victim_line).unwrap_or(false);
                }
            }
            if victim_dirty {
                writeback = Some(victim_line);
            }
        }
        self.fill_l2(core, line_addr, is_write);
        self.fill_l1(core, line_addr, is_write);
        LookupResult {
            level: None,
            latency,
            writeback,
        }
    }

    /// Fills a line into `core`'s L1; a dirty victim's bit is written
    /// back into L2 (or L3) rather than lost, so a later LLC eviction
    /// still sees the line as dirty.
    fn fill_l1(&mut self, core: usize, line_addr: u64, is_write: bool) {
        if let Some((victim, true)) = self.l1[core].insert(line_addr, is_write) {
            if let Some(dirty) = self.l2[core].peek_mut(victim) {
                *dirty = true;
            } else if let Some(line) = self.l3.peek_mut(victim) {
                line.dirty = true;
            }
        }
    }

    /// Fills a line into `core`'s L2, propagating a dirty victim's bit
    /// into L3.
    fn fill_l2(&mut self, core: usize, line_addr: u64, is_write: bool) {
        if let Some((victim, true)) = self.l2[core].insert(line_addr, is_write) {
            if let Some(line) = self.l3.peek_mut(victim) {
                line.dirty = true;
            }
        }
    }

    /// Probes whether a line is resident anywhere, without side
    /// effects.
    pub fn contains(&self, line_addr: u64) -> bool {
        self.l3.probe(line_addr)
            || self.l1.iter().any(|c| c.probe(line_addr))
            || self.l2.iter().any(|c| c.probe(line_addr))
    }

    /// LLC (L3) hit/miss statistics — the paper's MPKI is computed
    /// against these misses.
    pub fn llc_stats(&self) -> Ratio {
        self.llc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheHierarchy {
        // Small hierarchy so evictions are easy to trigger:
        // L1 = 4 lines, L2 = 8 lines, L3 = 16 lines.
        CacheHierarchy::new(
            2,
            HierarchyConfig {
                l1_bytes: 4 * 64,
                l1_ways: 2,
                l1_latency: 4,
                l2_bytes: 8 * 64,
                l2_ways: 2,
                l2_latency: 12,
                l3_bytes: 16 * 64,
                l3_ways: 2,
                l3_latency: 38,
            },
        )
    }

    #[test]
    fn miss_then_l1_hit() {
        let mut h = small();
        let r = h.access(0, 100, false);
        assert_eq!(r.level, None);
        assert_eq!(r.latency, Duration(54)); // full lookup path
        let r = h.access(0, 100, false);
        assert_eq!(r.level, Some(HitLevel::L1));
        assert_eq!(r.latency, Duration(4));
    }

    #[test]
    fn private_caches_are_per_core_but_l3_is_shared() {
        let mut h = small();
        h.access(0, 100, false);
        // Core 1 misses its private caches but hits shared L3.
        let r = h.access(1, 100, false);
        assert_eq!(r.level, Some(HitLevel::L3));
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = small();
        h.access(0, 0, false);
        // Fill L1 set 0 (2 ways, 2 sets -> lines 0,2,4 map to set 0).
        h.access(0, 2, false);
        h.access(0, 4, false); // evicts line 0 from L1; still in L2
        let r = h.access(0, 0, false);
        assert_eq!(r.level, Some(HitLevel::L2));
    }

    #[test]
    fn inclusive_l3_eviction_back_invalidates() {
        let mut h = small();
        h.access(0, 0, false);
        // Evict line 0 from L3 by filling its set (L3: 8 sets, 2 ways;
        // lines 0, 8, 16 share set 0).
        h.access(0, 8, false);
        h.access(0, 16, false);
        assert!(!h.contains(0), "inclusion: line 0 gone everywhere");
        let r = h.access(0, 0, false);
        assert_eq!(r.level, None, "back-invalidated line misses in L1 too");
    }

    #[test]
    fn dirty_llc_eviction_reports_writeback() {
        let mut h = small();
        h.access(0, 0, true); // dirty
        h.access(0, 8, false);
        let r = h.access(0, 16, false); // evicts dirty line 0 from L3
        assert_eq!(r.writeback, Some(0));
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut h = small();
        h.access(0, 0, false);
        h.access(0, 8, false);
        let r = h.access(0, 16, false);
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn write_in_l1_marks_dirty_for_later_writeback() {
        let mut h = small();
        h.access(0, 0, false); // clean fill
        h.access(0, 0, true); // dirtied in L1
        h.access(0, 8, false);
        let r = h.access(0, 16, false);
        // Dirty bit was set in L1, not L3; back-invalidation must
        // propagate it into the writeback decision.
        assert_eq!(r.writeback, Some(0));
    }

    #[test]
    fn dirty_bit_survives_l1_eviction() {
        let mut h = small();
        h.access(0, 0, true); // dirty in L1
                              // Evict line 0 from L1 (set 0 holds lines {0,2,4}; 2 ways).
        h.access(0, 2, false);
        h.access(0, 4, false);
        assert!(h.contains(0), "still in L2/L3");
        // Now push line 0 out of the LLC: its dirtiness must have been
        // propagated on the L1 eviction, yielding a writeback.
        h.access(0, 8, false);
        let r = h.access(0, 16, false);
        assert_eq!(r.writeback, Some(0), "dirty bit lost on L1 eviction");
    }

    #[test]
    fn dirty_propagation_does_not_disturb_llc_stats() {
        let mut h = small();
        h.access(0, 0, true);
        let before = h.llc_stats().total();
        h.access(0, 2, false); // may propagate dirty victim silently
        h.access(0, 4, false);
        // Only the two real accesses were counted at the LLC.
        assert_eq!(h.llc_stats().total(), before + 2);
    }

    #[test]
    fn llc_stats_count_only_l3_outcomes() {
        let mut h = small();
        h.access(0, 0, false); // LLC miss
        h.access(0, 0, false); // L1 hit: not an LLC event
        h.access(1, 0, false); // L3 hit
        assert_eq!(h.llc_stats().misses(), 1);
        assert_eq!(h.llc_stats().hits(), 1);
    }

    #[test]
    fn llc_eviction_invalidates_every_sharer_and_keeps_either_dirty_bit() {
        for writer in [0, 1] {
            let mut h = small();
            h.access(0, 0, false);
            h.access(1, 0, false); // L3 hit: core 1 joins the sharers
            h.access(writer, 0, true); // L1 hit: only that copy is dirty
            assert!(h.l1[0].probe(0) && h.l1[1].probe(0), "both cores hold it");
            h.access(0, 8, false);
            let r = h.access(0, 16, false); // evicts line 0 from L3
            assert_eq!(r.writeback, Some(0), "core {writer}'s dirty bit lost");
            assert!(!h.contains(0), "a private copy survived the eviction");
        }
    }

    #[test]
    fn inclusion_holds_with_more_cores_than_sharer_bits() {
        // 11 cores alias onto 8 bits; a tiny L3 shared by all of them
        // evicts constantly.
        let cores = SHARER_BITS + 3;
        let mut h = CacheHierarchy::new(
            cores,
            HierarchyConfig {
                l1_bytes: 4 * 64,
                l1_ways: 2,
                l1_latency: 4,
                l2_bytes: 8 * 64,
                l2_ways: 2,
                l2_latency: 12,
                l3_bytes: 32 * 64,
                l3_ways: 4,
                l3_latency: 38,
            },
        );
        let mut rng = fam_sim::SimRng::seeded(0x5A2E);
        for step in 0..20_000 {
            let core = rng.index(cores);
            h.access(core, rng.below(96), rng.chance(0.3));
            for c in 0..cores {
                for (line, _) in h.l1[c].iter().chain(h.l2[c].iter()) {
                    let llc = h.l3.peek(line);
                    assert!(llc.is_some(), "step {step}: core {c} holds {line}, L3 not");
                    assert_ne!(
                        llc.unwrap().sharers & sharer_bit(c),
                        0,
                        "step {step}: core {c} holds {line} without its sharer bit"
                    );
                }
            }
        }
    }

    #[test]
    fn paper_default_geometry() {
        let mut h = CacheHierarchy::new(4, HierarchyConfig::default());
        assert_eq!(h.l1.len(), 4);
        // A cold miss pays the full L1 + L2 + L3 lookup path.
        assert_eq!(h.access(0, 0, false).latency, Duration(54));
    }
}
