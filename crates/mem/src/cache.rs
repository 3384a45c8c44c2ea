//! A generic set-associative cache.

use fam_sim::stats::Ratio;
use fam_sim::SimRng;

/// Replacement policy for a [`SetAssocCache`].
///
/// The paper's data caches and TLBs use LRU (Table II); the in-DRAM FAM
/// translation cache uses random replacement because tracking recency
/// would require extra DRAM writes (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Replacement {
    /// Evict the least-recently-used way.
    Lru,
    /// Evict a uniformly random way.
    Random,
}

/// Geometry and policy of a [`SetAssocCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (must be non-zero).
    pub sets: usize,
    /// Ways per set (must be non-zero).
    pub ways: usize,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize, replacement: Replacement) -> CacheConfig {
        assert!(sets > 0, "cache needs at least one set");
        assert!(ways > 0, "cache needs at least one way");
        CacheConfig {
            sets,
            ways,
            replacement,
        }
    }

    /// Total entry capacity.
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }

    /// Convenience: geometry for a data cache of `capacity_bytes` with
    /// 64-byte blocks and the given associativity, LRU replacement.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not an exact multiple of
    /// `64 * ways`.
    pub fn data_cache(capacity_bytes: u64, ways: usize) -> CacheConfig {
        let blocks = capacity_bytes / crate::BLOCK_BYTES;
        assert_eq!(
            capacity_bytes % (crate::BLOCK_BYTES * ways as u64),
            0,
            "capacity must divide evenly into sets"
        );
        CacheConfig::new((blocks / ways as u64) as usize, ways, Replacement::Lru)
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome<V = ()> {
    /// Whether the key was present.
    pub hit: bool,
    /// The key (with its value) evicted to make room, if any.
    pub evicted: Option<(u64, V)>,
}

/// Tag value marking an empty way. Keys are addresses or page
/// numbers, which never reach `u64::MAX` in practice; the constructor
/// rejects nothing, but inserting this exact key is unsupported.
const EMPTY: u64 = u64::MAX;

/// A set-associative cache mapping `u64` keys to values, with hit/miss
/// statistics.
///
/// Keys are full addresses or page numbers; the set index is
/// `key % sets` and the full key is stored as the tag, so there are no
/// aliasing artifacts regardless of geometry.
///
/// This single structure backs the data caches, TLBs, PTW caches, the
/// STU cache organisations and the in-DRAM FAM translation cache, each
/// with its own geometry and value type.
///
/// # Examples
///
/// ```
/// use fam_mem::{CacheConfig, Replacement, SetAssocCache};
///
/// let mut tlb: SetAssocCache<u64> =
///     SetAssocCache::new(CacheConfig::new(16, 2, Replacement::Lru));
/// tlb.insert(0x42, 0x99);
/// assert_eq!(tlb.get(0x42), Some(&0x99));
/// assert_eq!(tlb.stats().hits(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<V = ()> {
    config: CacheConfig,
    /// Tags of all ways of all sets, contiguous: set `i` occupies
    /// `i * ways .. (i + 1) * ways`, with [`EMPTY`] marking free ways.
    /// Tags, recency stamps and values are parallel arrays rather than
    /// an array of structs: a lookup on the simulation's hottest path
    /// then scans only the densely-packed tags — one or two cache
    /// lines per set — instead of striding over stamps and values it
    /// rarely needs.
    keys: Vec<u64>,
    /// Recency stamps; larger is more recent. Parallel to `keys`.
    stamps: Vec<u64>,
    /// Cached values; parallel to `keys`. `None` iff the way is empty.
    values: Vec<Option<V>>,
    /// `sets - 1` when the set count is a power of two, else 0. Set
    /// selection is on the critical load chain of every lookup, and
    /// all the simulator's cache geometries are powers of two, so a
    /// mask here turns the hardware-divide in `key % sets` into an
    /// AND.
    set_mask: u64,
    clock: u64,
    stats: Ratio,
    rng: SimRng,
}

impl<V> SetAssocCache<V> {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> SetAssocCache<V> {
        SetAssocCache::with_seed(config, 0xCACE)
    }

    /// Creates an empty cache with an explicit RNG seed (relevant only
    /// for [`Replacement::Random`]).
    pub fn with_seed(config: CacheConfig, seed: u64) -> SetAssocCache<V> {
        let entries = config.entries();
        let mut values = Vec::new();
        values.resize_with(entries, || None);
        let sets = config.sets as u64;
        SetAssocCache {
            config,
            keys: vec![EMPTY; entries],
            stamps: vec![0; entries],
            values,
            set_mask: if sets.is_power_of_two() { sets - 1 } else { 0 },
            clock: 0,
            stats: Ratio::new(),
            rng: SimRng::seeded(seed),
        }
    }

    /// First slot of `key`'s set in the flat way array.
    fn set_start(&self, key: u64) -> usize {
        let set = if self.set_mask != 0 {
            (key & self.set_mask) as usize
        } else {
            (key % self.config.sets as u64) as usize
        };
        set * self.config.ways
    }

    /// The slot holding `key`, if resident. Every lookup flavour —
    /// counted or not, shared or mutable — resolves residency through
    /// this one helper, so `access`-style methods and their
    /// side-effect-free `probe`/`peek` counterparts can never disagree
    /// about what is in the cache.
    fn find(&self, key: u64) -> Option<usize> {
        let start = self.set_start(key);
        self.keys[start..start + self.config.ways]
            .iter()
            .position(|&k| k == key)
            .map(|w| start + w)
    }

    /// Looks up `key`, updating recency and hit/miss statistics, and
    /// returns a reference to its value if present.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        self.clock += 1;
        match self.find(key) {
            Some(i) => {
                self.stamps[i] = self.clock;
                self.stats.hit();
                self.values[i].as_ref()
            }
            None => {
                self.stats.miss();
                None
            }
        }
    }

    /// Looks up `key` and returns a mutable reference to its value,
    /// updating recency and statistics.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.clock += 1;
        match self.find(key) {
            Some(i) => {
                self.stamps[i] = self.clock;
                self.stats.hit();
                self.values[i].as_mut()
            }
            None => {
                self.stats.miss();
                None
            }
        }
    }

    /// Checks for `key` without updating recency or statistics.
    pub fn probe(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Shared access to `key`'s value without touching recency or
    /// hit/miss statistics — the value-returning counterpart of
    /// [`SetAssocCache::probe`], for predicting what a later real
    /// access would observe.
    pub fn peek(&self, key: u64) -> Option<&V> {
        self.find(key).and_then(|i| self.values[i].as_ref())
    }

    /// Mutable access to `key`'s value without touching recency or
    /// hit/miss statistics — for metadata maintenance (e.g. a dirty
    /// bit propagated by an outer cache level) that is not a real
    /// access.
    pub fn peek_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key).and_then(|i| self.values[i].as_mut())
    }

    /// Inserts `key → value`, evicting if the set is full. Returns the
    /// evicted entry, if any. Re-inserting an existing key replaces its
    /// value and refreshes recency without eviction.
    pub fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)> {
        debug_assert_ne!(key, EMPTY, "the all-ones key is reserved");
        self.clock += 1;
        let clock = self.clock;

        // One fused scan finds the resident way, the first empty way
        // and the LRU way together; inserts run on every modelled
        // cache miss, so the set is walked once, not three times: first
        // match, first empty, first minimum stamp.
        let start = self.set_start(key);
        let mut found = usize::MAX;
        let mut empty = usize::MAX;
        let mut lru = start;
        let mut lru_stamp = u64::MAX;
        for i in start..start + self.config.ways {
            let k = self.keys[i];
            if k == key {
                found = i;
                break;
            }
            if k == EMPTY && empty == usize::MAX {
                empty = i;
            }
            if self.stamps[i] < lru_stamp {
                lru_stamp = self.stamps[i];
                lru = i;
            }
        }
        if found != usize::MAX {
            self.values[found] = Some(value);
            self.stamps[found] = clock;
            return None;
        }
        if empty != usize::MAX {
            self.keys[empty] = key;
            self.stamps[empty] = clock;
            self.values[empty] = Some(value);
            return None;
        }
        let victim = match self.config.replacement {
            Replacement::Lru => lru,
            Replacement::Random => start + self.rng.index(self.config.ways),
        };
        let old_key = std::mem::replace(&mut self.keys[victim], key);
        let old_value = self.values[victim].replace(value);
        self.stamps[victim] = clock;
        Some((old_key, old_value.expect("full set has no empty ways")))
    }

    /// Removes `key` if present, returning its value.
    pub fn invalidate(&mut self, key: u64) -> Option<V> {
        let i = self.find(key)?;
        self.keys[i] = EMPTY;
        self.values[i].take()
    }

    /// Removes every entry whose key satisfies `pred`, returning how
    /// many were removed. Used for shootdowns (page migration, §VI).
    pub fn invalidate_matching(&mut self, mut pred: impl FnMut(u64) -> bool) -> usize {
        let mut removed = 0;
        for (i, k) in self.keys.iter_mut().enumerate() {
            if *k != EMPTY && pred(*k) {
                *k = EMPTY;
                self.values[i] = None;
                removed += 1;
            }
        }
        removed
    }

    /// Keeps only entries whose `(key, &value)` pair satisfies `pred`,
    /// returning how many were removed. The value-aware twin of
    /// [`SetAssocCache::invalidate_matching`], for shootdowns that
    /// must match on cached payloads (e.g. PTEs naming quarantined
    /// FAM frames rather than the virtual keys that index them).
    pub fn retain(&mut self, mut pred: impl FnMut(u64, &V) -> bool) -> usize {
        let mut removed = 0;
        for (i, k) in self.keys.iter_mut().enumerate() {
            if *k == EMPTY {
                continue;
            }
            let keep = self.values[i]
                .as_ref()
                .map(|v| pred(*k, v))
                .expect("non-empty way has a value");
            if !keep {
                *k = EMPTY;
                self.values[i] = None;
                removed += 1;
            }
        }
        removed
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.keys.iter().filter(|&&k| k != EMPTY).count()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss statistics accumulated by `get`/`get_mut`/`access`.
    pub fn stats(&self) -> Ratio {
        self.stats
    }

    /// Resets statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Drops all entries and statistics.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        for v in &mut self.values {
            *v = None;
        }
        self.stats.reset();
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Iterates over `(key, &value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.keys
            .iter()
            .zip(&self.values)
            .filter_map(|(&k, v)| v.as_ref().map(|v| (k, v)))
    }
}

impl<V: Clone> SetAssocCache<V> {
    /// Access `key`; on miss, insert the value produced by `fill`.
    /// Returns the outcome (hit flag plus any eviction).
    pub fn access_with(&mut self, key: u64, fill: impl FnOnce() -> V) -> AccessOutcome<V> {
        if self.get(key).is_some() {
            AccessOutcome {
                hit: true,
                evicted: None,
            }
        } else {
            let evicted = self.insert(key, fill());
            AccessOutcome {
                hit: false,
                evicted,
            }
        }
    }
}

impl SetAssocCache<()> {
    /// Access `key` in a unit-valued cache, filling on miss.
    pub fn access(&mut self, key: u64) -> AccessOutcome<()> {
        self.access_with(key, || ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: usize, replacement: Replacement) -> SetAssocCache<u32> {
        SetAssocCache::new(CacheConfig::new(1, ways, replacement))
    }

    #[test]
    fn retain_filters_on_values_and_counts_removals() {
        let mut c = tiny(4, Replacement::Lru);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        let removed = c.retain(|_key, &v| v < 25);
        assert_eq!(removed, 1, "only the value 30 fails the predicate");
        assert_eq!(c.peek(1), Some(&10));
        assert_eq!(c.peek(2), Some(&20));
        assert_eq!(c.peek(3), None, "30 was shot down");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny(2, Replacement::Lru);
        c.insert(1, 10);
        assert_eq!(c.get(1), Some(&10));
        assert_eq!(c.get(2), None);
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, Replacement::Lru);
        c.insert(1, 10);
        c.insert(2, 20);
        c.get(1); // 2 is now LRU
        let evicted = c.insert(3, 30);
        assert_eq!(evicted, Some((2, 20)));
        assert!(c.probe(1));
        assert!(c.probe(3));
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut c = tiny(2, Replacement::Lru);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.insert(1, 11), None);
        assert_eq!(c.get(1), Some(&11));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn random_replacement_evicts_someone() {
        let mut c = tiny(4, Replacement::Random);
        for k in 0..4 {
            c.insert(k, k as u32);
        }
        let evicted = c.insert(99, 99);
        assert!(evicted.is_some());
        assert_eq!(c.len(), 4);
        assert!(c.probe(99));
    }

    #[test]
    fn set_indexing_separates_keys() {
        let mut c: SetAssocCache<u32> =
            SetAssocCache::new(CacheConfig::new(4, 1, Replacement::Lru));
        // Keys 0..4 land in distinct sets; no evictions.
        for k in 0..4 {
            assert_eq!(c.insert(k, 0), None);
        }
        // Key 4 collides with key 0 (4 % 4 == 0).
        assert_eq!(c.insert(4, 0), Some((0, 0)));
    }

    #[test]
    fn probe_does_not_affect_stats_or_recency() {
        let mut c = tiny(2, Replacement::Lru);
        c.insert(1, 10);
        c.insert(2, 20);
        assert!(c.probe(1));
        assert_eq!(c.stats().total(), 0);
        // Recency untouched: 1 is still LRU, gets evicted.
        assert_eq!(c.insert(3, 30), Some((1, 10)));
    }

    #[test]
    fn peek_reads_without_side_effects() {
        let mut c = tiny(2, Replacement::Lru);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.peek(1), Some(&10));
        assert_eq!(c.peek(3), None);
        assert_eq!(c.stats().total(), 0);
        // Recency untouched: 1 is still LRU, gets evicted.
        assert_eq!(c.insert(3, 30), Some((1, 10)));
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut c = tiny(2, Replacement::Lru);
        c.insert(1, 10);
        assert_eq!(c.invalidate(1), Some(10));
        assert_eq!(c.invalidate(1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn invalidate_matching_sweeps() {
        let mut c: SetAssocCache<u32> =
            SetAssocCache::new(CacheConfig::new(8, 2, Replacement::Lru));
        for k in 0..16 {
            c.insert(k, 0);
        }
        let removed = c.invalidate_matching(|k| k % 2 == 0);
        assert_eq!(removed, 8);
        assert_eq!(c.len(), 8);
        assert!(c.iter().all(|(k, _)| k % 2 == 1));
    }

    #[test]
    fn access_with_fills_on_miss() {
        let mut c = tiny(2, Replacement::Lru);
        let out = c.access_with(5, || 50);
        assert!(!out.hit);
        let out = c.access_with(5, || 99);
        assert!(out.hit);
        assert_eq!(c.get(5), Some(&50), "fill only runs on miss");
    }

    #[test]
    fn unit_cache_access() {
        let mut c = SetAssocCache::new(CacheConfig::new(2, 2, Replacement::Lru));
        assert!(!c.access(7).hit);
        assert!(c.access(7).hit);
    }

    #[test]
    fn data_cache_geometry() {
        // 32 KB, 8-way, 64 B blocks -> 64 sets.
        let cfg = CacheConfig::data_cache(32 * 1024, 8);
        assert_eq!(cfg.sets, 64);
        assert_eq!(cfg.ways, 8);
        assert_eq!(cfg.entries(), 512);
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = tiny(2, Replacement::Lru);
        c.insert(1, 10);
        c.get(1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().total(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        let _ = CacheConfig::new(1, 0, Replacement::Lru);
    }

    /// `probe`/`peek` predict what `get`/`insert` will observe: all of
    /// them resolve residency through [`SetAssocCache::find`], and this
    /// test hammers that agreement with a randomized, heavily-aliasing
    /// access stream.
    #[test]
    fn probes_agree_with_accesses_under_random_streams() {
        let mut rng = SimRng::seeded(0xA93E);
        let mut c: SetAssocCache<u64> =
            SetAssocCache::new(CacheConfig::new(8, 4, Replacement::Lru));
        for step in 0..20_000u64 {
            // 64 keys over 8 sets of 4 ways: constant aliasing, so
            // every branch (hit, vacancy fill, eviction) is exercised.
            let key = rng.below(64);
            let predicted_hit = c.probe(key);
            assert_eq!(predicted_hit, c.peek(key).is_some());
            if rng.chance(0.5) {
                assert_eq!(
                    c.get(key).is_some(),
                    predicted_hit,
                    "probe disagreed with a counted lookup at step {step}"
                );
            } else {
                let evicted = c.insert(key, step);
                if predicted_hit {
                    assert_eq!(evicted, None, "resident keys never evict");
                }
                assert!(c.probe(key), "inserted key must be resident");
                assert_eq!(c.peek(key), Some(&step));
            }
        }
        assert!(c.stats().total() > 0, "the stream exercised counted paths");
    }

    #[test]
    fn get_mut_allows_in_place_update() {
        let mut c = tiny(2, Replacement::Lru);
        c.insert(1, 10);
        if let Some(v) = c.get_mut(1) {
            *v = 42;
        }
        assert_eq!(c.get(1), Some(&42));
    }
}
