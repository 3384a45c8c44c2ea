//! A generic set-associative cache.

/// Geometry of a [`SetAssocCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (must be non-zero).
    pub(crate) sets: usize,
    /// Ways per set (must be non-zero).
    pub(crate) ways: usize,
}

impl CacheConfig {
    /// The most ways a set can hold: a one-byte recency rank orders
    /// them.
    pub const MAX_WAYS: usize = 256;

    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> CacheConfig {
        assert!(sets > 0, "cache needs at least one set");
        assert!(ways > 0, "cache needs at least one way");
        CacheConfig { sets, ways }
    }

    /// Total entry capacity.
    pub(crate) fn entries(&self) -> usize {
        self.sets * self.ways
    }

    /// Convenience: geometry for a data cache of `capacity_bytes` with
    /// 64-byte blocks and the given associativity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not an exact multiple of
    /// `64 * ways`.
    pub(crate) fn data_cache(capacity_bytes: u64, ways: usize) -> CacheConfig {
        let blocks = capacity_bytes / crate::BLOCK_BYTES;
        assert_eq!(
            capacity_bytes % (crate::BLOCK_BYTES * ways as u64),
            0,
            "capacity must divide evenly into sets"
        );
        CacheConfig::new((blocks / ways as u64) as usize, ways)
    }
}

/// Tag value marking an empty way. Keys are addresses or page
/// numbers, which never reach `u64::MAX` in practice; the constructor
/// rejects nothing, but this exact key is unsupported: an insert would
/// look like an empty way, and a lookup would match one. Debug builds
/// assert that no caller passes it.
const EMPTY: u64 = u64::MAX;

/// A set-associative LRU cache mapping `u64` keys to values.
///
/// Keys are full addresses or page numbers; the set index is
/// `key % sets` and the full key is stored as the tag, so there are no
/// aliasing artifacts regardless of geometry.
///
/// This structure backs the data caches, TLBs, PTW caches and the STU
/// cache organisations, each with its own geometry and value type. The
/// in-DRAM FAM translation cache (`deact::FamTranslator`) packs its
/// four-way sets of 32-bit tags and values into 32-byte blocks instead.
///
/// The paper's data caches, TLBs and STU caches are all LRU (Table II,
/// §IV), so LRU is the only policy. Recency is one byte per way (a rank
/// within its set), so a geometry may have at most 256 ways. The cache
/// keeps no hit/miss ledger: each owner counts the lookups its report
/// needs.
///
/// # Examples
///
/// ```
/// use fam_mem::{CacheConfig, SetAssocCache};
///
/// let mut tlb: SetAssocCache<u64> = SetAssocCache::new(CacheConfig::new(16, 2));
/// tlb.insert(0x42, 0x99);
/// assert_eq!(tlb.get(0x42), Some(&0x99));
/// assert_eq!(tlb.get(0x43), None);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<V = ()> {
    config: CacheConfig,
    /// Tags of all ways of all sets, contiguous: set `i` occupies
    /// `i * ways .. (i + 1) * ways`, with [`EMPTY`] marking free ways.
    /// Tags, recency ranks and values are parallel arrays rather than
    /// an array of structs: a lookup on the simulation's hottest path
    /// then scans only the densely-packed tags — one or two cache
    /// lines per set — instead of striding over ranks and values it
    /// rarely needs.
    keys: Vec<u64>,
    /// Recency ranks, one byte per way, parallel to `keys`: each set's
    /// ranks are a permutation of `0..ways`, 0 the most recent. Ways
    /// start ranked by index; every fill touches its way, so in a full
    /// set the ranks are the exact recency order and the largest rank
    /// is the least-recently-used way.
    ranks: Vec<u8>,
    /// Cached values; parallel to `keys`. `None` iff the way is empty.
    values: Vec<Option<V>>,
    /// `sets - 1` when the set count is a power of two, else 0. Set
    /// selection is on the critical load chain of every lookup, and
    /// all the simulator's cache geometries are powers of two, so a
    /// mask here turns the hardware-divide in `key % sets` into an
    /// AND.
    set_mask: u64,
}

impl<V> SetAssocCache<V> {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than 256 ways, the most a
    /// one-byte recency rank can order.
    pub fn new(config: CacheConfig) -> SetAssocCache<V> {
        assert!(
            config.ways <= CacheConfig::MAX_WAYS,
            "{} ways exceed the 256 a one-byte recency rank orders",
            config.ways
        );
        let entries = config.entries();
        let mut values = Vec::new();
        values.resize_with(entries, || None);
        let sets = config.sets as u64;
        SetAssocCache {
            config,
            keys: vec![EMPTY; entries],
            ranks: (0..config.ways)
                .map(|w| w as u8)
                .collect::<Vec<_>>()
                .repeat(config.sets),
            values,
            set_mask: if sets.is_power_of_two() { sets - 1 } else { 0 },
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
    /// recency-updating or not, shared or mutable — resolves residency
    /// through this one helper, so `get`/`insert` and their
    /// side-effect-free `probe`/`peek` counterparts can never disagree
    /// about what is in the cache.
    fn find(&self, key: u64) -> Option<usize> {
        debug_assert_ne!(key, EMPTY, "the all-ones key is reserved");
        let start = self.set_start(key);
        self.keys[start..start + self.config.ways]
            .iter()
            .position(|&k| k == key)
            .map(|w| start + w)
    }

    /// Makes slot `i` of the set starting at `start` its most recent
    /// way: every way ranked above it (more recent) moves down one rank
    /// and `i` takes rank 0. A repeated hit on the most recent way costs
    /// one load and compare.
    #[inline]
    fn touch(&mut self, start: usize, i: usize) {
        let r = self.ranks[i];
        if r == 0 {
            return;
        }
        for rank in &mut self.ranks[start..start + self.config.ways] {
            *rank += u8::from(*rank < r);
        }
        self.ranks[i] = 0;
    }

    /// Looks up `key`, updating recency, and returns a reference to its
    /// value if present.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        let i = self.find(key)?;
        self.touch(self.set_start(key), i);
        self.values[i].as_ref()
    }

    /// Looks up `key` and returns a mutable reference to its value,
    /// updating recency.
    pub(crate) fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let i = self.find(key)?;
        self.touch(self.set_start(key), i);
        self.values[i].as_mut()
    }

    /// Checks for `key` without updating recency.
    #[cfg(test)]
    pub(crate) fn probe(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Shared access to `key`'s value without touching recency — the
    /// value-returning counterpart of
    /// [`SetAssocCache::probe`], for predicting what a later real
    /// access would observe.
    #[cfg(test)]
    pub(crate) fn peek(&self, key: u64) -> Option<&V> {
        self.find(key).and_then(|i| self.values[i].as_ref())
    }

    /// Mutable access to `key`'s value without touching recency — for
    /// metadata maintenance (e.g. a dirty
    /// bit propagated by an outer cache level) that is not a real
    /// access.
    pub(crate) fn peek_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key).and_then(|i| self.values[i].as_mut())
    }

    /// Inserts `key → value`, evicting the set's least-recently-used
    /// way if the set is full. Returns the evicted entry, if any. Re-inserting an existing key replaces its
    /// value and refreshes recency without eviction.
    pub fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)> {
        debug_assert_ne!(key, EMPTY, "the all-ones key is reserved");

        // One fused scan finds the resident way, the first empty way
        // and the LRU way together; inserts run on every modelled
        // cache miss, so the set is walked once, not three times: first
        // match, first empty, largest rank.
        let start = self.set_start(key);
        let mut found = usize::MAX;
        let mut empty = usize::MAX;
        let mut lru = start;
        let mut lru_rank = 0;
        for i in start..start + self.config.ways {
            let k = self.keys[i];
            if k == key {
                found = i;
                break;
            }
            if k == EMPTY && empty == usize::MAX {
                empty = i;
            }
            if self.ranks[i] > lru_rank {
                lru_rank = self.ranks[i];
                lru = i;
            }
        }
        if found != usize::MAX {
            self.values[found] = Some(value);
            self.touch(start, found);
            return None;
        }
        if empty != usize::MAX {
            self.keys[empty] = key;
            self.values[empty] = Some(value);
            self.touch(start, empty);
            return None;
        }
        let old_key = std::mem::replace(&mut self.keys[lru], key);
        let old_value = self.values[lru].replace(value);
        self.touch(start, lru);
        Some((old_key, old_value.expect("full set has no empty ways")))
    }

    /// Removes `key` if present, returning its value.
    pub fn invalidate(&mut self, key: u64) -> Option<V> {
        let i = self.find(key)?;
        self.keys[i] = EMPTY;
        self.values[i].take()
    }

    /// Keeps only entries whose `(key, &value)` pair satisfies `pred`,
    /// returning how many were removed. Used for shootdowns that must
    /// match on cached payloads (e.g. PTEs naming quarantined FAM
    /// frames rather than the virtual keys that index them).
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

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        for v in &mut self.values {
            *v = None;
        }
    }

    /// Iterates over `(key, &value)` pairs in unspecified order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.keys
            .iter()
            .zip(&self.values)
            .filter_map(|(&k, v)| v.as_ref().map(|v| (k, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fam_sim::SimRng;

    fn tiny(ways: usize) -> SetAssocCache<u32> {
        SetAssocCache::new(CacheConfig::new(1, ways))
    }

    #[test]
    fn retain_filters_on_values_and_counts_removals() {
        let mut c = tiny(4);
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reserved")]
    fn lookups_reject_the_reserved_key() {
        // On a cold cache every way holds the empty tag, so a lookup of
        // it would otherwise report a hit.
        let c = tiny(2);
        c.probe(EMPTY);
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny(2);
        c.insert(1, 10);
        assert_eq!(c.get(1), Some(&10));
        assert_eq!(c.get(2), None);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2);
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
        let mut c = tiny(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.insert(1, 11), None);
        assert_eq!(c.get(1), Some(&11));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn set_indexing_separates_keys() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheConfig::new(4, 1));
        // Keys 0..4 land in distinct sets; no evictions.
        for k in 0..4 {
            assert_eq!(c.insert(k, 0), None);
        }
        // Key 4 collides with key 0 (4 % 4 == 0).
        assert_eq!(c.insert(4, 0), Some((0, 0)));
    }

    #[test]
    fn probe_does_not_affect_stats_or_recency() {
        let mut c = tiny(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert!(c.probe(1));
        // Recency untouched: 1 is still LRU, gets evicted.
        assert_eq!(c.insert(3, 30), Some((1, 10)));
    }

    #[test]
    fn peek_reads_without_side_effects() {
        let mut c = tiny(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.peek(1), Some(&10));
        assert_eq!(c.peek(3), None);
        // Recency untouched: 1 is still LRU, gets evicted.
        assert_eq!(c.insert(3, 30), Some((1, 10)));
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut c = tiny(2);
        c.insert(1, 10);
        assert_eq!(c.invalidate(1), Some(10));
        assert_eq!(c.invalidate(1), None);
        assert!(c.is_empty());
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
        let mut c = tiny(2);
        c.insert(1, 10);
        c.get(1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(1), None);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        let _ = CacheConfig::new(1, 0);
    }

    /// `probe`/`peek` predict what `get`/`insert` will observe: all of
    /// them resolve residency through [`SetAssocCache::find`], and this
    /// test hammers that agreement with a randomized, heavily-aliasing
    /// access stream.
    #[test]
    fn probes_agree_with_accesses_under_random_streams() {
        let mut rng = SimRng::seeded(0xA93E);
        let mut c: SetAssocCache<u64> = SetAssocCache::new(CacheConfig::new(8, 4));
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
                    "probe disagreed with a recency-updating lookup at step {step}"
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
    }

    /// The recency algorithm the rank LRU replaced: a global clock
    /// bumped by every `get`, `get_mut` and `insert`, one stamp per way
    /// written on each touch, and the first way with the smallest stamp
    /// as the victim of a full set.
    struct StampModel {
        ways: usize,
        slots: Vec<Option<(u64, u64)>>,
        stamps: Vec<u64>,
        clock: u64,
    }

    impl StampModel {
        fn new(sets: usize, ways: usize) -> StampModel {
            StampModel {
                ways,
                slots: vec![None; sets * ways],
                stamps: vec![0; sets * ways],
                clock: 0,
            }
        }

        fn set(&self, key: u64) -> std::ops::Range<usize> {
            let start = (key % (self.slots.len() / self.ways) as u64) as usize * self.ways;
            start..start + self.ways
        }

        fn find(&self, key: u64) -> Option<usize> {
            self.set(key)
                .find(|&i| matches!(self.slots[i], Some((k, _)) if k == key))
        }

        fn get_mut(&mut self, key: u64) -> Option<&mut u64> {
            self.clock += 1;
            let i = self.find(key)?;
            self.stamps[i] = self.clock;
            self.slots[i].as_mut().map(|(_, v)| v)
        }

        fn insert(&mut self, key: u64, value: u64) -> Option<(u64, u64)> {
            self.clock += 1;
            let way = match self.find(key) {
                Some(i) => i,
                None => match self.set(key).find(|&i| self.slots[i].is_none()) {
                    Some(i) => i,
                    None => self
                        .set(key)
                        .min_by_key(|&i| self.stamps[i])
                        .expect("sets have ways"),
                },
            };
            self.stamps[way] = self.clock;
            self.slots[way]
                .replace((key, value))
                .filter(|&(k, _)| k != key)
        }

        fn invalidate(&mut self, key: u64) -> Option<u64> {
            let i = self.find(key)?;
            self.slots[i].take().map(|(_, v)| v)
        }

        fn retain(&mut self, mut pred: impl FnMut(u64, &u64) -> bool) -> usize {
            let mut removed = 0;
            for slot in &mut self.slots {
                if matches!(slot, Some((k, v)) if !pred(*k, v)) {
                    *slot = None;
                    removed += 1;
                }
            }
            removed
        }

        fn clear(&mut self) {
            self.slots.fill(None);
        }

        fn contents(&self) -> Vec<(u64, u64)> {
            let mut all: Vec<_> = self.slots.iter().flatten().copied().collect();
            all.sort_unstable();
            all
        }
    }

    /// Seeded random streams of every recency-relevant operation drive
    /// the rank LRU and the stamp model side by side; every return value
    /// and the final contents must agree.
    #[test]
    fn rank_lru_matches_the_stamp_model() {
        for ways in [1, 4, 8, 16, 24, 200] {
            for sets in [4, 3] {
                let mut c: SetAssocCache<u64> = SetAssocCache::new(CacheConfig::new(sets, ways));
                let mut m = StampModel::new(sets, ways);
                let mut rng = SimRng::seeded(0x5EED ^ (ways * 31 + sets) as u64);
                // Twice the capacity in keys: constant aliasing, so
                // hits, fills of emptied ways and evictions all occur.
                let keys = 2 * (sets * ways) as u64;
                for step in 0..20_000u64 {
                    let key = rng.below(keys);
                    let ctx = format!("{sets}x{ways} step {step}");
                    match rng.below(100) {
                        0..=39 => {
                            assert_eq!(c.get(key).copied(), m.get_mut(key).copied(), "{ctx}")
                        }
                        40..=49 => {
                            let got = c.get_mut(key).map(|v| {
                                *v += 1;
                                *v
                            });
                            let want = m.get_mut(key).map(|v| {
                                *v += 1;
                                *v
                            });
                            assert_eq!(got, want, "{ctx}");
                        }
                        50..=89 => {
                            assert_eq!(c.insert(key, step), m.insert(key, step), "{ctx}")
                        }
                        90..=96 => assert_eq!(c.invalidate(key), m.invalidate(key), "{ctx}"),
                        97..=98 => {
                            let cut = rng.below(7);
                            assert_eq!(
                                c.retain(|_, &v| v % 7 != cut),
                                m.retain(|_, &v| v % 7 != cut),
                                "{ctx}"
                            );
                        }
                        _ => {
                            c.clear();
                            m.clear();
                        }
                    }
                    assert_eq!(c.len(), m.contents().len(), "{ctx}");
                }
                let mut contents: Vec<_> = c.iter().map(|(k, &v)| (k, v)).collect();
                contents.sort_unstable();
                assert_eq!(contents, m.contents(), "{sets}x{ways}");
            }
        }
    }

    #[test]
    fn a_full_256_way_set_evicts_its_least_recent_way() {
        let mut c = tiny(256);
        for k in 0..256 {
            assert_eq!(c.insert(k, k as u32), None);
        }
        assert_eq!(c.get(0), Some(&0), "refreshes key 0");
        assert_eq!(c.insert(999, 999), Some((1, 1)), "key 1 is the oldest");
        assert_eq!(c.insert(1000, 1000), Some((2, 2)));
    }

    #[test]
    #[should_panic(expected = "257 ways exceed")]
    fn more_than_256_ways_are_rejected() {
        let _ = tiny(257);
    }

    #[test]
    fn get_mut_allows_in_place_update() {
        let mut c = tiny(2);
        c.insert(1, 10);
        if let Some(v) = c.get_mut(1) {
            *v = 42;
        }
        assert_eq!(c.get(1), Some(&42));
    }
}
