//! The FAM translator and its in-DRAM translation cache (Figs. 6–7),
//! plus the node-side retry/timeout/backoff machinery that recovers
//! from fabric faults and stale-translation NACKs.

use fam_mem::Replacement;
use fam_sim::stats::Ratio;
use fam_sim::{Duration, SimRng};

/// Retries before a FAM request that bounces (timeout on a dropped
/// frame, corrupt-NACK, unreachable-NACK) is declared fatal; the
/// original attempt is not counted.
pub(crate) const MAX_RETRIES: u32 = 4;
/// Cycles a requester waits for a response before presuming the frame
/// dropped (covers the fabric round trip plus device service with
/// margin at Table II latencies).
pub(crate) const TIMEOUT_CYCLES: u64 = 10_000;
/// First backoff step in cycles: retry `k` waits
/// `min(BACKOFF_BASE_CYCLES << (k - 1), BACKOFF_CAP_CYCLES)`.
pub(crate) const BACKOFF_BASE_CYCLES: u64 = 500;
/// Backoff ceiling in cycles.
pub(crate) const BACKOFF_CAP_CYCLES: u64 = 8_000;

const _: () = assert!(BACKOFF_BASE_CYCLES > 0 && BACKOFF_BASE_CYCLES <= BACKOFF_CAP_CYCLES);

/// Backoff before retry number `attempt` (1-based): exponential,
/// capped, saturating.
fn backoff(attempt: u32) -> Duration {
    // Saturate on *value* overflow, not just shift-amount overflow:
    // `checked_shl` happily wraps bits off the top.
    let shift = attempt.saturating_sub(1);
    let shifted = if shift >= BACKOFF_BASE_CYCLES.leading_zeros() {
        u64::MAX
    } else {
        BACKOFF_BASE_CYCLES << shift
    };
    Duration(shifted.min(BACKOFF_CAP_CYCLES))
}

/// Per-request retry state: counts attempts and hands out backoffs
/// until the budget runs dry.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RetryState {
    attempts: u32,
}

impl RetryState {
    /// Fresh state: no faults seen yet.
    pub(crate) fn new() -> RetryState {
        RetryState::default()
    }

    /// Retries consumed so far.
    pub(crate) fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Advances the machine on one fault: the backoff to wait before
    /// the reissue, or `None` once the budget is exhausted and the
    /// caller must give up.
    pub(crate) fn on_fault(&mut self) -> Option<Duration> {
        if self.attempts >= MAX_RETRIES {
            return None;
        }
        self.attempts += 1;
        Some(backoff(self.attempts))
    }
}

/// Entries per 64-byte translation-cache set: four 104-bit entries
/// (52-bit tag + 52-bit value) fit in one memory access (§III-C).
pub(crate) const ENTRIES_PER_SET: usize = 4;

/// The outstanding-mapping list of Fig. 7 (ⓒ): FAM-address → node-
/// address mappings for requests awaiting responses, needed because
/// FAM responses are tagged with FAM addresses while the node only
/// understands node addresses. Capacity matches the 128 outstanding
/// requests of Table II. In I-FAM this list lives in the STU; DeACT
/// moves it into the node because the STU no longer understands node
/// addresses (§III-C).
#[derive(Debug, Clone)]
pub(crate) struct OutstandingMappingList {
    capacity: usize,
    entries: Vec<(u64, u64)>, // (fam_page, npa_page)
}

impl OutstandingMappingList {
    /// Creates a list with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> OutstandingMappingList {
        assert!(capacity > 0, "list needs capacity");
        OutstandingMappingList {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Registers a response-expecting request. Returns `false` when
    /// the list is full — the caller must retire an entry first.
    pub(crate) fn register(&mut self, fam_page: u64, npa_page: u64) -> bool {
        if self.entries.len() >= self.capacity {
            return false;
        }
        self.entries.push((fam_page, npa_page));
        true
    }

    /// Converts a response's FAM page back to the node page and
    /// retires the entry (Fig. 7: "handling off-the node responses").
    pub(crate) fn complete(&mut self, fam_page: u64) -> Option<u64> {
        let idx = self.entries.iter().position(|&(f, _)| f == fam_page)?;
        Some(self.entries.swap_remove(idx).1)
    }
}

/// Tag of an empty way. Tags are 32-bit node pages; a node page at or
/// above this value (the broker's table-rebuild sentinel
/// `PageRelocation::TABLE_REBUILD_NPA` among them) cannot be cached, so
/// lookups and invalidations report it absent.
const EMPTY: u32 = u32::MAX;

/// One translation-cache set: four `(tag, value)` pairs of 32-bit node
/// and FAM page numbers in 32 bytes, aligned so a set never straddles a
/// host cache line and each modelled set read touches one line
/// (§III-C).
#[derive(Debug, Clone, Copy)]
#[repr(C, align(32))]
struct Set {
    tags: [u32; ENTRIES_PER_SET],
    values: [u32; ENTRIES_PER_SET],
}

impl Set {
    const EMPTY: Set = Set {
        tags: [EMPTY; ENTRIES_PER_SET],
        values: [0; ENTRIES_PER_SET],
    };

    /// The way holding `npa_page`, if resident.
    fn find(&self, npa_page: u64) -> Option<usize> {
        let tag = u32::try_from(npa_page).ok().filter(|&t| t != EMPTY)?;
        self.tags.iter().position(|&t| t == tag)
    }
}

/// Exact-LRU recency state for the §III-C ablation, one byte per way
/// (the `SetAssocCache` scheme): each set's ranks are a permutation of
/// `0..ENTRIES_PER_SET`, 0 the most recent, starting ranked by way.
/// The paper's random policy keeps none.
#[derive(Debug, Clone)]
struct Lru {
    ranks: Box<[[u8; ENTRIES_PER_SET]]>,
}

impl Lru {
    fn touch(&mut self, set: usize, way: usize) {
        let ranks = &mut self.ranks[set];
        let r = ranks[way];
        if r == 0 {
            return;
        }
        for rank in ranks.iter_mut() {
            *rank += u8::from(*rank < r);
        }
        ranks[way] = 0;
    }

    /// The least-recent way of a full set. Every way of a full set was
    /// touched at its install, so its ranks are the exact recency order.
    fn victim(&self, set: usize) -> usize {
        let ranks = &self.ranks[set];
        (0..ENTRIES_PER_SET)
            .max_by_key(|&w| ranks[w])
            .expect("sets have ways")
    }
}

/// The FAM translator in the node's memory controller (Fig. 7).
///
/// Holds the *model* of the in-DRAM FAM translation cache: a four-way
/// set-associative array with random replacement (tracking recency
/// would cost extra DRAM writes, §III-C). Each lookup corresponds to
/// one 64-byte DRAM read that fetches a whole set; the four tags are
/// compared concurrently by the comparator bank of Fig. 7 (ⓑ). The
/// host stores each set in 32 bytes: node and FAM page numbers fit in
/// 32 bits (the broker asserts its usable pages do), so a set holds
/// four 32-bit tags and four 32-bit values.
///
/// The translator never verifies anything: its output is an
/// *unverified* FAM address forwarded with `V = 1` for the STU to vet
/// — the central decoupling of the paper.
///
/// # Examples
///
/// ```
/// use deact::FamTranslator;
///
/// let mut t = FamTranslator::new(1 << 20, 0x3000_0000, 128, 7);
/// assert_eq!(t.lookup(42), None);
/// t.install(42, 999);
/// assert_eq!(t.lookup(42), Some(999));
/// ```
#[derive(Debug, Clone)]
pub struct FamTranslator {
    sets: Box<[Set]>,
    /// `sets - 1` when the set count is a power of two (every paper
    /// geometry), else 0 and the index falls back to `%`.
    set_mask: u64,
    /// Victim choice under random replacement; unused under LRU.
    rng: SimRng,
    /// Recency ranks, allocated only under LRU replacement.
    lru: Option<Lru>,
    dram_base: u64,
    oml: OutstandingMappingList,
    hit_ratio: Ratio,
}

impl FamTranslator {
    /// Creates a translator whose cache occupies `cache_bytes` of
    /// local DRAM starting at `dram_base`, with an outstanding-mapping
    /// list of `oml_capacity` entries. Uses the paper's random
    /// replacement (§III-C).
    ///
    /// # Panics
    ///
    /// Panics if `cache_bytes` is smaller than one 64-byte set.
    pub fn new(cache_bytes: u64, dram_base: u64, oml_capacity: usize, seed: u64) -> FamTranslator {
        FamTranslator::with_replacement(
            cache_bytes,
            dram_base,
            oml_capacity,
            seed,
            Replacement::Random,
        )
    }

    /// As [`FamTranslator::new`] with an explicit replacement policy —
    /// the §III-C ablation: LRU needs per-access recency updates, i.e.
    /// extra DRAM writes the timing layer must charge.
    ///
    /// # Panics
    ///
    /// Panics if `cache_bytes` is smaller than one 64-byte set.
    pub fn with_replacement(
        cache_bytes: u64,
        dram_base: u64,
        oml_capacity: usize,
        seed: u64,
        replacement: Replacement,
    ) -> FamTranslator {
        let sets = (cache_bytes / 64) as usize;
        assert!(sets > 0, "translation cache needs at least one set");
        let lru = (replacement == Replacement::Lru).then(|| Lru {
            ranks: vec![std::array::from_fn(|w| w as u8); sets].into_boxed_slice(),
        });
        FamTranslator {
            sets: vec![Set::EMPTY; sets].into_boxed_slice(),
            set_mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                0
            },
            rng: SimRng::seeded(seed),
            lru,
            dram_base,
            oml: OutstandingMappingList::new(oml_capacity),
            hit_ratio: Ratio::new(),
        }
    }

    /// The set `npa_page` maps to — the modulus of Fig. 6.
    fn set_of(&self, npa_page: u64) -> usize {
        if self.set_mask != 0 {
            (npa_page & self.set_mask) as usize
        } else {
            (npa_page % self.sets.len() as u64) as usize
        }
    }

    /// The DRAM byte address holding the set for `npa_page` — base
    /// plus the modulus offset of Fig. 6.
    pub fn dram_addr_of(&self, npa_page: u64) -> u64 {
        self.dram_base + self.set_of(npa_page) as u64 * 64
    }

    /// Looks up the FAM page for a node page. Models one DRAM set
    /// fetch plus the parallel tag match; records Fig. 10's
    /// DeACT address-translation hit rate.
    pub fn lookup(&mut self, npa_page: u64) -> Option<u64> {
        let set = self.set_of(npa_page);
        let hit = self.sets[set].find(npa_page).map(|way| {
            if let Some(lru) = &mut self.lru {
                lru.touch(set, way);
            }
            u64::from(self.sets[set].values[way])
        });
        self.hit_ratio.record(hit.is_some());
        hit
    }

    /// Installs a mapping delivered by the STU (Fig. 6 ⑤): one random
    /// entry of the fetched set is replaced, costing a DRAM
    /// read-modify-write. A resident entry is overwritten in place and
    /// an empty way is used before any victim is chosen.
    ///
    /// # Panics
    ///
    /// Panics if `npa_page` is `u32::MAX` or more (the all-ones tag
    /// marks an empty way) or `fam_page` does not fit in 32 bits.
    pub fn install(&mut self, npa_page: u64, fam_page: u64) {
        let tag = u32::try_from(npa_page)
            .ok()
            .filter(|&t| t != EMPTY)
            .unwrap_or_else(|| {
                panic!("node page {npa_page:#x} does not fit a 32-bit tag (all ones is reserved)")
            });
        let value = u32::try_from(fam_page)
            .unwrap_or_else(|_| panic!("FAM page {fam_page:#x} does not fit a 32-bit value"));
        let set = self.set_of(npa_page);
        let s = &mut self.sets[set];
        let way = match s.find(npa_page) {
            Some(way) => way,
            None => match s.tags.iter().position(|&t| t == EMPTY) {
                Some(way) => way,
                None => match &self.lru {
                    Some(lru) => lru.victim(set),
                    None => self.rng.index(ENTRIES_PER_SET),
                },
            },
        };
        s.tags[way] = tag;
        s.values[way] = value;
        if let Some(lru) = &mut self.lru {
            lru.touch(set, way);
        }
    }

    /// Invalidates one node page's entry (migration shootdown, §VI —
    /// "excess DRAM writes to invalidate system-level mappings").
    /// Returns whether an entry was present.
    pub fn invalidate(&mut self, npa_page: u64) -> bool {
        let set = self.set_of(npa_page);
        match self.sets[set].find(npa_page) {
            Some(way) => {
                self.sets[set].tags[way] = EMPTY;
                true
            }
            None => false,
        }
    }

    /// Handles a stale-translation NACK from the STU: the unverified
    /// cached mapping the node forwarded with `V = 1` was rejected, so
    /// the entry is evicted and the caller must fall back to the full
    /// STU walk (§III-C — exactly the recovery the `V` flag exists
    /// for). Returns whether an entry was actually evicted.
    pub(crate) fn handle_stale_nack(&mut self, npa_page: u64) -> bool {
        self.invalidate(npa_page)
    }

    /// The outstanding-mapping list.
    pub(crate) fn oml_mut(&mut self) -> &mut OutstandingMappingList {
        &mut self.oml
    }

    /// Translation hit rate (the DeACT series of Fig. 10).
    pub(crate) fn hit_ratio(&self) -> Ratio {
        self.hit_ratio
    }

    /// Number of cached mappings.
    pub fn cached_mappings(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.tags.iter().filter(|&&t| t != EMPTY).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn translator() -> FamTranslator {
        FamTranslator::new(1 << 20, 0x3000_0000, 128, 1)
    }

    #[test]
    fn miss_install_hit() {
        let mut t = translator();
        assert_eq!(t.lookup(5), None);
        t.install(5, 500);
        assert_eq!(t.lookup(5), Some(500));
        assert_eq!(t.hit_ratio().hits(), 1);
        assert_eq!(t.hit_ratio().misses(), 1);
    }

    #[test]
    fn geometry_matches_paper() {
        let t = translator();
        // 1 MB / 64 B = 16384 sets of 4 entries = 65536 mappings.
        assert_eq!(t.sets.len(), 16384);
    }

    #[test]
    fn dram_addresses_are_set_indexed() {
        let t = translator();
        assert_eq!(t.dram_addr_of(0), 0x3000_0000);
        assert_eq!(t.dram_addr_of(1), 0x3000_0040);
        // Wraps at the set count (modulus offset of Fig. 6).
        assert_eq!(t.dram_addr_of(16384), 0x3000_0000);
    }

    #[test]
    fn random_replacement_within_full_set() {
        let mut t = FamTranslator::new(64, 0, 128, 3); // one set, 4 ways
        for p in 0..4 {
            t.install(p, p * 10);
        }
        t.install(99, 990);
        assert_eq!(t.cached_mappings(), 4, "set is full");
        assert_eq!(t.lookup(99), Some(990));
    }

    #[test]
    fn invalidate_for_migration() {
        let mut t = translator();
        t.install(7, 70);
        assert!(t.invalidate(7));
        assert!(!t.invalidate(7));
        assert_eq!(t.lookup(7), None);
    }

    #[test]
    fn one_set_is_one_host_cache_line() {
        // 32 B aligned to 32 B: two sets share a 64-byte host line and
        // none straddles one.
        assert_eq!(std::mem::size_of::<Set>(), 32);
        assert_eq!(std::mem::align_of::<Set>(), 32);
        assert_eq!(64 % std::mem::align_of::<Set>(), 0);
    }

    #[test]
    fn node_pages_beyond_32_bits_are_absent() {
        // A cold set holds only empty tags; a full one holds the widest
        // storable node page and pages whose low 32 bits alias the wide
        // ones probed below.
        let cold = FamTranslator::new(64, 0, 128, 1); // one set
        let mut full = cold.clone();
        let widest = u64::from(u32::MAX) - 1;
        for npa in [widest, 0, 1, 5] {
            full.install(npa, npa & 0xFFFF);
        }
        assert_eq!(full.lookup(widest), Some(widest & 0xFFFF));
        for mut t in [cold, full] {
            let cached = t.cached_mappings();
            for wide in [
                u64::from(u32::MAX),
                1 << 32,
                (1 << 32) | 1,
                (1 << 32) + 5,
                u64::MAX,
            ] {
                assert_eq!(t.lookup(wide), None, "{wide:#x}");
                assert!(!t.invalidate(wide), "{wide:#x}");
                assert!(!t.handle_stale_nack(wide), "{wide:#x}");
            }
            assert_eq!(t.cached_mappings(), cached, "nothing was invalidated");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit a 32-bit tag")]
    fn installing_a_node_page_of_u32_max_is_rejected() {
        translator().install(u64::from(u32::MAX), 1);
    }

    #[test]
    #[should_panic(expected = "does not fit a 32-bit tag")]
    fn installing_a_node_page_beyond_32_bits_is_rejected() {
        translator().install(1 << 32, 1);
    }

    #[test]
    #[should_panic(expected = "does not fit a 32-bit value")]
    fn installing_a_fam_page_beyond_32_bits_is_rejected() {
        translator().install(7, 1 << 32);
    }

    #[test]
    fn the_widest_fam_page_round_trips() {
        let mut t = translator();
        t.install(7, u64::from(u32::MAX));
        assert_eq!(t.lookup(7), Some(u64::from(u32::MAX)));
    }

    /// The naive reading of §III-C: per set, four optional
    /// `(npa, fam)` ways; a hit returns the way's value, an install
    /// overwrites a resident key, else fills the first empty way, else
    /// replaces a uniformly random way drawn from one seeded generator.
    struct RandomModel {
        sets: Vec<[Option<(u64, u64)>; ENTRIES_PER_SET]>,
        rng: SimRng,
    }

    impl RandomModel {
        fn new(sets: usize, seed: u64) -> RandomModel {
            RandomModel {
                sets: vec![[None; ENTRIES_PER_SET]; sets],
                rng: SimRng::seeded(seed),
            }
        }

        fn set(&mut self, npa: u64) -> &mut [Option<(u64, u64)>; ENTRIES_PER_SET] {
            let n = self.sets.len() as u64;
            &mut self.sets[(npa % n) as usize]
        }

        fn lookup(&mut self, npa: u64) -> Option<u64> {
            self.set(npa)
                .iter()
                .flatten()
                .find(|e| e.0 == npa)
                .map(|e| e.1)
        }

        fn install(&mut self, npa: u64, fam: u64) {
            let set = (npa % self.sets.len() as u64) as usize;
            let ways = &self.sets[set];
            let way = ways
                .iter()
                .position(|w| matches!(w, Some((k, _)) if *k == npa))
                .or_else(|| ways.iter().position(Option::is_none))
                .unwrap_or_else(|| self.rng.index(ENTRIES_PER_SET));
            self.sets[set][way] = Some((npa, fam));
        }

        fn invalidate(&mut self, npa: u64) -> bool {
            let set = self.set(npa);
            match set
                .iter()
                .position(|w| matches!(w, Some((k, _)) if *k == npa))
            {
                Some(way) => {
                    set[way] = None;
                    true
                }
                None => false,
            }
        }

        fn len(&self) -> usize {
            self.sets.iter().flatten().flatten().count()
        }
    }

    /// A reproducible op stream over a small key space, so a few sets
    /// see constant eviction: `(op, npa)` with op 0 = lookup,
    /// 1 = install, 2 = invalidate.
    fn op_stream(seed: u64, len: usize) -> Vec<(u64, u64)> {
        let mut rng = SimRng::seeded(seed);
        (0..len)
            .map(|_| {
                let op = match rng.below(20) {
                    0..=9 => 0,
                    10..=16 => 1,
                    _ => 2,
                };
                (op, rng.below(64))
            })
            .collect()
    }

    #[test]
    fn packed_sets_match_the_naive_random_model() {
        for (sets, seed) in [(8u64, 1u64), (8, 0xDEAC7), (1, 3), (6, 9)] {
            let mut t = FamTranslator::new(sets * 64, 0, 128, seed);
            let mut m = RandomModel::new(sets as usize, seed);
            let mut hits = 0;
            for (i, (op, npa)) in op_stream(seed ^ 0x5EED, 20_000).into_iter().enumerate() {
                match op {
                    0 => {
                        let got = t.lookup(npa);
                        assert_eq!(got, m.lookup(npa), "lookup {npa} at op {i}");
                        hits += got.is_some() as u64;
                    }
                    1 => {
                        t.install(npa, npa * 1000 + i as u64);
                        m.install(npa, npa * 1000 + i as u64);
                    }
                    _ => assert_eq!(t.invalidate(npa), m.invalidate(npa), "op {i}"),
                }
                if i % 97 == 0 {
                    // The table-rebuild sentinel names no node page: it
                    // is absent from cold and full sets alike.
                    assert_eq!(t.lookup(u64::MAX), None);
                    assert!(!t.handle_stale_nack(u64::MAX));
                }
            }
            assert_eq!(t.cached_mappings(), m.len());
            assert_eq!(t.hit_ratio().hits(), hits);
        }
    }

    #[test]
    fn lru_mode_matches_an_lru_set_associative_cache() {
        use fam_mem::{CacheConfig, SetAssocCache};
        let sets = 8;
        let mut t = FamTranslator::with_replacement(sets * 64, 0, 128, 5, Replacement::Lru);
        let mut m: SetAssocCache<u64> =
            SetAssocCache::new(CacheConfig::new(sets as usize, ENTRIES_PER_SET));
        let mut lookups = Ratio::new();
        for (i, (op, npa)) in op_stream(11, 20_000).into_iter().enumerate() {
            match op {
                0 => {
                    let want = m.get(npa).copied();
                    lookups.record(want.is_some());
                    assert_eq!(t.lookup(npa), want, "op {i}");
                }
                1 => {
                    m.insert(npa, i as u64);
                    t.install(npa, i as u64);
                }
                _ => assert_eq!(t.invalidate(npa), m.invalidate(npa).is_some(), "op {i}"),
            }
        }
        assert_eq!(t.cached_mappings(), m.len());
        assert_eq!(t.hit_ratio(), lookups);
    }

    #[test]
    fn lru_evicts_the_least_recent_way() {
        let mut t = FamTranslator::with_replacement(64, 0, 128, 0, Replacement::Lru);
        for p in 0..4 {
            t.install(p, p);
        }
        assert_eq!(t.lookup(0), Some(0), "refreshes page 0");
        t.install(9, 9);
        assert_eq!(t.lookup(1), None, "page 1 was least recent");
        assert_eq!(t.lookup(0), Some(0));
        assert_eq!(t.cached_mappings(), 4);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn installing_the_sentinel_is_rejected() {
        translator().install(u64::MAX, 1);
    }

    #[test]
    fn oml_register_complete_roundtrip() {
        let mut oml = OutstandingMappingList::new(2);
        assert!(oml.register(100, 1));
        assert!(oml.register(200, 2));
        assert!(!oml.register(300, 3), "full list rejects");
        assert_eq!(oml.entries.len(), 2, "a rejected register adds nothing");
        assert_eq!(oml.complete(100), Some(1));
        assert!(oml.register(300, 3), "slot freed");
        assert_eq!(oml.complete(999), None);
        assert_eq!(oml.entries.len(), 2);
    }

    #[test]
    fn oml_paper_capacity() {
        let t = translator();
        assert_eq!(t.oml.capacity, 128);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn tiny_cache_rejected() {
        let _ = FamTranslator::new(32, 0, 128, 0);
    }

    #[test]
    fn stale_nack_evicts_and_counts() {
        let mut t = translator();
        t.install(7, 70);
        assert!(t.handle_stale_nack(7));
        assert_eq!(t.lookup(7), None, "stale entry must be gone");
        assert!(!t.handle_stale_nack(7), "second NACK finds nothing");
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        assert_eq!(backoff(1).0, BACKOFF_BASE_CYCLES);
        assert_eq!(backoff(2).0, 2 * BACKOFF_BASE_CYCLES);
        assert_eq!(backoff(3).0, 4 * BACKOFF_BASE_CYCLES);
        assert_eq!(backoff(4).0, 8 * BACKOFF_BASE_CYCLES);
        assert_eq!(backoff(5).0, BACKOFF_CAP_CYCLES, "cap binds");
        assert_eq!(
            backoff(63).0,
            BACKOFF_CAP_CYCLES,
            "shift overflow saturates"
        );
    }

    #[test]
    fn retry_state_machine_exhausts_budget() {
        let mut s = RetryState::new();
        for attempt in 1..=MAX_RETRIES {
            assert_eq!(s.on_fault(), Some(backoff(attempt)));
        }
        assert_eq!(s.attempts(), MAX_RETRIES);
        assert_eq!(s.on_fault(), None);
        assert_eq!(s.attempts(), MAX_RETRIES, "give-up consumes no attempt");
    }
}
