//! The FAM translator and its in-DRAM translation cache (Figs. 6–7),
//! plus the node-side retry/timeout/backoff machinery that recovers
//! from fabric faults and stale-translation NACKs.

use fam_mem::{CacheConfig, Replacement, SetAssocCache};
use fam_sim::stats::{Counter, Ratio};
use fam_sim::{Duration, RequestId};

/// Retry policy for FAM requests that bounce (timeout on a dropped
/// frame, corrupt-NACK, stale-NACK). Exponential backoff, capped:
/// attempt `k` waits `min(base << k, cap)` cycles before reissuing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Retries before a request is declared fatal (the original
    /// attempt is not counted).
    pub max_retries: u32,
    /// Cycles a requester waits for a response before presuming the
    /// frame dropped (covers the fabric round trip plus device
    /// service with margin at Table II latencies).
    pub timeout_cycles: u64,
    /// First backoff step in cycles.
    pub backoff_base_cycles: u64,
    /// Backoff ceiling in cycles.
    pub backoff_cap_cycles: u64,
}

impl RetryConfig {
    /// Checks knob sanity.
    ///
    /// # Panics
    ///
    /// Panics if the backoff base is zero or exceeds the cap.
    pub fn validate(&self) {
        assert!(
            self.backoff_base_cycles > 0,
            "backoff base must be non-zero"
        );
        assert!(
            self.backoff_base_cycles <= self.backoff_cap_cycles,
            "backoff base must not exceed the cap"
        );
    }

    /// Backoff before retry number `attempt` (1-based): exponential,
    /// capped, saturating.
    pub fn backoff(&self, attempt: u32) -> Duration {
        // Saturate on *value* overflow, not just shift-amount overflow:
        // `checked_shl` happily wraps bits off the top.
        let shift = attempt.saturating_sub(1);
        let shifted = if shift >= self.backoff_base_cycles.leading_zeros() {
            u64::MAX
        } else {
            self.backoff_base_cycles << shift
        };
        Duration(shifted.min(self.backoff_cap_cycles))
    }
}

impl Default for RetryConfig {
    fn default() -> RetryConfig {
        RetryConfig {
            max_retries: 4,
            timeout_cycles: 10_000,
            backoff_base_cycles: 500,
            backoff_cap_cycles: 8_000,
        }
    }
}

/// What the retry state machine decided after a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryOutcome {
    /// Reissue after waiting out the backoff.
    Retry {
        /// Backoff to charge before the reissue.
        backoff: Duration,
    },
    /// The retry budget is exhausted; the caller degrades gracefully.
    GiveUp,
}

/// Per-request retry state: counts attempts and hands out backoffs
/// until the budget runs dry.
///
/// # Examples
///
/// ```
/// use deact::{RetryConfig, RetryOutcome, RetryState};
///
/// let cfg = RetryConfig::default();
/// let mut s = RetryState::new();
/// let RetryOutcome::Retry { backoff } = s.on_fault(&cfg) else {
///     panic!("first fault retries");
/// };
/// assert_eq!(backoff.0, cfg.backoff_base_cycles);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RetryState {
    attempts: u32,
    req: RequestId,
}

impl RetryState {
    /// Fresh state: no faults seen yet.
    pub fn new() -> RetryState {
        RetryState::default()
    }

    /// Fresh state bound to a traced request, so reissued frames carry
    /// the request's wire tag and retries land on the right trace
    /// track.
    pub fn for_request(req: RequestId) -> RetryState {
        RetryState { attempts: 0, req }
    }

    /// The traced request this state belongs to
    /// ([`RequestId::UNTRACED`] when built with [`RetryState::new`]).
    pub fn request(&self) -> RequestId {
        self.req
    }

    /// Retries consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Advances the machine on one fault: either grants a retry with
    /// its backoff, or reports the budget exhausted.
    pub fn on_fault(&mut self, config: &RetryConfig) -> RetryOutcome {
        if self.attempts >= config.max_retries {
            return RetryOutcome::GiveUp;
        }
        self.attempts += 1;
        RetryOutcome::Retry {
            backoff: config.backoff(self.attempts),
        }
    }
}

/// Entries per 64-byte translation-cache set: four 104-bit entries
/// (52-bit tag + 52-bit value) fit in one memory access (§III-C).
pub const ENTRIES_PER_SET: usize = 4;

/// The outstanding-mapping list of Fig. 7 (ⓒ): FAM-address → node-
/// address mappings for requests awaiting responses, needed because
/// FAM responses are tagged with FAM addresses while the node only
/// understands node addresses. Capacity matches the 128 outstanding
/// requests of Table II. In I-FAM this list lives in the STU; DeACT
/// moves it into the node because the STU no longer understands node
/// addresses (§III-C).
#[derive(Debug, Clone)]
pub struct OutstandingMappingList {
    capacity: usize,
    entries: Vec<(u64, u64)>, // (fam_page, npa_page)
    full_stalls: Counter,
}

impl OutstandingMappingList {
    /// Creates a list with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> OutstandingMappingList {
        assert!(capacity > 0, "list needs capacity");
        OutstandingMappingList {
            capacity,
            entries: Vec::with_capacity(capacity),
            full_stalls: Counter::new(),
        }
    }

    /// Registers a response-expecting request. Returns `false` (and
    /// counts a stall) when the list is full — the caller must retire
    /// an entry first.
    pub fn register(&mut self, fam_page: u64, npa_page: u64) -> bool {
        if self.entries.len() >= self.capacity {
            self.full_stalls.inc();
            return false;
        }
        self.entries.push((fam_page, npa_page));
        true
    }

    /// Converts a response's FAM page back to the node page and
    /// retires the entry (Fig. 7: "handling off-the node responses").
    pub fn complete(&mut self, fam_page: u64) -> Option<u64> {
        let idx = self.entries.iter().position(|&(f, _)| f == fam_page)?;
        Some(self.entries.swap_remove(idx).1)
    }

    /// Entries currently outstanding.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no requests are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Times a register attempt found the list full.
    pub fn full_stalls(&self) -> u64 {
        self.full_stalls.value()
    }
}

/// Statistics the translator reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct TranslatorStats {
    /// Translation-cache lookups (one DRAM read each).
    pub lookups: Counter,
    /// Cache updates (one DRAM read-modify-write each, §III-C).
    pub updates: Counter,
    /// Mapping responses received from the STU.
    pub mapping_responses: Counter,
    /// Cached entries invalidated on a stale-translation NACK — the
    /// DeACT `V`-flag verification story actually firing.
    pub stale_invalidations: Counter,
}

/// The FAM translator in the node's memory controller (Fig. 7).
///
/// Holds the *model* of the in-DRAM FAM translation cache: a four-way
/// set-associative array with random replacement (tracking recency
/// would cost extra DRAM writes, §III-C). Each lookup corresponds to
/// one 64-byte DRAM read that fetches a whole set; the four tags are
/// compared concurrently by the comparator bank of Fig. 7 (ⓑ).
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
/// assert!(t.stats().lookups.value() >= 2);
/// ```
#[derive(Debug, Clone)]
pub struct FamTranslator {
    cache: SetAssocCache<u64>,
    dram_base: u64,
    sets: u64,
    oml: OutstandingMappingList,
    stats: TranslatorStats,
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
        let sets = cache_bytes / 64;
        assert!(sets > 0, "translation cache needs at least one set");
        FamTranslator {
            cache: SetAssocCache::with_seed(
                CacheConfig::new(sets as usize, ENTRIES_PER_SET, replacement),
                seed,
            ),
            dram_base,
            sets,
            oml: OutstandingMappingList::new(oml_capacity),
            stats: TranslatorStats::default(),
            hit_ratio: Ratio::new(),
        }
    }

    /// The DRAM byte address holding the set for `npa_page` — base
    /// plus the modulus offset of Fig. 6.
    pub fn dram_addr_of(&self, npa_page: u64) -> u64 {
        self.dram_base + (npa_page % self.sets) * 64
    }

    /// Looks up the FAM page for a node page. Models one DRAM set
    /// fetch plus the parallel tag match; records Fig. 10's
    /// DeACT address-translation hit rate.
    pub fn lookup(&mut self, npa_page: u64) -> Option<u64> {
        self.stats.lookups.inc();
        let hit = self.cache.get(npa_page).copied();
        self.hit_ratio.record(hit.is_some());
        hit
    }

    /// Installs a mapping delivered by the STU (Fig. 6 ⑤): one random
    /// entry of the fetched set is replaced, costing a DRAM
    /// read-modify-write.
    pub fn install(&mut self, npa_page: u64, fam_page: u64) {
        self.stats.updates.inc();
        self.stats.mapping_responses.inc();
        self.cache.insert(npa_page, fam_page);
    }

    /// Invalidates one node page's entry (migration shootdown, §VI —
    /// "excess DRAM writes to invalidate system-level mappings").
    /// Returns whether an entry was present.
    pub fn invalidate(&mut self, npa_page: u64) -> bool {
        self.stats.updates.inc();
        self.cache.invalidate(npa_page).is_some()
    }

    /// Handles a stale-translation NACK from the STU: the unverified
    /// cached mapping the node forwarded with `V = 1` was rejected, so
    /// the entry is evicted and the caller must fall back to the full
    /// STU walk (§III-C — exactly the recovery the `V` flag exists
    /// for). Returns whether an entry was actually evicted.
    pub fn handle_stale_nack(&mut self, npa_page: u64) -> bool {
        self.stats.stale_invalidations.inc();
        self.invalidate(npa_page)
    }

    /// The outstanding-mapping list.
    pub fn oml_mut(&mut self) -> &mut OutstandingMappingList {
        &mut self.oml
    }

    /// Translation hit rate (the DeACT series of Fig. 10).
    pub fn hit_ratio(&self) -> Ratio {
        self.hit_ratio
    }

    /// DRAM-traffic statistics.
    pub fn stats(&self) -> TranslatorStats {
        self.stats
    }

    /// Resets statistics, keeping cached mappings.
    pub fn reset_stats(&mut self) {
        self.stats = TranslatorStats::default();
        self.hit_ratio.reset();
        self.cache.reset_stats();
    }

    /// Number of cached mappings.
    pub fn cached_mappings(&self) -> usize {
        self.cache.len()
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
        assert_eq!(t.sets, 16384);
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
    fn updates_are_counted_for_dram_accounting() {
        let mut t = translator();
        t.install(1, 10);
        t.install(2, 20);
        assert_eq!(t.stats().updates.value(), 2);
        assert_eq!(t.stats().mapping_responses.value(), 2);
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
    fn oml_register_complete_roundtrip() {
        let mut oml = OutstandingMappingList::new(2);
        assert!(oml.register(100, 1));
        assert!(oml.register(200, 2));
        assert!(!oml.register(300, 3), "full list rejects");
        assert_eq!(oml.full_stalls(), 1);
        assert_eq!(oml.complete(100), Some(1));
        assert!(oml.register(300, 3), "slot freed");
        assert_eq!(oml.complete(999), None);
        assert_eq!(oml.len(), 2);
    }

    #[test]
    fn oml_paper_capacity() {
        let t = translator();
        assert_eq!(t.oml.capacity(), 128);
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
        assert_eq!(t.stats().stale_invalidations.value(), 2);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let cfg = RetryConfig {
            max_retries: 10,
            backoff_base_cycles: 100,
            backoff_cap_cycles: 1_000,
            ..RetryConfig::default()
        };
        assert_eq!(cfg.backoff(1).0, 100);
        assert_eq!(cfg.backoff(2).0, 200);
        assert_eq!(cfg.backoff(3).0, 400);
        assert_eq!(cfg.backoff(4).0, 800);
        assert_eq!(cfg.backoff(5).0, 1_000, "cap binds");
        assert_eq!(cfg.backoff(63).0, 1_000, "shift overflow saturates");
    }

    #[test]
    fn retry_state_machine_exhausts_budget() {
        let cfg = RetryConfig {
            max_retries: 2,
            ..RetryConfig::default()
        };
        let mut s = RetryState::new();
        assert!(matches!(s.on_fault(&cfg), RetryOutcome::Retry { .. }));
        assert!(matches!(s.on_fault(&cfg), RetryOutcome::Retry { .. }));
        assert_eq!(s.attempts(), 2);
        assert_eq!(s.on_fault(&cfg), RetryOutcome::GiveUp);
        assert_eq!(s.attempts(), 2, "give-up consumes no attempt");
    }

    #[test]
    fn retry_state_carries_request_identity() {
        assert_eq!(RetryState::new().request(), RequestId::UNTRACED);
        let s = RetryState::for_request(RequestId(42));
        assert_eq!(s.request(), RequestId(42));
        assert_eq!(s.attempts(), 0);
    }

    #[test]
    #[should_panic(expected = "must not exceed the cap")]
    fn inverted_backoff_rejected() {
        RetryConfig {
            backoff_base_cycles: 100,
            backoff_cap_cycles: 10,
            ..RetryConfig::default()
        }
        .validate();
    }
}
