//! Randomized property tests for the contended-resource substrate:
//! [`Resource`], [`BankedResource`] and the bounded interval window
//! ([`fam_sim::timeline`]) that backs them.
//!
//! Three properties, pinned with a deterministic LCG-driven stream
//! (no external dependencies, same verdict on every host):
//!
//! 1. **Reference-model equivalence** — a `Resource` behaves exactly
//!    like an obviously-correct flat-`Vec` model with the same
//!    retention policy, across thousands of mixed in-order/backfill
//!    requests, far past [`MAX_INTERVALS`]. Targeted streams drive the
//!    window's corner cases through the same oracle: backfills deep
//!    enough to miss the tail search, streams long enough to compact
//!    the window many times, and an insert at the front of a full
//!    timeline.
//! 2. **Interleave-key determinism** — bank selection is a pure
//!    function of the key for power-of-two (mask) and non-power-of-two
//!    (divide) bank counts alike: a banked device replays exactly as
//!    independent per-bank resources fed the per-bank subsequences.
//! 3. **Merge-order invariance of per-bank reservations** — requests
//!    to different banks commute: applying per-bank subsequences
//!    bank-by-bank, in any bank order, yields the same service starts
//!    and the same final timelines as the fully interleaved stream.

use fam_sim::timeline::MAX_INTERVALS;
use fam_sim::{BankedResource, Cycle, Duration, Resource, SimRng};

/// An obviously-correct flat-`Vec` twin of [`Resource`]: sorted,
/// non-overlapping busy intervals, earliest-fitting-gap backfill,
/// neighbour coalescing, and the same bounded-retention policy (drop
/// the oldest when full; a new oldest of a full timeline is forgotten).
struct NaiveResource {
    intervals: Vec<(u64, u64)>,
    /// Intervals forgotten by the retention policy so far.
    dropped: usize,
}

impl NaiveResource {
    fn new() -> NaiveResource {
        NaiveResource {
            intervals: Vec::new(),
            dropped: 0,
        }
    }

    /// How many retained intervals end after `t`: how far behind the
    /// frontier an arrival at `t` starts its gap search.
    fn depth(&self, t: u64) -> usize {
        self.intervals.iter().filter(|&&(_, e)| e > t).count()
    }

    fn acquire_for(&mut self, now: u64, occ: u64) -> u64 {
        if occ == 0 {
            return now;
        }
        // Earliest gap of length `occ` at or after `now`.
        let mut start = now;
        let mut idx = self.intervals.len();
        for (i, &(s, e)) in self.intervals.iter().enumerate() {
            if start + occ <= s {
                idx = i;
                break;
            }
            if e > start {
                start = e;
            }
        }
        let end = start + occ;
        let abuts_prev = idx > 0 && self.intervals[idx - 1].1 == start;
        let abuts_next = idx < self.intervals.len() && self.intervals[idx].0 == end;
        match (abuts_prev, abuts_next) {
            (true, true) => {
                self.intervals[idx - 1].1 = self.intervals[idx].1;
                self.intervals.remove(idx);
            }
            (true, false) => self.intervals[idx - 1].1 = end,
            (false, true) => self.intervals[idx].0 = start,
            (false, false) => {
                if self.intervals.len() == MAX_INTERVALS {
                    self.dropped += 1;
                    if idx == 0 {
                        // Would immediately be the forgotten oldest.
                        return start;
                    }
                    self.intervals.remove(0);
                    self.intervals.insert(idx - 1, (start, end));
                } else {
                    self.intervals.insert(idx, (start, end));
                }
            }
        }
        start
    }

    fn next_free(&self) -> u64 {
        self.intervals.last().map_or(0, |&(_, e)| e)
    }
}

/// A deterministic stream of `(arrival, occupancy)` pairs: the base
/// time drifts forward (so the timeline fills and starts forgetting)
/// while individual arrivals jitter backwards past the frontier (so
/// backfills, gap fits and coalescing all trigger).
fn request_stream(seed: u64, len: usize) -> Vec<(u64, u64)> {
    let mut rng = SimRng::seeded(seed);
    let mut base = 0u64;
    (0..len)
        .map(|_| {
            base += rng.below(40);
            let back = rng.below(500);
            let at = base.saturating_sub(back);
            let occ = rng.below(13); // 0..=12, zero included on purpose
            (at, occ)
        })
        .collect()
}

/// Feeds `stream` to a fresh [`Resource`] and a fresh
/// [`NaiveResource`], asserting identical service starts and frontier;
/// returns the oracle for further checks.
fn replay_against_the_oracle(label: &str, stream: &[(u64, u64)]) -> NaiveResource {
    let mut real = Resource::new(10);
    let mut naive = NaiveResource::new();
    for (i, &(at, occ)) in stream.iter().enumerate() {
        let got = real.acquire_for(Cycle(at), Duration(occ));
        let want = naive.acquire_for(at, occ);
        assert_eq!(
            got.0, want,
            "{label}, request {i} (at={at}, occ={occ}) diverged"
        );
    }
    assert_eq!(
        real.next_free().0,
        naive.next_free(),
        "{label}: frontier diverged"
    );
    naive
}

#[test]
fn resource_matches_the_naive_model_past_the_retention_cap() {
    for seed in [1u64, 0xDEAC7, 0xB0B] {
        // Far past MAX_INTERVALS requests, mostly disjoint: the window
        // forgets its oldest intervals while the naive Vec prunes in
        // lockstep.
        let stream = request_stream(seed, 8 * MAX_INTERVALS);
        let naive = replay_against_the_oracle(&format!("seed {seed}"), &stream);
        assert!(naive.dropped > 0, "seed {seed}: the cap was never reached");
    }
}

#[test]
fn deep_backfills_match_the_naive_model() {
    // A full timeline of 10-cycle intervals with 10-cycle gaps, then
    // arrivals scattered over its whole span: most land more than 64
    // intervals behind the frontier, so the search gallops far back.
    let mut stream: Vec<(u64, u64)> = (0..MAX_INTERVALS as u64).map(|i| (i * 20, 10)).collect();
    let span = MAX_INTERVALS as u64 * 20;
    let mut rng = SimRng::seeded(0xD33B);
    stream.extend((0..2_000).map(|_| (rng.below(span), 1 + rng.below(10))));

    let mut naive = NaiveResource::new();
    let deep = stream
        .iter()
        .filter(|&&(at, occ)| {
            let depth = naive.depth(at);
            naive.acquire_for(at, occ);
            depth > 64
        })
        .count();
    assert!(deep > 500, "only {deep} backfills went deeper than 64");
    replay_against_the_oracle("deep backfills", &stream);
}

#[test]
fn long_streams_compact_the_window_many_times() {
    // The window slides 64 slots before it is copied back to the
    // front, so every 64 forgotten intervals is one compaction.
    let stream = request_stream(0xC0FAC7, 64 * MAX_INTERVALS);
    let naive = replay_against_the_oracle("long stream", &stream);
    assert!(
        naive.dropped > 100 * 64,
        "only {} intervals forgotten",
        naive.dropped
    );
}

#[test]
fn insert_at_the_front_of_a_full_timeline_is_forgotten() {
    // A full timeline starting at 1000, then arrivals that fit in
    // front of its oldest interval without abutting it: each would be
    // the new oldest of a full timeline and is forgotten at once.
    let mut stream: Vec<(u64, u64)> = (0..MAX_INTERVALS as u64)
        .map(|i| (1_000 + i * 20, 10))
        .collect();
    stream.extend([(0, 10), (0, 10), (500, 10)]);
    // The oldest interval survived: a request into its gap merges
    // with it rather than starting at 1000.
    stream.push((1_000, 10));
    let naive = replay_against_the_oracle("front insert", &stream);
    assert_eq!(naive.intervals.len(), MAX_INTERVALS - 1, "one merge");
    assert_eq!(naive.intervals[0], (1_000, 1_030));
}

#[test]
fn banked_interleave_key_is_deterministic_for_any_bank_count() {
    // 8 banks exercises the power-of-two mask path, 6 the divide path;
    // both must agree with an explicit per-bank replay.
    for banks in [8usize, 6] {
        let mut banked = BankedResource::new(banks, 25);
        let mut replay: Vec<Resource> = (0..banks).map(|_| Resource::new(25)).collect();
        let mut rng = SimRng::seeded(0x5EED ^ banks as u64);
        for (at, occ) in request_stream(7, 2_000) {
            let key = rng.next_u64();
            let got = banked.acquire_for(Cycle(at), key, Duration(occ));
            let want = replay[(key % banks as u64) as usize].acquire_for(Cycle(at), Duration(occ));
            assert_eq!(got, want, "banks {banks}: key {key} routed differently");
        }
    }
}

#[test]
fn per_bank_reservations_commute_across_merge_order() {
    const BANKS: usize = 4;
    let stream: Vec<(u64, u64, u64)> = {
        let mut rng = SimRng::seeded(0xCAFE);
        request_stream(11, 3_000)
            .into_iter()
            .map(|(at, occ)| (at, occ, rng.next_u64()))
            .collect()
    };
    // Interleaved application, in stream order.
    let mut interleaved = BankedResource::new(BANKS, 30);
    let mut starts = vec![Vec::new(); BANKS];
    for &(at, occ, key) in &stream {
        let s = interleaved.acquire_for(Cycle(at), key, Duration(occ));
        starts[(key % BANKS as u64) as usize].push(s);
    }
    // Bank-by-bank application of the per-bank subsequences, in
    // several different bank orders (the per-bank order — the analogue
    // of per-resource key order in the engine — is always preserved).
    for order in [[0usize, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]] {
        let mut split = BankedResource::new(BANKS, 30);
        let mut split_starts = vec![Vec::new(); BANKS];
        for &bank in &order {
            for &(at, occ, key) in &stream {
                if (key % BANKS as u64) as usize == bank {
                    let s = split.acquire_for(Cycle(at), key, Duration(occ));
                    split_starts[bank].push(s);
                }
            }
        }
        assert_eq!(
            starts, split_starts,
            "bank order {order:?}: service starts diverged"
        );
        // Identical final timelines: a probe request to any bank, at
        // any arrival time, is served at the same start by both.
        let horizon = stream.iter().map(|&(at, ..)| at).max().unwrap() + 1_000;
        for bank in 0..BANKS as u64 {
            for at in (0..horizon).step_by(997) {
                assert_eq!(
                    split.clone().acquire(Cycle(at), bank),
                    interleaved.clone().acquire(Cycle(at), bank),
                    "bank order {order:?}: bank {bank} timeline diverged at {at}"
                );
            }
        }
    }
}
