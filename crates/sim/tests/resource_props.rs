//! Randomized property tests for the contended-resource substrate:
//! [`Resource`], [`BankedResource`] and the fixed-capacity interval
//! ring ([`fam_sim::timeline`]) that backs them.
//!
//! Three properties, pinned with a deterministic LCG-driven stream
//! (no external dependencies, same verdict on every host):
//!
//! 1. **Reference-model equivalence through ring wraparound** — a
//!    `Resource` behaves exactly like an obviously-correct flat-`Vec`
//!    model with the same retention policy, across thousands of mixed
//!    in-order/backfill requests, far past [`MAX_INTERVALS`] so the
//!    ring wraps many times over.
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
/// the oldest when full; a new oldest-of-a-full-ring is forgotten).
struct NaiveResource {
    intervals: Vec<(u64, u64)>,
}

impl NaiveResource {
    fn new() -> NaiveResource {
        NaiveResource {
            intervals: Vec::new(),
        }
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
/// time drifts forward (so the ring eventually wraps) while individual
/// arrivals jitter backwards past the frontier (so backfills, gap
/// fits, coalescing and the deep-search fallback all trigger).
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

#[test]
fn resource_matches_the_naive_model_through_ring_wraparound() {
    for seed in [1u64, 0xDEAC7, 0xB0B] {
        let mut real = Resource::new(10);
        let mut naive = NaiveResource::new();
        // Far past MAX_INTERVALS requests, mostly disjoint: the ring
        // wraps several times while the naive Vec prunes in lockstep.
        for (i, (at, occ)) in request_stream(seed, 8 * MAX_INTERVALS)
            .into_iter()
            .enumerate()
        {
            let got = real.acquire_for(Cycle(at), Duration(occ));
            let want = naive.acquire_for(at, occ);
            assert_eq!(
                got.0, want,
                "seed {seed}, request {i} (at={at}, occ={occ}) diverged"
            );
        }
        assert_eq!(
            real.next_free().0,
            naive.next_free(),
            "seed {seed}: frontier diverged"
        );
    }
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
        assert_eq!(banked.requests(), 2_000);
        assert_eq!(
            banked.busy_cycles(),
            replay.iter().map(Resource::busy_cycles).sum::<Duration>()
        );
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
        assert_eq!(split.requests(), interleaved.requests());
        assert_eq!(split.busy_cycles(), interleaved.busy_cycles());
    }
}
