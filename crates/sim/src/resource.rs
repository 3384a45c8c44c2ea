//! Contended hardware resources modelled as busy-interval timelines.

use crate::timeline::Timeline;
use crate::{Cycle, Duration};

/// A serially-occupied hardware unit: a DRAM channel, a fabric link, an
/// STU lookup port.
///
/// A request arriving at time `t` is *backfilled* into the earliest gap
/// of length `occupancy` at or after `t` in the resource's busy
/// timeline. Unlike a single `next_free` cursor, this tolerates
/// requests arriving out of simulated-time order — which path-oriented
/// simulation produces constantly (a multi-hop operation acquires
/// downstream resources at future times; the next operation's upstream
/// acquisition happens earlier). A future-time request must not block
/// an earlier one.
///
/// # Examples
///
/// ```
/// use fam_sim::{Cycle, Resource};
///
/// let mut link = Resource::new(4);
/// assert_eq!(link.acquire(Cycle(100)), Cycle(100)); // future request
/// // An earlier arrival backfills in front of it.
/// assert_eq!(link.acquire(Cycle(0)), Cycle(0));
/// // Contention still queues: same-time requests serialize.
/// assert_eq!(link.acquire(Cycle(0)), Cycle(4));
/// ```
#[derive(Debug, Clone)]
pub struct Resource {
    occupancy: Duration,
    /// Sorted, non-overlapping (start, end) busy intervals. Bounded:
    /// the oldest intervals are forgotten (treated as free) past
    /// [`crate::timeline::MAX_INTERVALS`], bounding memory for long runs.
    intervals: Timeline,
}

impl Resource {
    /// Creates a resource that is busy for `occupancy` cycles per request.
    pub fn new(occupancy: u64) -> Resource {
        Resource {
            occupancy: Duration(occupancy),
            intervals: Timeline::new(),
        }
    }

    /// Claims the resource for one request arriving at `now`; returns
    /// the cycle at which service begins.
    pub fn acquire(&mut self, now: Cycle) -> Cycle {
        self.acquire_for(now, self.occupancy)
    }

    /// Claims the resource for a request with a non-default occupancy
    /// (e.g. a larger packet on a link).
    pub fn acquire_for(&mut self, now: Cycle, occupancy: Duration) -> Cycle {
        if occupancy.0 == 0 {
            return now;
        }
        let mut start = now.0;
        // Fast path: an arrival at or after the busy frontier appends a
        // fresh interval — no search, no mid-window insertion.
        // Back-to-back service extends the frontier interval in place:
        // the busy-set is identical and the timeline stays short, which
        // keeps every later search and insertion cheap.
        match self.intervals.back() {
            Some((s, end)) if end == start => {
                self.intervals.set_back((s, start + occupancy.0));
                return Cycle(start);
            }
            Some((_, end)) if end < start => {
                self.intervals.push_back((start, start + occupancy.0));
                return Cycle(start);
            }
            None => {
                self.intervals.push_back((start, start + occupancy.0));
                return Cycle(start);
            }
            _ => {}
        }
        // Backfill: find the first interval that ends after our
        // candidate start (ends are strictly increasing across the
        // sorted timeline), then walk forward to the first gap that
        // fits.
        let iv = self.intervals.as_slice();
        let mut idx = self.intervals.first_ending_after(start);
        let (end, next_busy_start) = loop {
            let next_busy_start = iv.get(idx).map_or(u64::MAX, |&(s, _)| s);
            let end = start.saturating_add(occupancy.0);
            if end <= next_busy_start {
                break (end, next_busy_start);
            }
            start = iv[idx].1;
            idx += 1;
        };
        // Coalesce with whichever neighbours this interval abuts — the
        // busy-set is unchanged, but runs of back-to-back service
        // collapse into single intervals instead of fragmenting the
        // timeline.
        let abuts_prev = idx > 0 && iv[idx - 1].1 == start;
        let abuts_next = idx < iv.len() && end == next_busy_start;
        match (abuts_prev, abuts_next) {
            (true, true) => {
                let merged = (iv[idx - 1].0, iv[idx].1);
                self.intervals.set(idx - 1, merged);
                self.intervals.remove(idx);
            }
            (true, false) => {
                let prev = iv[idx - 1];
                self.intervals.set(idx - 1, (prev.0, end));
            }
            (false, true) => {
                let next = iv[idx];
                self.intervals.set(idx, (start, next.1));
            }
            (false, false) => {
                self.intervals.insert(idx, (start, end));
            }
        }
        Cycle(start)
    }

    /// The end of the latest busy interval (the resource is certainly
    /// free after this point).
    pub fn next_free(&self) -> Cycle {
        Cycle(self.intervals.back().map(|(_, e)| e).unwrap_or(0))
    }
}

/// A set of independently-occupied banks addressed by an interleaving
/// function — the FAM NVM's 32 banks in the paper (Table II).
///
/// Each bank is its own [`Resource`]; consecutive cache blocks map to
/// consecutive banks so streaming traffic spreads across the device.
///
/// # Examples
///
/// ```
/// use fam_sim::{BankedResource, Cycle};
///
/// let mut nvm = BankedResource::new(4, 100);
/// // Two requests to different banks proceed in parallel...
/// assert_eq!(nvm.acquire(Cycle(0), 0), Cycle(0));
/// assert_eq!(nvm.acquire(Cycle(0), 1), Cycle(0));
/// // ...but a second request to bank 0 queues.
/// assert_eq!(nvm.acquire(Cycle(0), 4), Cycle(100));
/// ```
#[derive(Debug, Clone)]
pub struct BankedResource {
    banks: Vec<Resource>,
    /// `banks - 1` when the bank count is a power of two, else 0 —
    /// interleaving is on every modelled device access, and an AND
    /// beats the hardware divide of `% banks`.
    bank_mask: u64,
}

impl BankedResource {
    /// Creates `banks` banks, each busy `occupancy` cycles per request.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn new(banks: usize, occupancy: u64) -> BankedResource {
        assert!(banks > 0, "need at least one bank");
        BankedResource {
            banks: vec![Resource::new(occupancy); banks],
            bank_mask: if banks.is_power_of_two() {
                banks as u64 - 1
            } else {
                0
            },
        }
    }

    /// Claims the bank selected by `interleave_key % banks` for a
    /// request arriving at `now`; returns the service start time.
    pub fn acquire(&mut self, now: Cycle, interleave_key: u64) -> Cycle {
        let idx = self.bank_index(interleave_key);
        self.banks[idx].acquire(now)
    }

    /// As [`BankedResource::acquire`] with an explicit occupancy.
    pub fn acquire_for(&mut self, now: Cycle, interleave_key: u64, occupancy: Duration) -> Cycle {
        let idx = self.bank_index(interleave_key);
        self.banks[idx].acquire_for(now, occupancy)
    }

    #[inline]
    fn bank_index(&self, interleave_key: u64) -> usize {
        if self.bank_mask != 0 {
            (interleave_key & self.bank_mask) as usize
        } else {
            (interleave_key % self.banks.len() as u64) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_requests_queue() {
        let mut r = Resource::new(10);
        assert_eq!(r.acquire(Cycle(0)), Cycle(0));
        assert_eq!(r.acquire(Cycle(0)), Cycle(10));
        assert_eq!(r.acquire(Cycle(5)), Cycle(20));
        assert_eq!(r.next_free(), Cycle(30));
    }

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = Resource::new(10);
        r.acquire(Cycle(0));
        assert_eq!(r.acquire(Cycle(1000)), Cycle(1000));
    }

    #[test]
    fn earlier_arrival_backfills_before_future_reservation() {
        let mut r = Resource::new(10);
        assert_eq!(r.acquire(Cycle(5000)), Cycle(5000));
        // A request arriving earlier is not blocked by the future one.
        assert_eq!(r.acquire(Cycle(0)), Cycle(0));
        // A gap-sized request fits between the two.
        assert_eq!(r.acquire(Cycle(2000)), Cycle(2000));
        // But a request overlapping the future interval queues behind it.
        assert_eq!(r.acquire(Cycle(4995)), Cycle(5010));
    }

    #[test]
    fn backfill_respects_gap_size() {
        let mut r = Resource::new(10);
        r.acquire(Cycle(0)); // busy [0,10)
        r.acquire(Cycle(15)); // busy [15,25)
                              // A 10-cycle job arriving at 8 does not fit in the 5-cycle gap.
        assert_eq!(r.acquire(Cycle(8)), Cycle(25));
        // But one arriving at 25+ starts immediately after.
        assert_eq!(r.acquire(Cycle(40)), Cycle(40));
    }

    #[test]
    fn acquire_for_custom_occupancy() {
        let mut r = Resource::new(10);
        assert_eq!(r.acquire_for(Cycle(0), Duration(3)), Cycle(0));
        assert_eq!(r.next_free(), Cycle(3));
        assert_eq!(r.acquire(Cycle(0)), Cycle(3), "queues behind 3 cycles");
    }

    #[test]
    fn zero_occupancy_is_free() {
        let mut r = Resource::new(0);
        assert_eq!(r.acquire(Cycle(7)), Cycle(7));
        assert_eq!(r.acquire(Cycle(7)), Cycle(7));
        assert_eq!(r.next_free(), Cycle(0), "nothing was reserved");
    }

    #[test]
    fn interval_pruning_bounds_memory() {
        let mut r = Resource::new(1);
        for i in 0..10_000u64 {
            // Disjoint intervals so nothing merges.
            assert_eq!(r.acquire(Cycle(i * 10)), Cycle(i * 10));
        }
        assert_eq!(r.intervals.as_slice().len(), crate::timeline::MAX_INTERVALS);
        assert_eq!(r.next_free(), Cycle(99_991));
    }

    #[test]
    fn banks_are_independent() {
        let mut b = BankedResource::new(2, 50);
        assert_eq!(b.acquire(Cycle(0), 0), Cycle(0));
        assert_eq!(b.acquire(Cycle(0), 1), Cycle(0));
        assert_eq!(b.acquire(Cycle(0), 2), Cycle(50)); // bank 0 again
        assert_eq!(b.acquire(Cycle(0), 3), Cycle(50)); // bank 1 again
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let _ = BankedResource::new(0, 1);
    }
}
