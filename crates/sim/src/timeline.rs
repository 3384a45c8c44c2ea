//! A fixed-capacity ring of sorted busy intervals.
//!
//! [`Resource`](crate::Resource) timelines live on the simulation's
//! hottest path: every fabric traversal, DRAM access and NVM bank
//! claim searches and mutates one. A general-purpose `VecDeque` pays
//! for its flexibility in indexing arithmetic and growth bookkeeping,
//! so the timeline is a bespoke power-of-two ring: index masking is a
//! single AND, dropping the oldest interval is O(1), and the binary
//! search is a tight loop over masked loads.

/// Retained interval capacity. Must be a power of two (indexing relies
/// on masking); older intervals beyond it are forgotten — treated as
/// free — which bounds memory for arbitrarily long runs.
pub const MAX_INTERVALS: usize = 256;

const MASK: usize = MAX_INTERVALS - 1;

/// Sorted, non-overlapping `(start, end)` busy intervals in a ring.
///
/// The backing buffer is allocated lazily on first use so idle
/// resources (of which a system has hundreds) stay pointer-sized.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    buf: Vec<(u64, u64)>,
    head: usize,
    len: usize,
}

impl Timeline {
    /// An empty timeline; allocates nothing until the first push.
    pub fn new() -> Timeline {
        Timeline {
            buf: Vec::new(),
            head: 0,
            len: 0,
        }
    }

    /// Number of retained intervals.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no intervals are retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot(&self, i: usize) -> usize {
        (self.head + i) & MASK
    }

    /// The `i`-th oldest interval.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> (u64, u64) {
        debug_assert!(i < self.len);
        self.buf[self.slot(i)]
    }

    /// Overwrites the `i`-th oldest interval.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` (debug builds).
    #[inline]
    pub fn set(&mut self, i: usize, v: (u64, u64)) {
        debug_assert!(i < self.len);
        let s = self.slot(i);
        self.buf[s] = v;
    }

    /// The newest interval, if any.
    #[inline]
    pub fn back(&self) -> Option<(u64, u64)> {
        if self.len == 0 {
            None
        } else {
            Some(self.get(self.len - 1))
        }
    }

    /// Overwrites the newest interval.
    ///
    /// # Panics
    ///
    /// Panics if the timeline is empty.
    pub fn set_back(&mut self, v: (u64, u64)) {
        assert!(self.len > 0, "set_back on empty timeline");
        let i = self.len - 1;
        self.set(i, v);
    }

    fn ensure_buf(&mut self) {
        if self.buf.is_empty() {
            self.buf = vec![(0, 0); MAX_INTERVALS];
        }
    }

    /// Appends a newest interval, dropping the oldest when full.
    pub fn push_back(&mut self, v: (u64, u64)) {
        self.ensure_buf();
        if self.len == MAX_INTERVALS {
            self.head = (self.head + 1) & MASK;
            self.len -= 1;
        }
        let s = self.slot(self.len);
        self.buf[s] = v;
        self.len += 1;
    }

    /// Inserts `v` so it becomes the `at`-th oldest interval. When the
    /// timeline is full the oldest interval is dropped first; inserting
    /// at position 0 of a full timeline is a no-op (the new interval
    /// would itself be the oldest and is forgotten immediately).
    pub fn insert(&mut self, at: usize, v: (u64, u64)) {
        debug_assert!(at <= self.len);
        self.ensure_buf();
        let mut at = at;
        if self.len == MAX_INTERVALS {
            if at == 0 {
                return;
            }
            self.head = (self.head + 1) & MASK;
            self.len -= 1;
            at -= 1;
        }
        let mut i = self.len;
        while i > at {
            let v = self.buf[self.slot(i - 1)];
            let s = self.slot(i);
            self.buf[s] = v;
            i -= 1;
        }
        let s = self.slot(at);
        self.buf[s] = v;
        self.len += 1;
    }

    /// Removes the `at`-th oldest interval.
    ///
    /// # Panics
    ///
    /// Panics if `at >= len`.
    pub fn remove(&mut self, at: usize) {
        assert!(at < self.len, "remove out of range");
        for i in at..self.len - 1 {
            let v = self.buf[self.slot(i + 1)];
            let s = self.slot(i);
            self.buf[s] = v;
        }
        self.len -= 1;
    }

    /// Index of the first interval whose end is after `t` — the
    /// earliest interval that could constrain an arrival at `t`. Ends
    /// are strictly increasing across the sorted timeline, so this is
    /// a plain binary search.
    pub fn first_ending_after(&self, t: u64) -> usize {
        let (mut lo, mut hi) = (0usize, self.len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.buf[self.slot(mid)].1 <= t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_in_order() {
        let mut t = Timeline::new();
        for i in 0..10u64 {
            t.push_back((i * 10, i * 10 + 5));
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.get(0), (0, 5));
        assert_eq!(t.back(), Some((90, 95)));
    }

    #[test]
    fn push_past_capacity_drops_oldest() {
        let mut t = Timeline::new();
        for i in 0..(MAX_INTERVALS as u64 + 3) {
            t.push_back((i, i + 1));
        }
        assert_eq!(t.len(), MAX_INTERVALS);
        assert_eq!(t.get(0), (3, 4));
    }

    #[test]
    fn insert_shifts_newer_intervals() {
        let mut t = Timeline::new();
        t.push_back((0, 1));
        t.push_back((10, 11));
        t.insert(1, (5, 6));
        assert_eq!(t.get(0), (0, 1));
        assert_eq!(t.get(1), (5, 6));
        assert_eq!(t.get(2), (10, 11));
    }

    #[test]
    fn insert_into_full_timeline_drops_oldest() {
        let mut t = Timeline::new();
        for i in 0..MAX_INTERVALS as u64 {
            t.push_back((i * 10, i * 10 + 1));
        }
        t.insert(5, (44, 45));
        assert_eq!(t.len(), MAX_INTERVALS);
        assert_eq!(t.get(0), (10, 11), "oldest was dropped");
        assert_eq!(t.get(4), (44, 45), "insert index shifted by the drop");
    }

    #[test]
    fn insert_at_front_of_full_timeline_is_forgotten() {
        let mut t = Timeline::new();
        for i in 1..=MAX_INTERVALS as u64 {
            t.push_back((i * 10, i * 10 + 1));
        }
        t.insert(0, (0, 1));
        assert_eq!(t.len(), MAX_INTERVALS);
        assert_eq!(t.get(0), (10, 11));
    }

    #[test]
    fn remove_closes_the_gap() {
        let mut t = Timeline::new();
        t.push_back((0, 1));
        t.push_back((2, 3));
        t.push_back((4, 5));
        t.remove(1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1), (4, 5));
    }

    #[test]
    fn binary_search_finds_first_ending_after() {
        let mut t = Timeline::new();
        for i in 0..20u64 {
            t.push_back((i * 10, i * 10 + 5));
        }
        assert_eq!(t.first_ending_after(0), 0);
        assert_eq!(t.first_ending_after(5), 1);
        assert_eq!(t.first_ending_after(57), 6);
        assert_eq!(t.first_ending_after(10_000), 20);
    }

    #[test]
    fn search_is_correct_across_the_ring_seam() {
        let mut t = Timeline::new();
        // Force wrap-around: overfill, then query.
        for i in 0..(MAX_INTERVALS as u64 * 2) {
            t.push_back((i * 10, i * 10 + 5));
        }
        let oldest = t.get(0);
        assert_eq!(t.first_ending_after(oldest.0), 0);
        let mid = t.get(MAX_INTERVALS / 2);
        assert_eq!(t.first_ending_after(mid.1), MAX_INTERVALS / 2 + 1);
    }
}
