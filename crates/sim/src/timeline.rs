//! A bounded, contiguous window of sorted busy intervals.
//!
//! [`Resource`](crate::Resource) timelines live on the simulation's
//! hottest path: every fabric traversal, DRAM access and NVM bank
//! claim searches and mutates one. The intervals are kept as one
//! contiguous slice, `buf[head..head + len]`, so the search runs over
//! plain memory and an insertion or removal is a single `copy_within`.
//! Dropping the oldest interval only advances `head`; when the window
//! reaches the end of the buffer it is copied back to the front, which
//! happens once per 64 drops.

/// Retained interval capacity. Older intervals beyond it are
/// forgotten — treated as free — which bounds memory for arbitrarily
/// long runs.
pub const MAX_INTERVALS: usize = 256;

/// Spare slots past [`MAX_INTERVALS`] that the window slides into
/// before it is compacted back to the front of the buffer.
const SLACK: usize = 64;

/// Sorted, non-overlapping `(start, end)` busy intervals.
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
        Timeline::default()
    }

    /// The retained intervals, oldest first.
    #[inline]
    pub fn as_slice(&self) -> &[(u64, u64)] {
        &self.buf[self.head..self.head + self.len]
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [(u64, u64)] {
        &mut self.buf[self.head..self.head + self.len]
    }

    /// Overwrites the `i`-th oldest interval.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, v: (u64, u64)) {
        self.as_mut_slice()[i] = v;
    }

    /// The newest interval, if any.
    #[inline]
    pub fn back(&self) -> Option<(u64, u64)> {
        self.as_slice().last().copied()
    }

    /// Overwrites the newest interval.
    ///
    /// # Panics
    ///
    /// Panics if the timeline is empty.
    pub fn set_back(&mut self, v: (u64, u64)) {
        *self
            .as_mut_slice()
            .last_mut()
            .expect("set_back on empty timeline") = v;
    }

    /// Makes room for one more interval at the end of the window:
    /// drops the oldest interval when full, and allocates the buffer or
    /// slides the window back to its front when the window reaches the
    /// buffer's end. Returns whether the oldest interval was dropped.
    #[inline]
    fn reserve_one(&mut self) -> bool {
        let dropped = self.len == MAX_INTERVALS;
        if dropped {
            self.head += 1;
            self.len -= 1;
        }
        if self.head + self.len == self.buf.len() {
            self.make_room();
        }
        dropped
    }

    /// The rare half of [`Timeline::reserve_one`], out of line so the
    /// append path stays small enough to inline: allocates the buffer
    /// on first use, otherwise copies the window back to its front.
    #[cold]
    #[inline(never)]
    fn make_room(&mut self) {
        if self.buf.is_empty() {
            self.buf = vec![(0, 0); MAX_INTERVALS + SLACK];
        } else {
            self.buf.copy_within(self.head..self.head + self.len, 0);
            self.head = 0;
        }
    }

    /// Appends a newest interval, dropping the oldest when full.
    #[inline]
    pub fn push_back(&mut self, v: (u64, u64)) {
        self.reserve_one();
        self.buf[self.head + self.len] = v;
        self.len += 1;
    }

    /// Inserts `v` so it becomes the `at`-th oldest interval. When the
    /// timeline is full the oldest interval is dropped first; inserting
    /// at position 0 of a full timeline is a no-op (the new interval
    /// would itself be the oldest and is forgotten immediately).
    pub fn insert(&mut self, at: usize, v: (u64, u64)) {
        debug_assert!(at <= self.len);
        if at == 0 && self.len == MAX_INTERVALS {
            return;
        }
        let dropped = self.reserve_one();
        let at = self.head + at - usize::from(dropped);
        let end = self.head + self.len;
        self.buf.copy_within(at..end, at + 1);
        self.buf[at] = v;
        self.len += 1;
    }

    /// Removes the `at`-th oldest interval.
    ///
    /// # Panics
    ///
    /// Panics if `at >= len`.
    pub fn remove(&mut self, at: usize) {
        assert!(at < self.len, "remove out of range");
        let (at, end) = (self.head + at, self.head + self.len);
        self.buf.copy_within(at + 1..end, at);
        self.len -= 1;
    }

    /// Index of the first interval whose end is after `t` — the
    /// earliest interval that could constrain an arrival at `t`.
    ///
    /// Ends are strictly increasing across the sorted timeline, so this
    /// is a search from the newest interval backwards: probes 1, 2, 4,
    /// 8, … intervals behind the last one known to end after `t` until
    /// one ends at or before it, then a `partition_point` over the gap
    /// between the two. Backfills land a few to a few dozen intervals
    /// behind the frontier, and the cost grows with that distance
    /// (twice its logarithm), not with the window's length.
    pub fn first_ending_after(&self, t: u64) -> usize {
        let iv = self.as_slice();
        let n = iv.len();
        if n == 0 || iv[n - 1].1 <= t {
            return n;
        }
        // Invariant: `iv[hi]` ends after `t`, so the answer is <= `hi`.
        let mut hi = n - 1;
        let mut step = 1;
        while hi > 0 {
            let probe = hi.saturating_sub(step);
            if iv[probe].1 <= t {
                return probe + 1 + iv[probe + 1..hi].partition_point(|&(_, e)| e <= t);
            }
            hi = probe;
            step *= 2;
        }
        0
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
        assert_eq!(t.as_slice().len(), 10);
        assert_eq!(t.as_slice()[0], (0, 5));
        assert_eq!(t.back(), Some((90, 95)));
    }

    #[test]
    fn push_past_capacity_drops_oldest() {
        let mut t = Timeline::new();
        for i in 0..(MAX_INTERVALS as u64 + 3) {
            t.push_back((i, i + 1));
        }
        assert_eq!(t.as_slice().len(), MAX_INTERVALS);
        assert_eq!(t.as_slice()[0], (3, 4));
    }

    #[test]
    fn insert_shifts_newer_intervals() {
        let mut t = Timeline::new();
        t.push_back((0, 1));
        t.push_back((10, 11));
        t.insert(1, (5, 6));
        assert_eq!(t.as_slice()[0], (0, 1));
        assert_eq!(t.as_slice()[1], (5, 6));
        assert_eq!(t.as_slice()[2], (10, 11));
    }

    #[test]
    fn insert_into_full_timeline_drops_oldest() {
        let mut t = Timeline::new();
        for i in 0..MAX_INTERVALS as u64 {
            t.push_back((i * 10, i * 10 + 1));
        }
        t.insert(5, (44, 45));
        assert_eq!(t.as_slice().len(), MAX_INTERVALS);
        assert_eq!(t.as_slice()[0], (10, 11), "oldest was dropped");
        assert_eq!(
            t.as_slice()[4],
            (44, 45),
            "insert index shifted by the drop"
        );
    }

    #[test]
    fn insert_at_front_of_full_timeline_is_forgotten() {
        let mut t = Timeline::new();
        for i in 1..=MAX_INTERVALS as u64 {
            t.push_back((i * 10, i * 10 + 1));
        }
        t.insert(0, (0, 1));
        assert_eq!(t.as_slice().len(), MAX_INTERVALS);
        assert_eq!(t.as_slice()[0], (10, 11));
    }

    #[test]
    fn remove_closes_the_gap() {
        let mut t = Timeline::new();
        t.push_back((0, 1));
        t.push_back((2, 3));
        t.push_back((4, 5));
        t.remove(1);
        assert_eq!(t.as_slice().len(), 2);
        assert_eq!(t.as_slice()[1], (4, 5));
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
    fn search_matches_a_linear_scan_at_every_depth() {
        let mut t = Timeline::new();
        for i in 0..MAX_INTERVALS as u64 {
            t.push_back((i * 10, i * 10 + 5));
        }
        for at in 0..MAX_INTERVALS as u64 * 10 + 10 {
            let want = t.as_slice().iter().filter(|&&(_, e)| e <= at).count();
            assert_eq!(t.first_ending_after(at), want, "arrival at {at}");
        }
    }

    #[test]
    fn window_survives_compaction() {
        let mut t = Timeline::new();
        // A full window, then exactly enough drops to slide it to the
        // end of the buffer; one more push compacts it to the front.
        for i in 0..(MAX_INTERVALS + SLACK) as u64 {
            t.push_back((i * 10, i * 10 + 5));
        }
        assert_eq!(t.head + t.len, t.buf.len(), "window at the buffer end");
        t.push_back((10_000, 10_005));
        assert_eq!(t.head, 0, "the oldest was dropped, then compacted");
        let first = (SLACK as u64 + 1) * 10;
        assert_eq!(t.as_slice()[0], (first, first + 5));
        assert_eq!(t.back(), Some((10_000, 10_005)));
        // Fill to the end again and insert mid-window across the
        // compaction point: order and the search survive the copy.
        while t.head + t.len < t.buf.len() {
            let (_, e) = t.back().unwrap();
            t.push_back((e + 5, e + 10));
        }
        let mid = t.as_slice()[MAX_INTERVALS / 2];
        t.insert(MAX_INTERVALS / 2, (mid.0 - 3, mid.0 - 1));
        assert_eq!(t.head, 0, "compacted by the insert");
        assert_eq!(t.as_slice().len(), MAX_INTERVALS);
        assert!(t.as_slice().windows(2).all(|w| w[0].1 < w[1].0), "sorted");
        assert_eq!(t.as_slice()[MAX_INTERVALS / 2 - 1], (mid.0 - 3, mid.0 - 1));
        assert_eq!(t.first_ending_after(mid.0 - 2), MAX_INTERVALS / 2 - 1);
        let oldest = t.as_slice()[0];
        assert_eq!(t.first_ending_after(oldest.0), 0);
    }
}
