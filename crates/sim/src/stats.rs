//! Counters and ratios for simulation statistics.
//!
//! Every figure in the paper is a counter ratio (hit rates, request
//! percentages) or a derived performance number (IPC). Components
//! accumulate into these types and the experiment harness reads them
//! out at the end of a run.

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use fam_sim::stats::Counter;
///
/// let mut c = Counter::new();
/// c.add(3);
/// c.inc();
/// assert_eq!(c.value(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Counter {
        Counter(0)
    }

    /// Adds one, saturating at `u64::MAX` so billion-ref runs can
    /// never wrap silently.
    pub fn inc(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Adds `n`, saturating at `u64::MAX`.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl From<u64> for Counter {
    /// Creates a counter holding `value` — used by registry
    /// snapshot/diff arithmetic.
    fn from(value: u64) -> Counter {
        Counter(value)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A hit/miss style ratio.
///
/// # Examples
///
/// ```
/// use fam_sim::stats::Ratio;
///
/// let mut r = Ratio::new();
/// r.hit();
/// r.hit();
/// r.miss();
/// assert_eq!(r.total(), 3);
/// assert!((r.rate() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ratio {
    hits: u64,
    misses: u64,
}

impl Ratio {
    /// Creates an empty ratio.
    pub fn new() -> Ratio {
        Ratio::default()
    }

    /// Creates a ratio from pre-counted hit/miss totals — used by
    /// registry snapshot/diff arithmetic.
    pub(crate) fn from_parts(hits: u64, misses: u64) -> Ratio {
        Ratio { hits, misses }
    }

    /// Records a hit.
    pub fn hit(&mut self) {
        self.hits += 1;
    }

    /// Records a miss.
    pub fn miss(&mut self) {
        self.misses += 1;
    }

    /// Records a hit or a miss.
    pub fn record(&mut self, is_hit: bool) {
        if is_hit {
            self.hit();
        } else {
            self.miss();
        }
    }

    /// Number of hits.
    pub fn hits(self) -> u64 {
        self.hits
    }

    /// Number of misses.
    pub fn misses(self) -> u64 {
        self.misses
    }

    /// Total events.
    pub fn total(self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; `1.0` for an empty ratio (no accesses means
    /// nothing ever missed, which is the convention hit-rate plots use).
    pub fn rate(self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }

    /// Hit rate as a percentage in `[0, 100]`.
    pub fn percent(self) -> f64 {
        self.rate() * 100.0
    }

    /// Merges another ratio into this one.
    pub fn merge(&mut self, other: Ratio) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} ({:.2}%)", self.hits, self.total(), self.percent())
    }
}

/// Geometric mean of a slice of positive values; `1.0` for an empty
/// slice. The paper reports suite-level sensitivity results as
/// geometric means (§V-D).
///
/// # Examples
///
/// ```
/// let g = fam_sim::stats::geomean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.value(), 10);
        assert_eq!(Counter::new().to_string(), "0");
    }

    #[test]
    fn ratio_rates() {
        let mut r = Ratio::new();
        assert_eq!(r.rate(), 1.0, "empty ratio counts as all-hit");
        for _ in 0..3 {
            r.hit();
        }
        r.miss();
        assert_eq!(r.hits(), 3);
        assert_eq!(r.misses(), 1);
        assert!((r.percent() - 75.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_record_and_merge() {
        let mut a = Ratio::new();
        a.record(true);
        a.record(false);
        let mut b = Ratio::new();
        b.record(true);
        b.merge(a);
        assert_eq!(b.hits(), 2);
        assert_eq!(b.total(), 3);
    }

    #[test]
    fn geomean_matches_definition() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_edge_cases_stay_finite() {
        // Empty slice is the multiplicative identity.
        assert_eq!(geomean(&[]), 1.0);
        // Zeros are clamped to the smallest positive double instead of
        // producing -inf logs: the result is finite, non-negative, and
        // effectively zero.
        let g = geomean(&[0.0, 0.0, 0.0]);
        assert!(g.is_finite() && (0.0..1e-300).contains(&g), "got {g}");
        // A single zero drags the mean down but never poisons it.
        let g = geomean(&[0.0, 4.0, 16.0]);
        assert!(g.is_finite() && g >= 0.0, "got {g}");
        // Monotonicity spot check: replacing the zero with a positive
        // value can only increase the mean.
        assert!(g <= geomean(&[1.0, 4.0, 16.0]));
    }

    #[test]
    fn saturating_arithmetic_pins_instead_of_wrapping() {
        let mut c = Counter::from(u64::MAX - 1);
        c.add(100);
        assert_eq!(c.value(), u64::MAX);
        c.inc();
        assert_eq!(c.value(), u64::MAX);
    }
}
