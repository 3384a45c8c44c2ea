//! Counters, ratios and histograms for simulation statistics.
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
    pub fn from_parts(hits: u64, misses: u64) -> Ratio {
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

    /// Resets both counts.
    pub fn reset(&mut self) {
        *self = Ratio::default();
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} ({:.2}%)", self.hits, self.total(), self.percent())
    }
}

/// A fixed-bucket histogram of `u64` samples (power-of-two buckets),
/// used for latency distributions.
///
/// # Examples
///
/// ```
/// use fam_sim::stats::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(1);
/// h.record(100);
/// h.record(100);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.max(), 100);
/// assert!((h.mean() - 67.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>, // bucket i counts samples in [2^(i-1), 2^i), bucket 0 = {0}
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        let b = if sample == 0 {
            0
        } else {
            64 - sample.leading_zeros() as usize
        };
        self.buckets[b] = self.buckets[b].saturating_add(1);
        self.count = self.count.saturating_add(1);
        // Saturating: a billion-ref run summing large latencies must
        // degrade to a pinned mean, never wrap to a tiny one.
        self.sum = self.sum.saturating_add(sample);
        self.max = self.max.max(sample);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (zero if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (zero if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An approximate quantile (`q` in `[0,1]`) from the bucket
    /// boundaries; exact enough for reporting tail latencies.
    ///
    /// Returns the *upper* bound of the bucket holding the target
    /// sample (clamped to the observed maximum), so tails are never
    /// underestimated: a quantile is a value at least `q` of the
    /// samples sit at or below, and only the upper bound guarantees
    /// that for every sample in the bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                // Bucket i covers [2^(i-1), 2^i); its inclusive upper
                // bound is 2^i - 1 (bucket 0 holds only zero). The
                // last bucket's nominal bound overflows u64, but the
                // max clamp keeps the result meaningful there too.
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p99={} max={}",
            self.count,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max
        )
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
    fn histogram_basic_stats() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 4, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.sum(), 1039);
        assert!(h.quantile(0.0) <= h.quantile(1.0));
    }

    #[test]
    fn histogram_quantile_monotone() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        assert!(p99 <= h.max());
    }

    #[test]
    fn histogram_quantile_is_bucket_upper_bound() {
        let mut h = Histogram::new();
        // 100 samples of 1000: every quantile lands in the bucket
        // [512, 1024), whose inclusive upper bound is 1023 — the old
        // lower-bound answer of 512 underestimated every sample.
        for _ in 0..100 {
            h.record(1000);
        }
        assert_eq!(h.quantile(0.5), 1000, "clamped to the observed max");
        let mut h = Histogram::new();
        h.record(600);
        h.record(2000);
        assert_eq!(h.quantile(0.5), 1023, "upper bound of [512, 1024)");
        assert!(h.quantile(0.5) >= 600, "never below the covered sample");
        assert_eq!(h.quantile(1.0), 2000);
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.quantile(0.25), 0);
        assert_eq!(h.quantile(1.0), u64::MAX, "top bucket clamps, not wraps");
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
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

        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum pins at the ceiling");
        assert_eq!(h.count(), 2);
    }
}
