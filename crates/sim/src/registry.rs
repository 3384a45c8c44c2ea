//! A unified, named metrics registry.
//!
//! Components accumulate into [`crate::stats`] types scattered across
//! the system model; this module gives them one flat, **named**
//! namespace (`node0/tlb`, `nvm2/reads`, `fabric/traversals`, …) so
//! tooling can snapshot a run's metrics, diff two snapshots, and —
//! crucially — run cross-metric *conservation audits*
//! ("every reference generated was retired", "FAM traffic totals match
//! the per-module sums") without knowing where each number lives.
//!
//! Names are plain strings ordered lexicographically (a `BTreeMap`),
//! so iteration, [`fmt::Display`] and diffs are deterministic.
//!
//! # Examples
//!
//! ```
//! use fam_sim::Registry;
//!
//! let mut before = Registry::new();
//! before.counter("fabric/traversals").add(10);
//! let mut after = before.clone();
//! after.counter("fabric/traversals").add(5);
//! let delta = after.diff(&before);
//! assert_eq!(delta.counter_value("fabric/traversals"), Some(5));
//! ```

use crate::stats::{Counter, Ratio};
use std::collections::BTreeMap;
use std::fmt;

/// One named metric: a counter or a hit/miss ratio.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotonically increasing event count.
    Counter(Counter),
    /// A hit/miss ratio.
    Ratio(Ratio),
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Metric::Counter(c) => write!(f, "{c}"),
            Metric::Ratio(r) => write!(f, "{r}"),
        }
    }
}

/// A flat name → metric map with snapshot / diff.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    metrics: BTreeMap<String, Metric>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns the counter registered under `name`, creating it zeroed
    /// on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different metric
    /// type — a name has exactly one type for the life of a registry.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c,
            other => panic!("metric `{name}` is a {}, not a counter", kind(other)),
        }
    }

    /// Returns the ratio registered under `name`, creating it empty on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different type.
    pub fn ratio(&mut self, name: &str) -> &mut Ratio {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Ratio(Ratio::new()))
        {
            Metric::Ratio(r) => r,
            other => panic!("metric `{name}` is a {}, not a ratio", kind(other)),
        }
    }

    /// Convenience: the value of a counter, if `name` is a counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(Metric::Counter(c)) => Some(c.value()),
            _ => None,
        }
    }

    /// Convenience: the registered ratio, if `name` is a ratio.
    pub fn ratio_value(&self, name: &str) -> Option<Ratio> {
        match self.metrics.get(name) {
            Some(Metric::Ratio(r)) => Some(*r),
            _ => None,
        }
    }

    /// Saturating difference `self - base`, name by name: the metrics
    /// accumulated *between* two snapshots of the same system.
    ///
    /// Names absent from `base` pass through unchanged; names absent
    /// from `self` (or type-mismatched) are dropped.
    pub fn diff(&self, base: &Registry) -> Registry {
        let mut out = Registry::new();
        for (name, mine) in &self.metrics {
            let metric = match (mine, base.metrics.get(name)) {
                (m, None) => m.clone(),
                (Metric::Counter(a), Some(Metric::Counter(b))) => {
                    Metric::Counter(Counter::from(a.value().saturating_sub(b.value())))
                }
                (Metric::Ratio(a), Some(Metric::Ratio(b))) => Metric::Ratio(Ratio::from_parts(
                    a.hits().saturating_sub(b.hits()),
                    a.misses().saturating_sub(b.misses()),
                )),
                _ => continue,
            };
            out.metrics.insert(name.clone(), metric);
        }
        out
    }
}

fn kind(m: &Metric) -> &'static str {
    match m {
        Metric::Counter(_) => "counter",
        Metric::Ratio(_) => "ratio",
    }
}

impl fmt::Display for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, metric) in &self.metrics {
            writeln!(f, "{name:<32} {metric}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_create_on_first_use() {
        let mut r = Registry::new();
        r.counter("a/events").add(3);
        r.counter("a/events").inc();
        r.ratio("a/hits").record(true);
        assert_eq!(r.metrics.len(), 2);
        assert_eq!(r.counter_value("a/events"), Some(4));
        assert_eq!(r.counter_value("a/hits"), None, "type-checked lookup");
        assert_eq!(r.ratio_value("a/hits").unwrap().hits(), 1);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_mismatch_panics() {
        let mut r = Registry::new();
        r.ratio("x").record(true);
        r.counter("x");
    }

    #[test]
    fn snapshot_diff_isolates_interval() {
        let mut r = Registry::new();
        r.counter("c").add(10);
        r.ratio("r").record(true);
        let before = r.clone();
        r.counter("c").add(7);
        r.ratio("r").record(false);
        r.counter("new").add(1);
        let delta = r.diff(&before);
        assert_eq!(delta.counter_value("c"), Some(7));
        let ratio = delta.ratio_value("r").unwrap();
        assert_eq!((ratio.hits(), ratio.misses()), (0, 1));
        assert_eq!(delta.counter_value("new"), Some(1));
    }

    #[test]
    fn display_is_deterministic_name_order() {
        let mut r = Registry::new();
        r.counter("z/last").add(1);
        r.counter("a/first").add(2);
        let text = r.to_string();
        let a = text.find("a/first").unwrap();
        let z = text.find("z/last").unwrap();
        assert!(a < z);
    }
}
