//! Cross-run benchmark comparison: the logic behind the `bench-diff`
//! binary and CI's performance-regression gate.
//!
//! Two `deact-microbench-v1` JSON artifacts (the committed
//! `BENCH_baseline.json` and a fresh run) are compared entry by entry
//! under noise-aware tolerances:
//!
//! * **Per-entry gate** — an entry fails when its `ns_per_op` exceeds
//!   `tolerance ×` baseline (default 1.5×). Entries whose baseline is
//!   under `DiffConfig::noise_floor_ns` are nanosecond-scale loops
//!   that shared runners cannot time reliably; those only fail past
//!   the looser `DiffConfig::noise_tolerance` (default 3×) and are
//!   otherwise reported as warnings.
//! * **Throughput gate** — end-to-end `refs_per_sec` must stay at or
//!   above `throughput_floor ×` baseline (default 0.85×): it
//!   integrates thousands of operations, so it is the least noisy
//!   signal and gets the tightest relative floor.
//! * **Coverage** — an entry present in the baseline but missing from
//!   the fresh run fails the diff (a silently dropped benchmark looks
//!   exactly like a fixed regression); new entries are informational.
//!
//! [`DiffReport::to_markdown`] renders the whole comparison as a
//! markdown table suitable for a CI artifact or PR comment.

use fam_sim::json::Json;
use std::collections::BTreeMap;

/// Tolerances for [`diff`]. `Default` gives the CI gate's values.
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Per-entry failure threshold: fresh `ns_per_op` may be at most
    /// this multiple of baseline.
    pub tolerance: f64,
    /// Entries with baseline `ns_per_op` below this are judged under
    /// [`DiffConfig::noise_tolerance`] instead — single-digit
    /// nanosecond loops jitter far more than the big end-to-end runs.
    pub(crate) noise_floor_ns: f64,
    /// The looser multiple applied below the noise floor.
    pub(crate) noise_tolerance: f64,
    /// Fresh `refs_per_sec` must be at least this fraction of
    /// baseline.
    pub throughput_floor: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            tolerance: 1.5,
            noise_floor_ns: 100.0,
            noise_tolerance: 3.0,
            throughput_floor: 0.85,
        }
    }
}

/// The verdict for one comparison row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Within tolerance.
    Ok,
    /// Beyond the strict tolerance but under the noise floor — worth a
    /// look, not a failure.
    Warn,
    /// A gating regression.
    Fail,
    /// Present only in the fresh run (informational).
    New,
    /// Present only in the baseline (gating: coverage was lost).
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Warn => "warn",
            Verdict::Fail => "**FAIL**",
            Verdict::New => "new",
            Verdict::Missing => "**MISSING**",
        }
    }
}

/// One per-entry comparison row.
#[derive(Debug, Clone)]
pub(crate) struct DiffRow {
    /// The entry label (e.g. `sched_per_ref/4_cores`).
    pub(crate) label: String,
    /// Baseline ns/op, when present.
    pub(crate) base_ns: Option<f64>,
    /// Fresh ns/op, when present.
    pub(crate) new_ns: Option<f64>,
    /// The verdict under the configured tolerances.
    pub(crate) verdict: Verdict,
}

impl DiffRow {
    /// `new / base` when both sides exist.
    pub(crate) fn ratio(&self) -> Option<f64> {
        match (self.base_ns, self.new_ns) {
            (Some(b), Some(n)) if b > 0.0 => Some(n / b),
            _ => None,
        }
    }
}

/// One named pass/fail gate over the summary numbers.
#[derive(Debug, Clone)]
pub(crate) struct Gate {
    /// Gate name (`throughput`, `schema`).
    pub(crate) name: &'static str,
    /// Whether the gate held (skipped gates hold by definition).
    pub(crate) passed: bool,
    /// Values on both sides, or why the gate was skipped.
    pub(crate) detail: String,
}

/// The full comparison: every entry row plus the summary gates.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Per-entry rows in baseline order, then new-only rows.
    pub(crate) rows: Vec<DiffRow>,
    /// Summary gates.
    pub(crate) gates: Vec<Gate>,
}

impl DiffReport {
    /// True when no row and no gate regressed.
    pub fn passed(&self) -> bool {
        self.rows
            .iter()
            .all(|r| !matches!(r.verdict, Verdict::Fail | Verdict::Missing))
            && self.gates.iter().all(|g| g.passed)
    }

    /// Renders the comparison as a markdown document.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("# Benchmark comparison\n\n");
        out.push_str("| entry | baseline ns/op | current ns/op | ratio | verdict |\n");
        out.push_str("|---|---:|---:|---:|---|\n");
        for r in &self.rows {
            let fmt = |v: Option<f64>| v.map_or_else(|| "-".into(), |v| format!("{v:.1}"));
            let ratio = r.ratio().map_or_else(|| "-".into(), |x| format!("{x:.2}x"));
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} |\n",
                r.label,
                fmt(r.base_ns),
                fmt(r.new_ns),
                ratio,
                r.verdict.label()
            ));
        }
        out.push_str("\n## Gates\n\n");
        for g in &self.gates {
            out.push_str(&format!(
                "- {} `{}`: {}\n",
                if g.passed { "PASS" } else { "**FAIL**" },
                g.name,
                g.detail
            ));
        }
        out.push_str(&format!(
            "\nOverall: **{}**\n",
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

fn entries_of(doc: &Json) -> BTreeMap<String, f64> {
    let mut map = BTreeMap::new();
    if let Some(entries) = doc.get("entries").and_then(Json::as_array) {
        for e in entries {
            if let (Some(label), Some(ns)) = (
                e.get("label").and_then(Json::as_str),
                e.get("ns_per_op").and_then(Json::as_f64),
            ) {
                map.insert(label.to_string(), ns);
            }
        }
    }
    map
}

fn refs_per_sec(doc: &Json) -> Option<f64> {
    doc.get("throughput")?.get("refs_per_sec")?.as_f64()
}

/// Compares a fresh microbench artifact against a baseline.
///
/// Both documents follow the `deact-microbench-v1` schema; a schema
/// mismatch is reported as a failing gate rather than an error so the
/// markdown report still renders.
pub fn diff(base: &Json, new: &Json, cfg: &DiffConfig) -> DiffReport {
    let mut report = DiffReport::default();

    let base_schema = base.get("schema").and_then(Json::as_str);
    let new_schema = new.get("schema").and_then(Json::as_str);
    if base_schema != new_schema {
        report.gates.push(Gate {
            name: "schema",
            passed: false,
            detail: format!("baseline {base_schema:?} vs current {new_schema:?}"),
        });
    }

    let base_entries = entries_of(base);
    let mut new_entries = entries_of(new);
    for (label, &b) in &base_entries {
        match new_entries.remove(label) {
            None => report.rows.push(DiffRow {
                label: label.clone(),
                base_ns: Some(b),
                new_ns: None,
                verdict: Verdict::Missing,
            }),
            Some(n) => {
                let verdict = if n <= cfg.tolerance * b {
                    Verdict::Ok
                } else if b < cfg.noise_floor_ns && n <= cfg.noise_tolerance * b {
                    Verdict::Warn
                } else {
                    Verdict::Fail
                };
                report.rows.push(DiffRow {
                    label: label.clone(),
                    base_ns: Some(b),
                    new_ns: Some(n),
                    verdict,
                });
            }
        }
    }
    for (label, n) in new_entries {
        report.rows.push(DiffRow {
            label,
            base_ns: None,
            new_ns: Some(n),
            verdict: Verdict::New,
        });
    }

    match (refs_per_sec(base), refs_per_sec(new)) {
        (Some(b), Some(n)) => report.gates.push(Gate {
            name: "throughput",
            passed: n >= cfg.throughput_floor * b,
            detail: format!(
                "{n:.0} refs/sec vs baseline {b:.0} ({:.2}x, floor {:.2}x)",
                n / b,
                cfg.throughput_floor
            ),
        }),
        _ => report.gates.push(Gate {
            name: "throughput",
            passed: false,
            detail: "refs_per_sec missing from one side".into(),
        }),
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(sched_ns: f64, rps: f64) -> Json {
        Json::parse(&format!(
            r#"{{
  "schema": "deact-microbench-v1",
  "host_threads": 8,
  "entries": [
    {{"label": "set_assoc_cache_get", "ns_per_op": 2.6}},
    {{"label": "sched_per_ref/4_cores", "ns_per_op": {sched_ns}}}
  ],
  "throughput": {{"refs_per_sec": {rps}}}
}}"#
        ))
        .unwrap()
    }

    #[test]
    fn unchanged_artifact_passes() {
        let base = artifact(1360.0, 726_000.0);
        let report = diff(&base, &base, &DiffConfig::default());
        assert!(report.passed(), "{}", report.to_markdown());
        assert!(report.rows.iter().all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn injected_2x_slowdown_fails_the_gate() {
        let base = artifact(1360.0, 726_000.0);
        let slow = artifact(2720.0, 726_000.0);
        let report = diff(&base, &slow, &DiffConfig::default());
        assert!(!report.passed());
        let row = report
            .rows
            .iter()
            .find(|r| r.label == "sched_per_ref/4_cores")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Fail);
        assert!(report.to_markdown().contains("**FAIL**"));
    }

    #[test]
    fn throughput_collapse_fails_even_with_clean_entries() {
        let base = artifact(1360.0, 726_000.0);
        let slow = artifact(1360.0, 300_000.0);
        let report = diff(&base, &slow, &DiffConfig::default());
        assert!(!report.passed());
        let gate = report
            .gates
            .iter()
            .find(|g| g.name == "throughput")
            .unwrap();
        assert!(!gate.passed);
    }

    #[test]
    fn nanosecond_entries_warn_before_failing() {
        let base = artifact(1360.0, 726_000.0);
        // 2x on a 2.6 ns loop: within the noise tolerance -> warn.
        let mut jittery = artifact(1360.0, 726_000.0);
        if let Json::Obj(m) = &mut jittery {
            if let Some(Json::Arr(entries)) = m.get_mut("entries") {
                if let Json::Obj(e) = &mut entries[0] {
                    e.insert("ns_per_op".into(), Json::Num(5.2));
                }
            }
        }
        let report = diff(&base, &jittery, &DiffConfig::default());
        assert!(report.passed(), "{}", report.to_markdown());
        let row = report
            .rows
            .iter()
            .find(|r| r.label == "set_assoc_cache_get")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Warn);
        // 4x on the same loop: past the noise tolerance -> fail.
        if let Json::Obj(m) = &mut jittery {
            if let Some(Json::Arr(entries)) = m.get_mut("entries") {
                if let Json::Obj(e) = &mut entries[0] {
                    e.insert("ns_per_op".into(), Json::Num(10.4));
                }
            }
        }
        assert!(!diff(&base, &jittery, &DiffConfig::default()).passed());
    }

    #[test]
    fn missing_entry_fails_and_new_entry_informs() {
        let base = artifact(1360.0, 726_000.0);
        let renamed = Json::parse(
            r#"{
  "schema": "deact-microbench-v1",
  "host_threads": 8,
  "entries": [
    {"label": "set_assoc_cache_get", "ns_per_op": 2.6},
    {"label": "sched_per_ref/8_cores", "ns_per_op": 1500.0}
  ],
  "throughput": {"refs_per_sec": 726000.0}
}"#,
        )
        .unwrap();
        let report = diff(&base, &renamed, &DiffConfig::default());
        assert!(!report.passed());
        assert!(report
            .rows
            .iter()
            .any(|r| r.label == "sched_per_ref/4_cores" && r.verdict == Verdict::Missing));
        assert!(report
            .rows
            .iter()
            .any(|r| r.label == "sched_per_ref/8_cores" && r.verdict == Verdict::New));
    }
}
