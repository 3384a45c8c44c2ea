//! The experiment harness: shared machinery for regenerating every
//! table and figure of the DeACT paper.
//!
//! Each table and figure is one function in [`figs`], and the `all`
//! binary runs them by name from `figs::TABLE`: each runs the
//! benchmark × scheme matrix in parallel worker threads, prints the
//! series the paper plots, and places the paper's reported values
//! alongside (exact where the text gives numbers, digitized-from-the-
//! figure approximations elsewhere — see `paper`).
//!
//! Run length is controlled by the `DEACT_REFS` environment variable
//! (references per core; default 100 000 for headline figures, less
//! for multi-point sweeps; `all` rejects a value that does not parse)
//! and worker count by `DEACT_JOBS` (default:
//! the host's available parallelism; `all` rejects a value that does
//! not parse). Parallelism is across runs only
//! — each run executes on [`deact::System::try_run`] — so reports are
//! bit-identical at any `DEACT_JOBS`.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use deact::{RunReport, Scheme, SystemConfig};
use fam_sim::{default_jobs, scoped_map, Stage};
use fam_workloads::{table3, Workload};

pub mod diff;
pub mod figs;
pub(crate) mod paper;

/// The benchmark roster in the paper's figure order.
pub(crate) fn benchmarks() -> Vec<&'static str> {
    table3().iter().map(|w| w.name).collect()
}

/// Parses a `DEACT_REFS` value, references per core; `0` reads as
/// unset (as `DEACT_JOBS=0` does for the worker count).
///
/// # Errors
///
/// The value is not a whole number.
pub(crate) fn parse_refs(value: &str) -> Result<Option<u64>, String> {
    let n: u64 = value.parse().map_err(|_| {
        format!("DEACT_REFS={value:?} is not a whole number of references per core")
    })?;
    Ok((n > 0).then_some(n))
}

/// The `DEACT_REFS` override: `None` when it is unset or `0`.
///
/// # Errors
///
/// The value is set but does not parse ([`parse_refs`]).
pub(crate) fn refs_override() -> Result<Option<u64>, String> {
    std::env::var_os("DEACT_REFS").map_or(Ok(None), |v| parse_refs(&v.to_string_lossy()))
}

/// References per core: the `DEACT_REFS` override, else `default`.
///
/// # Panics
///
/// Panics if `DEACT_REFS` does not parse; [`figs::run`] rejects that
/// value before any run.
pub(crate) fn refs_from_env(default: u64) -> u64 {
    refs_override()
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or(default)
}

/// A completed benchmark×scheme matrix.
pub(crate) type Matrix = HashMap<(String, Scheme), RunReport>;

/// Cache key for one completed run: benchmark, scheme, and an exact
/// fingerprint of the full configuration. [`SystemConfig`] carries
/// `f64` fields and so cannot implement `Hash` itself; its `Debug`
/// output prints every field and is therefore a faithful stand-in.
type CacheKey = (String, Scheme, String);

fn cache_key(bench: &str, scheme: Scheme, cfg: SystemConfig) -> CacheKey {
    let keyed = cfg.with_scheme(scheme);
    (bench.to_string(), scheme, format!("{keyed:?}"))
}

/// The process-wide memoized run cache. The `all` suite replays the
/// same headline matrix for several figures (Figs. 3 and 4 share one;
/// Figs. 9–12 overlap pairwise); memoization turns those replays into
/// lookups. Simulations are deterministic, so a cached report is
/// bit-identical to a rerun.
fn matrix_cache() -> &'static Mutex<HashMap<CacheKey, RunReport>> {
    static CACHE: OnceLock<Mutex<HashMap<CacheKey, RunReport>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Runs every `(benchmark, scheme)` pair of the matrix on
/// [`scoped_map`] workers and collects the reports. Worker count comes
/// from [`fam_sim::default_jobs`] (`DEACT_JOBS`, else available
/// parallelism); repeated runs of the same configuration in one
/// process are served from the memoized cache.
///
/// # Panics
///
/// Panics if a worker thread panics or a benchmark name is unknown.
pub(crate) fn run_matrix(benches: &[&str], schemes: &[Scheme], cfg: SystemConfig) -> Matrix {
    run_matrix_opts(benches, schemes, cfg, default_jobs(), true)
}

/// [`run_matrix`] with explicit worker count and cache policy — the
/// entry point the determinism tests drive directly (`jobs = 1` vs
/// `jobs = n`, cache off so every run is live).
///
/// # Panics
///
/// Panics if a worker thread panics or a benchmark name is unknown.
pub(crate) fn run_matrix_opts(
    benches: &[&str],
    schemes: &[Scheme],
    cfg: SystemConfig,
    jobs: usize,
    use_cache: bool,
) -> Matrix {
    let mut todo: Vec<(String, Scheme)> = Vec::new();
    for b in benches {
        for s in schemes {
            todo.push((b.to_string(), *s));
        }
    }
    let mut matrix = Matrix::new();
    if use_cache {
        let cache = matrix_cache().lock().expect("run cache poisoned");
        todo.retain(|(b, s)| match cache.get(&cache_key(b, *s, cfg)) {
            Some(report) => {
                matrix.insert((b.clone(), *s), report.clone());
                false
            }
            None => true,
        });
    }
    if todo.is_empty() {
        return matrix;
    }
    let results = scoped_map(jobs, todo.len(), |i| {
        let (b, s) = &todo[i];
        ((b.clone(), *s), run_one(b, *s, cfg))
    });
    if use_cache {
        let mut cache = matrix_cache().lock().expect("run cache poisoned");
        for ((b, s), report) in &results {
            cache.insert(cache_key(b, *s, cfg), report.clone());
        }
    }
    matrix.extend(results);
    matrix
}

fn run_one(bench: &str, scheme: Scheme, cfg: SystemConfig) -> RunReport {
    let w = Workload::by_name(bench).unwrap_or_else(|| panic!("unknown benchmark {bench}"));
    deact::System::new(cfg.with_scheme(scheme), &w).run()
}

/// Prints a figure header.
pub(crate) fn heading(fig: &str, caption: &str) {
    println!("\n=== {fig} — {caption} ===");
}

/// Formats a row of `(label, values…)` with fixed-width columns.
pub(crate) fn row<T: std::fmt::Display>(label: &str, values: &[T]) {
    print!("{label:>10}");
    for v in values {
        print!(" {v:>9}");
    }
    println!();
}

/// Formats an `f64` cell.
pub(crate) fn cell(v: f64) -> String {
    format!("{v:.2}")
}

/// Geometric mean over the benchmarks of a suite (the grouping the
/// sensitivity figures use: SPEC, PARSEC, GAP geomeans plus pf and dc
/// individually, §V-D).
pub(crate) fn suite_members(suite: &str) -> Vec<&'static str> {
    match suite {
        "SPEC" => vec!["mcf", "cactus", "astar"],
        "PARSEC" => vec!["frqm", "canl"],
        "GAP" => vec!["bc", "cc", "ccsv", "sssp"],
        "pf" => vec!["pf"],
        "dc" => vec!["dc"],
        other => panic!("unknown suite grouping {other}"),
    }
}

/// The sensitivity-figure groupings in plot order.
pub(crate) const SUITE_GROUPS: [&str; 5] = ["SPEC", "PARSEC", "GAP", "pf", "dc"];

/// Serialises a matrix to CSV (one row per benchmark × scheme) for
/// external plotting. Alongside the headline metrics, each row carries
/// the [`deact::FaultRecovery`] counters (all zero when injection is
/// off) and one `lat_mean_<stage>` column per trace [`Stage`] — the
/// mean span length in cycles, blank when the stage saw no span.
///
/// The writer is flushed before returning, so a buffered writer's
/// error surfaces here rather than being dropped with it.
///
/// # Errors
///
/// Propagates writer errors, the final flush's included.
pub(crate) fn write_csv<W: std::io::Write>(mut w: W, matrix: &Matrix) -> std::io::Result<()> {
    write!(
        w,
        "benchmark,scheme,ipc,cycles,instructions,at_percent,translation_hit,acm_hit,\
         tlb_hit,mpki,fam_data_reads,fam_data_writes,fam_writebacks,fam_at_reads,\
         dram_reads,dram_writes,faults,injected_faults,retries,timeouts,nacks_corrupt,\
         nacks_stale,recovered,fatal,backoff_cycles"
    )?;
    for stage in Stage::ALL {
        write!(w, ",lat_mean_{}", stage.name())?;
    }
    writeln!(w)?;
    let mut keys: Vec<&(String, Scheme)> = matrix.keys().collect();
    keys.sort_by(|a, b| (&a.0, a.1.name()).cmp(&(&b.0, b.1.name())));
    for key in keys {
        let r = &matrix[key];
        write!(
            w,
            "{},{},{:.6},{},{},{:.4},{},{},{:.4},{:.2},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            r.workload,
            r.scheme.name(),
            r.ipc,
            r.cycles,
            r.instructions,
            r.fam.at_percent(),
            r.translation_hit_rate
                .map_or(String::new(), |v| format!("{v:.4}")),
            r.acm_hit_rate.map_or(String::new(), |v| format!("{v:.4}")),
            r.tlb_hit_rate,
            r.mpki,
            r.fam.data_reads,
            r.fam.data_writes,
            r.fam.writebacks,
            r.fam.at_total(),
            r.dram_reads,
            r.dram_writes,
            r.faults,
            r.recovery.injected_total(),
            r.recovery.retries,
            r.recovery.timeouts,
            r.recovery.nacks_corrupt,
            r.recovery.nacks_stale,
            r.recovery.recovered,
            r.recovery.fatal,
            r.recovery.backoff_cycles,
        )?;
        for stage in Stage::ALL {
            let s = r.latency.stage(stage);
            if s.count == 0 {
                write!(w, ",")?;
            } else {
                write!(w, ",{:.2}", s.mean())?;
            }
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Geomean of DeACT-N speedup over I-FAM for a suite grouping.
pub(crate) fn suite_speedup(matrix: &Matrix, suite: &str, deact: Scheme) -> f64 {
    let members = suite_members(suite);
    let speedups: Vec<f64> = members
        .iter()
        .map(|b| {
            let d = &matrix[&(b.to_string(), deact)];
            let i = &matrix[&(b.to_string(), Scheme::IFam)];
            d.speedup_over(i)
        })
        .collect();
    fam_sim::stats::geomean(&speedups)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_matches_table3() {
        assert_eq!(benchmarks().len(), 14);
        assert_eq!(benchmarks()[0], "mcf");
    }

    #[test]
    fn suite_groups_cover_selected_benchmarks() {
        let mut all: Vec<&str> = SUITE_GROUPS.iter().flat_map(|s| suite_members(s)).collect();
        all.sort_unstable();
        // Everything except the NPB streaming trio (shown separately
        // in the paper's sensitivity figures).
        assert_eq!(all.len(), 11);
        assert!(all.contains(&"sssp"));
        assert!(!all.contains(&"mg"));
    }

    #[test]
    fn matrix_runs_in_parallel_and_is_complete() {
        let cfg = SystemConfig::paper_default().with_refs_per_core(300);
        let m = run_matrix(&["astar", "pf"], &[Scheme::EFam, Scheme::IFam], cfg);
        assert_eq!(m.len(), 4);
        assert!(m[&("pf".to_string(), Scheme::IFam)].ipc > 0.0);
    }

    #[test]
    fn pool_parallel_matrix_equals_serial_matrix() {
        // Parallelism must not change a single bit of any report: the
        // cache is disabled so both sweeps run live.
        let cfg = SystemConfig::paper_default()
            .with_refs_per_core(400)
            .with_seed(0x9A12);
        let benches = ["astar", "pf", "mg"];
        let schemes = [Scheme::EFam, Scheme::IFam, Scheme::DeactN];
        let serial = run_matrix_opts(&benches, &schemes, cfg, 1, false);
        let parallel = run_matrix_opts(&benches, &schemes, cfg, 8, false);
        assert_eq!(serial.len(), 9);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn cache_serves_repeat_matrices_identically() {
        let cfg = SystemConfig::paper_default()
            .with_refs_per_core(350)
            .with_seed(0xCACE);
        let benches = ["canl"];
        let schemes = [Scheme::IFam, Scheme::DeactN];
        let first = run_matrix_opts(&benches, &schemes, cfg, 2, true);
        let second = run_matrix_opts(&benches, &schemes, cfg, 2, true);
        assert_eq!(first, second);
        // A different configuration must miss: same bench and scheme,
        // different seed.
        let third = run_matrix_opts(&benches, &schemes, cfg.with_seed(0xCACF), 2, true);
        assert_ne!(
            first[&("canl".to_string(), Scheme::IFam)].cycles,
            third[&("canl".to_string(), Scheme::IFam)].cycles,
            "seed change must not be served from the cache"
        );
    }

    #[test]
    fn csv_has_header_and_rows() {
        let cfg = SystemConfig::paper_default().with_refs_per_core(200);
        let m = run_matrix(&["astar"], &[Scheme::EFam, Scheme::IFam], cfg);
        let mut buf = Vec::new();
        write_csv(&mut buf, &m).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("benchmark,scheme,ipc"));
        assert!(lines[0].contains(",injected_faults,retries,"));
        assert!(lines[0].ends_with(",lat_mean_retry,lat_mean_backoff"));
        assert!(lines[1].starts_with("astar,E-FAM,"));
        assert!(lines[2].starts_with("astar,I-FAM,"));
        // E-FAM row has empty hit-rate cells.
        assert!(lines[1].contains(",,"));
        // Every row has one cell per header column.
        let cols = lines[0].split(',').count();
        assert!(lines[1..].iter().all(|l| l.split(',').count() == cols));
    }

    /// A writer that accepts every byte but fails to flush, like a
    /// buffered writer over a full disk.
    struct FailingFlush;

    impl std::io::Write for FailingFlush {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("disk full"))
        }
    }

    #[test]
    fn csv_reports_flush_errors() {
        assert!(write_csv(FailingFlush, &Matrix::new()).is_err());
    }

    #[test]
    fn csv_latency_cells_populate_untraced() {
        let cfg = SystemConfig::paper_default().with_refs_per_core(200);
        let m = run_matrix(&["astar"], &[Scheme::DeactN], cfg);
        let mut buf = Vec::new();
        write_csv(&mut buf, &m).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let row = text.lines().nth(1).unwrap();
        let header = text.lines().next().unwrap();
        let nvm_col = header
            .split(',')
            .position(|h| h == "lat_mean_nvm_access")
            .unwrap();
        let cell = row.split(',').nth(nvm_col).unwrap();
        assert!(!cell.is_empty(), "every run must fill {row}");
        assert!(cell.parse::<f64>().unwrap() > 0.0);
    }

    #[test]
    fn refs_env_fallback() {
        assert_eq!(parse_refs("2000"), Ok(Some(2000)));
        assert_eq!(parse_refs("0"), Ok(None), "0 refs must read as unset");
        for bad in ["20k", "", "-5", "1e5"] {
            let err = parse_refs(bad).unwrap_err();
            assert!(err.starts_with(&format!("DEACT_REFS={bad:?} ")), "{err}");
        }
    }
}
