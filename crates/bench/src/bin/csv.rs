//! Runs the headline benchmark × scheme matrix and writes
//! `results.csv` for external plotting.
//!
//! ```sh
//! DEACT_REFS=100000 cargo run --release -p fam-bench --bin csv [path]
//! ```
//!
//! Runs with breakdown-only tracing, so the `lat_mean_<stage>` columns
//! are populated (no event ring is kept — only the per-stage
//! histograms — so memory stays flat across the full matrix).

use deact::Scheme;
use fam_bench::{benchmarks, refs_from_env, run_matrix, write_csv};
use fam_sim::TraceConfig;

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results.csv".into());
    let cfg = deact::SystemConfig::paper_default()
        .with_refs_per_core(refs_from_env(50_000))
        .with_trace(TraceConfig::breakdown_only());
    let matrix = run_matrix(&benchmarks(), &Scheme::ALL, cfg);
    let file = std::fs::File::create(&path).expect("create CSV file");
    write_csv(std::io::BufWriter::new(file), &matrix).expect("write CSV");
    println!("wrote {} rows to {path}", matrix.len());
}
