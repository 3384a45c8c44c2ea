//! Quickstart: simulate one HPC benchmark under all four FAM
//! virtual-memory schemes and print the paper's headline comparison.
//!
//! ```sh
//! cargo run --release -p fam-examples --bin quickstart [benchmark] [refs]
//! ```

use deact::{try_run_benchmark, Scheme, SimError, SystemConfig};

fn main() -> Result<(), SimError> {
    let mut args = std::env::args().skip(1);
    let bench = args.next().unwrap_or_else(|| "mcf".to_string());
    let refs: u64 = args.next().and_then(|v| v.parse().ok()).unwrap_or(50_000);

    println!("DeACT quickstart: benchmark `{bench}`, {refs} references per core\n");
    let cfg = SystemConfig::paper_default().with_refs_per_core(refs);

    let mut reports = Vec::new();
    for scheme in Scheme::ALL {
        let r = try_run_benchmark(&bench, cfg.with_scheme(scheme))?;
        println!(
            "{:8}  IPC {:6.3}   AT-at-FAM {:5.1}%   translation-hit {}   secure: {}",
            scheme.name(),
            r.ipc,
            r.fam.at_percent(),
            r.translation_hit_rate
                .map(|h| format!("{:5.1}%", h * 100.0))
                .unwrap_or_else(|| "  n/a ".to_string()),
            if scheme.is_secure() { "yes" } else { "NO" },
        );
        reports.push(r);
    }

    let efam = &reports[0];
    let ifam = &reports[1];
    let deact_n = &reports[3];
    println!();
    println!(
        "I-FAM pays {:.1}x slowdown over insecure E-FAM for its security;",
        efam.ipc / ifam.ipc
    );
    println!(
        "DeACT-N recovers a {:.2}x speedup over I-FAM ({}% of E-FAM performance)",
        deact_n.speedup_over(ifam),
        (deact_n.normalized_to(efam) * 100.0).round(),
    );
    println!("without giving up system-level access control.");
    Ok(())
}
