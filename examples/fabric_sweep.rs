//! Fabric-latency sensitivity at a glance (the Fig. 15 axis),
//! demonstrating the sweep API on a single benchmark.
//!
//! ```sh
//! cargo run --release -p fam-examples --bin fabric_sweep [benchmark]
//! ```

use deact::{try_run_benchmark, Scheme, SimError, SystemConfig};

fn main() -> Result<(), SimError> {
    let bench = std::env::args().nth(1).unwrap_or_else(|| "pf".to_string());
    println!("fabric-latency sweep on `{bench}` (DeACT-N speedup over I-FAM)\n");
    println!(
        "{:>10} {:>10} {:>10} {:>10}",
        "latency", "I-FAM IPC", "DeACT IPC", "speedup"
    );

    let base = SystemConfig::paper_default().with_refs_per_core(25_000);
    for ns in [100u64, 250, 500, 1000, 3000, 6000] {
        let cfg = base.with_fabric_latency_ns(ns);
        let ifam = try_run_benchmark(&bench, cfg.with_scheme(Scheme::IFam))?;
        let deact = try_run_benchmark(&bench, cfg.with_scheme(Scheme::DeactN))?;
        println!(
            "{:>8}ns {:>10.4} {:>10.4} {:>9.2}x",
            ns,
            ifam.ipc,
            deact.ipc,
            deact.speedup_over(&ifam)
        );
    }
    println!("\nthe slower the fabric, the more each avoided page-table walk is worth (§V-D3)");
    Ok(())
}
