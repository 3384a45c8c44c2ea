//! Record a reference trace, persist it in the FAMT format, and replay
//! it through the full system — the path a user with real application
//! traces (PIN, Ariel, perf-mem) would take.
//!
//! ```sh
//! cargo run --release -p fam-examples --bin trace_replay
//! ```

use deact::{Scheme, System, SystemConfig};
use fam_workloads::{trace, Workload};

fn main() {
    let cfg = SystemConfig::paper_default()
        .with_scheme(Scheme::DeactN)
        .with_refs_per_core(10_000);
    let workload = Workload::by_name("dc").expect("table3 benchmark");

    // 1. Record: capture the exact per-core streams a live run would
    //    draw (same seeds, same order) into a FAMT v2 file — records
    //    are rank-tagged and round-robin interleaved, so each core's
    //    subsequence stays in program order.
    let path = std::env::temp_dir().join(format!("deact-example-{}.famt", std::process::id()));
    let mut streams = System::synthetic_streams(&cfg, &workload);
    let records = trace::record_streams(
        std::io::BufWriter::new(std::fs::File::create(&path).expect("create trace file")),
        &mut streams,
        cfg.refs_per_core,
    )
    .expect("encode trace");
    let wire_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "recorded {} records ({} cores x {} refs, {} KB on disk)",
        records,
        cfg.nodes * cfg.cores_per_node,
        cfg.refs_per_core,
        wire_bytes / 1024
    );

    // 2. Replay from disk through the full DeACT-N system. The file is
    //    streamed through a bounded chunk buffer — memory use does not
    //    grow with trace length — and the report is bit-identical to
    //    the live synthetic run.
    let replayed = System::with_streams(
        cfg,
        "dc",
        trace::replay_streams(&path, cfg.nodes, cfg.cores_per_node).expect("open trace"),
    )
    .try_run()
    .expect("replayed run completes");
    let synthetic = System::new(cfg, &workload).run();
    println!(
        "replayed  run: IPC {:.4} ({} cycles)",
        replayed.ipc, replayed.cycles
    );
    println!(
        "synthetic run: IPC {:.4} ({} cycles)",
        synthetic.ipc, synthetic.cycles
    );
    assert_eq!(replayed, synthetic, "record -> replay must be lossless");
    println!("bit-identical: the trace round trip is lossless");
    std::fs::remove_file(&path).ok();
    println!("\n(a real user would convert PIN/Ariel traces into FAMT and feed\n them through the same `replay_streams` path — see DESIGN.md §6.8)");
}
