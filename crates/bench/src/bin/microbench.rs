//! Dependency-free micro-benchmarks on the hot data structures of the
//! simulation: these bound how fast the full-system experiments run
//! and double as smoke tests on the substrate implementations.
//!
//! A deliberate stand-in for an external benchmark harness — the
//! workspace builds hermetically, so the timing loop is plain
//! `std::time::Instant` with `std::hint::black_box` keeping the
//! optimizer honest. Numbers are wall-clock ns/op medians over a few
//! repetitions: good for spotting 2× regressions, not 2% ones.
//!
//! Besides the per-structure loops, the suite times the end-to-end
//! scheduler: per-reference cost at 4/16/64 total cores (flat under
//! the event-queue scheduler, linear under a rescan) and whole-system
//! throughput in references per second.
//!
//! Results print as a table and are also written to `BENCH_sim.json`
//! (schema `deact-microbench-v1`) so CI can archive them; `--out
//! <path>` redirects the JSON (the default path is unchanged so
//! existing invocations keep working). CI diffs the JSON against the
//! committed `BENCH_baseline.json` and fails on a >15% throughput
//! regression. The end-to-end runs keep tracing off.
//!
//! ```sh
//! cargo run --release -p fam-bench --bin microbench
//! ```

use std::hint::black_box;
use std::time::Instant;

use deact::{FamTranslator, Scheme, SystemConfig};
use fam_broker::{AcmWidth, FamLayout};
use fam_mem::{CacheConfig, CacheHierarchy, HierarchyConfig, SetAssocCache};
use fam_stu::{StuCache, StuConfig, StuOrganization};
use fam_vm::{FamAddr, PageTable, PageWalker, PtFlags, PtwCache, TlbConfig, TlbHierarchy};
use fam_workloads::Workload;

const ITERS: u64 = 2_000_000;
const REPS: usize = 5;
/// References per core for the end-to-end scheduler benchmarks (far
/// fewer iterations than the tight loops — one "op" is a whole
/// simulated memory reference).
const SCHED_REFS: u64 = 5_000;
const SCHED_REPS: usize = 3;

/// One benchmark result: a label and its median ns/op.
struct Record {
    label: String,
    ns_per_op: f64,
}

/// End-to-end throughput of a full-system run.
struct Throughput {
    total_refs: u64,
    elapsed_ns: u64,
    refs_per_sec: f64,
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Times `f` for `ITERS` iterations, `REPS` times, records and prints
/// the median ns/op (the median shrugs off scheduler noise).
fn bench(records: &mut Vec<Record>, label: &str, mut f: impl FnMut(u64)) {
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        for i in 0..ITERS {
            f(i);
        }
        samples.push(start.elapsed().as_nanos() as f64 / ITERS as f64);
    }
    let ns = median(samples);
    println!("{label:28} {ns:>8.1} ns/op");
    records.push(Record {
        label: label.to_string(),
        ns_per_op: ns,
    });
}

/// Runs one full simulation and returns wall-clock ns per simulated
/// reference.
fn time_system_run(cfg: SystemConfig) -> f64 {
    let w = Workload::by_name("sssp").expect("table3 benchmark");
    let total_refs = cfg.refs_per_core * (cfg.nodes * cfg.cores_per_node) as u64;
    let start = Instant::now();
    let report = deact::System::new(cfg, &w)
        .try_run()
        .expect("the sssp run completes");
    let elapsed = start.elapsed().as_nanos() as f64;
    black_box(report.cycles);
    elapsed / total_refs as f64
}

/// Per-reference scheduler cost at growing core counts. Under the
/// event-queue scheduler this stays roughly flat (each reference costs
/// one O(log cores) heap pop + push); a per-reference rescan would grow
/// linearly with the core count.
fn bench_scheduler_scaling(records: &mut Vec<Record>) {
    for nodes in [1usize, 4, 16] {
        let cfg = SystemConfig::paper_default()
            .with_scheme(Scheme::DeactN)
            .with_nodes(nodes)
            .with_fam_modules(nodes)
            .with_refs_per_core(SCHED_REFS)
            .with_seed(0xBE9C);
        let cores = nodes * cfg.cores_per_node;
        let samples: Vec<f64> = (0..SCHED_REPS).map(|_| time_system_run(cfg)).collect();
        let ns = median(samples);
        let label = format!("sched_per_ref/{cores}_cores");
        println!("{label:28} {ns:>8.1} ns/op");
        records.push(Record {
            label,
            ns_per_op: ns,
        });
    }
}

/// Whole-system throughput: simulated references per wall-clock second
/// on the paper-default single-node configuration.
fn bench_throughput() -> Throughput {
    let cfg = SystemConfig::paper_default()
        .with_refs_per_core(20_000)
        .with_seed(0xBE9C);
    let w = Workload::by_name("sssp").expect("table3 benchmark");
    let total_refs = cfg.refs_per_core * (cfg.nodes * cfg.cores_per_node) as u64;
    let start = Instant::now();
    let report = deact::System::new(cfg, &w)
        .try_run()
        .expect("the sssp run completes");
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    black_box(report.cycles);
    let refs_per_sec = total_refs as f64 * 1e9 / elapsed_ns as f64;
    println!("{:28} {refs_per_sec:>10.0} refs/sec", "system_throughput");
    Throughput {
        total_refs,
        elapsed_ns,
        refs_per_sec,
    }
}

/// Serialises the results to `path` (default `BENCH_sim.json`).
/// Hand-rolled writer: the workspace is dependency-free, and the
/// labels are plain ASCII with nothing to escape.
fn write_json(path: &str, records: &[Record], throughput: &Throughput) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = String::from("{\n  \"schema\": \"deact-microbench-v1\",\n");
    out.push_str(&format!("  \"iters\": {ITERS},\n  \"reps\": {REPS},\n"));
    // Recorded so an artifact says what kind of host measured it.
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    out.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"ns_per_op\": {:.3}}}{comma}\n",
            r.label, r.ns_per_op
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"throughput\": {{\"benchmark\": \"sssp\", \"total_refs\": {}, \
         \"elapsed_ns\": {}, \"refs_per_sec\": {:.1}}}\n}}\n",
        throughput.total_refs, throughput.elapsed_ns, throughput.refs_per_sec
    ));
    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())
}

fn main() {
    // `--out <path>` redirects the JSON artifact.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_sim.json");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--out", Some(path)) => out_path = path.clone(),
            _ => {
                eprintln!("usage: microbench [--out <path>]");
                std::process::exit(2);
            }
        }
    }
    let mut records = Vec::new();
    println!("{:28} {:>11}  ({ITERS} iters x {REPS} reps)", "", "median");

    let mut cache: SetAssocCache<u64> = SetAssocCache::new(CacheConfig::new(128, 8));
    for k in 0..1024u64 {
        cache.insert(k, k);
    }
    bench(&mut records, "set_assoc_cache_get", |i| {
        black_box(cache.get(black_box((i * 7) % 2048)).copied());
    });

    let mut h = CacheHierarchy::new(4, HierarchyConfig::default());
    bench(&mut records, "cache_hierarchy_access", |i| {
        black_box(h.access(0, black_box((i * 97) % 100_000), false));
    });

    let mut tlb = TlbHierarchy::new(TlbConfig::default());
    for p in 0..256u64 {
        tlb.fill(
            p,
            fam_vm::Pte {
                target_page: p,
                flags: PtFlags::rw(),
            },
        );
    }
    bench(&mut records, "tlb_lookup", |i| {
        black_box(tlb.lookup(black_box((i * 3) % 512)));
    });

    let mut pt = PageTable::new(0);
    let mut next = 0x100_0000u64;
    let mut alloc = |_: usize| {
        let a = next;
        next += 4096;
        a
    };
    for v in 0..10_000u64 {
        pt.map(v * 13, v, PtFlags::rw(), &mut alloc);
    }
    // Raw radix descent, no walk-step allocation: the direct-indexed
    // node storage makes each level one array read.
    bench(&mut records, "page_table_translate", |i| {
        black_box(pt.translate(black_box((i % 10_000) * 13)));
    });
    let mut ptw = PtwCache::new(32);
    bench(&mut records, "page_walk_planned", |i| {
        black_box(PageWalker::plan(
            &pt,
            Some(&mut ptw),
            black_box((i % 10_000) * 13),
        ));
    });

    for (label, org) in [
        ("stu_acm_lookup/deact_w", StuOrganization::DeactW),
        ("stu_acm_lookup/deact_n", StuOrganization::DeactN),
    ] {
        let mut stu = StuCache::new(StuConfig {
            organization: org,
            ..StuConfig::default()
        });
        for p in 0..2048u64 {
            stu.acm_fill(p * 31);
        }
        bench(&mut records, label, |i| {
            black_box(stu.acm_lookup(black_box((i % 4096) * 31)));
        });
    }

    let mut t = FamTranslator::new(1 << 20, 0x3000_0000, 128, 5);
    for p in 0..65_536u64 {
        t.install(p, p + 9);
    }
    bench(&mut records, "fam_translator_lookup", |i| {
        black_box(t.lookup(black_box((i * 11) % 131_072)));
    });

    let layout = FamLayout::new(16 << 30, AcmWidth::W16);
    bench(&mut records, "acm_addr_derivation", |i| {
        black_box(layout.acm_addr(FamAddr(black_box((i * 4096) % layout.usable_bytes()))));
    });

    let mut gen = Workload::by_name("sssp").unwrap().generator(3);
    bench(&mut records, "trace_generator_next_ref", |_| {
        black_box(gen.next_ref());
    });

    println!(
        "{:28} {:>11}  ({SCHED_REFS} refs/core x {SCHED_REPS} reps)",
        "", "median"
    );
    bench_scheduler_scaling(&mut records);
    let throughput = bench_throughput();

    match write_json(&out_path, &records, &throughput) {
        Ok(()) => println!("\nwrote {out_path} ({} entries)", records.len()),
        Err(e) => eprintln!("microbench: could not write {out_path}: {e}"),
    }
}
