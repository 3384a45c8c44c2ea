//! Golden report digests: "reports unchanged" as a test.
//!
//! A fixed matrix of short runs is regenerated and compared with the
//! committed `tests/golden/reports.txt`. Each line holds a cell name, a
//! `FastHasher` digest of the run's `RunReport` (`{:?}`) and its metrics
//! registry dump, and then the cycles, instructions, FAM requests and
//! page faults in plain text, so a diff of the file shows what moved.
//!
//! The file is also the scheduler's specification: `System::try_run`
//! has no second engine to be compared with, and the cells pin its
//! pop order. Keying the heap on `(start, Reverse(slot))` moves 20 of
//! the 21 digests; numbering slots core-major moves the 5 multi-node
//! cells.
//!
//! `tests/golden/bench_shapes.txt` holds the same fields for the
//! repository benchmark's three workloads at seed 1 and full length; its
//! test is `#[ignore]`d for its run time, and CI's `bench` job runs it.
//!
//! A change that moves a report on purpose re-blesses the file: on a
//! mismatch the test writes the regenerated file under `target/` and
//! names the copy command in its failure message.

use std::hash::{BuildHasher, Hasher};
use std::path::Path;

use deact::{Scheme, System, SystemConfig};
use fam_sim::hash::FastHash;
use fam_sim::{FaultConfig, PersistentFault};
use fam_workloads::Workload;

const REFS: u64 = 2_000;
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/reports.txt");
const BENCH_SHAPES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/bench_shapes.txt");

/// Runs `system` and returns its golden line after the cell name.
fn digest(mut system: System) -> String {
    let report = system.try_run().expect("golden cell runs");
    let mut h = FastHash.build_hasher();
    h.write(format!("{report:?}").as_bytes());
    h.write(system.metrics().to_string().as_bytes());
    format!(
        "{:016x} cycles={} instructions={} fam={} faults={}",
        h.finish(),
        report.cycles,
        report.instructions,
        report.fam.total(),
        report.faults
    )
}

fn run(cfg: SystemConfig, bench: &str) -> String {
    digest(System::new(
        cfg,
        &Workload::by_name(bench).expect("Table III workload"),
    ))
}

fn regenerate() -> String {
    let base = SystemConfig::paper_default().with_refs_per_core(REFS);
    let mut lines = Vec::new();
    for bench in ["sssp", "mcf", "sp"] {
        for scheme in Scheme::ALL {
            let line = run(base.with_scheme(scheme), bench);
            lines.push(format!("{bench}/{scheme} {line}"));
        }
    }
    let transient = base
        .with_scheme(Scheme::IFam)
        .with_fault_injection(FaultConfig::transient(0xFA));
    lines.push(format!("mcf/I-FAM/transient {}", run(transient, "mcf")));
    for scheme in [Scheme::DeactN, Scheme::EFam] {
        let killed = base
            .with_scheme(scheme)
            .with_nodes(2)
            .with_fam_modules(2)
            .with_fault_injection(
                FaultConfig::disabled()
                    .with_persistent(PersistentFault::NodeDead { module: 1 }, 2_000),
            );
        lines.push(format!(
            "sssp/{scheme}/kill-node-1@2000 {}",
            run(killed, "sssp")
        ));
    }
    let four = base.with_scheme(Scheme::DeactN).with_nodes(4);
    lines.push(format!("sssp/DeACT-N/nodes-4 {}", run(four, "sssp")));

    let stale = base
        .with_scheme(Scheme::DeactN)
        .with_fault_injection(FaultConfig::transient(0xFA));
    lines.push(format!("sssp/DeACT-N/transient {}", run(stale, "sssp")));
    for (scheme, name, fault) in [
        (
            Scheme::IFam,
            "kill-node",
            PersistentFault::NodeDead { module: 1 },
        ),
        (
            Scheme::EFam,
            "link-severed",
            PersistentFault::LinkSevered { module: 1 },
        ),
    ] {
        let degraded = base
            .with_scheme(scheme)
            .with_nodes(2)
            .with_fam_modules(2)
            .with_fault_injection(FaultConfig::disabled().with_persistent(fault, 2_000));
        lines.push(format!(
            "sssp/{scheme}/{name}-1@2000 {}",
            run(degraded, "sssp")
        ));
    }
    let mut pf = Workload::by_name("pf").expect("Table III workload");
    pf.shared_fraction = 0.3;
    pf.shared_pages = 16;
    let shared = base
        .with_scheme(Scheme::DeactN)
        .with_nodes(2)
        .with_shared_segment_pages(16);
    lines.push(format!(
        "pf/DeACT-N/shared-16 {}",
        digest(System::new(shared, &pf))
    ));
    let ablated = base
        .with_scheme(Scheme::DeactN)
        .with_translation_cache_lru(true)
        .with_skip_read_checks(true);
    lines.push(format!(
        "sssp/DeACT-N/lru-skip-reads {}",
        run(ablated, "sssp")
    ));

    let mut text = lines.join("\n");
    text.push('\n');
    text
}

/// The repository benchmark's three workloads at seed 1, at their full
/// lengths: effects that show only at 16 cores or 60k+ refs/core (such
/// as timeline drops) do not reach the 2k-refs cells above.
fn bench_shapes() -> String {
    let base = SystemConfig::paper_default().with_seed(1);
    let cells = [
        (
            "gap-fam sssp/DeACT-N/4x4",
            base.with_scheme(Scheme::DeactN)
                .with_nodes(4)
                .with_fam_modules(4)
                .with_refs_per_core(60_000),
            "sssp",
        ),
        (
            "npb-local sp/E-FAM/1x4",
            base.with_scheme(Scheme::EFam).with_refs_per_core(250_000),
            "sp",
        ),
        (
            "spec-faults mcf/I-FAM/1x4/transient",
            base.with_scheme(Scheme::IFam)
                .with_refs_per_core(250_000)
                .with_fault_injection(FaultConfig::transient(1)),
            "mcf",
        ),
    ];
    let mut text = String::new();
    for (name, cfg, bench) in cells {
        text.push_str(&format!("{name} {}\n", run(cfg, bench)));
    }
    text
}

/// Compares `actual` with the committed file `golden`; on a mismatch
/// writes `actual` under `target/` and names the re-bless command.
fn check(actual: &str, golden: &str, name: &str) {
    let expected = std::fs::read_to_string(golden).unwrap_or_default();
    if actual != expected {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&out, actual).expect("write regenerated golden file");
        panic!(
            "reports differ from {golden}.\nIf the change is intended, re-bless with\n  cp {} {golden}\nand say why in CHANGES.md.",
            out.display()
        );
    }
}

#[test]
fn reports_match_the_golden_file() {
    check(&regenerate(), GOLDEN, "reports.txt");
}

/// Ignored by default for its length; run with
/// `cargo test --release -p fam-integration-tests --test golden -- --ignored`.
#[test]
#[ignore = "long: the benchmark's full-length workloads"]
fn bench_shapes_match_the_golden_file() {
    check(&bench_shapes(), BENCH_SHAPES, "bench_shapes.txt");
}
