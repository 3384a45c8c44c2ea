//! The host-time profiler's cross-crate contracts.
//!
//! The profiler makes the same promise the tracer and fault injector
//! do — *zero overhead when off, observation-only when on* — but with
//! a stronger mechanism: it reads only the host clock
//! (`std::time::Instant`), never the simulated one, so a profiled run
//! is bit-identical to an unprofiled run *by construction*, not by
//! care. These tests prove that with tracing and fault injection
//! layered on, and also exercise the end-of-run
//! conservation audit and metrics registry on real runs.
//!
//! `RunReport` holds simulated state only: a caller takes a run's
//! profile with `profile::take_report()` once the run returns, on the
//! thread the run ran on. Each thread keeps its own ledger, but the
//! enable switch is process-global, and the harness runs the `#[test]`
//! fns of one binary concurrently, so every test in this file
//! serializes on [`LOCK`] — a test whose run must record nothing
//! would otherwise record spans while another test has the switch on.
//! (Files are separate processes, so the lock's scope is exactly
//! right.)

use std::sync::Mutex;

use deact::{RunReport, Scheme, System, SystemConfig};
use fam_sim::{profile, FaultConfig, TraceConfig};
use fam_workloads::Workload;

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes a test against the process-global profiler state.
fn serialized() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn base(scheme: Scheme) -> SystemConfig {
    SystemConfig::paper_default()
        .with_scheme(scheme)
        .with_refs_per_core(1_500)
        .with_seed(0x9F0F)
}

fn run(cfg: SystemConfig) -> RunReport {
    let w = Workload::by_name("astar").expect("table3 benchmark");
    System::new(cfg, &w).try_run().expect("run completes")
}

/// The whole differential matrix in one test: tracing × fault
/// injection × scheme, profiler off vs. on. The reports must be
/// equal — any simulated-time drift fails the assertion below — and
/// each profiled run must leave a non-empty profile behind.
#[test]
fn profiled_runs_are_bit_identical_across_tracing_and_faults() {
    let _guard = serialized();
    let variants: Vec<(&str, SystemConfig)> = vec![
        ("plain", base(Scheme::DeactN)),
        (
            "traced",
            base(Scheme::DeactN).with_trace(TraceConfig::full()),
        ),
        (
            "faulty",
            base(Scheme::DeactN).with_fault_injection(FaultConfig::transient(0xFA)),
        ),
        ("efam", base(Scheme::EFam)),
    ];
    for (name, cfg) in &variants {
        let off = run(*cfg);
        assert!(
            profile::take_report().is_empty(),
            "{name}: a disabled profiler must record nothing"
        );
        profile::set_enabled(true);
        let on = run(*cfg);
        profile::set_enabled(false);
        let taken = profile::take_report();
        assert!(
            !taken.is_empty(),
            "{name}: enabled profiler must capture spans"
        );
        assert!(
            taken.total_self_ns() > 0,
            "{name}: captured spans must carry host time"
        );
        assert_eq!(off, on, "{name}: profiling must not perturb the simulation");
    }
    // The take after each run drained it: nothing leaks into a later
    // take.
    assert!(profile::take_report().is_empty());
}

/// Both page-fault sites (node first touch and the system-level demand
/// map) open one `fault` span per fault they count, so the profile's
/// `fault` row agrees with the report's fault count.
#[test]
fn fault_phase_counts_every_page_fault() {
    let _guard = serialized();
    for scheme in Scheme::ALL {
        let _ = profile::take_report();
        profile::set_enabled(true);
        let r = run(base(scheme));
        profile::set_enabled(false);
        let table = profile::take_report().top_table(usize::MAX);
        let calls: u64 = table
            .lines()
            .find_map(|l| {
                let mut cols = l.split_whitespace();
                (cols.next() == Some("fault")).then(|| cols.next().unwrap().parse().unwrap())
            })
            .unwrap_or_else(|| panic!("{scheme}: no fault row in\n{table}"));
        assert!(r.faults > 0, "{scheme}");
        assert_eq!(calls, r.faults, "{scheme}");
    }
}

/// The folded-stack exporter emits one line per observed path, each
/// `phase(;phase)* <self_ns>` — the format inferno/speedscope ingest.
#[test]
fn folded_stack_lines_are_well_formed() {
    let _guard = serialized();
    // Build the report from real spans rather than hand-rolled state.
    profile::set_enabled(true);
    {
        let _outer = profile::span(profile::PhaseId::SchedDispatch);
        let _inner = profile::span(profile::PhaseId::Tlb);
    }
    let report = profile::take_report();
    profile::set_enabled(false);
    let folded = report.to_folded();
    assert!(
        folded.lines().any(|l| l.starts_with("sched-dispatch;tlb ")),
        "nested span must fold under its parent: {folded:?}"
    );
    for line in folded.lines() {
        let (stack, ns) = line.rsplit_once(' ').expect("stack SPACE ns");
        assert!(!stack.is_empty());
        ns.parse::<u64>().expect("self-time in integer ns");
    }
}

/// The conservation audit holds on a multi-node, multi-module,
/// multi-scheme smoke of the figure-suite shape.
#[test]
fn conservation_audit_passes_on_figure_suite_smoke() {
    let _guard = serialized();
    for scheme in Scheme::ALL {
        let cfg = SystemConfig::paper_default()
            .with_scheme(scheme)
            .with_nodes(4)
            .with_fam_modules(2)
            .with_refs_per_core(1_000)
            .with_seed(0xF16);
        let w = Workload::by_name("sssp").expect("table3 benchmark");
        let mut sys = System::new(cfg, &w);
        sys.try_run().expect("run completes");
        let audit = sys.audit();
        assert!(audit.passed(), "{scheme}: {audit}");
        assert_eq!(
            audit.checks.len(),
            6,
            "{scheme}: all six invariants checked"
        );
    }
}

/// The audit's fault-dependent checks stay meaningful (not skipped)
/// under transient injection, and degrade to skips — never false
/// failures — under a permanent kill.
#[test]
fn conservation_audit_gates_follow_the_fault_regime() {
    let _guard = serialized();
    let w = Workload::by_name("sssp").expect("table3 benchmark");

    let cfg = base(Scheme::DeactN).with_fault_injection(FaultConfig::transient(0xFA));
    let mut sys = System::new(cfg, &w);
    let r = sys.try_run().expect("run completes");
    assert!(r.recovery.injected_total() > 0, "faults must fire");
    let audit = sys.audit();
    assert!(audit.passed(), "{audit}");
    let drop_check = audit
        .checks
        .iter()
        .find(|c| c.name == "drop-accounting")
        .expect("check present");
    assert!(
        !drop_check.detail.starts_with("skipped"),
        "transient injection must keep drop accounting live: {}",
        drop_check.detail
    );

    let killed = SystemConfig::paper_default()
        .with_scheme(Scheme::DeactN)
        .with_fam_modules(2)
        .with_refs_per_core(2_000)
        .with_seed(0x9F0F)
        .with_fault_injection(
            FaultConfig::transient(0xFA)
                .with_persistent(fam_sim::PersistentFault::NodeDead { module: 1 }, 500),
        );
    let mut sys = System::new(killed, &w);
    sys.try_run().expect("survives degraded");
    let audit = sys.audit();
    assert!(audit.passed(), "{audit}");
    assert!(audit.checks.iter().any(|c| c.detail.starts_with("skipped")));
}

/// The registry snapshot exposes stable names, and its `diff` isolates
/// one run's worth of work from accumulated state.
#[test]
fn registry_snapshot_diff_isolates_a_run() {
    let _guard = serialized();
    let w = Workload::by_name("astar").expect("table3 benchmark");
    let mut sys = System::new(base(Scheme::DeactN), &w);
    let before = sys.metrics();
    sys.try_run().expect("run completes");
    let after = sys.metrics();
    let delta = after.diff(&before);
    let refs: u64 = delta
        .counter_value("node0/refs_done")
        .expect("named counter");
    assert_eq!(refs, 1_500 * 4, "refs_per_core x cores_per_node");
    assert!(delta.counter_value("fabric/traversals").unwrap_or(0) > 0);
}
