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
//! The profiler's enable switch is process-global and `report()`
//! drains the global accumulator whenever the switch is on, so every
//! test in this file — even the audit/registry ones, whose runs would
//! otherwise steal a concurrently-profiled run's spans — serializes
//! on [`LOCK`]. (The harness runs `#[test]` fns of one binary
//! concurrently; files are separate processes, so the lock's scope is
//! exactly right.)

use std::sync::Mutex;

use deact::{RunReport, Scheme, System, SystemConfig};
use fam_sim::{profile, FaultConfig, ProfileReport, TraceConfig};
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
/// injection × scheme, profiler off vs. on. The *only* permitted
/// difference is the profile block itself (excluded from
/// `RunReport`'s `PartialEq`, like the latency block) — and the
/// equality assertion below would catch any simulated-time drift.
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
            off.profile.is_empty(),
            "{name}: disabled profiler must leave the report empty"
        );
        profile::set_enabled(true);
        let on = run(*cfg);
        profile::set_enabled(false);
        assert!(
            !on.profile.is_empty(),
            "{name}: enabled profiler must capture spans"
        );
        assert!(
            on.profile.total_self_ns() > 0,
            "{name}: captured spans must carry host time"
        );
        assert_eq!(off, on, "{name}: profiling must not perturb the simulation");
    }
    // Leftover spans from the final enabled run must not leak into a
    // later take: the report is attached at `report()` time.
    assert!(profile::take_report().is_empty());
}

/// The folded-stack exporter emits one line per observed path, each
/// `phase(;phase)* <self_ns>` — the format inferno/speedscope ingest.
#[test]
fn folded_stack_lines_are_well_formed() {
    let _guard = serialized();
    let mut report = ProfileReport::default();
    // Build the report from a real (tiny) run rather than hand-rolled
    // state, serialized against the matrix test via the global switch
    // being toggled there — keep this run's spans separable by doing
    // the whole thing while enabled and taking the report directly.
    profile::set_enabled(true);
    {
        let _outer = profile::span(profile::PhaseId::SchedDispatch);
        let _inner = profile::span(profile::PhaseId::Tlb);
    }
    report.merge(&profile::take_report());
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
    // Merging the delta back onto the baseline reproduces the final
    // snapshot for every counter.
    let mut rebuilt = before.snapshot();
    rebuilt.merge(&delta);
    assert_eq!(
        rebuilt.counter_value("node0/refs_done"),
        after.counter_value("node0/refs_done")
    );
}
