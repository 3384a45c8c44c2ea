//! End-to-end contracts of the fault-injection and recovery layer.
//!
//! Three promises are on trial here:
//!
//! 1. **Determinism** — the same seed produces bit-identical fault
//!    schedules and identical end-to-end reports, run after run.
//! 2. **Zero overhead off** — a default (injection-disabled) run is
//!    indistinguishable from an explicitly-disabled one, and its
//!    recovery block is all-zero.
//! 3. **Graceful degradation** — under the transient profile the
//!    retry/NACK machinery recovers every injected fault within
//!    budget, and the run always completes.

use deact::{run_benchmark, try_run_benchmark, Scheme, SimError, SystemConfig};
use fam_sim::{FaultConfig, FaultInjector};

fn quick() -> SystemConfig {
    SystemConfig::paper_default()
        .with_refs_per_core(5_000)
        .with_seed(11)
}

/// Drains a fixed draw pattern from an injector and fingerprints it.
fn schedule_fingerprint(seed: u64) -> Vec<u64> {
    let mut inj = FaultInjector::new(FaultConfig::transient(seed));
    let mut fp = Vec::new();
    for i in 0..2_000u64 {
        fp.push(match inj.fabric_fault() {
            None => 0,
            Some(fam_sim::FabricFault::Drop) => 1,
            Some(fam_sim::FabricFault::Corrupt) => 2,
        });
        if i % 3 == 0 {
            fp.push(u64::from(inj.stale_translation()));
        }
        if i % 5 == 0 {
            fp.push(inj.stu_stall().map_or(0, |d| d.0));
        }
        if i % 7 == 0 {
            fp.push(inj.link_up_at(fam_sim::Cycle(i * 10_000)).0);
        }
    }
    fp
}

#[test]
fn same_seed_means_identical_fault_schedule() {
    assert_eq!(schedule_fingerprint(42), schedule_fingerprint(42));
    assert_ne!(
        schedule_fingerprint(42),
        schedule_fingerprint(43),
        "different seeds must diverge"
    );
}

#[test]
fn same_seed_means_identical_end_to_end_reports() {
    let cfg = quick().with_fault_injection(FaultConfig::transient(9));
    for scheme in [Scheme::IFam, Scheme::DeactN] {
        let a = run_benchmark("mcf", cfg.with_scheme(scheme));
        let b = run_benchmark("mcf", cfg.with_scheme(scheme));
        assert_eq!(a.cycles, b.cycles, "{scheme}");
        assert_eq!(a.instructions, b.instructions, "{scheme}");
        assert_eq!(a.fam, b.fam, "{scheme}");
        assert_eq!(a.recovery, b.recovery, "{scheme}");
        assert!(
            a.recovery.injected_total() > 0,
            "{scheme}: the transient profile must actually inject"
        );
    }
}

#[test]
fn disabled_injection_is_zero_overhead() {
    for scheme in Scheme::ALL {
        let default_run = run_benchmark("astar", quick().with_scheme(scheme));
        let explicit = run_benchmark(
            "astar",
            quick()
                .with_scheme(scheme)
                .with_fault_injection(FaultConfig::disabled()),
        );
        assert_eq!(default_run.cycles, explicit.cycles, "{scheme}");
        assert_eq!(default_run.fam, explicit.fam, "{scheme}");
        assert!(
            default_run.recovery.is_zero(),
            "{scheme}: disabled injection must report all-zero recovery"
        );
        assert_eq!(default_run.recovery, explicit.recovery, "{scheme}");
    }
}

#[test]
fn transient_profile_recovers_every_fault() {
    // The transient profile's fault rates sit well inside the retry
    // budget (4 attempts, ~2% per-attempt fault rate), so recovery
    // must be total: faults happened, every one was absorbed.
    let cfg = quick().with_fault_injection(FaultConfig::transient(3));
    for scheme in Scheme::ALL {
        let r = run_benchmark("mcf", cfg.with_scheme(scheme));
        let f = &r.recovery;
        assert!(f.injected_total() > 0, "{scheme}: profile must inject");
        assert!(f.recovered > 0, "{scheme}: recoveries must be observed");
        assert_eq!(f.fatal, 0, "{scheme}: transient faults must all recover");
        assert_eq!(f.recovery_rate(), 1.0, "{scheme}");
        assert!(r.ipc > 0.0, "{scheme}: the run completes");
    }
}

#[test]
fn faults_cost_cycles_but_not_correctness() {
    let clean = run_benchmark("mcf", quick().with_scheme(Scheme::DeactN));
    let faulty = run_benchmark(
        "mcf",
        quick()
            .with_scheme(Scheme::DeactN)
            .with_fault_injection(FaultConfig::transient(3)),
    );
    assert!(
        faulty.cycles > clean.cycles,
        "injected faults must cost time ({} vs {})",
        faulty.cycles,
        clean.cycles
    );
    assert_eq!(
        clean.instructions, faulty.instructions,
        "faults change timing, never the work performed"
    );
}

#[test]
fn stale_nacks_force_walks_on_deact_only() {
    let cfg = quick().with_fault_injection(FaultConfig::transient(5));
    let deact = run_benchmark("mcf", cfg.with_scheme(Scheme::DeactN));
    assert!(
        deact.recovery.nacks_stale > 0,
        "DeACT caches unverified translations, so stale NACKs must fire"
    );
    let ifam = run_benchmark("mcf", cfg.with_scheme(Scheme::IFam));
    assert_eq!(
        ifam.recovery.nacks_stale, 0,
        "I-FAM translations are verified at the STU; staleness cannot occur"
    );
}

#[test]
fn unknown_benchmark_is_a_typed_error() {
    let err = try_run_benchmark("doom", quick()).unwrap_err();
    assert!(matches!(err, SimError::UnknownBenchmark { .. }));
    let msg = err.to_string();
    assert!(msg.contains("unknown benchmark doom"), "{msg}");
    assert!(msg.contains("deact-sim list"), "{msg}");
}

#[test]
fn fam_exhaustion_is_a_typed_error_not_a_panic() {
    // 1 MB of FAM (a few hundred pages after metadata) cannot hold
    // any workload's footprint.
    let cfg = quick().with_scheme(Scheme::EFam).with_fam_bytes(1 << 20);
    let err = try_run_benchmark("mcf", cfg).unwrap_err();
    assert!(matches!(err, SimError::FamExhausted { .. }), "{err}");
    assert!(err.to_string().contains("fam_bytes"), "{err}");
}

#[test]
fn refused_config_is_a_typed_error_not_a_panic() {
    let cfg = SystemConfig::paper_default().with_fam_modules(0);
    let err = try_run_benchmark("sssp", cfg).unwrap_err();
    assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
    let msg = err.to_string();
    assert!(msg.starts_with("invalid configuration: "), "{msg}");
    assert!(msg.contains("need at least one FAM module"), "{msg}");
}

#[test]
fn too_many_nodes_is_refused_before_anything_is_built() {
    // W32 entries name 2^30 - 1 nodes, but node ids stop below 0x3FFF.
    let cfg = SystemConfig::paper_default()
        .with_acm_width(fam_broker::AcmWidth::W32)
        .with_nodes(16_384);
    let err = try_run_benchmark("sssp", cfg).unwrap_err();
    assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
    assert!(err.to_string().contains("limit of 16383"), "{err}");
}
