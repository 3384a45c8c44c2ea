//! End-to-end contracts of permanent-failure survival: quarantine,
//! evacuation, translation shootdown, and degraded-mode operation.
//!
//! The unit layers pin the mechanisms (`fam_stu::Stu::shootdown`,
//! `TlbHierarchy::invalidate_stale`, the broker's
//! `quarantine_and_evacuate`); these tests pin the *system* promises:
//!
//! 1. A FAM module dying mid-run never panics the simulation — every
//!    scheme completes degraded with a populated [`DegradationReport`].
//! 2. After the broadcast shootdown, no survivor ever consumes a stale
//!    translation into a quarantined page: re-accesses re-walk. The
//!    access paths assert that benign workloads never trip access
//!    control, so a stale cached FAM address slipping through would
//!    abort the run — completion *is* the proof, and the extra page
//!    faults are the re-walk evidence.
//! 3. Severed links (media intact) evacuate instead of losing data:
//!    zero poisoned accesses, and the workload's instruction count is
//!    untouched — recovery changes timing, never the work performed.
//! 4. Arming a persistent fault that never strikes is free: the report
//!    is bit-identical to one without it.
//! 5. Recovery is tracing-invariant: a traced degraded run reports
//!    exactly what an untraced one does.

use deact::{try_run_benchmark, Scheme, SimError, System, SystemConfig};
use fam_sim::{FaultConfig, PersistentFault, TraceConfig};
use fam_workloads::Workload;

/// Two nodes over two FAM modules: killing module 1 leaves a survivor
/// to evacuate to.
fn chaos(scheme: Scheme) -> SystemConfig {
    SystemConfig::paper_default()
        .with_scheme(scheme)
        .with_nodes(2)
        .with_fam_modules(2)
        .with_refs_per_core(3_000)
        .with_seed(11)
}

const STRIKE_AT: u64 = 500;

#[test]
fn every_scheme_survives_every_persistent_fault_class() -> Result<(), SimError> {
    for fault in [
        PersistentFault::NodeDead { module: 1 },
        PersistentFault::LinkSevered { module: 1 },
        PersistentFault::MediaFailed {
            first_page: 0,
            pages: 256,
        },
    ] {
        for scheme in Scheme::ALL {
            let cfg = chaos(scheme)
                .with_fault_injection(FaultConfig::disabled().with_persistent(fault, 500));
            let r = try_run_benchmark("sssp", cfg)?;
            let d = &r.degradation;
            assert!(!d.is_zero(), "{fault:?}/{scheme}: fault never struck");
            assert!(d.pages_quarantined > 0, "{fault:?}/{scheme}");
            assert!(d.recovery_cycles > 0, "{fault:?}/{scheme}");
            assert!(d.capacity_pages_remaining > 0, "{fault:?}/{scheme}");
            assert!(r.ipc > 0.0, "{fault:?}/{scheme}: the run completes");
        }
    }
    Ok(())
}

#[test]
fn shootdown_forces_rewalks_instead_of_stale_hits() -> Result<(), SimError> {
    for scheme in Scheme::ALL {
        let clean = try_run_benchmark("sssp", chaos(scheme))?;
        let killed = try_run_benchmark(
            "sssp",
            chaos(scheme).with_fault_injection(
                FaultConfig::disabled()
                    .with_persistent(PersistentFault::NodeDead { module: 1 }, STRIKE_AT),
            ),
        )?;
        let d = &killed.degradation;
        // The broadcast walk visits every surviving node and pays the
        // management round trips even when a node had nothing cached.
        assert!(d.shootdown_cycles > 0, "{scheme}: shootdown was free?");
        assert!(d.pages_lost > 0, "{scheme}: a dead module loses pages");
        // Lost pages poison their next touch and demand-map a fresh
        // page — so the degraded run must observe *more* page faults
        // than the clean one: the invalidated entries really re-walked
        // rather than serving a stale FAM address.
        assert!(d.poisoned_accesses > 0, "{scheme}");
        assert!(
            killed.faults > clean.faults,
            "{scheme}: lost pages must re-fault ({} vs {})",
            killed.faults,
            clean.faults
        );
        assert_eq!(
            clean.instructions, killed.instructions,
            "{scheme}: degradation changes timing, never the work performed"
        );
    }
    Ok(())
}

#[test]
fn severed_links_evacuate_without_data_loss() -> Result<(), SimError> {
    for scheme in Scheme::ALL {
        let r = try_run_benchmark(
            "sssp",
            chaos(scheme).with_fault_injection(
                FaultConfig::disabled()
                    .with_persistent(PersistentFault::LinkSevered { module: 1 }, STRIKE_AT),
            ),
        )?;
        let d = &r.degradation;
        assert!(d.pages_evacuated > 0, "{scheme}: nothing evacuated");
        assert_eq!(d.pages_lost, 0, "{scheme}: the media was intact");
        assert_eq!(d.poisoned_accesses, 0, "{scheme}: no data was lost");
        assert!(d.evacuation_cycles > 0, "{scheme}: evacuation is not free");
    }
    Ok(())
}

#[test]
fn armed_but_unstruck_persistent_fault_is_free() -> Result<(), SimError> {
    for scheme in [Scheme::EFam, Scheme::DeactN] {
        let baseline = try_run_benchmark(
            "sssp",
            chaos(scheme).with_fault_injection(FaultConfig::transient(11)),
        )?;
        let armed = try_run_benchmark(
            "sssp",
            chaos(scheme).with_fault_injection(
                FaultConfig::transient(11)
                    .with_persistent(PersistentFault::NodeDead { module: 1 }, u64::MAX),
            ),
        )?;
        assert!(armed.degradation.is_zero(), "{scheme}");
        assert_eq!(
            baseline, armed,
            "{scheme}: an armed-but-unstruck fault must cost nothing"
        );
    }
    Ok(())
}

#[test]
fn persistent_faults_are_tracing_invariant() {
    // A permanent failure mid-run — retry-budget burn, broker
    // evacuation, table rewrites, broadcast shootdown, degraded-mode
    // poisoning — on top of transient faults yields the same report,
    // bit for bit, whether or not the tracer watched.
    for fault in [
        PersistentFault::NodeDead { module: 1 },
        PersistentFault::LinkSevered { module: 1 },
        PersistentFault::MediaFailed {
            first_page: 0,
            pages: 256,
        },
    ] {
        for scheme in [Scheme::EFam, Scheme::DeactN] {
            let cfg = chaos(scheme)
                .with_refs_per_core(2_000)
                .with_seed(31)
                .with_fault_injection(FaultConfig::transient(7).with_persistent(fault, 400));
            let w = Workload::by_name("sssp").unwrap();
            let plain = System::new(cfg, &w).try_run().expect("untraced run");
            assert!(
                !plain.degradation.is_zero(),
                "{fault:?}/{scheme}: the persistent fault never struck"
            );
            let traced = System::new(cfg.with_trace(TraceConfig::full()), &w)
                .try_run()
                .expect("traced run");
            assert_eq!(
                plain, traced,
                "{fault:?}/{scheme}: tracing changed the report"
            );
        }
    }
}
