//! Scheduler-equivalence guarantees.
//!
//! The event-queue scheduler ([`deact::System::try_run`], a std
//! `BinaryHeap` of `(ready, slot)` keys) replaced the seed's all-cores
//! rescan ([`deact::System::try_run_scan`]) purely as a complexity
//! optimisation: O(log n) heap maintenance per reference instead of
//! O(n) sweeps. These tests pin down that the optimisation changed
//! *nothing else* — fixed-seed reports are bit-identical between the
//! two schedulers, across schemes, node counts, and fault injection.

use deact::{RunReport, Scheme, System, SystemConfig};
use fam_sim::FaultConfig;
use fam_workloads::Workload;

fn reports_for(cfg: SystemConfig, bench: &str) -> (RunReport, RunReport) {
    let w = Workload::by_name(bench).expect("table3 benchmark");
    let heap = System::new(cfg, &w).try_run().expect("heap run completes");
    let scan = System::new(cfg, &w)
        .try_run_scan()
        .expect("scan run completes");
    (heap, scan)
}

fn assert_equivalent(cfg: SystemConfig, bench: &str, label: &str) {
    let (heap, scan) = reports_for(cfg, bench);
    assert_eq!(heap, scan, "{label}: schedulers must be bit-identical");
}

#[test]
fn heap_scheduler_matches_scan_single_node() {
    for scheme in Scheme::ALL {
        let cfg = SystemConfig::paper_default()
            .with_scheme(scheme)
            .with_refs_per_core(3_000)
            .with_seed(17);
        assert_equivalent(cfg, "astar", &format!("1-node {scheme}"));
    }
}

#[test]
fn heap_scheduler_matches_scan_eight_nodes_four_cores() {
    // The configuration where the scan's O(nodes × cores) cost — and
    // any tie-break divergence — would be most visible: 32 cores
    // contending for one fabric and FAM pool.
    let cfg = SystemConfig::paper_default()
        .with_scheme(Scheme::DeactN)
        .with_nodes(8)
        .with_fam_modules(8)
        .with_refs_per_core(600)
        .with_seed(99);
    assert_equivalent(cfg, "pf", "8x4-core DeACT-N");
    assert_equivalent(cfg.with_scheme(Scheme::IFam), "pf", "8x4-core I-FAM");
}

#[test]
fn heap_scheduler_matches_scan_translation_hostile_workload() {
    let cfg = SystemConfig::paper_default()
        .with_scheme(Scheme::IFam)
        .with_refs_per_core(4_000)
        .with_seed(5);
    assert_equivalent(cfg, "sssp", "sssp I-FAM");
}

#[test]
fn heap_scheduler_matches_scan_under_fault_injection() {
    // Fault recovery exercises the retry/backoff paths and the
    // corruption scratch buffer; the schedulers must still agree.
    let cfg = SystemConfig::paper_default()
        .with_scheme(Scheme::DeactN)
        .with_refs_per_core(2_000)
        .with_seed(23)
        .with_fault_injection(FaultConfig::transient(7));
    assert_equivalent(cfg, "canl", "faulty DeACT-N");
}

#[test]
fn heap_scheduler_is_deterministic_across_repeats() {
    let cfg = SystemConfig::paper_default()
        .with_scheme(Scheme::DeactW)
        .with_nodes(2)
        .with_refs_per_core(1_500)
        .with_seed(3);
    let w = Workload::by_name("dc").unwrap();
    let a = System::new(cfg, &w).try_run().unwrap();
    let b = System::new(cfg, &w).try_run().unwrap();
    assert_eq!(a, b);
}
