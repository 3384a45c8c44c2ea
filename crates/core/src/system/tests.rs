//! Unit tests for the whole-system model: scheme behavior, the
//! scheduler and the persistent-fault protocol, driven end to end.

use super::*;

fn quick(scheme: Scheme) -> SystemConfig {
    SystemConfig::paper_default()
        .with_scheme(scheme)
        .with_refs_per_core(2_000)
        .with_seed(7)
}

#[test]
fn all_schemes_complete_and_report() -> Result<(), SimError> {
    for scheme in Scheme::ALL {
        let r = try_run_benchmark("astar", quick(scheme))?;
        assert_eq!(r.scheme, scheme);
        assert!(r.ipc > 0.0, "{scheme}: ipc {}", r.ipc);
        assert_eq!(r.refs_per_core, 2_000);
        assert!(r.instructions > 8_000, "{scheme}");
        assert!(r.cycles > 0, "{scheme}");
    }
    Ok(())
}

#[test]
fn cores_draw_exactly_the_references_they_execute() {
    let w = Workload::by_name("sssp").unwrap();
    let cfg = quick(Scheme::DeactN).with_refs_per_core(1_000);
    let mut sys = System::new(cfg, &w);
    sys.try_run().unwrap();
    for core in sys.nodes.iter().flat_map(|n| &n.cores) {
        assert_eq!(core.refs_done, 1_000);
        assert_eq!(core.gen.emitted(), core.refs_done);
    }
}

#[test]
fn heap_scheduler_is_deterministic_across_repeats() {
    let cfg = quick(Scheme::DeactW)
        .with_nodes(2)
        .with_refs_per_core(1_500)
        .with_seed(3);
    let w = Workload::by_name("dc").unwrap();
    let a = System::new(cfg, &w).try_run().unwrap();
    let b = System::new(cfg, &w).try_run().unwrap();
    assert_eq!(a, b);
}

#[test]
fn report_rejects_a_run_whose_books_do_not_balance() {
    let w = Workload::by_name("pf").unwrap();
    let mut sys = System::new(quick(Scheme::DeactN).with_refs_per_core(500), &w);
    sys.try_run().unwrap();
    sys.nodes[0].cores[0].gen.next_ref();
    let err = sys.report().unwrap_err();
    let SimError::AuditFailed { audit } = &err else {
        panic!("expected an audit failure, got {err}");
    };
    let failed: Vec<_> = audit.checks.iter().filter(|c| !c.passed).collect();
    assert_eq!(failed.len(), 1, "{audit}");
    assert_eq!(failed[0].name, "refs-conservation");
    let msg = err.to_string();
    assert!(
        msg.contains("refs-conservation (staged = 2001 vs refs_done = 2000)"),
        "{msg}"
    );
}

/// Each configuration comes back from `try_run_benchmark` as
/// `InvalidConfig` naming its knob, where building it once panicked.
#[test]
fn refused_configs_name_their_knob_instead_of_panicking() {
    let c = quick(Scheme::DeactN).with_refs_per_core(100);
    let (mut window, mut ptw, mut stu_ptw, mut tcache, mut nvm) = (c, c, c, c, c);
    window.core_outstanding = 0;
    ptw.ptw_cache_entries = 0;
    stu_ptw.stu_ptw_entries = 0;
    tcache.translation_cache_bytes = 0;
    nvm.nvm.max_outstanding = 0;
    let (mut router, mut lookup) = (c, c);
    router.router_ns = u64::MAX;
    lookup.stu_lookup_cycles = u64::MAX;
    let ifam = c.with_scheme(Scheme::IFam);
    for (bad, knob) in [
        (window, "core_outstanding"),
        (ptw, "ptw_cache_entries"),
        (stu_ptw, "stu_ptw_entries"),
        (tcache, "translation_cache_bytes"),
        (nvm, "nvm.max_outstanding"),
        (nvm.with_scheme(Scheme::EFam), "nvm.max_outstanding"),
        (c.with_fam_bytes(0), "fam_bytes"),
        (c.with_fam_bytes((16 << 30) + 100), "fam_bytes"),
        (c.with_fam_bytes(1 << 50), "fam_bytes"),
        (c.with_nodes(2).with_fam_bytes(4 * PAGE_BYTES), "fam_bytes"),
        (c.with_deact_n_pairs(Some(0)), "deact_n_pairs"),
        (c.with_deact_n_pairs(Some(200)), "deact_n_pairs"),
        (c.with_stu_ways(512).with_stu_entries(1024), "stu_ways"),
        (ifam.with_stu_ways(300).with_stu_entries(300), "stu_ways"),
        (c.with_shared_segment_pages(1 << 30), "shared_segment_pages"),
        (c.with_fabric_latency_ns(u64::MAX), "fabric.latency_ns"),
        (router, "router_ns"),
        (lookup, "stu_lookup_cycles"),
        (c.with_cores_per_node(65), "cores_per_node"),
        (
            c.with_nodes(2)
                .with_fam_bytes(1 << 30)
                .with_shared_segment_pages(16),
            "shared_segment_pages",
        ),
    ] {
        match try_run_benchmark("sssp", bad) {
            Err(SimError::InvalidConfig { reason }) => {
                assert!(reason.contains(knob), "{reason:?} lacks {knob:?}");
            }
            other => panic!("{knob}: expected InvalidConfig, got {other:?}"),
        }
    }
}

/// The smallest or largest values the rules above still allow run
/// under every scheme.
#[test]
fn edge_configs_still_run() -> Result<(), SimError> {
    let c = quick(Scheme::DeactN).with_refs_per_core(200);
    let mut tcache = c;
    tcache.translation_cache_bytes = 64;
    for edge in [
        tcache,
        c.with_fabric_latency_ns(1_000_000_000),
        c.with_fam_bytes((16 << 30) + PAGE_BYTES),
        c.with_stu_entries(24),
        c.with_cores_per_node(64),
    ] {
        for scheme in Scheme::ALL {
            try_run_benchmark("sssp", edge.with_scheme(scheme))?;
        }
    }
    Ok(())
}

#[test]
fn efam_has_no_system_translation_stats() -> Result<(), SimError> {
    let r = try_run_benchmark("pf", quick(Scheme::EFam))?;
    assert_eq!(r.translation_hit_rate, None);
    assert_eq!(r.acm_hit_rate, None);
    assert_eq!(r.fam.at_walk_reads, 0);
    assert_eq!(r.fam.at_acm_reads, 0);
    Ok(())
}

#[test]
fn efam_at_traffic_is_pte_reads() -> Result<(), SimError> {
    let r = try_run_benchmark("sssp", quick(Scheme::EFam))?;
    assert!(r.fam.at_pte_reads > 0, "E-FAM PTE pages live in FAM");
    Ok(())
}

#[test]
fn ifam_translates_at_stu() -> Result<(), SimError> {
    let r = try_run_benchmark("sssp", quick(Scheme::IFam))?;
    assert!(r.fam.at_walk_reads > 0);
    assert_eq!(r.fam.at_pte_reads, 0, "node PT pages stay in DRAM");
    assert_eq!(r.fam.at_acm_reads, 0, "ACM rides in the coupled entry");
    assert!(r.translation_hit_rate.is_some());
    Ok(())
}

/// A reuse-heavy workload sized between the STU's 4 MB reach and
/// the translation cache's 256 MB reach, so short test runs warm
/// up: the regime where DeACT's advantage lives.
/// Tiers sized so reuse is high but the cold tail pressures the
/// 1024-entry STU far more than DeACT-N's 2048 ACM slots or the
/// 65536-entry translation cache.
fn reuse_workload() -> Workload {
    Workload {
        footprint_pages: 4096,
        hot_fraction: 0.30,
        hot_pages: 64,
        warm_fraction: 0.45,
        warm_pages: 800,
        seq_run: 1,
        dep_fraction: 0.5,
        ..Workload::by_name("canl").unwrap()
    }
}

#[test]
fn deact_fetches_acm_and_uses_dram_cache() -> Result<(), SimError> {
    let mut sys = System::new(
        quick(Scheme::DeactN).with_refs_per_core(20_000),
        &reuse_workload(),
    );
    let r = sys.try_run()?;
    assert!(r.fam.at_acm_reads > 0);
    assert!(
        r.translation_hit_rate.unwrap() > 0.5,
        "got {}",
        r.translation_hit_rate.unwrap()
    );
    assert!(r.dram_reads > 0, "translation-cache reads hit DRAM");
    Ok(())
}

#[test]
fn ifam_is_slower_than_efam_on_translation_hostile_workloads() -> Result<(), SimError> {
    let efam = try_run_benchmark("sssp", quick(Scheme::EFam))?;
    let ifam = try_run_benchmark("sssp", quick(Scheme::IFam))?;
    assert!(
        ifam.ipc < efam.ipc,
        "I-FAM {} !< E-FAM {}",
        ifam.ipc,
        efam.ipc
    );
    Ok(())
}

#[test]
fn deact_n_recovers_performance_over_ifam() -> Result<(), SimError> {
    let cfg = quick(Scheme::IFam).with_refs_per_core(20_000);
    let ifam = System::new(cfg, &reuse_workload()).try_run()?;
    let deact = System::new(cfg.with_scheme(Scheme::DeactN), &reuse_workload()).try_run()?;
    assert!(
        deact.ipc > ifam.ipc,
        "DeACT-N {} !> I-FAM {}",
        deact.ipc,
        ifam.ipc
    );
    Ok(())
}

#[test]
fn deact_n_acm_hits_beat_deact_w_on_random_workloads() -> Result<(), SimError> {
    let w = try_run_benchmark("canl", quick(Scheme::DeactW))?;
    let n = try_run_benchmark("canl", quick(Scheme::DeactN))?;
    assert!(
        n.acm_hit_rate.unwrap() >= w.acm_hit_rate.unwrap(),
        "N {} !>= W {}",
        n.acm_hit_rate.unwrap(),
        w.acm_hit_rate.unwrap()
    );
    Ok(())
}

#[test]
fn runs_are_deterministic() -> Result<(), SimError> {
    let a = try_run_benchmark("pf", quick(Scheme::DeactN))?;
    let b = try_run_benchmark("pf", quick(Scheme::DeactN))?;
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.fam, b.fam);
    Ok(())
}

#[test]
fn multi_node_runs_share_the_fam() -> Result<(), SimError> {
    let cfg = quick(Scheme::DeactN).with_nodes(2).with_refs_per_core(500);
    let r = try_run_benchmark("pf", cfg)?;
    assert_eq!(r.nodes, 2);
    assert!(r.instructions > 4_000, "both nodes executed");
    Ok(())
}

#[test]
fn multi_module_fam_distributes_traffic() -> Result<(), SimError> {
    // Single core: the reference stream's execution order is then
    // timing-independent, so module count (which only changes
    // contention) must leave functional traffic bit-identical.
    let cfg = quick(Scheme::EFam)
        .with_cores_per_node(1)
        .with_fam_modules(4)
        .with_refs_per_core(1_000);
    let r = try_run_benchmark("pf", cfg)?;
    assert!(r.fam.data_reads > 0);
    // Same run, one module: identical functional traffic.
    let single = try_run_benchmark(
        "pf",
        quick(Scheme::EFam)
            .with_cores_per_node(1)
            .with_refs_per_core(1_000),
    )?;
    assert_eq!(r.fam.data_reads, single.fam.data_reads);
    Ok(())
}

#[test]
#[should_panic(expected = "one stream set per node")]
fn misshaped_stream_matrix_rejected() {
    let cfg = quick(Scheme::EFam).with_nodes(2);
    let _ = System::with_streams(cfg, "bad", Vec::new());
}

#[test]
#[should_panic(expected = "one reference stream per core")]
fn misshaped_core_streams_rejected() {
    let cfg = quick(Scheme::EFam);
    let w = Workload::by_name("pf").unwrap();
    let streams = vec![vec![w.generator(0)]]; // 1 != 4
    let _ = System::with_streams(cfg, "bad", streams);
}

fn killed(scheme: Scheme, fault: PersistentFault) -> SystemConfig {
    quick(scheme)
        .with_nodes(2)
        .with_fam_modules(2)
        .with_refs_per_core(3_000)
        .with_fault_injection(fam_sim::FaultConfig::disabled().with_persistent(fault, 500))
}

#[test]
fn node_death_survives_and_reports_degradation() -> Result<(), SimError> {
    for scheme in Scheme::ALL {
        let r = try_run_benchmark(
            "astar",
            killed(scheme, PersistentFault::NodeDead { module: 1 }),
        )?;
        let d = r.degradation;
        assert!(!d.is_zero(), "{scheme}: a killed module must register");
        assert!(d.pages_quarantined > 0, "{scheme}");
        assert_eq!(d.pages_evacuated, 0, "{scheme}: a dead node's data is gone");
        assert!(d.pages_lost > 0, "{scheme}");
        assert!(d.recovery_cycles > 0, "{scheme}");
        assert!(
            d.capacity_pages_remaining > 0,
            "{scheme}: half the pool survives"
        );
        assert!(r.recovery.nacks_unreachable > 0, "{scheme}");
        assert!(r.ipc > 0.0, "{scheme}: the run completed degraded");
    }
    Ok(())
}

#[test]
fn severed_link_evacuates_instead_of_losing() -> Result<(), SimError> {
    let r = try_run_benchmark(
        "astar",
        killed(Scheme::DeactN, PersistentFault::LinkSevered { module: 1 }),
    )?;
    let d = r.degradation;
    assert!(d.pages_evacuated > 0, "the management path survives");
    assert_eq!(d.pages_lost, 0, "a severed link loses no data");
    assert_eq!(d.poisoned_accesses, 0, "nothing to poison");
    assert!(d.evacuation_cycles > 0, "the copy is charged");
    Ok(())
}

#[test]
fn failed_media_range_quarantines_exactly() -> Result<(), SimError> {
    let r = try_run_benchmark(
        "astar",
        killed(
            Scheme::IFam,
            PersistentFault::MediaFailed {
                first_page: 0,
                pages: 64,
            },
        ),
    )?;
    assert_eq!(r.degradation.pages_quarantined, 64);
    Ok(())
}

#[test]
fn efam_heals_evacuated_ptes_lazily() -> Result<(), SimError> {
    let r = try_run_benchmark(
        "astar",
        killed(Scheme::EFam, PersistentFault::LinkSevered { module: 1 }),
    )?;
    assert!(
        r.degradation.pte_rewrites > 0,
        "walks repair FAM-key PTEs in place"
    );
    assert_eq!(r.degradation.pages_lost, 0);
    Ok(())
}

#[test]
fn shootdown_invalidates_survivor_translations() -> Result<(), SimError> {
    let r = try_run_benchmark(
        "astar",
        killed(Scheme::DeactN, PersistentFault::NodeDead { module: 1 }),
    )?;
    assert!(
        r.degradation.shootdown_invalidations > 0,
        "warm STU/translator state covered the dead module"
    );
    assert!(r.degradation.shootdown_cycles > 0);
    Ok(())
}

#[test]
fn degraded_runs_are_scheduler_invariant() {
    // Recovery stalls and shootdowns must not break the heap's ordering
    // argument; the engine's debug assertions check it on every
    // reference of this run.
    let cfg = killed(Scheme::DeactN, PersistentFault::NodeDead { module: 0 });
    let w = Workload::by_name("astar").unwrap();
    let r = System::new(cfg, &w).try_run().expect("degraded run");
    assert!(!r.degradation.is_zero());
}

#[test]
fn shared_segment_reserves_npa_window() -> Result<(), SimError> {
    let mut w = Workload::by_name("pf").unwrap();
    w.shared_fraction = 0.3;
    w.shared_pages = 16;
    let cfg = quick(Scheme::DeactN)
        .with_refs_per_core(1_500)
        .with_shared_segment_pages(16);
    let mut sys = System::new(cfg, &w);
    let r = sys.try_run()?;
    assert!(r.ipc > 0.0);
    // Every node's shared VA window resolves to the same FAM pages.
    let shared_vpage = fam_workloads::SHARED_VA_BASE / PAGE_BYTES;
    let npa = sys.nodes[0]
        .page_table
        .translate(shared_vpage)
        .expect("shared page mapped")
        .target_page;
    assert_eq!(npa, crate::node::FAM_ZONE_PAGE, "reserved window base");
    Ok(())
}
