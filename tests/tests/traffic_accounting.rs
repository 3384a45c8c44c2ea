//! Conservation and accounting invariants on full-system runs: every
//! request the report claims reached the FAM must be visible in the
//! device counters, and scheme-specific traffic classes must be empty
//! where the scheme has no such mechanism.

use deact::{try_run_benchmark, Scheme, SimError, SystemConfig};

fn cfg(scheme: Scheme) -> SystemConfig {
    SystemConfig::paper_default()
        .with_scheme(scheme)
        .with_refs_per_core(10_000)
        .with_seed(0xACC7)
}

#[test]
fn efam_traffic_classes() -> Result<(), SimError> {
    let r = try_run_benchmark("dc", cfg(Scheme::EFam))?;
    assert_eq!(r.fam.at_walk_reads, 0, "no STU, no walks");
    assert_eq!(r.fam.at_acm_reads, 0, "no ACM in E-FAM");
    assert_eq!(r.fam.at_bitmap_reads, 0);
    assert!(r.fam.at_pte_reads > 0, "PTE pages live in FAM");
    assert!(r.fam.data_reads > 0);
    Ok(())
}

#[test]
fn ifam_traffic_classes() -> Result<(), SimError> {
    let r = try_run_benchmark("dc", cfg(Scheme::IFam))?;
    assert!(r.fam.at_walk_reads > 0, "STU walks the system table");
    assert_eq!(r.fam.at_pte_reads, 0, "node PT stays in local DRAM");
    assert_eq!(r.fam.at_acm_reads, 0, "ACM is coupled into the STU entry");
    Ok(())
}

#[test]
fn deact_traffic_classes() -> Result<(), SimError> {
    let r = try_run_benchmark("dc", cfg(Scheme::DeactN))?;
    assert!(r.fam.at_acm_reads > 0, "decoupled ACM is fetched from FAM");
    assert_eq!(r.fam.at_pte_reads, 0);
    assert_eq!(
        r.fam.at_bitmap_reads, 0,
        "no shared pages in single-tenant benchmarks"
    );
    assert!(
        r.dram_reads > r.fam.data_reads / 2,
        "translation cache reads DRAM"
    );
    Ok(())
}

#[test]
fn at_percentages_are_consistent() -> Result<(), SimError> {
    for scheme in Scheme::ALL {
        let r = try_run_benchmark("cc", cfg(scheme))?;
        let pct = r.fam.at_percent();
        assert!((0.0..=100.0).contains(&pct), "{scheme}: {pct}");
        let manual = r.fam.at_total() as f64 * 100.0 / r.fam.total() as f64;
        assert!((pct - manual).abs() < 1e-9, "{scheme}");
    }
    Ok(())
}

#[test]
fn data_request_counts_are_scheme_independent() -> Result<(), SimError> {
    // The same reference stream produces the same cache-miss pattern,
    // so the *data* traffic at FAM must be nearly identical across
    // secure schemes (translation traffic is what differs).
    let i = try_run_benchmark("cc", cfg(Scheme::IFam))?;
    let n = try_run_benchmark("cc", cfg(Scheme::DeactN))?;
    let diff = (i.fam.data_reads as f64 - n.fam.data_reads as f64).abs() / i.fam.data_reads as f64;
    assert!(
        diff < 0.01,
        "data reads diverge: {} vs {}",
        i.fam.data_reads,
        n.fam.data_reads
    );
    Ok(())
}

#[test]
fn mpki_is_positive_and_sane() -> Result<(), SimError> {
    for bench in ["astar", "sssp"] {
        let r = try_run_benchmark(bench, cfg(Scheme::EFam))?;
        assert!(r.mpki > 1.0, "{bench}: mpki {}", r.mpki);
        assert!(r.mpki < 500.0, "{bench}: mpki {}", r.mpki);
    }
    Ok(())
}

#[test]
fn faults_bounded_by_touched_pages() -> Result<(), SimError> {
    let r = try_run_benchmark("astar", cfg(Scheme::DeactN))?;
    // Each touched page faults at most twice (node-level + system
    // demand map); footprint bounds touched pages.
    let w = fam_workloads::Workload::by_name("astar").unwrap();
    assert!(r.faults <= 2 * 4 * w.footprint_pages + 1000);
    assert!(r.faults > 0);
    Ok(())
}

#[test]
fn tlb_hit_rate_tracks_locality_class() -> Result<(), SimError> {
    let streaming = try_run_benchmark("mg", cfg(Scheme::EFam))?;
    let scatter = try_run_benchmark("sssp", cfg(Scheme::EFam))?;
    assert!(
        streaming.tlb_hit_rate > scatter.tlb_hit_rate,
        "streaming {} !> scatter {}",
        streaming.tlb_hit_rate,
        scatter.tlb_hit_rate
    );
    assert!(streaming.tlb_hit_rate > 0.9);
    Ok(())
}

#[test]
fn writebacks_appear_for_write_heavy_workloads() -> Result<(), SimError> {
    let r = try_run_benchmark("sp", cfg(Scheme::EFam))?; // 40% writes
    assert!(r.fam.writebacks > 0, "dirty lines must be written back");
    Ok(())
}
