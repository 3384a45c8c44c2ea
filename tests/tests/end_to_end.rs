//! End-to-end scheme behaviour across the whole stack: the qualitative
//! claims of the paper must hold on full-system runs.

use deact::{try_run_benchmark, Scheme, SimError, SystemConfig};

fn cfg(scheme: Scheme) -> SystemConfig {
    SystemConfig::paper_default()
        .with_scheme(scheme)
        .with_refs_per_core(20_000)
        .with_seed(0xE2E)
}

#[test]
fn every_scheme_completes_every_benchmark_class() -> Result<(), SimError> {
    // One representative per behaviour class: pointer-chaser,
    // strided sweep, hot-set graph, streaming.
    for bench in ["canl", "cactus", "bc", "mg"] {
        for scheme in Scheme::ALL {
            let r = try_run_benchmark(bench, cfg(scheme).with_refs_per_core(3_000))?;
            assert!(r.ipc > 0.0, "{bench}/{scheme}");
            assert!(r.instructions > 0, "{bench}/{scheme}");
            assert_eq!(r.scheme, scheme);
            assert_eq!(r.workload, bench);
        }
    }
    Ok(())
}

#[test]
fn ifam_slowdown_ordering_matches_fig3() -> Result<(), SimError> {
    // Fig. 3: translation-hostile benchmarks (cactus) suffer far more
    // from indirection than streaming ones (mg).
    let slowdown = |bench: &str| -> Result<f64, SimError> {
        let e = try_run_benchmark(bench, cfg(Scheme::EFam))?;
        let i = try_run_benchmark(bench, cfg(Scheme::IFam))?;
        Ok(e.ipc / i.ipc)
    };
    let cactus = slowdown("cactus")?;
    let mg = slowdown("mg")?;
    assert!(
        cactus > 3.0 * mg,
        "cactus slowdown {cactus:.1}x should dwarf mg {mg:.1}x"
    );
    assert!(
        mg < 2.0,
        "streaming barely cares about indirection: {mg:.1}x"
    );
    Ok(())
}

#[test]
fn deact_recovers_most_of_ifam_loss_on_scatter_workloads() -> Result<(), SimError> {
    // The headline (§V-C): DeACT-N speeds up I-FAM substantially on
    // benchmarks that stress translation.
    for bench in ["canl", "sssp", "bc"] {
        let i = try_run_benchmark(bench, cfg(Scheme::IFam))?;
        let n = try_run_benchmark(bench, cfg(Scheme::DeactN))?;
        let speedup = n.speedup_over(&i);
        assert!(speedup > 1.3, "{bench}: DeACT-N speedup only {speedup:.2}x");
    }
    Ok(())
}

#[test]
fn deact_does_not_help_streaming_benchmarks_much() -> Result<(), SimError> {
    // §V-C: "DeACT either does not improve or degrades the performance
    // for bc, lu, mg and sp" — the DRAM lookup per FAM access has to
    // be paid by everyone.
    let i = try_run_benchmark("mg", cfg(Scheme::IFam))?;
    let n = try_run_benchmark("mg", cfg(Scheme::DeactN))?;
    let speedup = n.speedup_over(&i);
    assert!(
        (0.7..1.3).contains(&speedup),
        "mg speedup should be near 1.0, got {speedup:.2}"
    );
    Ok(())
}

#[test]
fn at_traffic_collapses_under_deact_n_relative_to_ifam() -> Result<(), SimError> {
    // Fig. 11's direction: AT requests at the FAM fall from I-FAM to
    // DeACT-N for reuse-heavy workloads (cold sweeps like cactus need
    // longer runs for the translation cache to warm, see fig11).
    let i = try_run_benchmark("mcf", cfg(Scheme::IFam))?;
    let n = try_run_benchmark("mcf", cfg(Scheme::DeactN))?;
    assert!(
        i.fam.at_walk_reads as f64 > 1.5 * n.fam.at_walk_reads as f64,
        "walk traffic: I-FAM {} vs DeACT-N {}",
        i.fam.at_walk_reads,
        n.fam.at_walk_reads
    );
    Ok(())
}

#[test]
fn translation_hit_rate_gap_matches_fig10() -> Result<(), SimError> {
    // Fig. 10: the in-DRAM translation cache beats the STU's 1024
    // entries on every benchmark whose footprint exceeds STU reach.
    for bench in ["mcf", "canl", "dc"] {
        let i = try_run_benchmark(bench, cfg(Scheme::IFam))?;
        let n = try_run_benchmark(bench, cfg(Scheme::DeactN))?;
        assert!(
            n.translation_hit_rate.unwrap() > i.translation_hit_rate.unwrap(),
            "{bench}: DeACT {:.2} !> I-FAM {:.2}",
            n.translation_hit_rate.unwrap(),
            i.translation_hit_rate.unwrap()
        );
    }
    Ok(())
}

#[test]
fn acm_hit_rate_ordering_matches_fig9() -> Result<(), SimError> {
    // Fig. 9: DeACT-N >= DeACT-W on random-allocation workloads.
    for bench in ["mcf", "canl", "bc"] {
        let w = try_run_benchmark(bench, cfg(Scheme::DeactW))?;
        let n = try_run_benchmark(bench, cfg(Scheme::DeactN))?;
        assert!(
            n.acm_hit_rate.unwrap() + 1e-9 >= w.acm_hit_rate.unwrap(),
            "{bench}: N {:.2} < W {:.2}",
            n.acm_hit_rate.unwrap(),
            w.acm_hit_rate.unwrap()
        );
    }
    Ok(())
}

#[test]
fn runs_are_bit_reproducible() -> Result<(), SimError> {
    let a = try_run_benchmark("pf", cfg(Scheme::DeactN))?;
    let b = try_run_benchmark("pf", cfg(Scheme::DeactN))?;
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.fam, b.fam);
    assert_eq!(a.dram_reads, b.dram_reads);
    let c = try_run_benchmark("pf", cfg(Scheme::DeactN).with_seed(999))?;
    assert_ne!(a.cycles, c.cycles, "different seed, different run");
    Ok(())
}

#[test]
fn smaller_stu_hurts_ifam_more_than_deact() -> Result<(), SimError> {
    // The Fig. 13 mechanism: DeACT's translations do not live in the
    // STU, so shrinking it mainly punishes I-FAM.
    let base = cfg(Scheme::IFam);
    let i_big = try_run_benchmark("dc", base.with_stu_entries(4096))?;
    let i_small = try_run_benchmark("dc", base.with_stu_entries(256))?;
    let n_big = try_run_benchmark(
        "dc",
        base.with_scheme(Scheme::DeactN).with_stu_entries(4096),
    )?;
    let n_small = try_run_benchmark("dc", base.with_scheme(Scheme::DeactN).with_stu_entries(256))?;
    let ifam_loss = i_big.ipc / i_small.ipc;
    let deact_loss = n_big.ipc / n_small.ipc;
    assert!(
        ifam_loss > deact_loss,
        "shrinking STU: I-FAM lost {ifam_loss:.2}x, DeACT {deact_loss:.2}x"
    );
    Ok(())
}

#[test]
fn higher_fabric_latency_increases_deact_advantage() -> Result<(), SimError> {
    // Fig. 15's direction.
    let speedup_at = |ns: u64| -> Result<f64, SimError> {
        let c = cfg(Scheme::IFam).with_fabric_latency_ns(ns);
        let i = try_run_benchmark("pf", c)?;
        let n = try_run_benchmark("pf", c.with_scheme(Scheme::DeactN))?;
        Ok(n.speedup_over(&i))
    };
    let fast = speedup_at(100)?;
    let slow = speedup_at(6000)?;
    assert!(
        slow > fast,
        "speedup should grow with fabric latency: {fast:.2}x @100ns vs {slow:.2}x @6us"
    );
    Ok(())
}

#[test]
fn multi_node_contention_increases_deact_advantage() -> Result<(), SimError> {
    // Fig. 16's direction.
    let speedup_at = |nodes: usize| -> Result<f64, SimError> {
        let c = cfg(Scheme::IFam)
            .with_nodes(nodes)
            .with_refs_per_core(8_000);
        let i = try_run_benchmark("dc", c)?;
        let n = try_run_benchmark("dc", c.with_scheme(Scheme::DeactN))?;
        Ok(n.speedup_over(&i))
    };
    let one = speedup_at(1)?;
    let eight = speedup_at(8)?;
    assert!(
        eight > one * 0.95,
        "speedup should not shrink with node count: {one:.2}x @1 vs {eight:.2}x @8"
    );
    Ok(())
}

#[test]
fn skip_read_checks_only_helps() -> Result<(), SimError> {
    let base = cfg(Scheme::DeactN);
    let checked = try_run_benchmark("canl", base)?;
    let skipped = try_run_benchmark("canl", base.with_skip_read_checks(true))?;
    assert!(skipped.ipc >= checked.ipc);
    assert!(skipped.fam.at_acm_reads < checked.fam.at_acm_reads);
    Ok(())
}

#[test]
fn instructions_match_workload_density() -> Result<(), SimError> {
    // refs * (mean gap + 1) per core, within stochastic tolerance.
    let r = try_run_benchmark("mcf", cfg(Scheme::EFam))?;
    let per_core = r.instructions as f64 / 4.0;
    let w = fam_workloads::Workload::by_name("mcf").unwrap();
    let expected = 20_000.0 * (w.mean_gap_instrs() as f64 + 1.5);
    assert!(
        (per_core / expected - 1.0).abs() < 0.1,
        "instructions {per_core} vs expected {expected}"
    );
    Ok(())
}

#[test]
fn lru_translation_cache_hits_at_least_as_often_but_writes_more() -> Result<(), SimError> {
    let base = cfg(Scheme::DeactN);
    let random = try_run_benchmark("mcf", base)?;
    let lru = try_run_benchmark("mcf", base.with_translation_cache_lru(true))?;
    assert!(
        lru.translation_hit_rate.unwrap() >= random.translation_hit_rate.unwrap() - 0.02,
        "LRU {:.3} vs random {:.3}",
        lru.translation_hit_rate.unwrap(),
        random.translation_hit_rate.unwrap()
    );
    assert!(
        lru.dram_writes > random.dram_writes,
        "LRU recency updates cost DRAM writes: {} !> {}",
        lru.dram_writes,
        random.dram_writes
    );
    Ok(())
}

#[test]
fn shared_segment_traffic_shows_bitmap_fetches() -> Result<(), SimError> {
    // §VI "Shared Pages": two nodes touch a common segment; DeACT's
    // verification fetches the 1 GB-region bitmap for shared pages.
    let mut w = fam_workloads::Workload::by_name("dc").unwrap();
    w.shared_fraction = 0.25;
    w.shared_pages = 64;
    let c = cfg(Scheme::DeactN)
        .with_nodes(2)
        .with_refs_per_core(5_000)
        .with_shared_segment_pages(64);
    let r = deact::System::new(c, &w).try_run()?;
    assert!(
        r.fam.at_bitmap_reads > 0,
        "shared pages must trigger bitmap fetches"
    );
    assert!(r.ipc > 0.0);

    // The same workload without sharing fetches no bitmaps.
    let mut w2 = w;
    w2.shared_fraction = 0.0;
    let r2 = deact::System::new(
        cfg(Scheme::DeactN).with_nodes(2).with_refs_per_core(5_000),
        &w2,
    )
    .try_run()?;
    assert_eq!(r2.fam.at_bitmap_reads, 0);
    Ok(())
}

#[test]
fn shared_segment_works_under_every_scheme() -> Result<(), SimError> {
    let mut w = fam_workloads::Workload::by_name("pf").unwrap();
    w.shared_fraction = 0.2;
    w.shared_pages = 32;
    for scheme in Scheme::ALL {
        let c = cfg(scheme)
            .with_refs_per_core(2_000)
            .with_shared_segment_pages(32);
        let r = deact::System::new(c, &w).try_run()?;
        assert!(r.ipc > 0.0, "{scheme}");
    }
    Ok(())
}
