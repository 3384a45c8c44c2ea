//! One function per table and figure, and the `(name, fn)` `TABLE`
//! that the `all` binary runs: `all` alone prints the whole suite in
//! one process, `all <name>` prints one entry.

use deact::{Scheme, SystemConfig};
use fam_broker::AcmWidth;
use fam_sim::stats::geomean;
use fam_sim::FaultConfig;

use crate::{
    benchmarks, cell, heading, paper, refs_from_env, refs_override, row, run_matrix, suite_speedup,
    write_csv, SUITE_GROUPS,
};

fn base_cfg(default_refs: u64) -> SystemConfig {
    SystemConfig::paper_default().with_refs_per_core(refs_from_env(default_refs))
}

/// Table I: qualitative scheme comparison.
pub(crate) fn table1() {
    heading("Table I", "FAM architectures comparison");
    row("scheme", &["perf", "no-OS-mods", "security"]);
    let tick = |b: bool| if b { "yes" } else { "no" }.to_string();
    for s in [Scheme::EFam, Scheme::IFam, Scheme::DeactN] {
        let label = if s == Scheme::DeactN {
            "DeACT"
        } else {
            s.name()
        };
        row(
            label,
            &[
                tick(s.has_good_performance()),
                tick(s.avoids_os_changes()),
                tick(s.is_secure()),
            ],
        );
    }
}

/// Table II: system configuration in force.
pub(crate) fn table2() {
    heading("Table II", "system configuration");
    let c = SystemConfig::paper_default();
    let [l1_tlb, l2_tlb] = c.tlb.entries();
    let [l1, l2, l3] = c.hierarchy.level_bytes();
    let (read_ns, write_ns) = c.nvm.latency_ns();
    let items: Vec<(&str, String)> = vec![
        (
            "CPU",
            format!(
                "{} OoO cores, {}, {} issues/cycle, {} outstanding",
                c.cores_per_node,
                c.frequency(),
                c.issue_width,
                c.core_outstanding
            ),
        ),
        (
            "TLB",
            format!("2 levels, L1 {l1_tlb} entries, L2 {l2_tlb} entries"),
        ),
        ("L1", format!("private, 64B blocks, {} KB, LRU", l1 / 1024)),
        ("L2", format!("private, 64B blocks, {} KB, LRU", l2 / 1024)),
        ("L3", format!("shared, 64B blocks, {} MB, LRU", l3 >> 20)),
        (
            "Local mem",
            format!(
                "DRAM, {} GB, {} ns",
                SystemConfig::DRAM_BYTES >> 30,
                c.dram_access_ns
            ),
        ),
        (
            "STU cache",
            format!("{} entries, associativity {}", c.stu_entries, c.stu_ways),
        ),
        (
            "Fabric",
            format!("{} ns one-way latency", c.fabric.latency_ns),
        ),
        (
            "FAM (NVM)",
            format!(
                "{} GB, read {read_ns} ns, write {write_ns} ns, {} banks, {} outstanding",
                c.fam_bytes >> 30,
                c.nvm.banks(),
                c.nvm.max_outstanding
            ),
        ),
        (
            "FAM tcache",
            format!("{} KB in DRAM (DeACT)", c.translation_cache_bytes >> 10),
        ),
    ];
    for (k, v) in items {
        println!("{k:>10}  {v}");
    }
}

/// Table III: applications with paper vs measured MPKI.
pub(crate) fn table3() {
    heading(
        "Table III",
        "applications (paper MPKI vs measured on E-FAM)",
    );
    let cfg = base_cfg(40_000).with_scheme(Scheme::EFam);
    let m = run_matrix(&benchmarks(), &[Scheme::EFam], cfg);
    row("bench", &["suite", "paper", "measured"]);
    for w in fam_workloads::table3() {
        let r = &m[&(w.name.to_string(), Scheme::EFam)];
        row(
            w.name,
            &[
                w.suite.name().into(),
                format!("{}", w.paper_mpki),
                format!("{:.0}", r.mpki),
            ],
        );
    }
}

/// Fig. 3: slowdown of I-FAM wrt E-FAM.
pub(crate) fn fig03() {
    heading("Fig. 3", "slowdown of I-FAM wrt E-FAM");
    let cfg = base_cfg(100_000);
    let m = run_matrix(&benchmarks(), &[Scheme::EFam, Scheme::IFam], cfg);
    row("bench", &["measured", "paper"]);
    let mut slowdowns = Vec::new();
    for b in benchmarks() {
        let e = &m[&(b.to_string(), Scheme::EFam)];
        let i = &m[&(b.to_string(), Scheme::IFam)];
        let slowdown = e.ipc / i.ipc;
        slowdowns.push(slowdown);
        let p = paper::row(b)
            .map(|p| p.fig3_ifam_slowdown)
            .unwrap_or(f64::NAN);
        row(b, &[format!("{slowdown:.1}x"), format!("{p:.1}x")]);
    }
    println!("geomean slowdown: {:.2}x", geomean(&slowdowns));
}

/// Fig. 4: breakdown of AT vs non-AT requests at the FAM.
pub(crate) fn fig04() {
    heading(
        "Fig. 4",
        "% address-translation requests at FAM (E-FAM vs I-FAM)",
    );
    let cfg = base_cfg(100_000);
    let m = run_matrix(&benchmarks(), &[Scheme::EFam, Scheme::IFam], cfg);
    row("bench", &["E-FAM", "paper", "I-FAM", "paper"]);
    for b in benchmarks() {
        let e = m[&(b.to_string(), Scheme::EFam)].fam.at_percent();
        let i = m[&(b.to_string(), Scheme::IFam)].fam.at_percent();
        let p = paper::row(b).unwrap();
        row(b, &[e, p.fig4_efam_at_pct, i, p.fig4_ifam_at_pct].map(cell));
    }
}

/// Fig. 9: ACM hit rate at the STU across organisations.
pub(crate) fn fig09() {
    heading("Fig. 9", "access-control-metadata hit rate (%)");
    let cfg = base_cfg(100_000);
    let m = run_matrix(
        &benchmarks(),
        &[Scheme::IFam, Scheme::DeactW, Scheme::DeactN],
        cfg,
    );
    row(
        "bench",
        &["I-FAM", "paper", "DeACT-W", "paper", "DeACT-N", "paper"],
    );
    for b in benchmarks() {
        let get = |s: Scheme| m[&(b.to_string(), s)].acm_hit_rate.unwrap() * 100.0;
        let p = paper::row(b).unwrap();
        let (i, w, n) = (get(Scheme::IFam), get(Scheme::DeactW), get(Scheme::DeactN));
        row(b, &[i, p.fig9_ifam, w, p.fig9_w, n, p.fig9_n].map(cell));
    }
}

/// Fig. 10: FAM address-translation hit rate, I-FAM vs DeACT.
pub(crate) fn fig10() {
    heading("Fig. 10", "FAM address-translation hit rate (%)");
    let cfg = base_cfg(100_000);
    let m = run_matrix(&benchmarks(), &[Scheme::IFam, Scheme::DeactN], cfg);
    row("bench", &["I-FAM", "paper", "DeACT", "paper"]);
    for b in benchmarks() {
        let i = m[&(b.to_string(), Scheme::IFam)]
            .translation_hit_rate
            .unwrap()
            * 100.0;
        let d = m[&(b.to_string(), Scheme::DeactN)]
            .translation_hit_rate
            .unwrap()
            * 100.0;
        let p = paper::row(b).unwrap();
        row(b, &[i, p.fig10_ifam, d, p.fig10_deact].map(cell));
    }
}

/// Fig. 11: percentage of AT requests at the FAM across schemes.
pub(crate) fn fig11() {
    heading("Fig. 11", "% address-translation requests at FAM");
    let cfg = base_cfg(100_000);
    let m = run_matrix(
        &benchmarks(),
        &[Scheme::IFam, Scheme::DeactW, Scheme::DeactN],
        cfg,
    );
    row("bench", &["I-FAM", "DeACT-W", "DeACT-N"]);
    let mut sums = [0.0f64; 3];
    for b in benchmarks() {
        let vals: Vec<f64> = [Scheme::IFam, Scheme::DeactW, Scheme::DeactN]
            .iter()
            .map(|s| m[&(b.to_string(), *s)].fam.at_percent())
            .collect();
        for (a, v) in sums.iter_mut().zip(&vals) {
            *a += v;
        }
        row(b, &vals.iter().map(|v| cell(*v)).collect::<Vec<_>>());
    }
    let n = benchmarks().len() as f64;
    println!(
        "averages: I-FAM {:.2}%, DeACT-W {:.2}%, DeACT-N {:.2}%  (paper: {:.2} / {:.2} / {:.2})",
        sums[0] / n,
        sums[1] / n,
        sums[2] / n,
        paper::FIG11_AVERAGES.0,
        paper::FIG11_AVERAGES.1,
        paper::FIG11_AVERAGES.2,
    );
}

/// Fig. 12: normalized performance wrt E-FAM, all four schemes.
pub(crate) fn fig12() {
    heading("Fig. 12", "normalized performance wrt E-FAM");
    let cfg = base_cfg(100_000);
    let m = run_matrix(&benchmarks(), &Scheme::ALL, cfg);
    row(
        "bench",
        &["I-FAM", "paper", "DeACT-W", "paper", "DeACT-N", "paper"],
    );
    let mut norms: Vec<(f64, f64, f64)> = Vec::new();
    let mut speedups = Vec::new();
    for b in benchmarks() {
        let e = &m[&(b.to_string(), Scheme::EFam)];
        let i = m[&(b.to_string(), Scheme::IFam)].normalized_to(e);
        let w = m[&(b.to_string(), Scheme::DeactW)].normalized_to(e);
        let n = m[&(b.to_string(), Scheme::DeactN)].normalized_to(e);
        norms.push((i, w, n));
        speedups.push(n / i);
        let p = paper::row(b).unwrap();
        row(b, &[i, p.fig12_ifam, w, p.fig12_w, n, p.fig12_n].map(cell));
    }
    let count = norms.len() as f64;
    let avg_i: f64 = norms.iter().map(|n| n.0).sum::<f64>() / count;
    let avg_n: f64 = norms.iter().map(|n| n.2).sum::<f64>() / count;
    let max_speedup = speedups.iter().cloned().fold(0.0, f64::max);
    println!(
        "averages wrt E-FAM: I-FAM {avg_i:.3}, DeACT-N {avg_n:.3}  (paper: {:.3} / {:.3})",
        paper::FIG12_AVG_IFAM,
        paper::FIG12_AVG_DEACT,
    );
    println!(
        "DeACT-N speedup over I-FAM: max {max_speedup:.2}x, geomean {:.2}x  (paper headline: up to {:.2}x, {:.1}x average)",
        geomean(&speedups),
        paper::HEADLINE_MAX_SPEEDUP,
        paper::HEADLINE_AVG_SPEEDUP,
    );
}

/// The sensitivity sweeps print suite geomeans + pf + dc of `deact`'s
/// speedup over I-FAM, like Figs. 13–16.
fn sweep_rows(header: &str, points: &[(String, SystemConfig)], deact: Scheme) {
    row(header, &SUITE_GROUPS);
    let benches: Vec<&str> = SUITE_GROUPS
        .iter()
        .flat_map(|s| crate::suite_members(s))
        .collect();
    for (label, cfg) in points {
        let m = run_matrix(&benches, &[Scheme::IFam, deact], *cfg);
        let cells: Vec<String> = SUITE_GROUPS
            .iter()
            .map(|s| format!("{:.2}x", suite_speedup(&m, s, deact)))
            .collect();
        row(label, &cells);
    }
}

/// One row of DeACT-N's speedup over I-FAM on each of `benches`.
fn speedup_row(label: &str, benches: &[&str], cfg: SystemConfig) {
    let m = run_matrix(benches, &[Scheme::IFam, Scheme::DeactN], cfg);
    let cells: Vec<String> = benches
        .iter()
        .map(|b| {
            let d = &m[&(b.to_string(), Scheme::DeactN)];
            format!("{:.2}x", d.speedup_over(&m[&(b.to_string(), Scheme::IFam)]))
        })
        .collect();
    row(label, &cells);
}

/// Fig. 13: speedup over I-FAM vs STU cache size.
pub(crate) fn fig13() {
    heading("Fig. 13", "DeACT-N speedup wrt I-FAM vs STU cache entries");
    let cfg = base_cfg(40_000);
    let points: Vec<(String, SystemConfig)> = [256usize, 512, 1024, 2048, 4096]
        .iter()
        .map(|&e| (format!("{e}"), cfg.with_stu_entries(e)))
        .collect();
    sweep_rows("entries", &points, Scheme::DeactN);
    println!("{}", paper::FIG13_TEXT);
}

/// §V-D1 (text): speedup over I-FAM vs STU associativity.
pub(crate) fn assoc() {
    heading("§V-D1", "DeACT-N speedup wrt I-FAM vs STU associativity");
    let cfg = base_cfg(40_000);
    let points: Vec<(String, SystemConfig)> = [4usize, 8, 16, 32, 64]
        .iter()
        .map(|&w| (format!("{w}-way"), cfg.with_stu_ways(w)))
        .collect();
    sweep_rows("assoc", &points, Scheme::DeactN);
    println!("{}", paper::ASSOC_TEXT);
}

/// Fig. 14: ACM width (8/16/32-bit) and DeACT-N pairs-per-way.
pub(crate) fn fig14() {
    heading("Fig. 14", "metadata size effect on DeACT speedup wrt I-FAM");
    let cfg = base_cfg(40_000);
    println!("-- DeACT-W across ACM widths --");
    let points: Vec<(String, SystemConfig)> = [
        ("8-bit", AcmWidth::W8),
        ("16-bit", AcmWidth::W16),
        ("32-bit", AcmWidth::W32),
    ]
    .iter()
    .map(|(l, w)| (l.to_string(), cfg.with_acm_width(*w)))
    .collect();
    sweep_rows("width", &points, Scheme::DeactW);
    println!("-- DeACT-N, 8-bit ACM, pairs per way --");
    let pair_points: Vec<(String, SystemConfig)> = [1usize, 2, 3]
        .iter()
        .map(|&p| {
            (
                format!("{p} pair"),
                cfg.with_acm_width(AcmWidth::W8).with_deact_n_pairs(Some(p)),
            )
        })
        .collect();
    sweep_rows("pairs", &pair_points, Scheme::DeactN);
    println!("{}", paper::FIG14_TEXT);
}

/// Fig. 15: fabric-latency sweep.
pub(crate) fn fig15() {
    heading("Fig. 15", "DeACT-N speedup wrt I-FAM vs fabric latency");
    let cfg = base_cfg(40_000);
    let points: Vec<(String, SystemConfig)> = [100u64, 250, 500, 750, 1000, 3000, 6000]
        .iter()
        .map(|&ns| {
            let label = if ns >= 1000 {
                format!("{}us", ns / 1000)
            } else {
                format!("{ns}ns")
            };
            (label, cfg.with_fabric_latency_ns(ns))
        })
        .collect();
    sweep_rows("latency", &points, Scheme::DeactN);
    println!("{}", paper::FIG15_TEXT);
}

/// Fig. 16: node-count sweep (pf and dc).
pub(crate) fn fig16() {
    heading("Fig. 16", "DeACT-N speedup wrt I-FAM vs number of nodes");
    let cfg = base_cfg(25_000);
    row("nodes", &["pf", "dc"]);
    for nodes in [1usize, 2, 4, 8] {
        // Fig. 16 keeps FAM pools proportional to the node count.
        let point = cfg.with_nodes(nodes).with_fam_modules(nodes);
        speedup_row(&nodes.to_string(), &["pf", "dc"], point);
    }
    println!("{}", paper::FIG16_TEXT);
}

/// Extension ablations beyond the paper's figures (DESIGN.md §6).
pub(crate) fn ablation() {
    heading(
        "Ablation",
        "design-choice studies beyond the paper's figures",
    );
    let cfg = base_cfg(40_000);

    println!("-- in-DRAM translation-cache capacity (DeACT-N, canl/sssp) --");
    row("size", &["canl", "sssp"]);
    for kb in [256u64, 512, 1024, 2048, 4096] {
        let mut c = cfg;
        c.translation_cache_bytes = kb << 10;
        speedup_row(&format!("{kb}KB"), &["canl", "sssp"], c);
    }

    println!("-- §VI shared pages: bitmap traffic vs shared fraction (DeACT-N, 2 nodes) --");
    {
        row("shared", &["bitmap rd", "AT %", "ipc"]);
        for shared in [0.0f64, 0.1, 0.25, 0.5] {
            let mut w = fam_workloads::Workload::by_name("dc").expect("table3 name");
            w.shared_fraction = shared;
            w.shared_pages = 128;
            let c = cfg
                .with_scheme(Scheme::DeactN)
                .with_nodes(2)
                .with_refs_per_core(refs_from_env(15_000))
                .with_shared_segment_pages(128);
            let r = deact::System::new(c, &w)
                .try_run()
                .expect("the shared-pages run completes");
            row(
                &format!("{:.0}%", shared * 100.0),
                &[
                    format!("{}", r.fam.at_bitmap_reads),
                    format!("{:.1}", r.fam.at_percent()),
                    format!("{:.3}", r.ipc),
                ],
            );
        }
        println!("(shared pages are vetted through the 1 GB-region bitmaps of Fig. 5; the entry's\n all-ones node field redirects verification to the bitmap)");
    }

    println!("-- §III-C translation-cache replacement: random vs LRU --");
    {
        row("policy", &["canl thit", "canl norm", "dram wr"]);
        let efam =
            run_matrix(&["canl"], &[Scheme::EFam], cfg)[&("canl".into(), Scheme::EFam)].clone();
        for (label, lru) in [("random", false), ("LRU", true)] {
            let c = cfg.with_translation_cache_lru(lru);
            let r = run_matrix(&["canl"], &[Scheme::DeactN], c)[&("canl".into(), Scheme::DeactN)]
                .clone();
            row(
                label,
                &[
                    format!("{:.1}%", r.translation_hit_rate.unwrap() * 100.0),
                    format!("{:.2}", r.normalized_to(&efam)),
                    format!("{}", r.dram_writes),
                ],
            );
        }
        println!("(LRU buys a slightly better hit rate at the cost of a DRAM write per FAM access — the paper's §III-C trade)");
    }

    println!("-- §VI large pages: TLB reach if data were 2 MB-mapped --");
    {
        use fam_vm::{PtFlags, Pte, TlbConfig, TlbHierarchy};
        row("bench", &["4KB hit%", "2MB hit%"]);
        for name in ["canl", "sssp", "mg"] {
            let w = fam_workloads::Workload::by_name(name).expect("table3 name");
            let mut small = TlbHierarchy::new(TlbConfig::default());
            let mut huge = TlbHierarchy::new(TlbConfig::default());
            let mut gen = w.generator(11);
            for _ in 0..200_000 {
                let vpage = gen.next_ref().vaddr.page();
                let fill = Pte {
                    target_page: vpage,
                    flags: PtFlags::rw(),
                };
                if small.lookup(vpage).2.is_none() {
                    small.fill(vpage, fill);
                }
                let region = vpage >> 9; // 2 MB granule
                if huge.lookup(region).2.is_none() {
                    huge.fill(region, fill);
                }
            }
            row(
                name,
                &[
                    format!("{:.1}", small.stats().percent()),
                    format!("{:.1}", huge.stats().percent()),
                ],
            );
        }
        println!(
            "(2 MB pages would fix TLB reach, but §VI's objections stand: local DRAM hosts\n fewer large pages, sparse use wastes it, and hot small pages scatter across them)"
        );
    }

    println!("-- §II-B walk accounting: 1-D vs nested 2-D translation --");
    {
        use fam_vm::{PageTable, PageWalker, PtFlags, PtwCache, TwoDimWalker};
        let mut guest = PageTable::new(0);
        let mut next = 0x100_0000u64;
        let mut alloc = |_: usize| {
            let a = next;
            next += 4096;
            a
        };
        guest.map(7, 0x5000, PtFlags::rw(), &mut alloc);
        let mut nested = PageTable::new(0x800_0000);
        let mut next2 = 0x900_0000u64;
        let mut alloc2 = |_: usize| {
            let a = next2;
            next2 += 4096;
            a
        };
        for p in 0..0x6000u64 {
            nested.map(p, p, PtFlags::rw(), &mut alloc2);
        }
        let one_d = PageWalker::plan(&guest, None, 7).reads();
        let two_d = TwoDimWalker::plan(&guest, &nested, None, 7).reads();
        let mut ptw = PtwCache::new(32);
        TwoDimWalker::plan(&guest, &nested, Some(&mut ptw), 7);
        let two_d_cached = TwoDimWalker::plan(&guest, &nested, Some(&mut ptw), 7).reads();
        println!(
            "  native walk: {one_d} reads; nested 2-D walk: {two_d} reads (paper: 4 vs 24); with warm nested-PTW cache: {two_d_cached}"
        );
    }

    println!("-- §III-A encrypted-memory read bypass (DeACT-N) --");
    row("mode", &["canl", "bc", "dc"]);
    for (label, skip) in [("verify-all", false), ("skip-reads", true)] {
        let c = cfg.with_skip_read_checks(skip);
        let m = run_matrix(&["canl", "bc", "dc"], &[Scheme::EFam, Scheme::DeactN], c);
        let cells: Vec<String> = ["canl", "bc", "dc"]
            .iter()
            .map(|b| {
                let d = &m[&(b.to_string(), Scheme::DeactN)];
                let e = &m[&(b.to_string(), Scheme::EFam)];
                format!("{:.2}", d.normalized_to(e))
            })
            .collect();
        row(label, &cells);
    }
    println!("(normalized performance wrt E-FAM; reads dominate, so skipping read checks narrows the gap)");
}

/// The headline benchmark × scheme matrix as CSV for external
/// plotting, written to `path` (default `results.csv`). The file is
/// created before the runs, so an unwritable path fails at once.
///
/// # Errors
///
/// `path` cannot be created or written.
pub(crate) fn csv(path: Option<&str>) -> Result<(), String> {
    let path = path.unwrap_or("results.csv");
    let cannot_write = |e: std::io::Error| format!("cannot write {path}: {e}");
    let file = std::fs::File::create(path).map_err(cannot_write)?;
    let cfg = SystemConfig::paper_default().with_refs_per_core(refs_from_env(50_000));
    let matrix = run_matrix(&benchmarks(), &Scheme::ALL, cfg);
    write_csv(std::io::BufWriter::new(file), &matrix).map_err(cannot_write)?;
    println!("wrote {} rows to {path}", matrix.len());
    Ok(())
}

/// Calibration probe: per-benchmark scheme comparison at a glance.
///
/// Used when tuning the Table III generator profiles (hot/warm tiers,
/// dependence fractions) against the paper's Fig. 3 slowdowns and
/// Fig. 9/10 hit rates. Not part of the figure suite.
///
/// # Errors
///
/// `arg` is given: the probe takes no argument.
pub(crate) fn diag(arg: Option<&str>) -> Result<(), String> {
    if let Some(arg) = arg {
        return Err(format!("diag takes no argument, got {arg:?}"));
    }
    let cfg = SystemConfig::paper_default()
        .with_refs_per_core(refs_from_env(60_000))
        .with_seed(7);
    let m = run_matrix(
        &benchmarks(),
        &[Scheme::EFam, Scheme::IFam, Scheme::DeactN],
        cfg,
    );
    println!(
        "{:7} {:>9} {:>8} {:>8} {:>7} {:>8} {:>8}",
        "bench", "slowdown", "thit(I)", "thit(D)", "acmN", "norm(I)", "norm(N)"
    );
    for name in benchmarks() {
        let get = |s: Scheme| &m[&(name.to_string(), s)];
        let (efam, ifam, n) = (get(Scheme::EFam), get(Scheme::IFam), get(Scheme::DeactN));
        println!(
            "{name:7} {:>8.1}x {:>7.1}% {:>7.1}% {:>6.1}% {:>8.2} {:>8.2}",
            efam.ipc / ifam.ipc,
            ifam.translation_hit_rate.unwrap() * 100.0,
            n.translation_hit_rate.unwrap() * 100.0,
            n.acm_hit_rate.unwrap() * 100.0,
            ifam.ipc / efam.ipc,
            n.ipc / efam.ipc,
        );
    }

    // Robustness probe: the transient-fault profile against every
    // scheme on one representative workload — a quick check that the
    // retry/NACK machinery holds its 100%-recovery contract and what
    // the faults cost each scheme.
    let clean = run_matrix(&["mcf"], &Scheme::ALL, cfg);
    let faulty = run_matrix(
        &["mcf"],
        &Scheme::ALL,
        cfg.with_fault_injection(FaultConfig::transient(7)),
    );
    println!();
    println!(
        "{:8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "scheme", "injected", "retries", "recov", "fatal", "rate", "ipc-loss"
    );
    for scheme in Scheme::ALL {
        let key = ("mcf".to_string(), scheme);
        let r = &faulty[&key];
        let f = &r.recovery;
        println!(
            "{:8} {:>8} {:>8} {:>8} {:>8} {:>7.1}% {:>8.1}%",
            scheme.name(),
            f.injected_total(),
            f.retries,
            f.recovered,
            f.fatal,
            f.recovery_rate() * 100.0,
            (1.0 - r.ipc / clean[&key].ipc) * 100.0,
        );
    }
    Ok(())
}

/// What `all <name>` runs.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Entry {
    /// A paper table, figure or study: part of the suite that `all`
    /// with no name prints.
    Suite(fn()),
    /// A tool that runs only by name and takes at most one argument.
    ByName(fn(Option<&str>) -> Result<(), String>),
}

/// Every name `all` accepts, in suite order: the one list of the
/// figures, which [`select`] walks.
pub(crate) const TABLE: [(&str, Entry); 17] = [
    ("table1", Entry::Suite(table1)),
    ("table2", Entry::Suite(table2)),
    ("table3", Entry::Suite(table3)),
    ("fig03", Entry::Suite(fig03)),
    ("fig04", Entry::Suite(fig04)),
    ("fig09", Entry::Suite(fig09)),
    ("fig10", Entry::Suite(fig10)),
    ("fig11", Entry::Suite(fig11)),
    ("fig12", Entry::Suite(fig12)),
    ("fig13", Entry::Suite(fig13)),
    ("assoc", Entry::Suite(assoc)),
    ("fig14", Entry::Suite(fig14)),
    ("fig15", Entry::Suite(fig15)),
    ("fig16", Entry::Suite(fig16)),
    ("ablation", Entry::Suite(ablation)),
    ("csv", Entry::ByName(csv)),
    ("diag", Entry::ByName(diag)),
];

/// Resolves `all`'s arguments, `[<name> [<arg>]]`, to the entries they
/// select without running any: no name selects the suite entries of
/// [`TABLE`] in order, a name selects its one entry.
///
/// # Errors
///
/// An unknown name (the message lists the valid ones), an argument
/// given to a suite entry, or more than two arguments.
pub(crate) fn select(args: &[String]) -> Result<Vec<(&'static str, Entry)>, String> {
    let names = || TABLE.map(|(name, _)| name).join(", ");
    let Some(name) = args.first() else {
        let suite = TABLE.iter().filter(|(_, e)| matches!(e, Entry::Suite(_)));
        return Ok(suite.copied().collect());
    };
    let Some(&(name, entry)) = TABLE.iter().find(|(n, _)| n == name) else {
        return Err(format!("unknown figure {name:?}; valid names: {}", names()));
    };
    match (entry, args.len()) {
        (_, 1) | (Entry::ByName(_), 2) => Ok(vec![(name, entry)]),
        _ => Err(format!(
            "usage: all [<name> [<path>]] (only csv takes a path); names: {}",
            names()
        )),
    }
}

/// The `all` binary: checks its arguments (`select`), `DEACT_REFS`
/// (`refs_override`) and `DEACT_JOBS` ([`fam_sim::jobs_override`]),
/// then runs what they select.
///
/// # Errors
///
/// A `select`, `refs_override` or [`fam_sim::jobs_override`]
/// error, before anything runs, or the failure of a by-name tool.
pub fn run(args: &[String]) -> Result<(), String> {
    let entries = select(args)?;
    refs_override()?;
    fam_sim::jobs_override()?;
    let arg = args.get(1).map(String::as_str);
    for (_, entry) in entries {
        match entry {
            Entry::Suite(f) => f(),
            Entry::ByName(f) => f(arg)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select_strs(args: &[&str]) -> Result<Vec<(&'static str, Entry)>, String> {
        select(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn table_names_are_unique_and_each_selects_itself() {
        for (i, (name, _)) in TABLE.iter().enumerate() {
            assert!(TABLE[..i].iter().all(|(n, _)| n != name), "{name} twice");
            let one = select_strs(&[name]).unwrap();
            assert_eq!((one.len(), one[0].0), (1, *name));
        }
    }

    #[test]
    fn no_name_selects_the_suite_in_table_order() {
        let suite: Vec<&str> = select(&[]).unwrap().iter().map(|(n, _)| *n).collect();
        let expected = [
            "table1", "table2", "table3", "fig03", "fig04", "fig09", "fig10", "fig11", "fig12",
            "fig13", "assoc", "fig14", "fig15", "fig16", "ablation",
        ];
        assert_eq!(suite, expected);
        let by_name: Vec<&str> = TABLE[suite.len()..].iter().map(|(n, _)| *n).collect();
        assert_eq!(by_name, ["csv", "diag"], "tools run only by name");
    }

    #[test]
    fn bad_arguments_are_rejected_with_the_names() {
        for bad in [&["no-such-fig"][..], &["fig03", "x"], &["csv", "a", "b"]] {
            let err = select_strs(bad).unwrap_err();
            assert!(TABLE.iter().all(|(n, _)| err.contains(n)), "{err}");
        }
        assert!(select_strs(&["no-such-fig"])
            .unwrap_err()
            .starts_with("unknown figure \"no-such-fig\""));
        assert!(select_strs(&["csv", "out.csv"]).is_ok());
        assert!(diag(Some("x")).is_err(), "diag takes no argument");
    }
}
