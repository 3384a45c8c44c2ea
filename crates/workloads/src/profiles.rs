//! Per-benchmark generator parameters (Table III).

use crate::{generator::TraceGenerator, VA_BASE};

/// Benchmark suite of origin (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU 2006.
    Spec2006,
    /// PARSEC.
    Parsec,
    /// Intel GAP graph-analytics suite.
    Gap,
    /// Mantevo mini-apps.
    Mantevo,
    /// NAS parallel benchmarks.
    Nas,
}

impl Suite {
    /// Display name matching the paper's grouping in §V-D.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Spec2006 => "SPEC",
            Suite::Parsec => "PARSEC",
            Suite::Gap => "GAP",
            Suite::Mantevo => "pf",
            Suite::Nas => "NPB",
        }
    }
}

/// A benchmark profile: identity plus the generator parameters that
/// reproduce its memory behaviour.
///
/// The knobs map onto the behaviours that matter for translation
/// studies:
///
/// * `footprint_pages` — how much of the FAM a rank touches; beyond
///   the STU's 4 MB reach (1024 entries × 4 KB) this drives I-FAM's
///   system-level misses.
/// * `hot_fraction` / `hot_pages` — page-level temporal locality; a
///   small hot set keeps TLBs and the STU effective even at high MPKI
///   (bc), a flat distribution defeats them (sssp, ccsv).
/// * `seq_run` — consecutive 64-byte lines touched within a page
///   before jumping; long runs (mg, sp, lu) amortise one translation
///   over many lines.
/// * `stride_pages` — non-unit *page* stride for grid sweeps
///   (cactus), which is translation-hostile but regular.
/// * `dep_fraction` — pointer-chasing probability: a dependent
///   reference cannot issue until the previous one returns, exposing
///   full FAM latency (canl, sssp).
/// * `refs_per_kilo_instr` — off-core reference density; together
///   with the locality knobs this calibrates MPKI to Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Short name as used in the paper's figures.
    pub name: &'static str,
    /// Suite of origin.
    pub suite: Suite,
    /// LLC misses per kilo-instruction reported in Table III. (`lu`
    /// appears in the paper's figures but not in Table III; we carry
    /// the NPB-class value measured in our calibration.)
    pub paper_mpki: u32,
    /// Pages of FAM-resident data a rank touches.
    pub footprint_pages: u64,
    /// Probability a page jump lands in the hot set.
    pub hot_fraction: f64,
    /// Size of the hot page set.
    pub hot_pages: u64,
    /// Probability a page jump lands in the warm set (graph workloads
    /// have power-law vertex popularity: a tiny hot core, a warm
    /// middle tier, and a huge cold tail).
    pub warm_fraction: f64,
    /// Size of the warm page set (disjoint tier above the hot set).
    pub warm_pages: u64,
    /// Probability a page jump lands in the cross-node shared segment
    /// (0 for the paper's single-tenant benchmarks; the shared-pages
    /// studies of §VI set it together with
    /// `SystemConfig::shared_segment_pages`).
    pub shared_fraction: f64,
    /// Pages in the shared segment the generator addresses.
    pub shared_pages: u64,
    /// Mean consecutive lines touched per page visit.
    pub seq_run: u32,
    /// Page stride for sweep patterns (1 = dense).
    pub stride_pages: u64,
    /// Probability a reference depends on the previous one.
    pub dep_fraction: f64,
    /// Probability a reference is a store.
    pub write_fraction: f64,
    /// Off-core references per 1000 instructions.
    pub refs_per_kilo_instr: u32,
}

/// The paper's 14 evaluated benchmarks (Table III) with generator
/// parameters.
///
/// Footprints are scaled down from the applications' real footprints
/// (hundreds of MB) to 16–56 MB, exactly as the paper itself scales
/// memory sizes "given slow simulation speeds" (§IV footnote 3). What
/// matters for every figure is the footprint's position *relative to
/// the hardware reaches*, which is preserved: TLB reach (1 MB) ≪ LLC
/// (1 MB) ≪ STU reach (4 MB) ≪ footprint ≪ FAM translation-cache
/// reach (256 MB).
pub fn table3() -> Vec<Workload> {
    vec![
        Workload {
            name: "mcf",
            suite: Suite::Spec2006,
            paper_mpki: 73,
            footprint_pages: 8192,
            hot_fraction: 0.30,
            hot_pages: 192,
            warm_fraction: 0.35,
            warm_pages: 896,
            shared_fraction: 0.0,
            shared_pages: 0,
            seq_run: 3,
            stride_pages: 1,
            dep_fraction: 0.40,
            write_fraction: 0.25,
            refs_per_kilo_instr: 170,
        },
        Workload {
            name: "cactus",
            suite: Suite::Spec2006,
            paper_mpki: 60,
            footprint_pages: 12288,
            hot_fraction: 0.10,
            hot_pages: 128,
            warm_fraction: 0.22,
            warm_pages: 896,
            shared_fraction: 0.0,
            shared_pages: 0,
            seq_run: 2,
            stride_pages: 17,
            dep_fraction: 0.10,
            write_fraction: 0.30,
            refs_per_kilo_instr: 120,
        },
        Workload {
            name: "astar",
            suite: Suite::Spec2006,
            paper_mpki: 9,
            footprint_pages: 4096,
            hot_fraction: 0.45,
            hot_pages: 128,
            warm_fraction: 0.40,
            warm_pages: 768,
            shared_fraction: 0.0,
            shared_pages: 0,
            seq_run: 6,
            stride_pages: 1,
            dep_fraction: 0.40,
            write_fraction: 0.20,
            refs_per_kilo_instr: 45,
        },
        Workload {
            name: "frqm",
            suite: Suite::Parsec,
            paper_mpki: 16,
            footprint_pages: 6144,
            hot_fraction: 0.40,
            hot_pages: 192,
            warm_fraction: 0.35,
            warm_pages: 896,
            shared_fraction: 0.0,
            shared_pages: 0,
            seq_run: 5,
            stride_pages: 1,
            dep_fraction: 0.30,
            write_fraction: 0.25,
            refs_per_kilo_instr: 60,
        },
        Workload {
            name: "canl",
            suite: Suite::Parsec,
            paper_mpki: 57,
            footprint_pages: 12288,
            hot_fraction: 0.2,
            hot_pages: 128,
            warm_fraction: 0.4,
            warm_pages: 832,
            shared_fraction: 0.0,
            shared_pages: 0,
            seq_run: 1,
            stride_pages: 1,
            dep_fraction: 0.35,
            write_fraction: 0.20,
            refs_per_kilo_instr: 75,
        },
        Workload {
            name: "bc",
            suite: Suite::Gap,
            paper_mpki: 113,
            footprint_pages: 8192,
            hot_fraction: 0.45,
            hot_pages: 224,
            warm_fraction: 0.4,
            warm_pages: 640,
            shared_fraction: 0.0,
            shared_pages: 0,
            seq_run: 2,
            stride_pages: 1,
            dep_fraction: 0.25,
            write_fraction: 0.15,
            refs_per_kilo_instr: 230,
        },
        Workload {
            name: "cc",
            suite: Suite::Gap,
            paper_mpki: 56,
            footprint_pages: 8192,
            hot_fraction: 0.30,
            hot_pages: 192,
            warm_fraction: 0.35,
            warm_pages: 640,
            shared_fraction: 0.0,
            shared_pages: 0,
            seq_run: 2,
            stride_pages: 1,
            dep_fraction: 0.35,
            write_fraction: 0.20,
            refs_per_kilo_instr: 110,
        },
        Workload {
            name: "ccsv",
            suite: Suite::Gap,
            paper_mpki: 130,
            footprint_pages: 10240,
            hot_fraction: 0.24,
            hot_pages: 128,
            warm_fraction: 0.42,
            warm_pages: 832,
            shared_fraction: 0.0,
            shared_pages: 0,
            seq_run: 1,
            stride_pages: 1,
            dep_fraction: 0.3,
            write_fraction: 0.25,
            refs_per_kilo_instr: 190,
        },
        Workload {
            name: "sssp",
            suite: Suite::Gap,
            paper_mpki: 144,
            footprint_pages: 14336,
            hot_fraction: 0.2,
            hot_pages: 128,
            warm_fraction: 0.4,
            warm_pages: 896,
            shared_fraction: 0.0,
            shared_pages: 0,
            seq_run: 1,
            stride_pages: 1,
            dep_fraction: 0.32,
            write_fraction: 0.20,
            refs_per_kilo_instr: 210,
        },
        Workload {
            name: "pf",
            suite: Suite::Mantevo,
            paper_mpki: 41,
            footprint_pages: 6144,
            hot_fraction: 0.35,
            hot_pages: 192,
            warm_fraction: 0.35,
            warm_pages: 704,
            shared_fraction: 0.0,
            shared_pages: 0,
            seq_run: 4,
            stride_pages: 1,
            dep_fraction: 0.25,
            write_fraction: 0.30,
            refs_per_kilo_instr: 95,
        },
        Workload {
            name: "dc",
            suite: Suite::Nas,
            paper_mpki: 49,
            footprint_pages: 10240,
            hot_fraction: 0.25,
            hot_pages: 160,
            warm_fraction: 0.30,
            warm_pages: 768,
            shared_fraction: 0.0,
            shared_pages: 0,
            seq_run: 2,
            stride_pages: 1,
            dep_fraction: 0.45,
            write_fraction: 0.35,
            refs_per_kilo_instr: 90,
        },
        Workload {
            name: "lu",
            suite: Suite::Nas,
            paper_mpki: 65,
            footprint_pages: 8192,
            hot_fraction: 0.15,
            hot_pages: 128,
            warm_fraction: 0.15,
            warm_pages: 512,
            shared_fraction: 0.0,
            shared_pages: 0,
            seq_run: 40,
            stride_pages: 1,
            dep_fraction: 0.05,
            write_fraction: 0.40,
            refs_per_kilo_instr: 70,
        },
        Workload {
            name: "mg",
            suite: Suite::Nas,
            paper_mpki: 99,
            footprint_pages: 10240,
            hot_fraction: 0.10,
            hot_pages: 96,
            warm_fraction: 0.10,
            warm_pages: 512,
            shared_fraction: 0.0,
            shared_pages: 0,
            seq_run: 56,
            stride_pages: 1,
            dep_fraction: 0.05,
            write_fraction: 0.35,
            refs_per_kilo_instr: 105,
        },
        Workload {
            name: "sp",
            suite: Suite::Nas,
            paper_mpki: 141,
            footprint_pages: 12288,
            hot_fraction: 0.08,
            hot_pages: 96,
            warm_fraction: 0.12,
            warm_pages: 640,
            shared_fraction: 0.0,
            shared_pages: 0,
            seq_run: 48,
            stride_pages: 1,
            dep_fraction: 0.08,
            write_fraction: 0.40,
            refs_per_kilo_instr: 150,
        },
    ]
}

impl Workload {
    /// Finds a Table III workload by its figure name.
    pub fn by_name(name: &str) -> Option<Workload> {
        table3().into_iter().find(|w| w.name == name)
    }

    /// Creates a reference generator for one rank of this workload.
    pub fn generator(&self, seed: u64) -> TraceGenerator {
        TraceGenerator::new(*self, VA_BASE, seed)
    }

    /// Footprint in bytes.
    #[cfg(test)]
    pub(crate) fn footprint_bytes(&self) -> u64 {
        self.footprint_pages * fam_vm::PAGE_BYTES
    }

    /// Mean non-memory instructions between off-core references.
    pub fn mean_gap_instrs(&self) -> u32 {
        (1000 / self.refs_per_kilo_instr).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_matches_paper_roster() {
        let names: Vec<&str> = table3().iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "mcf", "cactus", "astar", "frqm", "canl", "bc", "cc", "ccsv", "sssp", "pf", "dc",
                "lu", "mg", "sp"
            ]
        );
    }

    #[test]
    fn paper_mpki_values_match_table3() {
        let get = |n: &str| Workload::by_name(n).unwrap().paper_mpki;
        assert_eq!(get("mcf"), 73);
        assert_eq!(get("cactus"), 60);
        assert_eq!(get("astar"), 9);
        assert_eq!(get("frqm"), 16);
        assert_eq!(get("canl"), 57);
        assert_eq!(get("bc"), 113);
        assert_eq!(get("cc"), 56);
        assert_eq!(get("ccsv"), 130);
        assert_eq!(get("sssp"), 144);
        assert_eq!(get("pf"), 41);
        assert_eq!(get("dc"), 49);
        assert_eq!(get("mg"), 99);
        assert_eq!(get("sp"), 141);
    }

    #[test]
    fn all_profiles_have_sane_parameters() {
        for w in table3() {
            assert!(w.footprint_pages > 0, "{}", w.name);
            assert!(w.hot_pages <= w.footprint_pages, "{}", w.name);
            assert!(
                w.hot_pages + w.warm_pages <= w.footprint_pages,
                "{}",
                w.name
            );
            assert!((0.0..=1.0).contains(&w.hot_fraction), "{}", w.name);
            assert!(
                (0.0..=1.0).contains(&(w.hot_fraction + w.warm_fraction)),
                "{}",
                w.name
            );
            assert!((0.0..=1.0).contains(&w.dep_fraction), "{}", w.name);
            assert!((0.0..=1.0).contains(&w.write_fraction), "{}", w.name);
            assert!(w.seq_run >= 1, "{}", w.name);
            assert!(w.stride_pages >= 1, "{}", w.name);
            assert!(
                w.refs_per_kilo_instr >= 5,
                "{}: selection criterion",
                w.name
            );
        }
    }

    #[test]
    fn selection_criterion_minimum_mpki() {
        // §IV: every selected benchmark has >= 5 MPKI.
        for w in table3() {
            assert!(w.paper_mpki >= 5, "{}", w.name);
        }
    }

    #[test]
    fn by_name_unknown_is_none() {
        assert!(Workload::by_name("doom").is_none());
    }

    #[test]
    fn mean_gap_inverse_of_density() {
        let sssp = Workload::by_name("sssp").unwrap();
        assert_eq!(sssp.mean_gap_instrs(), 1000 / 210);
    }

    #[test]
    fn suite_names() {
        assert_eq!(Suite::Spec2006.name(), "SPEC");
        assert_eq!(Suite::Gap.name(), "GAP");
    }
}
