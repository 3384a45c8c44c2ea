//! The paper's reported values, for side-by-side comparison.
//!
//! Values marked *text* are quoted exactly from the paper's prose;
//! the rest are digitized from the figures and are approximate (the
//! figures have no data tables). Where a bar is unreadable we carry
//! our best estimate and mark the whole series approximate.

/// Paper values for one benchmark.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PaperRow {
    /// Benchmark name.
    pub(crate) name: &'static str,
    /// Fig. 3: slowdown of I-FAM wrt E-FAM (text gives 11.6 / 18.7 /
    /// 9.1 / 20.6 for cactus / canl / ccsv / sssp).
    pub(crate) fig3_ifam_slowdown: f64,
    /// Fig. 4: % AT requests at FAM under E-FAM (text: canl 44.36,
    /// cactus 1.81).
    pub(crate) fig4_efam_at_pct: f64,
    /// Fig. 4: % AT requests at FAM under I-FAM (text: canl 84.13,
    /// cactus 53.69).
    pub(crate) fig4_ifam_at_pct: f64,
    /// Fig. 9: ACM hit % in I-FAM (≈ digitized).
    pub(crate) fig9_ifam: f64,
    /// Fig. 9: ACM hit % in DeACT-W.
    pub(crate) fig9_w: f64,
    /// Fig. 9: ACM hit % in DeACT-N (text: cactus ≈76).
    pub(crate) fig9_n: f64,
    /// Fig. 10: FAM AT hit % in I-FAM (text: canl 46.44).
    pub(crate) fig10_ifam: f64,
    /// Fig. 10: FAM AT hit % in DeACT (text: canl 95.88).
    pub(crate) fig10_deact: f64,
    /// Fig. 12: normalized performance wrt E-FAM (text: mcf I-FAM
    /// 0.39, DeACT-W 0.70, DeACT-N 0.92; canl DeACT-N 0.14).
    pub(crate) fig12_ifam: f64,
    /// Fig. 12: DeACT-W normalized performance.
    pub(crate) fig12_w: f64,
    /// Fig. 12: DeACT-N normalized performance.
    pub(crate) fig12_n: f64,
}

/// Per-benchmark paper values (rows in Table III order).
pub(crate) fn rows() -> Vec<PaperRow> {
    vec![
        PaperRow {
            name: "mcf",
            fig3_ifam_slowdown: 2.5,
            fig4_efam_at_pct: 12.0,
            fig4_ifam_at_pct: 40.0,
            fig9_ifam: 82.0,
            fig9_w: 88.0,
            fig9_n: 97.0,
            fig10_ifam: 75.0,
            fig10_deact: 94.0,
            fig12_ifam: 0.39,
            fig12_w: 0.70,
            fig12_n: 0.92,
        },
        PaperRow {
            name: "cactus",
            fig3_ifam_slowdown: 11.6,
            fig4_efam_at_pct: 1.81,
            fig4_ifam_at_pct: 53.69,
            fig9_ifam: 52.0,
            fig9_w: 55.0,
            fig9_n: 76.0,
            fig10_ifam: 55.0,
            fig10_deact: 92.0,
            fig12_ifam: 0.09,
            fig12_w: 0.25,
            fig12_n: 0.41,
        },
        PaperRow {
            name: "astar",
            fig3_ifam_slowdown: 1.5,
            fig4_efam_at_pct: 8.0,
            fig4_ifam_at_pct: 30.0,
            fig9_ifam: 92.0,
            fig9_w: 94.0,
            fig9_n: 99.0,
            fig10_ifam: 93.0,
            fig10_deact: 97.0,
            fig12_ifam: 0.67,
            fig12_w: 0.78,
            fig12_n: 0.88,
        },
        PaperRow {
            name: "frqm",
            fig3_ifam_slowdown: 2.0,
            fig4_efam_at_pct: 10.0,
            fig4_ifam_at_pct: 38.0,
            fig9_ifam: 90.0,
            fig9_w: 92.0,
            fig9_n: 98.0,
            fig10_ifam: 88.0,
            fig10_deact: 96.0,
            fig12_ifam: 0.50,
            fig12_w: 0.72,
            fig12_n: 0.85,
        },
        PaperRow {
            name: "canl",
            fig3_ifam_slowdown: 18.7,
            fig4_efam_at_pct: 44.36,
            fig4_ifam_at_pct: 84.13,
            fig9_ifam: 48.0,
            fig9_w: 50.0,
            fig9_n: 72.0,
            fig10_ifam: 46.44,
            fig10_deact: 95.88,
            fig12_ifam: 0.05,
            fig12_w: 0.11,
            fig12_n: 0.14,
        },
        PaperRow {
            name: "bc",
            fig3_ifam_slowdown: 2.2,
            fig4_efam_at_pct: 10.0,
            fig4_ifam_at_pct: 35.0,
            fig9_ifam: 88.0,
            fig9_w: 90.0,
            fig9_n: 98.0,
            fig10_ifam: 85.0,
            fig10_deact: 95.0,
            fig12_ifam: 0.45,
            fig12_w: 0.60,
            fig12_n: 0.72,
        },
        PaperRow {
            name: "cc",
            fig3_ifam_slowdown: 2.8,
            fig4_efam_at_pct: 12.0,
            fig4_ifam_at_pct: 42.0,
            fig9_ifam: 85.0,
            fig9_w: 88.0,
            fig9_n: 97.0,
            fig10_ifam: 80.0,
            fig10_deact: 94.0,
            fig12_ifam: 0.38,
            fig12_w: 0.58,
            fig12_n: 0.70,
        },
        PaperRow {
            name: "ccsv",
            fig3_ifam_slowdown: 9.1,
            fig4_efam_at_pct: 25.0,
            fig4_ifam_at_pct: 70.0,
            fig9_ifam: 60.0,
            fig9_w: 62.0,
            fig9_n: 80.0,
            fig10_ifam: 60.0,
            fig10_deact: 93.0,
            fig12_ifam: 0.11,
            fig12_w: 0.22,
            fig12_n: 0.30,
        },
        PaperRow {
            name: "sssp",
            fig3_ifam_slowdown: 20.6,
            fig4_efam_at_pct: 30.0,
            fig4_ifam_at_pct: 80.0,
            fig9_ifam: 55.0,
            fig9_w: 57.0,
            fig9_n: 75.0,
            fig10_ifam: 50.0,
            fig10_deact: 93.0,
            fig12_ifam: 0.05,
            fig12_w: 0.10,
            fig12_n: 0.13,
        },
        PaperRow {
            name: "pf",
            fig3_ifam_slowdown: 2.6,
            fig4_efam_at_pct: 9.0,
            fig4_ifam_at_pct: 36.0,
            fig9_ifam: 87.0,
            fig9_w: 90.0,
            fig9_n: 98.0,
            fig10_ifam: 85.0,
            fig10_deact: 95.0,
            fig12_ifam: 0.38,
            fig12_w: 0.62,
            fig12_n: 0.75,
        },
        PaperRow {
            name: "dc",
            fig3_ifam_slowdown: 3.0,
            fig4_efam_at_pct: 14.0,
            fig4_ifam_at_pct: 45.0,
            fig9_ifam: 80.0,
            fig9_w: 84.0,
            fig9_n: 95.0,
            fig10_ifam: 75.0,
            fig10_deact: 93.0,
            fig12_ifam: 0.33,
            fig12_w: 0.55,
            fig12_n: 0.68,
        },
        PaperRow {
            name: "lu",
            fig3_ifam_slowdown: 1.4,
            fig4_efam_at_pct: 4.0,
            fig4_ifam_at_pct: 18.0,
            fig9_ifam: 96.0,
            fig9_w: 97.0,
            fig9_n: 99.0,
            fig10_ifam: 96.0,
            fig10_deact: 97.0,
            fig12_ifam: 0.72,
            fig12_w: 0.74,
            fig12_n: 0.78,
        },
        PaperRow {
            name: "mg",
            fig3_ifam_slowdown: 1.5,
            fig4_efam_at_pct: 3.0,
            fig4_ifam_at_pct: 15.0,
            fig9_ifam: 97.0,
            fig9_w: 97.0,
            fig9_n: 99.0,
            fig10_ifam: 97.0,
            fig10_deact: 98.0,
            fig12_ifam: 0.70,
            fig12_w: 0.70,
            fig12_n: 0.73,
        },
        PaperRow {
            name: "sp",
            fig3_ifam_slowdown: 1.6,
            fig4_efam_at_pct: 4.0,
            fig4_ifam_at_pct: 17.0,
            fig9_ifam: 96.0,
            fig9_w: 96.0,
            fig9_n: 99.0,
            fig10_ifam: 96.0,
            fig10_deact: 97.0,
            fig12_ifam: 0.68,
            fig12_w: 0.68,
            fig12_n: 0.71,
        },
    ]
}

/// Paper value for one benchmark, if listed.
pub(crate) fn row(name: &str) -> Option<PaperRow> {
    rows().into_iter().find(|r| r.name == name)
}

/// Fig. 11 averages quoted in the text: AT requests at FAM fall from
/// 23.97% (I-FAM) to 11.82% (DeACT-W) to 1.77% (DeACT-N).
pub(crate) const FIG11_AVERAGES: (f64, f64, f64) = (23.97, 11.82, 1.77);

/// §V-C text: average performance drop wrt E-FAM is 69.7% for I-FAM
/// and 35.3% for DeACT (i.e. normalized performance 0.303 vs 0.647),
/// an 80% improvement; headline speedup up to 4.59x, 1.8x on average.
pub(crate) const FIG12_AVG_IFAM: f64 = 0.303;
/// See [`FIG12_AVG_IFAM`].
pub(crate) const FIG12_AVG_DEACT: f64 = 0.647;
/// Headline: maximum DeACT speedup over I-FAM.
pub(crate) const HEADLINE_MAX_SPEEDUP: f64 = 4.59;
/// Headline: average DeACT speedup over I-FAM.
pub(crate) const HEADLINE_AVG_SPEEDUP: f64 = 1.8;

/// Fig. 13 text points: dc speedup 4.68x at 256 STU entries; PARSEC
/// geomean falls 3.45x → 1.75x from 256 to 4096 entries.
pub(crate) const FIG13_TEXT: &str = "paper: dc 4.68x @256; PARSEC 3.45x @256 -> 1.75x @4096";

/// §V-D1 associativity text points.
pub(crate) const ASSOC_TEXT: &str =
    "paper: dc 3.26x @4-way, 2.66x @32-way, 2.5x @>32; PARSEC 2.18x / 1.83x / 1.81x";

/// §V-D2 text: SPEC improves 2.62x / 2.52x / 1.85x as DeACT-N holds
/// one / two / three tag+ACM pairs per way (8-bit ACM experiment).
pub(crate) const FIG14_TEXT: &str =
    "paper: SPEC speedup 2.62x / 2.52x / 1.85x for 1 / 2 / 3 pairs per way; DeACT-W flat across 8/16/32-bit ACM";

/// §V-D3 text points for the fabric-latency sweep.
pub(crate) const FIG15_TEXT: &str = "paper: >=1.79x even at 100 ns; up to 3.3x for pf at 6 us";

/// §V-D4 text points for the node-count sweep.
pub(crate) const FIG16_TEXT: &str = "paper: dc 2.92x @1 node -> 3.26x @8 nodes";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_table3_roster() {
        let names: Vec<&str> = rows().iter().map(|r| r.name).collect();
        assert_eq!(names.len(), 14);
        assert!(names.contains(&"sssp"));
    }

    #[test]
    fn text_quoted_values_are_exact() {
        let canl = row("canl").unwrap();
        assert_eq!(canl.fig3_ifam_slowdown, 18.7);
        assert_eq!(canl.fig4_efam_at_pct, 44.36);
        assert_eq!(canl.fig4_ifam_at_pct, 84.13);
        assert_eq!(canl.fig10_ifam, 46.44);
        assert_eq!(canl.fig10_deact, 95.88);
        let sssp = row("sssp").unwrap();
        assert_eq!(sssp.fig3_ifam_slowdown, 20.6);
        let mcf = row("mcf").unwrap();
        assert_eq!(mcf.fig12_ifam, 0.39);
        assert_eq!(mcf.fig12_n, 0.92);
    }

    #[test]
    fn unknown_benchmark_has_no_row() {
        assert!(row("doom").is_none());
    }
}
