//! The three STU cache-way organisations of Fig. 8.

use fam_broker::AcmWidth;
use fam_mem::{CacheConfig, SetAssocCache};
use fam_sim::stats::Ratio;

/// Which Fig. 8 way organisation the STU cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StuOrganization {
    /// Fig. 8(a): coupled `(npa tag, FAM page, ACM)` entries.
    IFam,
    /// Fig. 8(b): way-level contiguous ACM — the 52 bits freed by
    /// decoupling translation hold the ACM of adjacent pages.
    DeactW,
    /// Fig. 8(c): non-contiguous sub-ways — independent
    /// `(44-bit tag, ACM)` pairs per way.
    DeactN,
}

/// STU cache geometry and organisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuConfig {
    /// Number of sets (paper: 128).
    pub sets: usize,
    /// Ways per set (paper: 8 — Haswell L2-TLB-like, §IV).
    pub ways: usize,
    /// Way organisation.
    pub organization: StuOrganization,
    /// ACM entry width (determines packing, Fig. 14).
    pub acm_width: AcmWidth,
    /// For [`StuOrganization::DeactN`]: tag/ACM pairs per way.
    /// `None` uses the width's natural packing (2 pairs at 8/16-bit,
    /// 1 pair at 32-bit); §V-D2's experimental 3-pair 8-bit variant
    /// passes `Some(3)`.
    pub pairs_per_way: Option<usize>,
}

impl Default for StuConfig {
    /// The paper's STU: 1024 entries as 128 sets × 8 ways, 16-bit ACM,
    /// I-FAM organisation.
    fn default() -> StuConfig {
        StuConfig {
            sets: 128,
            ways: 8,
            organization: StuOrganization::IFam,
            acm_width: AcmWidth::W16,
            pairs_per_way: None,
        }
    }
}

impl StuConfig {
    /// How many pages' ACM one DeACT-W way covers (§V-D2: 8 pages at
    /// 8-bit ACM, 4 at 16-bit, 2 at 32-bit).
    pub fn deact_w_coverage(&self) -> u64 {
        match self.acm_width {
            AcmWidth::W8 => 8,
            AcmWidth::W16 => 4,
            AcmWidth::W32 => 2,
        }
    }

    /// Tag/ACM pairs per DeACT-N way (§III-D and §V-D2): the 52+16
    /// bits of freed space fit two 44-bit-tag pairs at 8/16-bit ACM
    /// and one at 32-bit, unless overridden.
    pub(crate) fn deact_n_pairs(&self) -> usize {
        self.pairs_per_way.unwrap_or(match self.acm_width {
            AcmWidth::W8 | AcmWidth::W16 => 2,
            AcmWidth::W32 => 1,
        })
    }
}

/// The STU lookup structure, specialised by organisation.
///
/// For I-FAM the cache maps node pages to `(fam_page, )` translations
/// (ACM rides along in the same entry, so a translation hit is also an
/// ACM hit). For the DeACT organisations the cache holds ACM presence
/// keyed by FAM page — values are not stored because verification
/// always consults the broker's ACM ground truth; the cache models
/// which metadata the hardware would have resident.
#[derive(Debug, Clone)]
pub struct StuCache {
    config: StuConfig,
    /// I-FAM: npa_page → fam_page.
    translation: Option<SetAssocCache<u64>>,
    /// DeACT-W: fam_page_group → (), DeACT-N: fam_page → ().
    acm: Option<SetAssocCache<()>>,
    acm_stats: Ratio,
}

impl StuCache {
    /// Creates an empty STU cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or ways).
    pub fn new(config: StuConfig) -> StuCache {
        let (translation, acm) = match config.organization {
            StuOrganization::IFam => (
                Some(SetAssocCache::new(CacheConfig::new(
                    config.sets,
                    config.ways,
                ))),
                None,
            ),
            StuOrganization::DeactW => (
                None,
                Some(SetAssocCache::new(CacheConfig::new(
                    config.sets,
                    config.ways,
                ))),
            ),
            StuOrganization::DeactN => (
                None,
                Some(SetAssocCache::new(CacheConfig::new(
                    config.sets,
                    // Sub-ways behave like extra ways of the same set
                    // (§III-D: "matching the tags of sub-ways is
                    // similar to matching the tags of different ways").
                    config.ways * config.deact_n_pairs(),
                ))),
            ),
        };
        StuCache {
            config,
            translation,
            acm,
            acm_stats: Ratio::new(),
        }
    }

    /// I-FAM: looks up the coupled translation entry for a node page.
    /// A hit also counts as an ACM hit (the entry carries both).
    ///
    /// # Panics
    ///
    /// Panics if called on a DeACT organisation.
    pub fn ifam_lookup(&mut self, npa_page: u64) -> Option<u64> {
        let cache = self
            .translation
            .as_mut()
            .expect("ifam_lookup requires the I-FAM organisation");
        let hit = cache.get(npa_page).copied();
        self.acm_stats.record(hit.is_some());
        hit
    }

    /// I-FAM: installs a walked translation.
    ///
    /// # Panics
    ///
    /// Panics if called on a DeACT organisation.
    pub fn ifam_fill(&mut self, npa_page: u64, fam_page: u64) {
        self.translation
            .as_mut()
            .expect("ifam_fill requires the I-FAM organisation")
            .insert(npa_page, fam_page);
    }

    fn acm_key(&self, fam_page: u64) -> u64 {
        match self.config.organization {
            StuOrganization::IFam => {
                panic!("ACM-keyed access requires a DeACT organisation")
            }
            StuOrganization::DeactW => fam_page / self.config.deact_w_coverage(),
            StuOrganization::DeactN => fam_page,
        }
    }

    /// DeACT: is the ACM for `fam_page` resident?
    ///
    /// # Panics
    ///
    /// Panics if called on the I-FAM organisation.
    pub fn acm_lookup(&mut self, fam_page: u64) -> bool {
        let key = self.acm_key(fam_page);
        let hit = self
            .acm
            .as_mut()
            .expect("acm_lookup requires a DeACT organisation")
            .get(key)
            .is_some();
        self.acm_stats.record(hit);
        hit
    }

    /// DeACT: installs ACM after a metadata fetch. For DeACT-W this
    /// resident-izes the whole contiguous group the page belongs to.
    ///
    /// # Panics
    ///
    /// Panics if called on the I-FAM organisation.
    pub fn acm_fill(&mut self, fam_page: u64) {
        let key = self.acm_key(fam_page);
        self.acm
            .as_mut()
            .expect("acm_fill requires a DeACT organisation")
            .insert(key, ());
    }

    /// Invalidates everything related to `fam_page` (migration
    /// shootdown, §VI). For I-FAM, entries are keyed by node page, so
    /// the caller passes the node page instead.
    pub(crate) fn invalidate(&mut self, key_page: u64) {
        if let Some(c) = self.translation.as_mut() {
            c.invalidate(key_page);
        }
        if self.acm.is_some() {
            let key = self.acm_key(key_page);
            if let Some(c) = self.acm.as_mut() {
                c.invalidate(key);
            }
        }
    }

    /// ACM hit/miss statistics — the series plotted in Fig. 9. (For
    /// I-FAM this equals the translation hit rate, since the entry is
    /// coupled.)
    pub(crate) fn acm_stats(&self) -> Ratio {
        self.acm_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(org: StuOrganization) -> StuConfig {
        StuConfig {
            organization: org,
            ..StuConfig::default()
        }
    }

    #[test]
    fn paper_geometry() {
        let c = StuConfig::default();
        assert_eq!(c.sets * c.ways, 1024);
        assert_eq!(c.sets, 128);
        assert_eq!(c.ways, 8);
    }

    #[test]
    fn ifam_couples_translation_and_acm() {
        let mut s = StuCache::new(cfg(StuOrganization::IFam));
        assert_eq!(s.ifam_lookup(42), None);
        s.ifam_fill(42, 777);
        assert_eq!(s.ifam_lookup(42), Some(777));
        assert_eq!(s.acm_stats().hits(), 1);
        assert_eq!(s.acm_stats().misses(), 1);
    }

    #[test]
    fn deact_w_covers_contiguous_groups() {
        let mut s = StuCache::new(cfg(StuOrganization::DeactW));
        s.acm_fill(100); // group 25 covers pages 100..104
        assert!(s.acm_lookup(100));
        assert!(s.acm_lookup(101));
        assert!(s.acm_lookup(103));
        assert!(!s.acm_lookup(104), "next group not resident");
        assert!(!s.acm_lookup(99));
    }

    #[test]
    fn deact_w_coverage_scales_with_width() {
        for (w, cov) in [(AcmWidth::W8, 8), (AcmWidth::W16, 4), (AcmWidth::W32, 2)] {
            let c = StuConfig {
                organization: StuOrganization::DeactW,
                acm_width: w,
                ..StuConfig::default()
            };
            assert_eq!(c.deact_w_coverage(), cov);
        }
    }

    #[test]
    fn deact_n_holds_arbitrary_pages() {
        let mut s = StuCache::new(cfg(StuOrganization::DeactN));
        s.acm_fill(100);
        s.acm_fill(1_000_003);
        assert!(s.acm_lookup(100));
        assert!(s.acm_lookup(1_000_003));
        assert!(!s.acm_lookup(101), "no contiguity assumption");
    }

    #[test]
    fn deact_n_doubles_effective_capacity() {
        // 1 set, 1 way: W holds one group; N holds 2 arbitrary pages.
        let base = StuConfig {
            sets: 1,
            ways: 1,
            ..StuConfig::default()
        };
        let mut w = StuCache::new(StuConfig {
            organization: StuOrganization::DeactW,
            ..base
        });
        let mut n = StuCache::new(StuConfig {
            organization: StuOrganization::DeactN,
            ..base
        });
        // Two far-apart pages: W thrashes, N keeps both.
        w.acm_fill(0);
        w.acm_fill(1000);
        assert!(!w.acm_lookup(0));
        n.acm_fill(0);
        n.acm_fill(1000);
        assert!(n.acm_lookup(0));
        assert!(n.acm_lookup(1000));
    }

    #[test]
    fn deact_n_pairs_follow_width() {
        for (w, pairs) in [(AcmWidth::W8, 2), (AcmWidth::W16, 2), (AcmWidth::W32, 1)] {
            let c = StuConfig {
                organization: StuOrganization::DeactN,
                acm_width: w,
                ..StuConfig::default()
            };
            assert_eq!(c.deact_n_pairs(), pairs);
        }
        let experimental = StuConfig {
            organization: StuOrganization::DeactN,
            acm_width: AcmWidth::W8,
            pairs_per_way: Some(3),
            ..StuConfig::default()
        };
        assert_eq!(experimental.deact_n_pairs(), 3);
    }

    #[test]
    fn invalidate_removes_entries() {
        let mut s = StuCache::new(cfg(StuOrganization::DeactN));
        s.acm_fill(5);
        s.invalidate(5);
        assert!(!s.acm_lookup(5));

        let mut i = StuCache::new(cfg(StuOrganization::IFam));
        i.ifam_fill(9, 1);
        i.invalidate(9);
        assert_eq!(i.ifam_lookup(9), None);
    }

    #[test]
    #[should_panic(expected = "requires the I-FAM organisation")]
    fn ifam_api_rejected_on_deact() {
        StuCache::new(cfg(StuOrganization::DeactW)).ifam_lookup(0);
    }

    #[test]
    #[should_panic(expected = "requires a DeACT organisation")]
    fn acm_api_rejected_on_ifam() {
        StuCache::new(cfg(StuOrganization::IFam)).acm_lookup(0);
    }
}
