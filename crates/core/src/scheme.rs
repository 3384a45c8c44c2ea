//! The virtual-memory schemes compared in the paper.

use std::fmt;

use fam_stu::StuOrganization;

/// A FAM virtual-memory scheme (Table I and Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Exposed FAM: nodes see raw FAM addresses; fast but insecure and
    /// needs OS changes (Fig. 2a).
    EFam,
    /// Indirect FAM: two-level translation entirely at the STU; secure
    /// and transparent but slow (Fig. 2b).
    IFam,
    /// DeACT with way-level contiguous ACM caching (Fig. 8b).
    DeactW,
    /// DeACT with non-contiguous sub-way ACM caching (Fig. 8c).
    DeactN,
}

impl Scheme {
    /// All schemes, in the order the paper's figures plot them.
    pub const ALL: [Scheme; 4] = [Scheme::EFam, Scheme::IFam, Scheme::DeactW, Scheme::DeactN];

    /// Short name as used in figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::EFam => "E-FAM",
            Scheme::IFam => "I-FAM",
            Scheme::DeactW => "DeACT-W",
            Scheme::DeactN => "DeACT-N",
        }
    }

    /// Whether the scheme is one of the two DeACT variants.
    pub(crate) fn is_deact(self) -> bool {
        matches!(self, Scheme::DeactW | Scheme::DeactN)
    }

    /// Table I, "Security": whether system-level access control vets
    /// every FAM access off-node.
    pub fn is_secure(self) -> bool {
        !matches!(self, Scheme::EFam)
    }

    /// Table I, "Avoid OS Changes": whether nodes run unmodified OSes.
    pub fn avoids_os_changes(self) -> bool {
        !matches!(self, Scheme::EFam)
    }

    /// Table I, "Performance": whether translation overheads stay near
    /// native (the paper's ✓/✗ column).
    pub fn has_good_performance(self) -> bool {
        !matches!(self, Scheme::IFam)
    }

    /// The STU cache organisation the scheme uses. `None` for E-FAM,
    /// which has no STU at all.
    pub(crate) fn stu_organization(self) -> Option<StuOrganization> {
        match self {
            Scheme::EFam => None,
            Scheme::IFam => Some(StuOrganization::IFam),
            Scheme::DeactW => Some(StuOrganization::DeactW),
            Scheme::DeactN => Some(StuOrganization::DeactN),
        }
    }

    /// Whether the node memory controller hosts a FAM translator with
    /// an in-DRAM translation cache (Fig. 6).
    pub fn has_fam_translator(self) -> bool {
        self.is_deact()
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows() {
        // Table I verbatim.
        assert!(Scheme::EFam.has_good_performance());
        assert!(!Scheme::EFam.avoids_os_changes());
        assert!(!Scheme::EFam.is_secure());

        assert!(!Scheme::IFam.has_good_performance());
        assert!(Scheme::IFam.avoids_os_changes());
        assert!(Scheme::IFam.is_secure());

        for deact in [Scheme::DeactW, Scheme::DeactN] {
            assert!(deact.has_good_performance());
            assert!(deact.avoids_os_changes());
            assert!(deact.is_secure());
        }
    }

    #[test]
    fn stu_organizations_line_up() {
        assert_eq!(Scheme::EFam.stu_organization(), None);
        assert_eq!(Scheme::IFam.stu_organization(), Some(StuOrganization::IFam));
        assert_eq!(
            Scheme::DeactW.stu_organization(),
            Some(StuOrganization::DeactW)
        );
        assert_eq!(
            Scheme::DeactN.stu_organization(),
            Some(StuOrganization::DeactN)
        );
    }

    #[test]
    fn only_deact_has_translator() {
        assert!(!Scheme::EFam.has_fam_translator());
        assert!(!Scheme::IFam.has_fam_translator());
        assert!(Scheme::DeactW.has_fam_translator());
        assert!(Scheme::DeactN.has_fam_translator());
    }

    #[test]
    fn names_and_order() {
        let names: Vec<&str> = Scheme::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["E-FAM", "I-FAM", "DeACT-W", "DeACT-N"]);
        assert_eq!(Scheme::DeactN.to_string(), "DeACT-N");
    }
}
