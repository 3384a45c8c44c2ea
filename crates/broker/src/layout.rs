//! The Fig. 5 FAM address-space layout.

use fam_vm::{FamAddr, PAGE_BYTES};

use crate::AcmWidth;

/// Bytes per 1 GB sharing region.
pub(crate) const REGION_BYTES: u64 = 1 << 30;
/// Bits in each region's sharing bitmap (Fig. 5: 64 K bits = 8 KB).
pub(crate) const BITMAP_BITS: u64 = 64 * 1024;
/// Bytes per region bitmap.
pub(crate) const BITMAP_BYTES: u64 = BITMAP_BITS / 8;

/// Which usable FAM pages are permanently off-limits after a failure.
///
/// Pages interleave page-granular across the pool's modules, so a
/// whole-module failure quarantines every `stride`-th page; a media
/// failure quarantines a contiguous page range. Membership is pure
/// arithmetic — no allocation, no lookup structure — which is what
/// lets the quarantine live inside the `Copy` [`FamLayout`] and be
/// consulted on the data path for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Quarantine {
    /// Nothing quarantined (the healthy default).
    #[default]
    None,
    /// Every page `p` with `p % stride == index`: module `index` of a
    /// `stride`-module interleaved pool is gone.
    Module {
        /// The failed module's index.
        index: usize,
        /// Number of modules pages interleave across.
        stride: usize,
    },
    /// The contiguous pages `first_page .. first_page + pages`.
    Range {
        /// First quarantined FAM page.
        first_page: u64,
        /// Number of quarantined pages.
        pages: u64,
    },
}

impl Quarantine {
    /// Whether FAM page `page` is quarantined.
    pub fn contains(&self, page: u64) -> bool {
        match *self {
            Quarantine::None => false,
            Quarantine::Module { index, stride } => page % stride as u64 == index as u64,
            Quarantine::Range { first_page, pages } => {
                page >= first_page && page < first_page + pages
            }
        }
    }
}

/// The carve-up of a FAM module's physical space (Fig. 5): a usable
/// region, followed by the per-page access-control metadata, followed
/// by the per-1 GB sharing bitmaps.
///
/// All metadata addresses are *derivable from the FAM address alone*
/// (§III-A): the STU computes `MTAdd + (fam_page × acm_bytes)` without
/// any lookup structure — the property this type encapsulates.
///
/// # Examples
///
/// ```
/// use fam_broker::{AcmWidth, FamLayout};
/// use fam_vm::FamAddr;
///
/// let layout = FamLayout::new(16 << 30, AcmWidth::W16);
/// let a = layout.acm_addr(FamAddr(0));
/// let b = layout.acm_addr(FamAddr(4096));
/// assert_eq!(b - a, 2); // 16 bits of ACM per 4 KB page
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FamLayout {
    total_bytes: u64,
    acm_width: AcmWidth,
    usable_bytes: u64,
    acm_base: u64,
    bitmap_base: u64,
    quarantine: Quarantine,
}

impl FamLayout {
    /// Lays out a FAM module of `total_bytes` with the given ACM width.
    ///
    /// # Panics
    ///
    /// Panics if `total_bytes` is not a whole number of pages or is too
    /// small to hold any usable memory plus its metadata.
    pub fn new(total_bytes: u64, acm_width: AcmWidth) -> FamLayout {
        assert_eq!(total_bytes % PAGE_BYTES, 0, "FAM size must be page-aligned");
        let acm_bytes_per_page = acm_width.bytes();
        // Solve for the largest page-aligned usable size such that
        // usable + ACM + bitmaps fits. Bitmaps: one per (possibly
        // partial) 1 GB usable region, allocated regardless of sharing
        // (§III-A: overhead < 0.0001%).
        let mut usable_pages = total_bytes / PAGE_BYTES;
        loop {
            let usable = usable_pages * PAGE_BYTES;
            let acm = usable_pages * acm_bytes_per_page;
            let regions = usable.div_ceil(REGION_BYTES);
            let bitmaps = regions * BITMAP_BYTES;
            let meta = (acm + bitmaps).next_multiple_of(PAGE_BYTES);
            if usable + meta <= total_bytes {
                let acm_base = usable;
                let bitmap_base = usable + acm;
                assert!(usable_pages > 0, "FAM too small for metadata");
                return FamLayout {
                    total_bytes,
                    acm_width,
                    usable_bytes: usable,
                    acm_base,
                    bitmap_base,
                    quarantine: Quarantine::None,
                };
            }
            usable_pages -= 1;
        }
    }

    /// Bytes available for data pages (everything below
    /// [`FamLayout::acm_base`]).
    pub fn usable_bytes(&self) -> u64 {
        self.usable_bytes
    }

    /// Number of usable data pages.
    pub fn usable_pages(&self) -> u64 {
        self.usable_bytes / PAGE_BYTES
    }

    /// Start of the ACM region (the paper's `MTAdd`).
    pub fn acm_base(&self) -> u64 {
        self.acm_base
    }

    /// Start of the sharing-bitmap region.
    pub fn bitmap_base(&self) -> u64 {
        self.bitmap_base
    }

    /// Whether `addr` falls in the usable (data) region.
    pub(crate) fn is_usable(&self, addr: FamAddr) -> bool {
        addr.0 < self.usable_bytes
    }

    /// Byte address of the ACM entry for the page containing `addr`
    /// — `MTAdd + fam_page × acm_bytes` (§III-A).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not in the usable region (metadata has no
    /// metadata).
    pub fn acm_addr(&self, addr: FamAddr) -> u64 {
        assert!(self.is_usable(addr), "no ACM for metadata addresses");
        self.acm_base + addr.page() * self.acm_width.bytes()
    }

    /// Number of pages whose ACM shares one 64-byte block with the
    /// given page — the spatial-locality constant the paper leans on
    /// (32 pages for 16-bit ACM, so one block covers a 128 KB region).
    #[cfg(test)]
    pub(crate) fn acm_pages_per_block(&self) -> u64 {
        64 / self.acm_width.bytes()
    }

    /// The 1 GB region index of a usable address.
    pub(crate) fn region_of(&self, addr: FamAddr) -> u64 {
        addr.0 / REGION_BYTES
    }

    /// Byte address of the sharing bitmap for `addr`'s 1 GB region.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not in the usable region.
    pub fn bitmap_addr(&self, addr: FamAddr) -> u64 {
        assert!(self.is_usable(addr), "no bitmap for metadata addresses");
        self.bitmap_base + self.region_of(addr) * BITMAP_BYTES
    }

    /// Metadata overhead as a fraction of total capacity.
    #[cfg(test)]
    pub(crate) fn metadata_overhead(&self) -> f64 {
        (self.total_bytes - self.usable_bytes) as f64 / self.total_bytes as f64
    }

    /// The quarantine in force.
    pub(crate) fn quarantine(&self) -> Quarantine {
        self.quarantine
    }

    /// Installs a quarantine. Recovery installs exactly one per run;
    /// installing `Quarantine::None` lifts it (tests only).
    pub(crate) fn set_quarantine(&mut self, quarantine: Quarantine) {
        self.quarantine = quarantine;
    }

    /// Whether the page containing `addr` is permanently off-limits.
    #[cfg(test)]
    pub(crate) fn is_quarantined(&self, addr: FamAddr) -> bool {
        self.quarantine.contains(addr.page())
    }

    /// Number of *usable* pages the quarantine removes from service.
    pub(crate) fn quarantined_pages(&self) -> u64 {
        let usable = self.usable_pages();
        match self.quarantine {
            Quarantine::None => 0,
            Quarantine::Module { index, stride } => {
                let (index, stride) = (index as u64, stride as u64);
                if index < usable {
                    (usable - index).div_ceil(stride)
                } else {
                    0
                }
            }
            Quarantine::Range { first_page, pages } => {
                let end = (first_page + pages).min(usable);
                end.saturating_sub(first_page.min(usable))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout16() -> FamLayout {
        FamLayout::new(16 << 30, AcmWidth::W16)
    }

    #[test]
    fn regions_are_ordered_and_disjoint() {
        let l = layout16();
        assert!(l.usable_bytes() < l.acm_base() + 1);
        assert!(l.acm_base() < l.bitmap_base());
        assert!(l.bitmap_base() < l.total_bytes);
        // Bitmaps fit inside the module.
        let regions = l.usable_bytes().div_ceil(REGION_BYTES);
        assert!(l.bitmap_base() + regions * BITMAP_BYTES <= l.total_bytes);
    }

    #[test]
    fn acm_addresses_are_dense_and_derivable() {
        let l = layout16();
        assert_eq!(l.acm_addr(FamAddr(0)), l.acm_base());
        assert_eq!(l.acm_addr(FamAddr(PAGE_BYTES)), l.acm_base() + 2);
        // Same page, any offset: same entry.
        assert_eq!(l.acm_addr(FamAddr(123)), l.acm_addr(FamAddr(0)));
    }

    #[test]
    fn one_block_covers_32_pages_at_16_bit() {
        let l = layout16();
        assert_eq!(l.acm_pages_per_block(), 32);
        let a = l.acm_addr(FamAddr(0)) / 64;
        let b = l.acm_addr(FamAddr(31 * PAGE_BYTES)) / 64;
        let c = l.acm_addr(FamAddr(32 * PAGE_BYTES)) / 64;
        assert_eq!(a, b, "pages 0..31 share a block");
        assert_ne!(a, c, "page 32 starts the next block");
    }

    #[test]
    fn width_changes_density() {
        let l8 = FamLayout::new(16 << 30, AcmWidth::W8);
        let l32 = FamLayout::new(16 << 30, AcmWidth::W32);
        assert_eq!(l8.acm_pages_per_block(), 64);
        assert_eq!(l32.acm_pages_per_block(), 16);
        assert!(l8.usable_bytes() > l32.usable_bytes());
    }

    #[test]
    fn bitmap_per_region() {
        let l = layout16();
        assert_eq!(l.bitmap_addr(FamAddr(0)), l.bitmap_base());
        assert_eq!(
            l.bitmap_addr(FamAddr(REGION_BYTES)),
            l.bitmap_base() + BITMAP_BYTES
        );
        assert_eq!(l.region_of(FamAddr(REGION_BYTES - 1)), 0);
        assert_eq!(l.region_of(FamAddr(REGION_BYTES)), 1);
    }

    #[test]
    fn overhead_is_negligible() {
        let l = layout16();
        assert!(
            l.metadata_overhead() < 0.002,
            "got {}",
            l.metadata_overhead()
        );
        assert!(l.metadata_overhead() > 0.0);
    }

    #[test]
    #[should_panic(expected = "no ACM for metadata addresses")]
    fn metadata_has_no_metadata() {
        let l = layout16();
        l.acm_addr(FamAddr(l.acm_base()));
    }

    #[test]
    fn small_module_still_lays_out() {
        let l = FamLayout::new(8 << 20, AcmWidth::W16);
        assert!(l.usable_pages() > 0);
        assert!(l.usable_bytes() < l.total_bytes);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_size_rejected() {
        let _ = FamLayout::new((16 << 30) + 1, AcmWidth::W16);
    }

    #[test]
    fn quarantine_membership_is_arithmetic() {
        let module = Quarantine::Module {
            index: 2,
            stride: 4,
        };
        assert!(module.contains(2));
        assert!(module.contains(6));
        assert!(!module.contains(3));
        let range = Quarantine::Range {
            first_page: 10,
            pages: 5,
        };
        assert!(range.contains(10));
        assert!(range.contains(14));
        assert!(!range.contains(15));
        assert!(!Quarantine::None.contains(0));
    }

    #[test]
    fn layout_quarantine_counts_usable_pages_only() {
        let mut l = layout16();
        assert_eq!(l.quarantined_pages(), 0);
        assert!(!l.is_quarantined(FamAddr(0)));
        l.set_quarantine(Quarantine::Module {
            index: 1,
            stride: 4,
        });
        let usable = l.usable_pages();
        assert_eq!(l.quarantined_pages(), (usable - 1).div_ceil(4));
        assert!(l.is_quarantined(FamAddr(PAGE_BYTES)));
        assert!(!l.is_quarantined(FamAddr(0)));
        // A range clipped by the end of the usable region.
        l.set_quarantine(Quarantine::Range {
            first_page: usable - 3,
            pages: 100,
        });
        assert_eq!(l.quarantined_pages(), 3);
    }
}
