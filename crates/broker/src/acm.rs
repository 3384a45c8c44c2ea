//! Access-control metadata: the bit-level entry encoding and the
//! functional store the broker maintains in FAM.

use std::collections::HashMap;

use fam_sim::hash::FastHash;

use fam_vm::{NodeId, PtFlags, PAGE_BYTES};

use crate::layout::REGION_BYTES;

/// The kind of access being vetted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
    /// An instruction fetch.
    Execute,
}

/// Width of a per-page ACM entry. The paper's default is 16 bits
/// (14-bit node id + 2 permission bits, Fig. 5); §V-D2 sweeps 8 and 32
/// bits, trading the number of supportable nodes against metadata
/// density.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AcmWidth {
    /// 8-bit entries: 6-bit node id (63 nodes, ids 0–62 below the
    /// shared marker 0x3F), ACM of 64 pages per 64-byte block.
    W8,
    /// 16-bit entries: 14-bit node id (16383 nodes), 32 pages/block.
    #[default]
    W16,
    /// 32-bit entries: 30-bit node id, 16 pages/block.
    W32,
}

impl AcmWidth {
    /// Entry size in bytes.
    pub(crate) fn bytes(self) -> u64 {
        match self {
            AcmWidth::W8 => 1,
            AcmWidth::W16 => 2,
            AcmWidth::W32 => 4,
        }
    }

    /// Entry size in bits.
    pub fn bits(self) -> u32 {
        self.bytes() as u32 * 8
    }

    /// Bits of the entry that hold the node id (the rest hold
    /// permissions).
    pub(crate) fn node_bits(self) -> u32 {
        self.bits() - 2
    }

    /// The all-ones node-id pattern marking a shared page at this
    /// width.
    pub(crate) fn shared_marker(self) -> u32 {
        (1 << self.node_bits()) - 1
    }

    /// Highest assignable node id (one below the shared marker).
    pub fn max_nodes(self) -> u32 {
        self.shared_marker() - 1
    }
}

/// Two-bit permission encoding used in ACM entries. Three permissions
/// must fit in two bits (Fig. 5), so the encoding enumerates the four
/// useful combinations.
fn perms_encode(flags: PtFlags) -> u32 {
    match (flags.writable(), flags.executable()) {
        (false, false) => 0b00, // R
        (true, false) => 0b01,  // RW
        (false, true) => 0b10,  // RX
        (true, true) => 0b11,   // RWX
    }
}

fn perms_decode(bits: u32) -> PtFlags {
    match bits & 0b11 {
        0b00 => PtFlags::ro(),
        0b01 => PtFlags::rw(),
        0b10 => PtFlags::rx(),
        _ => PtFlags::rwx(),
    }
}

/// One page's access-control metadata entry: `[node-id bits | 2
/// permission bits]`.
///
/// # Examples
///
/// ```
/// use fam_broker::{AcmEntry, AcmWidth};
/// use fam_vm::{NodeId, PtFlags};
///
/// let e = AcmEntry::owned(AcmWidth::W16, NodeId::new(7), PtFlags::rw());
/// assert_eq!(e.owner(), Some(NodeId::new(7)));
/// assert!(!e.is_shared());
/// assert!(e.flags().writable());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcmEntry {
    raw: u32,
    width: AcmWidth,
}

impl AcmEntry {
    /// An entry owned by `node` with the given permissions.
    ///
    /// # Panics
    ///
    /// Panics if the node id does not fit in the width's node field.
    pub fn owned(width: AcmWidth, node: NodeId, flags: PtFlags) -> AcmEntry {
        let id = node.raw() as u32;
        assert!(
            id < width.shared_marker(),
            "node id {id} does not fit in {}-bit ACM",
            width.bits()
        );
        AcmEntry {
            raw: (id << 2) | perms_encode(flags),
            width,
        }
    }

    /// A shared-page entry (node field all ones) with the default
    /// permissions granted to nodes not singled out in the bitmap.
    pub(crate) fn shared(width: AcmWidth, flags: PtFlags) -> AcmEntry {
        AcmEntry {
            raw: (width.shared_marker() << 2) | perms_encode(flags),
            width,
        }
    }

    /// Parses a raw entry value at a given width, masking off any bits
    /// beyond the entry.
    pub fn from_raw(width: AcmWidth, raw: u32) -> AcmEntry {
        let mask = if width.bits() == 32 {
            u32::MAX
        } else {
            (1u32 << width.bits()) - 1
        };
        AcmEntry {
            raw: raw & mask,
            width,
        }
    }

    /// The raw bit pattern.
    pub fn raw(self) -> u32 {
        self.raw
    }

    /// Whether the node field holds the shared marker.
    pub fn is_shared(self) -> bool {
        (self.raw >> 2) == self.width.shared_marker()
    }

    /// The owning node, or `None` for shared pages.
    pub fn owner(self) -> Option<NodeId> {
        if self.is_shared() {
            None
        } else {
            Some(NodeId::new((self.raw >> 2) as u16))
        }
    }

    /// The permission bits.
    pub fn flags(self) -> PtFlags {
        perms_decode(self.raw)
    }

    /// Whether `kind` is allowed under these permissions.
    pub(crate) fn permits(self, kind: AccessKind) -> bool {
        let f = self.flags();
        match kind {
            AccessKind::Read => f.readable(),
            AccessKind::Write => f.writable(),
            AccessKind::Execute => f.executable(),
        }
    }
}

/// Per-node permissions packed into a 1 GB region's sharing bitmap.
///
/// Fig. 5 gives each 1 GB region a 64 K-bit bitmap. With up to 16 K
/// nodes this affords 4 bits per node, which we spend as
/// `[allowed, read, write, execute]` so subsets of nodes can hold
/// *mixed* permissions on the same shared page (§III-A).
#[derive(Debug, Clone, Default)]
struct RegionBitmap {
    /// 4 bits per node, indexed by node id.
    nibbles: HashMap<u16, u8, FastHash>,
}

impl RegionBitmap {
    fn grant(&mut self, node: NodeId, flags: PtFlags) {
        let mut bits = 0b0001u8; // allowed
        if flags.readable() {
            bits |= 0b0010;
        }
        if flags.writable() {
            bits |= 0b0100;
        }
        if flags.executable() {
            bits |= 0b1000;
        }
        self.nibbles.insert(node.raw(), bits);
    }

    fn permits(&self, node: NodeId, kind: AccessKind) -> bool {
        let Some(&bits) = self.nibbles.get(&node.raw()) else {
            return false;
        };
        if bits & 0b0001 == 0 {
            return false;
        }
        match kind {
            AccessKind::Read => bits & 0b0010 != 0,
            AccessKind::Write => bits & 0b0100 != 0,
            AccessKind::Execute => bits & 0b1000 != 0,
        }
    }
}

/// FAM pages per 1 GB region: the span of one dense ACM array.
const REGION_PAGES: u64 = REGION_BYTES / PAGE_BYTES;

/// A region's raw entries, each stored at the store's entry width.
#[derive(Debug, Clone)]
enum RawEntries {
    W8(Box<[u8]>),
    W16(Box<[u16]>),
    W32(Box<[u32]>),
}

impl RawEntries {
    fn new(width: AcmWidth) -> RawEntries {
        let n = REGION_PAGES as usize;
        match width {
            AcmWidth::W8 => RawEntries::W8(vec![0; n].into_boxed_slice()),
            AcmWidth::W16 => RawEntries::W16(vec![0; n].into_boxed_slice()),
            AcmWidth::W32 => RawEntries::W32(vec![0; n].into_boxed_slice()),
        }
    }

    fn get(&self, i: usize) -> u32 {
        match self {
            RawEntries::W8(raw) => raw[i].into(),
            RawEntries::W16(raw) => raw[i].into(),
            RawEntries::W32(raw) => raw[i],
        }
    }

    /// Stores `value`, which [`AcmEntry`] has already masked to the
    /// width, so the narrowing casts drop only zero bits.
    fn set(&mut self, i: usize, value: u32) {
        match self {
            RawEntries::W8(raw) => raw[i] = value as u8,
            RawEntries::W16(raw) => raw[i] = value as u16,
            RawEntries::W32(raw) => raw[i] = value,
        }
    }

    /// Bytes of entry storage.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        match self {
            RawEntries::W8(raw) => std::mem::size_of_val(&**raw),
            RawEntries::W16(raw) => std::mem::size_of_val(&**raw),
            RawEntries::W32(raw) => std::mem::size_of_val(&**raw),
        }
    }
}

/// One 1 GB region's slice of Fig. 5's flat per-page ACM array: every
/// page's raw entry at the entry width, plus a presence bit per page,
/// because a raw 0 is a valid entry (node 0, read-only) and the
/// all-ones pattern is a valid shared entry at every width.
#[derive(Debug, Clone)]
struct RegionAcm {
    raw: RawEntries,
    present: Box<[u64]>,
}

impl RegionAcm {
    fn new(width: AcmWidth) -> RegionAcm {
        RegionAcm {
            raw: RawEntries::new(width),
            present: vec![0; REGION_PAGES.div_ceil(64) as usize].into_boxed_slice(),
        }
    }

    fn is_present(&self, i: usize) -> bool {
        self.present[i / 64] >> (i % 64) & 1 != 0
    }
}

/// The functional ACM store: what the broker has written into the FAM
/// metadata region. The STU consults this for ground truth; its own
/// cache organisations only affect *timing*.
///
/// Entries live as the hardware lays them out — a flat per-page array
/// (Fig. 5) of 8-, 16- or 32-bit entries — with one array per 1 GB
/// region, allocated when the broker first writes a page of that
/// region.
///
/// # Examples
///
/// ```
/// use fam_broker::{BrokerConfig, MemoryBroker};
///
/// let mut broker = MemoryBroker::new(BrokerConfig::default());
/// let node = broker.register_node().unwrap();
/// let fam_page = broker.demand_map(node, 0x100).unwrap();
/// let entry = broker.acm().entry(fam_page).expect("a demand map writes the ACM");
/// assert_eq!(entry.owner(), Some(node));
/// assert!(entry.flags().writable());
/// ```
#[derive(Debug, Clone)]
pub struct AcmStore {
    width: AcmWidth,
    /// Indexed by region; `None` until the region's first write.
    regions: Vec<Option<RegionAcm>>,
    /// Pages with an entry.
    pages: usize,
    bitmaps: HashMap<u64, RegionBitmap, FastHash>,
}

impl AcmStore {
    /// Creates an empty store at the given entry width.
    pub(crate) fn new(width: AcmWidth) -> AcmStore {
        AcmStore {
            width,
            regions: Vec::new(),
            pages: 0,
            bitmaps: HashMap::default(),
        }
    }

    /// Writes `fam_page`'s entry, allocating its region's array on
    /// first use.
    fn set(&mut self, fam_page: u64, entry: AcmEntry) {
        let region = (fam_page / REGION_PAGES) as usize;
        if region >= self.regions.len() {
            self.regions.resize_with(region + 1, || None);
        }
        let width = self.width;
        let r = self.regions[region].get_or_insert_with(|| RegionAcm::new(width));
        let i = (fam_page % REGION_PAGES) as usize;
        if !r.is_present(i) {
            r.present[i / 64] |= 1 << (i % 64);
            self.pages += 1;
        }
        r.raw.set(i, entry.raw);
    }

    /// Marks `fam_page` as owned by `node` with `flags`.
    pub(crate) fn set_owner(&mut self, fam_page: u64, node: NodeId, flags: PtFlags) {
        self.set(fam_page, AcmEntry::owned(self.width, node, flags));
    }

    /// Marks `fam_page` as shared with `default_flags` for bitmap-
    /// granted nodes; actual per-node rights come from the region
    /// bitmap (use [`AcmStore::grant_shared`]).
    pub(crate) fn set_shared(&mut self, fam_page: u64, default_flags: PtFlags) {
        self.set(fam_page, AcmEntry::shared(self.width, default_flags));
    }

    /// Grants `node` the given rights on every shared page in `region`.
    pub(crate) fn grant_shared(&mut self, region: u64, node: NodeId, flags: PtFlags) {
        self.bitmaps.entry(region).or_default().grant(node, flags);
    }

    /// Clears a page's metadata entirely (page freed).
    pub(crate) fn clear(&mut self, fam_page: u64) {
        let region = (fam_page / REGION_PAGES) as usize;
        if let Some(Some(r)) = self.regions.get_mut(region) {
            let i = (fam_page % REGION_PAGES) as usize;
            if r.is_present(i) {
                r.present[i / 64] &= !(1 << (i % 64));
                self.pages -= 1;
            }
        }
    }

    /// The entry for `fam_page`, if the page is allocated.
    pub fn entry(&self, fam_page: u64) -> Option<AcmEntry> {
        let r = self
            .regions
            .get(usize::try_from(fam_page / REGION_PAGES).ok()?)?
            .as_ref()?;
        let i = (fam_page % REGION_PAGES) as usize;
        r.is_present(i).then(|| AcmEntry {
            raw: r.raw.get(i),
            width: self.width,
        })
    }

    /// Vets an access by `node` of kind `kind` to `fam_page` in
    /// `region` — the STU's verification decision (§III-D): compare
    /// the owner id, or for shared pages consult the region bitmap.
    pub(crate) fn check(&self, fam_page: u64, region: u64, node: NodeId, kind: AccessKind) -> bool {
        let Some(entry) = self.entry(fam_page) else {
            return false; // unallocated pages are inaccessible
        };
        if entry.is_shared() {
            match self.bitmaps.get(&region) {
                Some(bitmap) => bitmap.permits(node, kind),
                None => false,
            }
        } else {
            entry.owner() == Some(node) && entry.permits(kind)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_bit_accounting_matches_paper() {
        // §V-D2: 16-bit -> 16383 nodes (ids 0..=16382 below the
        // 0x3FFF marker). The same arithmetic gives 8-bit entries 63
        // nodes (ids 0..=62 below 0x3F).
        assert_eq!(AcmWidth::W16.node_bits(), 14);
        assert_eq!(AcmWidth::W16.shared_marker(), 0x3FFF);
        assert_eq!(AcmWidth::W16.max_nodes(), 16382);
        assert_eq!(AcmWidth::W8.node_bits(), 6);
        assert_eq!(AcmWidth::W8.max_nodes(), 62);
        assert_eq!(AcmWidth::W32.node_bits(), 30);
    }

    #[test]
    fn owned_entry_roundtrip() {
        let e = AcmEntry::owned(AcmWidth::W16, NodeId::new(123), PtFlags::rx());
        assert_eq!(e.owner(), Some(NodeId::new(123)));
        assert!(e.permits(AccessKind::Read));
        assert!(e.permits(AccessKind::Execute));
        assert!(!e.permits(AccessKind::Write));
    }

    #[test]
    fn shared_entry_has_all_ones_node_field() {
        let e = AcmEntry::shared(AcmWidth::W16, PtFlags::ro());
        assert!(e.is_shared());
        assert_eq!(e.owner(), None);
        // Fig. 5 / §III-A: a shared R/X page's full field is 0xfffd;
        // our RW-encoding for a read-only shared page is 0xfffc.
        assert_eq!(e.raw(), 0xFFFC);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn narrow_width_rejects_large_node_id() {
        let _ = AcmEntry::owned(AcmWidth::W8, NodeId::new(100), PtFlags::ro());
    }

    #[test]
    fn store_owner_check() {
        let mut s = AcmStore::new(AcmWidth::W16);
        s.set_owner(10, NodeId::new(1), PtFlags::rw());
        assert!(s.check(10, 0, NodeId::new(1), AccessKind::Read));
        assert!(s.check(10, 0, NodeId::new(1), AccessKind::Write));
        assert!(!s.check(10, 0, NodeId::new(1), AccessKind::Execute));
        assert!(!s.check(10, 0, NodeId::new(2), AccessKind::Read));
    }

    #[test]
    fn unallocated_pages_are_denied() {
        let s = AcmStore::new(AcmWidth::W16);
        assert!(!s.check(99, 0, NodeId::new(0), AccessKind::Read));
    }

    #[test]
    fn shared_pages_use_region_bitmap() {
        let mut s = AcmStore::new(AcmWidth::W16);
        s.set_shared(10, PtFlags::ro());
        s.grant_shared(0, NodeId::new(1), PtFlags::rw());
        s.grant_shared(0, NodeId::new(2), PtFlags::ro());
        // Mixed permissions on the same shared page (§III-A).
        assert!(s.check(10, 0, NodeId::new(1), AccessKind::Write));
        assert!(s.check(10, 0, NodeId::new(2), AccessKind::Read));
        assert!(!s.check(10, 0, NodeId::new(2), AccessKind::Write));
        assert!(!s.check(10, 0, NodeId::new(3), AccessKind::Read));
    }

    #[test]
    fn clear_frees_page() {
        let mut s = AcmStore::new(AcmWidth::W16);
        s.set_owner(10, NodeId::new(1), PtFlags::rw());
        s.clear(10);
        assert!(!s.check(10, 0, NodeId::new(1), AccessKind::Read));
        assert_eq!(s.pages, 0);
    }

    #[test]
    fn raw_zero_and_all_ones_entries_are_present() {
        // Node 0 read-only encodes as raw 0, and a W32 shared RWX entry
        // as u32::MAX: presence cannot hide in the entry bits.
        let mut s = AcmStore::new(AcmWidth::W32);
        s.set_owner(7, NodeId::new(0), PtFlags::ro());
        s.set_shared(8, PtFlags::rwx());
        assert_eq!(s.entry(7).map(AcmEntry::raw), Some(0));
        assert_eq!(s.entry(8).map(AcmEntry::raw), Some(u32::MAX));
        assert_eq!(s.entry(9), None, "a neighbour stays absent");
        assert!(s.check(7, 0, NodeId::new(0), AccessKind::Read));
        assert_eq!(s.pages, 2);
    }

    #[test]
    fn region_arrays_are_sized_by_the_entry_width() {
        for width in [AcmWidth::W8, AcmWidth::W16, AcmWidth::W32] {
            let mut s = AcmStore::new(width);
            s.set_owner(REGION_PAGES + 3, NodeId::new(1), PtFlags::rw());
            assert!(
                s.regions[0].is_none(),
                "an untouched region stays unallocated"
            );
            let r = s.regions[1].as_ref().expect("written region is allocated");
            assert_eq!(
                r.raw.bytes() as u64,
                REGION_PAGES * width.bytes(),
                "{width:?}"
            );
        }
    }

    #[test]
    fn narrow_raw_zero_and_all_ones_entries_are_present() {
        // At W8 and W16 the shared RWX entry is all ones in the entry's
        // own width, and node 0 read-only is raw 0 at every width.
        for (width, ones) in [(AcmWidth::W8, 0xFF), (AcmWidth::W16, 0xFFFF)] {
            let mut s = AcmStore::new(width);
            s.set_owner(7, NodeId::new(0), PtFlags::ro());
            s.set_shared(8, PtFlags::rwx());
            assert_eq!(
                s.entry(7),
                Some(AcmEntry::owned(width, NodeId::new(0), PtFlags::ro()))
            );
            assert_eq!(s.entry(8), Some(AcmEntry::shared(width, PtFlags::rwx())));
            assert_eq!(s.entry(7).map(AcmEntry::raw), Some(0), "{width:?}");
            assert_eq!(s.entry(8).map(AcmEntry::raw), Some(ones), "{width:?}");
            assert_eq!(s.entry(9), None, "a neighbour stays absent");
            assert!(s.check(7, 0, NodeId::new(0), AccessKind::Read));
            assert!(s.entry(8).is_some_and(AcmEntry::is_shared));
            assert_eq!(s.pages, 2);
        }
    }

    /// Random owner / shared / clear writes against a `HashMap` model
    /// at every width, over pages of four regions.
    #[test]
    fn dense_regions_match_a_map_model() {
        let region_pages = REGION_PAGES;
        let flag_sets = [PtFlags::ro(), PtFlags::rw(), PtFlags::rx(), PtFlags::rwx()];
        for width in [AcmWidth::W8, AcmWidth::W16, AcmWidth::W32] {
            let mut s = AcmStore::new(width);
            let mut model: HashMap<u64, AcmEntry> = HashMap::new();
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for i in 0..20_000 {
                let r = next();
                // A few pages at each region's edges and in its middle.
                let region = [0, 1, 3, 6][(r & 3) as usize];
                let offset = [0, 1, 63, 64, 4097, region_pages - 1][(r >> 2) as usize % 6];
                let page = region * region_pages + offset;
                let flags = flag_sets[(r >> 8) as usize % 4];
                match (r >> 16) % 4 {
                    0 => {
                        let node = NodeId::new((r >> 24) as u16 % 3);
                        s.set_owner(page, node, flags);
                        model.insert(page, AcmEntry::owned(width, node, flags));
                    }
                    1 => {
                        s.set_shared(page, flags);
                        model.insert(page, AcmEntry::shared(width, flags));
                    }
                    2 => {
                        s.clear(page);
                        model.remove(&page);
                    }
                    _ => assert_eq!(s.entry(page), model.get(&page).copied(), "op {i}"),
                }
                assert_eq!(s.pages, model.len(), "op {i}");
            }
            for (&page, &entry) in &model {
                assert_eq!(s.entry(page), Some(entry));
            }
            assert_eq!(s.entry(2 * region_pages), None, "untouched region");
            assert_eq!(s.entry(u64::MAX), None, "beyond every region");
        }
    }

    #[test]
    fn bitmap_grant_is_per_region() {
        let mut s = AcmStore::new(AcmWidth::W16);
        s.set_shared(10, PtFlags::ro());
        s.set_shared(1_000_000, PtFlags::ro());
        s.grant_shared(0, NodeId::new(1), PtFlags::ro());
        assert!(s.check(10, 0, NodeId::new(1), AccessKind::Read));
        assert!(
            !s.check(1_000_000, 3, NodeId::new(1), AccessKind::Read),
            "grant in region 0 does not cover region 3"
        );
    }
}
