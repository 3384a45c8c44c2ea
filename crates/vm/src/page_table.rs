//! A 4-level x86-64-style radix page table with 4 KB leaves.

/// Number of radix levels (PGD, PUD, PMD, PTE — §II-B).
pub(crate) const LEVELS: usize = 4;

/// Bits of index per level.
const INDEX_BITS: u32 = 9;
const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;
/// Slots per table node (`2^INDEX_BITS`, exactly as in hardware).
const NODE_SLOTS: usize = 1 << INDEX_BITS;
/// Bytes per page-table entry.
const ENTRY_BYTES: u64 = 8;

/// Access-permission flags carried in a page-table entry.
///
/// # Examples
///
/// ```
/// use fam_vm::PtFlags;
///
/// let f = PtFlags::rw();
/// assert!(f.writable() && !f.executable());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PtFlags(u8);

impl PtFlags {
    const READ: u8 = 0b001;
    const WRITE: u8 = 0b010;
    const EXEC: u8 = 0b100;

    /// Read-only mapping.
    pub fn ro() -> PtFlags {
        PtFlags(Self::READ)
    }

    /// Read/write mapping.
    pub fn rw() -> PtFlags {
        PtFlags(Self::READ | Self::WRITE)
    }

    /// Read/write/execute mapping.
    pub fn rwx() -> PtFlags {
        PtFlags(Self::READ | Self::WRITE | Self::EXEC)
    }

    /// Read/execute mapping.
    pub fn rx() -> PtFlags {
        PtFlags(Self::READ | Self::EXEC)
    }

    /// Whether reads are permitted.
    pub fn readable(self) -> bool {
        self.0 & Self::READ != 0
    }

    /// Whether writes are permitted.
    pub fn writable(self) -> bool {
        self.0 & Self::WRITE != 0
    }

    /// Whether instruction fetches are permitted.
    pub fn executable(self) -> bool {
        self.0 & Self::EXEC != 0
    }
}

/// A leaf page-table entry: the target physical page plus permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// The mapped physical page number (node-physical or FAM,
    /// depending on which table this is).
    pub target_page: u64,
    /// Access permissions.
    pub flags: PtFlags,
}

/// One step of a page-table walk: the memory read of a single entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkStep {
    /// Level walked, `0` = PGD … `3` = PTE.
    pub(crate) level: usize,
    /// Physical byte address of the entry that was read.
    pub entry_addr: u64,
}

/// The full result of walking one virtual page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Walk {
    /// Every entry read, in order. A complete walk has four (`LEVELS`)
    /// steps; a walk that hits a non-present entry stops early.
    pub steps: Vec<WalkStep>,
    /// The final mapping, if the page is mapped.
    pub mapping: Option<Pte>,
}

/// Low bits of a leaf entry that hold its [`PtFlags`].
const FLAG_MASK: u64 = 0b111;
const _: () = assert!(PtFlags::READ | PtFlags::WRITE | PtFlags::EXEC == FLAG_MASK as u8);
/// Set in every leaf entry, so a present leaf is never 0.
const LEAF_PRESENT: u64 = 1 << 7;
/// Bit position of the target page in a leaf entry.
const TARGET_SHIFT: u32 = 8;
/// One past the largest target page a leaf entry can hold.
const TARGET_LIMIT: u64 = 1 << (64 - TARGET_SHIFT);

/// One table page: 512 eight-byte entries, as in hardware. The level
/// decides how an entry reads — 0 is absent at every level; above the
/// PTE level an entry is the child node's index plus one, and at the
/// PTE level it is `target_page << 8 | LEAF_PRESENT | flags`.
#[derive(Debug, Clone)]
struct Node {
    base_addr: u64,
    entries: Box<[u64; NODE_SLOTS]>,
}

impl Node {
    fn new(base_addr: u64) -> Node {
        Node {
            base_addr,
            entries: Box::new([0; NODE_SLOTS]),
        }
    }
}

fn encode_leaf(pte: Pte) -> u64 {
    pte.target_page << TARGET_SHIFT | LEAF_PRESENT | pte.flags.0 as u64
}

fn decode_leaf(entry: u64) -> Option<Pte> {
    (entry != 0).then_some(Pte {
        target_page: entry >> TARGET_SHIFT,
        flags: PtFlags((entry & FLAG_MASK) as u8),
    })
}

/// A hierarchical 4-level page table whose interior nodes live at real
/// (simulated) physical addresses.
///
/// The point of modelling node placement is that a walk returns the
/// *physical addresses* of the entries it reads ([`Walk::steps`]), so
/// the timing model can send each step through the data caches and the
/// right memory device — which is exactly what distinguishes E-FAM,
/// I-FAM and DeACT traffic at the FAM (Fig. 4).
///
/// New interior nodes are placed by the caller-supplied allocator, so
/// the OS model decides whether page-table pages live in local DRAM or
/// FAM.
///
/// # Examples
///
/// ```
/// use fam_vm::{PageTable, PtFlags};
///
/// let mut pt = PageTable::new(0x1000);
/// let mut next = 0x10_0000u64;
/// let mut alloc = |_level| { let a = next; next += 4096; a };
/// pt.map(7, 99, PtFlags::rw(), &mut alloc);
/// assert_eq!(pt.translate(7).unwrap().target_page, 99);
/// assert_eq!(pt.walk(7).steps.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    nodes: Vec<Node>,
    mapped: u64,
}

impl PageTable {
    /// Creates an empty table whose root (PGD) page lives at
    /// `root_addr` (the simulated CR3 value).
    pub fn new(root_addr: u64) -> PageTable {
        PageTable {
            nodes: vec![Node::new(root_addr)],
            mapped: 0,
        }
    }

    fn index_at(vpage: u64, level: usize) -> usize {
        debug_assert!(level < LEVELS);
        ((vpage >> (INDEX_BITS as usize * (LEVELS - 1 - level))) & INDEX_MASK) as usize
    }

    /// Maps `vpage → target_page` with `flags`, allocating interior
    /// node pages from `alloc_page`, which receives the depth of the
    /// node being created (1 = PUD … 3 = the PTE-level page) and must
    /// return the byte address of a fresh physical page — the hook the
    /// OS model uses to place PTE pages in DRAM or FAM. Returns the
    /// previous mapping if the page was already mapped.
    pub fn map(
        &mut self,
        vpage: u64,
        target_page: u64,
        flags: PtFlags,
        alloc_page: &mut dyn FnMut(usize) -> u64,
    ) -> Option<Pte> {
        assert!(
            target_page < TARGET_LIMIT,
            "target page {target_page:#x} does not fit in a leaf entry"
        );
        let mut node = 0usize;
        for level in 0..LEVELS - 1 {
            let idx = Self::index_at(vpage, level);
            node = match self.nodes[node].entries[idx] {
                0 => {
                    let base_addr = alloc_page(level + 1);
                    let child = self.nodes.len();
                    self.nodes.push(Node::new(base_addr));
                    self.nodes[node].entries[idx] = child as u64 + 1;
                    child
                }
                entry => (entry - 1) as usize,
            };
        }
        let slot = &mut self.nodes[node].entries[Self::index_at(vpage, LEVELS - 1)];
        let old = decode_leaf(std::mem::replace(
            slot,
            encode_leaf(Pte { target_page, flags }),
        ));
        if old.is_none() {
            self.mapped += 1;
        }
        old
    }

    /// Walks the table for `vpage`, recording the entry address read at
    /// each level. Stops at the first non-present entry.
    pub fn walk(&self, vpage: u64) -> Walk {
        let mut steps = Vec::with_capacity(LEVELS);
        let mapping = self.walk_with(vpage, |s| steps.push(s));
        Walk { steps, mapping }
    }

    /// As [`PageTable::walk`], but reports each entry read through
    /// `visit` instead of collecting a vector — the allocation-free
    /// form the per-reference hot path uses.
    pub(crate) fn walk_with(&self, vpage: u64, mut visit: impl FnMut(WalkStep)) -> Option<Pte> {
        let mut node = 0usize;
        for level in 0..LEVELS {
            let idx = Self::index_at(vpage, level);
            let n = &self.nodes[node];
            visit(WalkStep {
                level,
                entry_addr: n.base_addr + idx as u64 * ENTRY_BYTES,
            });
            match n.entries[idx] {
                0 => break,
                entry if level == LEVELS - 1 => return decode_leaf(entry),
                entry => node = (entry - 1) as usize,
            }
        }
        None
    }

    /// Looks up a mapping without recording walk steps.
    pub fn translate(&self, vpage: u64) -> Option<Pte> {
        self.walk_with(vpage, |_| {})
    }

    /// Removes the mapping for `vpage`, returning it if present.
    /// Interior nodes are not reclaimed (as in real kernels, table
    /// pages are freed lazily if at all).
    pub fn unmap(&mut self, vpage: u64) -> Option<Pte> {
        let node = self.pte_node(vpage)?;
        let entry =
            std::mem::take(&mut self.nodes[node].entries[Self::index_at(vpage, LEVELS - 1)]);
        let pte = decode_leaf(entry)?;
        self.mapped -= 1;
        Some(pte)
    }

    /// Updates the permissions of an existing mapping in place; returns
    /// `false` if the page is not mapped.
    pub fn protect(&mut self, vpage: u64, flags: PtFlags) -> bool {
        let Some(node) = self.pte_node(vpage) else {
            return false;
        };
        let entry = &mut self.nodes[node].entries[Self::index_at(vpage, LEVELS - 1)];
        if *entry == 0 {
            return false;
        }
        *entry = *entry & !FLAG_MASK | flags.0 as u64;
        true
    }

    /// Calls `visit(vpage, pte)` for every mapping, in ascending `vpage`
    /// order, without allocating: a depth-first pass over the table
    /// pages that reads each present entry once.
    pub fn for_each_leaf(&self, mut visit: impl FnMut(u64, Pte)) {
        self.visit_leaves(0, 0, 0, &mut visit);
    }

    fn visit_leaves(
        &self,
        node: usize,
        level: usize,
        prefix: u64,
        visit: &mut impl FnMut(u64, Pte),
    ) {
        for (idx, &entry) in self.nodes[node].entries.iter().enumerate() {
            let vpage = prefix << INDEX_BITS | idx as u64;
            match entry {
                0 => {}
                _ if level == LEVELS - 1 => visit(vpage, decode_leaf(entry).expect("present")),
                _ => self.visit_leaves((entry - 1) as usize, level + 1, vpage, visit),
            }
        }
    }

    /// The PTE-level table page covering `vpage`, if its subtree exists.
    fn pte_node(&self, vpage: u64) -> Option<usize> {
        let mut node = 0usize;
        for level in 0..LEVELS - 1 {
            match self.nodes[node].entries[Self::index_at(vpage, level)] {
                0 => return None,
                entry => node = (entry - 1) as usize,
            }
        }
        Some(node)
    }

    /// Physical base addresses of every table page (root first), in
    /// creation order. Recovery code scans this to find table pages
    /// resident on failed media.
    pub fn table_page_addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.nodes.iter().map(|n| n.base_addr)
    }

    /// Moves the table page whose physical base is `old_base` to
    /// `new_base`, returning whether such a page existed. The *logical*
    /// structure is untouched — only the physical placement changes, so
    /// subsequent walks read their entries from the new address. This
    /// is the broker's table-rebuild primitive: when failed media takes
    /// out an interior page, the broker (which authored every entry)
    /// reconstructs it on a surviving page and repoints the parent.
    pub fn relocate_table_page(&mut self, old_base: u64, new_base: u64) -> bool {
        match self.nodes.iter_mut().find(|n| n.base_addr == old_base) {
            Some(node) => {
                node.base_addr = new_base;
                true
            }
            None => false,
        }
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// The simulated CR3: the root page's physical address.
    pub fn root_addr(&self) -> u64 {
        self.nodes[0].base_addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_BYTES;

    fn bump_alloc(start: u64) -> impl FnMut(usize) -> u64 {
        let mut next = start;
        move |_level| {
            let a = next;
            next += PAGE_BYTES;
            a
        }
    }

    #[test]
    fn map_translate_roundtrip() {
        let mut pt = PageTable::new(0);
        let mut alloc = bump_alloc(0x10000);
        pt.map(0x12345, 0x42, PtFlags::rw(), &mut alloc);
        let pte = pt.translate(0x12345).unwrap();
        assert_eq!(pte.target_page, 0x42);
        assert!(pte.flags.writable());
        assert_eq!(pt.translate(0x12346), None);
    }

    #[test]
    fn full_walk_has_four_steps_with_distinct_addresses() {
        let mut pt = PageTable::new(0);
        let mut alloc = bump_alloc(0x10000);
        pt.map(1, 2, PtFlags::ro(), &mut alloc);
        let walk = pt.walk(1);
        assert_eq!(walk.steps.len(), LEVELS);
        assert!(walk.mapping.is_some());
        let mut addrs: Vec<u64> = walk.steps.iter().map(|s| s.entry_addr).collect();
        addrs.dedup();
        assert_eq!(addrs.len(), LEVELS, "each level reads a distinct entry");
        assert_eq!(
            walk.steps[0].entry_addr,
            pt.root_addr() + PageTable::index_at(1, 0) as u64 * 8
        );
    }

    #[test]
    fn unmapped_walk_stops_early() {
        let pt = PageTable::new(0);
        let walk = pt.walk(99);
        assert_eq!(walk.steps.len(), 1, "root entry read, found non-present");
        assert_eq!(walk.mapping, None);
    }

    #[test]
    fn neighbouring_pages_share_interior_nodes() {
        let mut pt = PageTable::new(0);
        let mut alloc = bump_alloc(0x10000);
        pt.map(0, 1, PtFlags::ro(), &mut alloc);
        let tables_before = pt.nodes.len();
        pt.map(1, 2, PtFlags::ro(), &mut alloc);
        assert_eq!(pt.nodes.len(), tables_before, "same PTE page reused");
        // A far-away page needs a whole new subtree.
        pt.map(1 << 27, 3, PtFlags::ro(), &mut alloc);
        assert_eq!(pt.nodes.len(), tables_before + 3);
    }

    #[test]
    fn remap_returns_previous() {
        let mut pt = PageTable::new(0);
        let mut alloc = bump_alloc(0x10000);
        assert_eq!(pt.map(5, 10, PtFlags::ro(), &mut alloc), None);
        let old = pt.map(5, 11, PtFlags::rw(), &mut alloc).unwrap();
        assert_eq!(old.target_page, 10);
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn unmap_removes_mapping() {
        let mut pt = PageTable::new(0);
        let mut alloc = bump_alloc(0x10000);
        pt.map(5, 10, PtFlags::ro(), &mut alloc);
        assert_eq!(pt.unmap(5).unwrap().target_page, 10);
        assert_eq!(pt.translate(5), None);
        assert_eq!(pt.unmap(5), None);
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn protect_updates_flags() {
        let mut pt = PageTable::new(0);
        let mut alloc = bump_alloc(0x10000);
        pt.map(5, 10, PtFlags::rw(), &mut alloc);
        assert!(pt.protect(5, PtFlags::ro()));
        assert!(!pt.translate(5).unwrap().flags.writable());
        assert!(!pt.protect(6, PtFlags::ro()));
    }

    #[test]
    fn relocate_table_page_repoints_walk_addresses() {
        let mut pt = PageTable::new(0);
        let mut alloc = bump_alloc(0x10000);
        pt.map(0x777, 1, PtFlags::ro(), &mut alloc);
        let doomed = pt.walk(0x777).steps[2].entry_addr & !(PAGE_BYTES - 1);
        assert!(pt.table_page_addrs().any(|a| a == doomed));
        assert!(pt.relocate_table_page(doomed, 0xAB_0000));
        // Same logical translation, new physical entry address.
        assert_eq!(pt.translate(0x777).unwrap().target_page, 1);
        let step = pt.walk(0x777).steps[2];
        assert_eq!(step.entry_addr & !(PAGE_BYTES - 1), 0xAB_0000);
        assert!(
            !pt.relocate_table_page(doomed, 0xCD_0000),
            "old address no longer names a table page"
        );
    }

    #[test]
    fn one_table_page_is_4_kib() {
        let pt = PageTable::new(0);
        assert_eq!(std::mem::size_of_val(&*pt.nodes[0].entries), 4096);
    }

    #[test]
    fn leaf_entries_round_trip_every_flag_set_and_the_largest_target() {
        let mut pt = PageTable::new(0);
        let mut alloc = bump_alloc(0x10000);
        let largest = TARGET_LIMIT - 1;
        for bits in 0..=FLAG_MASK as u8 {
            let flags = PtFlags(bits);
            for (vpage, target) in [(bits as u64, 0), (0x100 + bits as u64, largest)] {
                assert_eq!(pt.map(vpage, target, flags, &mut alloc), None);
                let pte = pt.translate(vpage).expect("mapped");
                assert_eq!((pte.target_page, pte.flags), (target, flags));
                assert_eq!(pt.walk(vpage).mapping, Some(pte));
            }
        }
        assert_eq!(pt.mapped_pages(), 16);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn targets_beyond_the_entry_are_rejected() {
        let mut pt = PageTable::new(0);
        pt.map(1, TARGET_LIMIT, PtFlags::ro(), &mut bump_alloc(0x10000));
    }

    /// Random map / unmap / protect / relocate against a `HashMap`
    /// model: the packed entries must agree on every lookup, count and
    /// walk address.
    #[test]
    fn packed_entries_match_a_map_model() {
        use std::collections::HashMap;
        let flag_sets = [PtFlags::ro(), PtFlags::rw(), PtFlags::rx(), PtFlags::rwx()];
        let mut pt = PageTable::new(0);
        let mut alloc = bump_alloc(0x10000);
        let mut model: HashMap<u64, Pte> = HashMap::new();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..20_000u64 {
            let r = next();
            // Two far-apart clusters exercise sibling subtrees.
            let vpage = (r >> 8) % 512 + if r & 1 == 0 { 0 } else { 1 << 27 };
            let flags = flag_sets[(r >> 40) as usize % 4];
            match (r >> 4) % 8 {
                0..=3 => {
                    let target = (r >> 20) % TARGET_LIMIT;
                    let pte = Pte {
                        target_page: target,
                        flags,
                    };
                    assert_eq!(
                        pt.map(vpage, target, flags, &mut alloc),
                        model.insert(vpage, pte)
                    );
                }
                4 => assert_eq!(pt.unmap(vpage), model.remove(&vpage), "op {i}"),
                5 => {
                    let present = match model.get_mut(&vpage) {
                        Some(pte) => {
                            pte.flags = flags;
                            true
                        }
                        None => false,
                    };
                    assert_eq!(pt.protect(vpage, flags), present, "op {i}");
                }
                6 => {
                    let pages: Vec<u64> = pt.table_page_addrs().collect();
                    let old = pages[(r >> 32) as usize % pages.len()];
                    let new = 0x1_0000_0000 + i * PAGE_BYTES;
                    assert!(pt.relocate_table_page(old, new));
                    assert!(pt.table_page_addrs().any(|a| a == new));
                }
                _ => assert_eq!(pt.translate(vpage), model.get(&vpage).copied(), "op {i}"),
            }
        }
        assert_eq!(pt.mapped_pages(), model.len() as u64);
        let bases: Vec<u64> = pt.table_page_addrs().collect();
        for (&vpage, &pte) in &model {
            let walk = pt.walk(vpage);
            assert_eq!(walk.mapping, Some(pte));
            assert_eq!(walk.steps.len(), LEVELS);
            for step in &walk.steps {
                assert!(bases.contains(&(step.entry_addr & !(PAGE_BYTES - 1))));
            }
        }
        let mut leaves = Vec::new();
        pt.for_each_leaf(|vpage, pte| leaves.push((vpage, pte)));
        let mut expected: Vec<(u64, Pte)> = model.into_iter().collect();
        expected.sort_unstable_by_key(|&(vpage, _)| vpage);
        assert_eq!(leaves, expected, "every mapping once, in vpage order");
    }

    #[test]
    fn leaf_visitor_spans_all_36_index_bits() {
        let mut pt = PageTable::new(0);
        let mut alloc = bump_alloc(0x10000);
        let vpages = [0, 511, 512, 1 << 18, 1 << 27, (1 << 36) - 1];
        for (i, &vpage) in vpages.iter().rev().enumerate() {
            pt.map(vpage, i as u64, PtFlags::rw(), &mut alloc);
        }
        let mut seen = Vec::new();
        pt.for_each_leaf(|vpage, _| seen.push(vpage));
        assert_eq!(seen, vpages);
    }

    #[test]
    fn flags_combinators() {
        assert!(PtFlags::ro().readable());
        assert!(!PtFlags::ro().writable());
        assert!(PtFlags::rwx().executable());
        assert!(PtFlags::rx().executable());
        assert!(!PtFlags::rx().writable());
    }

    #[test]
    fn index_extraction_covers_36_bits() {
        // vpage with distinct 9-bit groups: 0b000000001_000000010_000000011_000000100
        let vpage = (1u64 << 27) | (2 << 18) | (3 << 9) | 4;
        assert_eq!(PageTable::index_at(vpage, 0), 1);
        assert_eq!(PageTable::index_at(vpage, 1), 2);
        assert_eq!(PageTable::index_at(vpage, 2), 3);
        assert_eq!(PageTable::index_at(vpage, 3), 4);
    }
}
