//! The MMU page-table walker, one- and two-dimensional.

use crate::page_table::{PageTable, Pte, LEVELS};
use crate::PtwCache;

/// A single memory read a walk must perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkAccess {
    /// The page-table level being read (0 = PGD … 3 = PTE).
    pub(crate) level: usize,
    /// Whether this read belongs to the nested (second-dimension)
    /// table of a 2-D walk.
    pub(crate) nested: bool,
    /// Physical byte address of the entry.
    pub entry_addr: u64,
}

/// The memory-access plan for translating one virtual page: the exact
/// ordered reads the hardware walker would issue. The timing layer
/// replays these through the caches and memory devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkPlan {
    /// Ordered entry reads.
    pub accesses: Vec<WalkAccess>,
    /// The resulting mapping, if the page is mapped.
    pub mapping: Option<Pte>,
}

impl WalkPlan {
    /// Number of memory reads in the plan.
    pub fn reads(&self) -> usize {
        self.accesses.len()
    }
}

/// A one-dimensional page-table walker with an optional PTW cache.
///
/// # Examples
///
/// ```
/// use fam_vm::{PageTable, PageWalker, PtFlags, PtwCache};
///
/// let mut pt = PageTable::new(0);
/// let mut next = 0x10_0000u64;
/// let mut alloc = |_level| { let a = next; next += 4096; a };
/// pt.map(7, 99, PtFlags::rw(), &mut alloc);
///
/// let mut cache = PtwCache::new(32);
/// let cold = PageWalker::plan(&pt, Some(&mut cache), 7);
/// assert_eq!(cold.reads(), 4);
/// // The interior levels are now PTW-cached: only the PTE is read.
/// let warm = PageWalker::plan(&pt, Some(&mut cache), 7);
/// assert_eq!(warm.reads(), 1);
/// ```
#[derive(Debug)]
pub struct PageWalker;

impl PageWalker {
    /// Plans the walk of `vpage` through `table`, consulting and
    /// updating `ptw_cache` if provided.
    pub fn plan(table: &PageTable, ptw_cache: Option<&mut PtwCache>, vpage: u64) -> WalkPlan {
        let mut accesses = Vec::new();
        let mapping = PageWalker::plan_into(table, ptw_cache, vpage, &mut accesses);
        WalkPlan { accesses, mapping }
    }

    /// As [`PageWalker::plan`], but writes the access list into a
    /// caller-supplied buffer (cleared first) and returns the mapping
    /// directly. With a recycled buffer this plans a walk without
    /// allocating — the form the simulation hot path uses.
    pub fn plan_into(
        table: &PageTable,
        ptw_cache: Option<&mut PtwCache>,
        vpage: u64,
        out: &mut Vec<WalkAccess>,
    ) -> Option<Pte> {
        let _prof = fam_sim::profile::span(fam_sim::profile::PhaseId::PageWalk);
        out.clear();
        match ptw_cache {
            None => table.walk_with(vpage, |s| {
                out.push(WalkAccess {
                    level: s.level,
                    nested: false,
                    entry_addr: s.entry_addr,
                })
            }),
            Some(cache) => {
                let start_level = match cache.deepest_cached(vpage) {
                    Some(l) => l + 1,
                    None => 0,
                };
                let mapping = table.walk_with(vpage, |s| {
                    if s.level >= start_level {
                        out.push(WalkAccess {
                            level: s.level,
                            nested: false,
                            entry_addr: s.entry_addr,
                        })
                    }
                });
                if mapping.is_some() {
                    // A complete walk warms every interior level.
                    cache.fill(vpage, LEVELS - 2);
                }
                mapping
            }
        }
    }
}

/// A two-dimensional (nested) walker for virtualized two-level
/// translation (Fig. 1b): every guest-table entry is itself read at a
/// guest-physical address that must be translated by the nested table,
/// giving up to 24 reads per translation (§II-B).
///
/// The guest table maps virtual pages to guest-physical pages; the
/// nested table maps guest-physical pages to system-physical pages.
/// This is the structure the paper analogises I-FAM against, and it
/// backs the two-dimensional ablation bench.
#[derive(Debug)]
pub struct TwoDimWalker;

impl TwoDimWalker {
    /// Plans the 2-D walk of `vpage`, optionally accelerating the
    /// nested dimension with a PTW cache (nested-PTW caching of Bhargava et al.).
    ///
    /// The returned mapping is the final *system*-physical PTE
    /// composed from both dimensions.
    pub fn plan(
        guest: &PageTable,
        nested: &PageTable,
        mut nested_ptw: Option<&mut PtwCache>,
        vpage: u64,
    ) -> WalkPlan {
        let guest_walk = guest.walk(vpage);
        let mut accesses = Vec::new();

        // Each guest level's entry read requires translating the
        // guest-physical page that holds the entry via the nested
        // table.
        for step in &guest_walk.steps {
            let gpa_page = step.entry_addr / crate::PAGE_BYTES;
            let nested_plan = PageWalker::plan(nested, nested_ptw.as_deref_mut(), gpa_page);
            for a in nested_plan.accesses {
                accesses.push(WalkAccess {
                    level: a.level,
                    nested: true,
                    entry_addr: a.entry_addr,
                });
            }
            accesses.push(WalkAccess {
                level: step.level,
                nested: false,
                entry_addr: step.entry_addr,
            });
        }

        // Finally the guest-physical target page itself is translated.
        let mapping = match guest_walk.mapping {
            None => None,
            Some(gpte) => {
                let nested_plan = PageWalker::plan(nested, nested_ptw, gpte.target_page);
                for a in nested_plan.accesses {
                    accesses.push(WalkAccess {
                        level: a.level,
                        nested: true,
                        entry_addr: a.entry_addr,
                    });
                }
                nested_plan.mapping.map(|npte| Pte {
                    target_page: npte.target_page,
                    flags: gpte.flags,
                })
            }
        };

        WalkPlan { accesses, mapping }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PtFlags, PAGE_BYTES};

    fn bump_alloc(start: u64) -> impl FnMut(usize) -> u64 {
        let mut next = start;
        move |_level| {
            let a = next;
            next += PAGE_BYTES;
            a
        }
    }

    fn mapped_table(vpage: u64, target: u64) -> PageTable {
        let mut pt = PageTable::new(0);
        let mut alloc = bump_alloc(0x100_0000);
        pt.map(vpage, target, PtFlags::rw(), &mut alloc);
        pt
    }

    #[test]
    fn uncached_walk_reads_four_levels() {
        let pt = mapped_table(7, 99);
        let plan = PageWalker::plan(&pt, None, 7);
        assert_eq!(plan.reads(), 4);
        assert_eq!(plan.mapping.unwrap().target_page, 99);
        assert!(plan.accesses.iter().all(|a| !a.nested));
    }

    #[test]
    fn ptw_cache_skips_interior_levels() {
        let pt = mapped_table(7, 99);
        let mut cache = PtwCache::new(32);
        assert_eq!(PageWalker::plan(&pt, Some(&mut cache), 7).reads(), 4);
        let warm = PageWalker::plan(&pt, Some(&mut cache), 7);
        assert_eq!(warm.reads(), 1);
        assert_eq!(warm.accesses[0].level, 3);
    }

    #[test]
    fn failed_walk_is_not_cached() {
        let pt = mapped_table(7, 99);
        let mut cache = PtwCache::new(32);
        // Page in an unmapped PGD region: one read, nothing cached.
        let missing = 7 | (1 << 30);
        let plan = PageWalker::plan(&pt, Some(&mut cache), missing);
        assert!(plan.mapping.is_none());
        assert_eq!(plan.reads(), 1);
        let again = PageWalker::plan(&pt, Some(&mut cache), missing);
        assert_eq!(again.reads(), 1, "failure did not warm the cache");
    }

    /// Builds a nested table that identity-maps every guest-physical
    /// page the guest table's own pages and targets occupy.
    fn nested_for(_guest: &PageTable, extra_pages: &[u64]) -> PageTable {
        let mut nested = PageTable::new(0x800_0000);
        let mut alloc = bump_alloc(0x900_0000);
        // Identity-map a generous range covering guest table pages.
        for p in 0..0x3000u64 {
            nested.map(p, p, PtFlags::rw(), &mut alloc);
        }
        for &p in extra_pages {
            nested.map(p, p + 1, PtFlags::rw(), &mut alloc);
        }
        nested
    }

    #[test]
    fn two_dim_walk_reads_24_entries_cold() {
        let guest = mapped_table(7, 0x5000);
        let nested = nested_for(&guest, &[0x5000]);
        let plan = TwoDimWalker::plan(&guest, &nested, None, 7);
        // 4 guest levels x (4 nested + 1 guest read) + 4 nested for the
        // final target = 24 reads, the figure quoted in §II-B.
        assert_eq!(plan.reads(), 24);
        let m = plan.mapping.unwrap();
        assert_eq!(m.target_page, 0x5001, "composed through nested table");
    }

    #[test]
    fn nested_ptw_cache_shrinks_two_dim_walks() {
        let guest = mapped_table(7, 0x5000);
        let nested = nested_for(&guest, &[0x5000]);
        let mut cache = PtwCache::new(64);
        let cold = TwoDimWalker::plan(&guest, &nested, Some(&mut cache), 7);
        let warm = TwoDimWalker::plan(&guest, &nested, Some(&mut cache), 7);
        assert!(warm.reads() < cold.reads());
        // Guest dimension is never skipped (no guest PTW cache here):
        assert_eq!(warm.accesses.iter().filter(|a| !a.nested).count(), 4);
    }

    #[test]
    fn two_dim_unmapped_guest_truncates() {
        let guest = mapped_table(7, 0x5000);
        let nested = nested_for(&guest, &[0x5000]);
        let plan = TwoDimWalker::plan(&guest, &nested, None, 7 | (1 << 30));
        assert!(plan.mapping.is_none());
        assert!(plan.reads() < 24);
    }

    #[test]
    fn two_dim_unmapped_nested_target_yields_none() {
        let guest = mapped_table(7, 0xF_FFFF); // target outside nested range
        let nested = nested_for(&guest, &[]);
        let plan = TwoDimWalker::plan(&guest, &nested, None, 7);
        assert!(plan.mapping.is_none());
    }
}
