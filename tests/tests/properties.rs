//! Property-style tests on the substrates' core invariants.
//!
//! Each test drives its invariant with hundreds of randomized
//! operations drawn from a fixed-seed [`SimRng`], so the coverage of a
//! property-based suite is kept while every run is bit-identical and
//! dependency-free.

use std::collections::{HashMap, HashSet};

use fam_broker::{AcmEntry, AcmWidth, FamLayout};
use fam_fabric::packet::{Packet, PacketKind};
use fam_mem::{CacheConfig, SetAssocCache};
use fam_sim::{Cycle, Resource, SimRng, Window};
use fam_vm::{FamAddr, NodeId, PageTable, PtFlags, VirtAddr, PAGE_BYTES};

/// Number of randomized trials per property.
const TRIALS: u64 = 32;

/// A page table agrees with a plain map under any interleaving of
/// map / unmap / protect operations.
#[test]
fn page_table_matches_reference_model() {
    let mut rng = SimRng::seeded(0xA11CE);
    for _ in 0..TRIALS {
        let mut pt = PageTable::new(0);
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut next = 0x100_0000u64;
        let mut alloc = move |_: usize| {
            // Local copy of a bump allocator.
            let a = next;
            next += PAGE_BYTES;
            a
        };
        let ops = 1 + rng.below(200);
        for _ in 0..ops {
            let op = rng.below(3);
            // Spread vpages across levels to exercise the radix.
            let vpage = rng.below(512) * 0x4_0421;
            let target = 1 + rng.below(1_000_000);
            match op {
                0 => {
                    pt.map(vpage, target, PtFlags::rw(), &mut alloc);
                    model.insert(vpage, target);
                }
                1 => {
                    pt.unmap(vpage);
                    model.remove(&vpage);
                }
                _ => {
                    let did = pt.protect(vpage, PtFlags::ro());
                    assert_eq!(did, model.contains_key(&vpage));
                }
            }
            assert_eq!(pt.mapped_pages(), model.len() as u64);
        }
        for (vpage, target) in &model {
            assert_eq!(pt.translate(*vpage).map(|p| p.target_page), Some(*target));
        }
    }
}

/// A set-associative cache never exceeds its capacity and always hits
/// on the most recently inserted key.
#[test]
fn cache_capacity_and_recency() {
    let mut rng = SimRng::seeded(0xCAC4E);
    for _ in 0..TRIALS {
        let sets = 1 + rng.index(31);
        let ways = 1 + rng.index(7);
        let mut c: SetAssocCache<u64> = SetAssocCache::new(CacheConfig::new(sets, ways));
        let n = 1 + rng.below(500);
        for _ in 0..n {
            let k = rng.below(10_000);
            c.insert(k, k * 2);
            assert!(c.len() <= sets * ways);
            assert_eq!(c.get(k), Some(&(k * 2)), "MRU key must be resident");
        }
    }
}

/// Backfilled resource schedules never overlap: every request gets
/// its own `occ` cycles, so total busy time is conserved, and the
/// frontier is the end of the latest service.
#[test]
fn resource_busy_time_is_conserved() {
    let mut rng = SimRng::seeded(0xB551);
    for _ in 0..TRIALS {
        let occ = 1 + rng.below(49);
        let mut r = Resource::new(occ);
        let n = 1 + rng.below(200);
        let mut starts: Vec<u64> = (0..n)
            .map(|_| {
                let a = rng.below(100_000);
                let start = r.acquire(Cycle(a));
                assert!(start >= Cycle(a));
                start.0
            })
            .collect();
        starts.sort_unstable();
        assert!(
            starts.windows(2).all(|w| w[1] - w[0] >= occ),
            "two services overlap"
        );
        assert_eq!(r.next_free().0, starts[starts.len() - 1] + occ);
    }
}

/// The outstanding window never admits more than `capacity` operations
/// whose lifetimes overlap, under monotone arrivals.
#[test]
fn window_bounds_concurrency() {
    let mut rng = SimRng::seeded(0x817D0);
    for _ in 0..TRIALS {
        let latency = 1 + rng.below(4_999);
        let capacity = 1 + rng.index(63);
        let mut w = Window::new(capacity);
        let mut now = 0u64;
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        let n = 32 + rng.below(168);
        for _ in 0..n {
            now += rng.below(100);
            let start = w.admit(Cycle(now)).0.max(now);
            w.record_completion(Cycle(start + latency));
            intervals.push((start, start + latency));
        }
        // At every start, the number of other ops strictly containing
        // that instant must be below capacity.
        for &(s, _) in &intervals {
            let live = intervals.iter().filter(|&&(a, b)| a <= s && s < b).count();
            assert!(
                live <= capacity,
                "{live} concurrent ops exceed capacity {capacity}"
            );
        }
    }
}

/// ACM addresses are injective per page and stay inside the metadata
/// region.
#[test]
fn acm_addresses_injective() {
    let mut rng = SimRng::seeded(0xAC3);
    let layout = FamLayout::new(2 << 30, AcmWidth::W16);
    let mut seen = HashMap::new();
    for _ in 0..TRIALS * 100 {
        let p = rng.below(100_000) % layout.usable_pages();
        let addr = layout.acm_addr(FamAddr(p * PAGE_BYTES));
        assert!(addr >= layout.acm_base());
        assert!(addr < layout.bitmap_base());
        if let Some(prev) = seen.insert(addr, p) {
            assert_eq!(prev, p, "two pages share an ACM address");
        }
    }
}

/// ACM entries round-trip their owner and permissions at every width.
#[test]
fn acm_entry_roundtrip() {
    for id in 0u16..62 {
        for flags in [PtFlags::ro(), PtFlags::rw(), PtFlags::rx(), PtFlags::rwx()] {
            for width in [AcmWidth::W8, AcmWidth::W16, AcmWidth::W32] {
                let e = AcmEntry::owned(width, NodeId::new(id), flags);
                assert_eq!(e.owner(), Some(NodeId::new(id)));
                assert_eq!(e.flags().writable(), flags.writable());
                assert_eq!(e.flags().executable(), flags.executable());
                let back = AcmEntry::from_raw(width, e.raw());
                assert_eq!(back, e);
            }
        }
    }
}

/// Fabric packets round-trip any field combination.
#[test]
fn packet_roundtrip() {
    let mut rng = SimRng::seeded(0xFAB);
    for _ in 0..TRIALS * 20 {
        let kind = match rng.below(4) {
            0 => PacketKind::Read,
            1 => PacketKind::Write,
            2 => PacketKind::TranslationRequest,
            _ => PacketKind::TranslationResponse,
        };
        let p = Packet {
            kind,
            source: NodeId::new(rng.below(0x3FFE) as u16),
            addr: rng.next_u64(),
            verified: rng.chance(0.5),
            tag: rng.below(1 << 16) as u16,
        };
        assert_eq!(Packet::decode(&p.encode()), Ok(p));
    }
}

/// Virtual addresses decompose and reassemble exactly.
#[test]
fn address_roundtrip() {
    let mut rng = SimRng::seeded(0xADD);
    for _ in 0..TRIALS * 20 {
        let raw = rng.next_u64() >> 16; // stay within 48-bit VA space
        let a = VirtAddr(raw);
        assert_eq!(VirtAddr::from_page(a.page(), a.offset()), a);
    }
}

/// DeACT-W resident groups behave exactly like a model keyed by
/// `page / coverage`: filling any page makes its whole aligned group
/// resident and nothing else.
#[test]
fn deact_w_group_model() {
    use fam_stu::{StuCache, StuConfig, StuOrganization};
    let mut rng = SimRng::seeded(0xD3AC7);
    for _ in 0..TRIALS {
        let config = StuConfig {
            sets: 64,
            ways: 8,
            organization: StuOrganization::DeactW,
            ..StuConfig::default()
        };
        let coverage = config.deact_w_coverage();
        let mut stu = StuCache::new(config);
        let mut model: HashSet<u64> = HashSet::new();
        let n = 1 + rng.below(64);
        for _ in 0..n {
            let p = rng.below(512);
            stu.acm_fill(p);
            model.insert(p / coverage);
        }
        // 512 pages = 128 groups fit comfortably in 512 ways: the
        // model is exact (no evictions).
        for page in 0u64..512 {
            assert_eq!(
                stu.acm_lookup(page),
                model.contains(&(page / coverage)),
                "page {page}"
            );
        }
    }
}
