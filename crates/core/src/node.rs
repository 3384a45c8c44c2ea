//! The compute-node model: cores, MMUs, caches, local DRAM, and the
//! node-level OS memory policy.

use fam_broker::{BrokerError, MemoryBroker};
use fam_mem::{CacheHierarchy, DramModel};
use fam_sim::{Cycle, RequestId, SimRng, Window};
use fam_vm::{NodeId, PageTable, PtFlags, PtwCache, TlbHierarchy, VirtAddr};
use fam_workloads::TraceGenerator;

use crate::translator::FamTranslator;
use crate::{Scheme, SystemConfig};

/// First node-physical page of the FAM zone in I-FAM/DeACT: the node
/// OS sees local DRAM at low addresses and a large FAM zone starting
/// at 4 GB (two NUMA-like zones, §III-A).
pub(crate) const FAM_ZONE_PAGE: u64 = 1 << 20;

/// First physical-key page used for direct FAM addresses in E-FAM
/// (the node maps virtual pages straight to FAM addresses; we offset
/// them to 2^40 so they can never collide with DRAM keys in the cache
/// hierarchy).
pub const FAM_KEY_PAGE: u64 = 1 << 28;

/// Local DRAM layout: application data occupies the bottom, the FAM
/// translation cache sits at 768 MB, kernel page-table pages grow down
/// from the top.
pub(crate) const DATA_REGION_PAGES: u64 = (512 << 20) / 4096;
/// DRAM byte address of the FAM translation cache (§IV: 1 MB).
pub const TRANSLATION_CACHE_BASE: u64 = 768 << 20;

/// Fraction of application pages placed in local DRAM (§IV footnote:
/// 20% local / 80% FAM).
const LOCAL_FRACTION: f64 = 0.20;

/// A reference drawn and admitted ahead of execution so the scheduler
/// can order cores by true start time (processing resources out of time
/// order would let a far-future request poison the contention timelines
/// for everyone else). `start` is the heap key [`crate::System::try_run`]
/// orders the core by.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingRef {
    /// The reference to execute.
    pub(crate) mem: fam_workloads::MemRef,
    /// Trace identity, threaded through every stage of the reference's
    /// lifetime ([`RequestId::UNTRACED`] when tracing is off).
    pub(crate) req: RequestId,
    /// True start: the issue time, after any dependence wait, as
    /// admitted by the core's outstanding window at staging.
    pub(crate) start: Cycle,
}

/// Per-core execution state.
#[derive(Debug)]
pub struct CoreState {
    /// The staged next reference, if any.
    pub(crate) pending: Option<PendingRef>,
    /// This rank's reference generator. Staging draws exactly one
    /// reference per executed reference, so `gen.emitted()` counts
    /// what the core ran.
    pub gen: TraceGenerator,
    /// Private two-level TLB.
    pub tlb: TlbHierarchy,
    /// Private node-level PTW cache.
    pub ptw: PtwCache,
    /// Outstanding-request window (Table II: 32).
    pub(crate) window: Window,
    /// When the core can issue its next instruction (front-end
    /// bandwidth cursor).
    pub(crate) next_issue: Cycle,
    /// Monotone in-order issue clock: a 2-wide OoO core issues in
    /// program order, so no reference issues before its predecessor.
    /// Keeping this monotone is also what makes the outstanding-window
    /// accounting sound.
    pub(crate) issue_clock: Cycle,
    /// Completion time of the most recent memory reference (dependent
    /// references wait on this).
    pub(crate) last_mem_completion: Cycle,
    /// Instructions retired.
    pub(crate) instructions: u64,
    /// References completed.
    pub(crate) refs_done: u64,
    /// References drawn from the stream and staged for execution.
    /// Pure bookkeeping for the end-of-run conservation audit
    /// (`staged == refs_done` once every staged reference retired);
    /// never read by any timing path, so it cannot affect reports.
    pub(crate) staged: u64,
    /// Completion time of the core's last reference.
    pub(crate) finish: Cycle,
}

/// One compute node: cores plus the node-local memory system of
/// Fig. 6.
#[derive(Debug)]
pub struct Node {
    /// System-level identity.
    pub id: NodeId,
    /// Per-core state.
    pub cores: Vec<CoreState>,
    /// The node page table (VA → node-physical for I-FAM/DeACT,
    /// VA → physical key for E-FAM).
    pub page_table: PageTable,
    /// L1/L2/L3 data caches.
    pub hierarchy: CacheHierarchy,
    /// Local DRAM.
    pub dram: DramModel,
    /// The FAM translator (DeACT only).
    pub translator: Option<FamTranslator>,
    /// Page faults serviced.
    pub(crate) faults: u64,

    scheme: Scheme,
    next_local_data_page: u64,
    next_kernel_dram_page: u64,
    next_fam_npa_page: u64,
    /// Allocation cookies handed to the broker for E-FAM data and
    /// kernel pages.
    next_efam_data_cookie: u64,
    next_efam_kernel_cookie: u64,
    placement_rng: SimRng,
}

/// Takes the next page-table page from kernel DRAM, which grows down
/// from the top toward the translation cache; returns its byte address.
fn kernel_table_page(next: &mut u64) -> u64 {
    let p = *next;
    *next -= 1;
    assert!(
        p * 4096 > TRANSLATION_CACHE_BASE,
        "kernel page-table region exhausted"
    );
    p * 4096
}

impl Node {
    /// Builds a node, registering it with the broker.
    ///
    /// # Panics
    ///
    /// Panics if the broker rejects the registration.
    pub fn new(
        config: &SystemConfig,
        streams: Vec<TraceGenerator>,
        broker: &mut MemoryBroker,
        node_index: usize,
    ) -> Node {
        assert_eq!(
            streams.len(),
            config.cores_per_node,
            "one reference stream per core"
        );
        let id = broker
            .register_node()
            .expect("broker accepts configured node count");
        let freq = config.frequency();
        let dram_pages = config.dram_bytes / 4096;
        let root_page = dram_pages - 1;
        let cores = streams
            .into_iter()
            .map(|gen| CoreState {
                pending: None,
                gen,
                tlb: TlbHierarchy::new(config.tlb),
                ptw: PtwCache::new(config.ptw_cache_entries),
                window: Window::new(config.core_outstanding),
                next_issue: Cycle::ZERO,
                issue_clock: Cycle::ZERO,
                last_mem_completion: Cycle::ZERO,
                instructions: 0,
                refs_done: 0,
                staged: 0,
                finish: Cycle::ZERO,
            })
            .collect();
        let translator = if config.scheme.has_fam_translator() {
            let replacement = if config.translation_cache_lru {
                fam_mem::Replacement::Lru
            } else {
                fam_mem::Replacement::Random
            };
            Some(FamTranslator::with_replacement(
                config.translation_cache_bytes,
                TRANSLATION_CACHE_BASE,
                config.nvm.max_outstanding,
                config.seed ^ node_index as u64,
                replacement,
            ))
        } else {
            None
        };
        Node {
            id,
            cores,
            page_table: PageTable::new(root_page * 4096),
            hierarchy: CacheHierarchy::new(config.cores_per_node, config.hierarchy),
            dram: DramModel::new(freq, config.dram_access_ns, config.dram_occupancy_cycles),
            translator,
            faults: 0,
            scheme: config.scheme,
            next_local_data_page: 1,
            next_kernel_dram_page: root_page - 1,
            // The first `shared_segment_pages` of the FAM zone are the
            // reserved shared window (§VI); private demand mapping
            // starts above it.
            next_fam_npa_page: FAM_ZONE_PAGE + config.shared_segment_pages,
            next_efam_data_cookie: 0,
            next_efam_kernel_cookie: 1 << 30,
            placement_rng: SimRng::seeded(config.seed ^ 0xA110C ^ node_index as u64),
        }
    }

    /// Whether a physical-key page is FAM-resident under this node's
    /// scheme.
    pub fn is_fam_page(&self, phys_page: u64) -> bool {
        match self.scheme {
            Scheme::EFam => phys_page >= FAM_KEY_PAGE,
            _ => phys_page >= FAM_ZONE_PAGE,
        }
    }

    /// Handles a node-level page fault for `vaddr`: the OS picks a
    /// zone (≈20% local DRAM, 80% FAM, §IV) and installs the mapping.
    /// For E-FAM the kernel asks the broker for the real FAM page
    /// (Fig. 2a: the patched OS coordinates with the global manager);
    /// PTE-level table pages backing FAM data live in FAM, which is
    /// what makes E-FAM's translation traffic visible at the FAM
    /// (Fig. 4).
    ///
    /// # Errors
    ///
    /// Returns the broker's error when the FAM cannot fit another
    /// demand map (the experiments size the FAM to fit, so callers
    /// surface this as a configuration mistake, not a crash).
    pub fn map_page(
        &mut self,
        vaddr: VirtAddr,
        broker: &mut MemoryBroker,
    ) -> Result<(), BrokerError> {
        let _prof = fam_sim::profile::span(fam_sim::profile::PhaseId::PageWalk);
        let vpage = vaddr.vpage();
        self.faults += 1;
        let go_local = self.placement_rng.chance(LOCAL_FRACTION)
            && self.next_local_data_page < DATA_REGION_PAGES;
        let target_page = if go_local {
            let p = self.next_local_data_page;
            self.next_local_data_page += 1;
            p
        } else {
            match self.scheme {
                Scheme::EFam => {
                    let cookie = self.next_efam_data_cookie;
                    self.next_efam_data_cookie += 1;
                    let fam_page = broker.demand_map(self.id, cookie)?;
                    FAM_KEY_PAGE + fam_page
                }
                _ => {
                    let p = self.next_fam_npa_page;
                    self.next_fam_npa_page += 1;
                    p
                }
            }
        };

        // Table-node placement: E-FAM keeps PTE-level pages for
        // FAM-backed data in FAM (they must be node-addressable memory,
        // and the bulk of the address space they map is FAM-resident);
        // everything else lives in kernel DRAM. Disjoint field borrows
        // let the closure allocate lazily — no page is consumed unless
        // the radix level is actually created.
        let scheme = self.scheme;
        let id = self.id;
        let efam_fam_pte = scheme == Scheme::EFam && target_page >= FAM_KEY_PAGE;
        // The page-table mapper takes an infallible allocator, so the
        // closure parks any broker failure here and falls back to
        // kernel DRAM; the error is surfaced after the map call.
        let mut alloc_err: Option<BrokerError> = None;
        let mut alloc = |level: usize| -> u64 {
            if level == 3 && efam_fam_pte {
                match broker.demand_map(id, self.next_efam_kernel_cookie) {
                    Ok(fam_page) => {
                        self.next_efam_kernel_cookie += 1;
                        return (FAM_KEY_PAGE + fam_page) * 4096;
                    }
                    Err(e) => alloc_err = Some(e),
                }
            }
            kernel_table_page(&mut self.next_kernel_dram_page)
        };
        self.page_table
            .map(vpage, target_page, PtFlags::rw(), &mut alloc);
        match alloc_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Total instructions retired across cores.
    pub(crate) fn instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Latest completion time across cores.
    pub(crate) fn finish(&self) -> Cycle {
        self.cores
            .iter()
            .map(|c| c.finish)
            .max()
            .unwrap_or(Cycle::ZERO)
    }

    /// Maps the cross-node shared segment into this node's page table
    /// at [`fam_workloads::SHARED_VA_BASE`] (§VI "Shared Pages"). For
    /// I-FAM/DeACT the targets are the reserved NPA window at the base
    /// of the FAM zone; for E-FAM they are the segment's FAM keys
    /// directly.
    pub(crate) fn map_shared_segment(&mut self, first_fam_page: u64, pages: u64) {
        let scheme = self.scheme;
        let mut alloc = |_level: usize| kernel_table_page(&mut self.next_kernel_dram_page);
        let shared_vpage = fam_workloads::SHARED_VA_BASE / 4096;
        for i in 0..pages {
            let target = match scheme {
                Scheme::EFam => FAM_KEY_PAGE + first_fam_page + i,
                _ => FAM_ZONE_PAGE + i,
            };
            self.page_table
                .map(shared_vpage + i, target, PtFlags::rw(), &mut alloc);
        }
    }

    /// Demand-maps into FAM the pages required by a system-level
    /// fault on `npa_page` (I-FAM/DeACT path).
    ///
    /// # Errors
    ///
    /// Propagates broker allocation failures.
    pub fn system_fault(
        &mut self,
        npa_page: u64,
        broker: &mut MemoryBroker,
    ) -> Result<u64, BrokerError> {
        self.faults += 1;
        broker.demand_map(self.id, npa_page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fam_broker::BrokerConfig;

    fn small_config(scheme: Scheme) -> SystemConfig {
        SystemConfig::paper_default()
            .with_scheme(scheme)
            .with_refs_per_core(10)
    }

    fn build(scheme: Scheme) -> (Node, MemoryBroker) {
        let config = small_config(scheme);
        let workload = fam_workloads::Workload::by_name("astar").unwrap();
        let streams: Vec<TraceGenerator> = (0..config.cores_per_node)
            .map(|c| {
                TraceGenerator::new(
                    workload,
                    fam_workloads::VA_BASE + ((c as u64) << 40),
                    c as u64,
                )
            })
            .collect();
        let mut broker = MemoryBroker::new(BrokerConfig {
            fam_bytes: config.fam_bytes,
            acm_width: config.acm_width,
            ..BrokerConfig::default()
        });
        let node = Node::new(&config, streams, &mut broker, 0);
        (node, broker)
    }

    #[test]
    fn node_has_four_cores_and_registers() {
        let (node, broker) = build(Scheme::DeactN);
        assert_eq!(node.cores.len(), 4);
        assert!(broker.system_table(node.id).is_ok(), "registered");
        assert!(node.translator.is_some());
    }

    #[test]
    fn efam_and_ifam_translator_presence() {
        assert!(build(Scheme::EFam).0.translator.is_none());
        assert!(build(Scheme::IFam).0.translator.is_none());
        assert!(build(Scheme::DeactW).0.translator.is_some());
    }

    #[test]
    fn map_page_installs_mapping() {
        let (mut node, mut broker) = build(Scheme::DeactN);
        let va = VirtAddr(fam_workloads::VA_BASE);
        node.map_page(va, &mut broker).unwrap();
        let pte = node.page_table.translate(va.vpage()).unwrap();
        assert!(
            pte.target_page < DATA_REGION_PAGES || pte.target_page >= FAM_ZONE_PAGE,
            "placement must pick the local data region or the FAM zone"
        );
        assert_eq!(node.faults, 1);
    }

    #[test]
    fn placement_respects_zones() {
        let (mut node, mut broker) = build(Scheme::DeactN);
        let mut local = 0;
        let mut fam = 0;
        for i in 0..1000 {
            let va = VirtAddr(fam_workloads::VA_BASE + i * 4096);
            node.map_page(va, &mut broker).unwrap();
            let t = node.page_table.translate(va.vpage()).unwrap().target_page;
            if node.is_fam_page(t) {
                fam += 1;
            } else {
                local += 1;
                assert!(t < DATA_REGION_PAGES);
            }
        }
        let frac = local as f64 / 1000.0;
        assert!((frac - 0.20).abs() < 0.05, "≈20% local (§IV), got {frac}");
        assert!(fam > 0);
    }

    #[test]
    fn efam_maps_direct_fam_keys_and_broker_tracks_them() {
        let (mut node, mut broker) = build(Scheme::EFam);
        let mut mapped_fam = 0;
        for i in 0..200 {
            let va = VirtAddr(fam_workloads::VA_BASE + i * 4096);
            node.map_page(va, &mut broker).unwrap();
            let t = node.page_table.translate(va.vpage()).unwrap().target_page;
            if t >= FAM_KEY_PAGE {
                mapped_fam += 1;
                // The key maps back to a broker-allocated page.
                assert!(t - FAM_KEY_PAGE < broker.layout().usable_pages());
            }
        }
        assert!(mapped_fam > 100);
        assert!(broker.owned_pages(node.id) >= mapped_fam);
    }

    #[test]
    fn efam_pte_pages_live_in_fam() {
        let (mut node, mut broker) = build(Scheme::EFam);
        // Map enough pages that some subtree's PTE node is FAM-backed.
        let mut found_fam_pte = false;
        for i in 0..50 {
            let va = VirtAddr(fam_workloads::VA_BASE + i * (512 * 4096));
            node.map_page(va, &mut broker).unwrap();
            let walk = node.page_table.walk(va.vpage());
            if let Some(step) = walk.steps.last() {
                if step.entry_addr / 4096 >= FAM_KEY_PAGE {
                    found_fam_pte = true;
                }
            }
        }
        assert!(found_fam_pte, "E-FAM PTE-level pages belong in FAM");
    }

    #[test]
    fn deact_pt_pages_stay_in_dram() {
        let (mut node, mut broker) = build(Scheme::DeactN);
        for i in 0..50 {
            let va = VirtAddr(fam_workloads::VA_BASE + i * (512 * 4096));
            node.map_page(va, &mut broker).unwrap();
            let walk = node.page_table.walk(va.vpage());
            for step in &walk.steps {
                assert!(
                    step.entry_addr / 4096 < FAM_ZONE_PAGE,
                    "node PT pages live in local DRAM for I-FAM/DeACT"
                );
            }
        }
    }

    #[test]
    fn system_fault_demand_maps() {
        let (mut node, mut broker) = build(Scheme::IFam);
        let fam_page = node.system_fault(FAM_ZONE_PAGE + 5, &mut broker).unwrap();
        assert_eq!(
            broker
                .translate(node.id, FAM_ZONE_PAGE + 5)
                .unwrap()
                .target_page,
            fam_page
        );
    }

    #[test]
    fn core_va_bases_are_disjoint() {
        let (mut node, _) = build(Scheme::DeactN);
        // Each rank has a private VA slice; draw one reference each.
        let mut bases: Vec<u64> = node
            .cores
            .iter_mut()
            .map(|c| c.gen.next_ref().vaddr.0 >> 40)
            .collect();
        bases.dedup();
        assert_eq!(bases.len(), 4, "four distinct VA slices");
    }
}
