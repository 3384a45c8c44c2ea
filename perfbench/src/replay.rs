//! Stage replay: the per-layer host-time ledger, measured from outside
//! the simulator.
//!
//! [`record`] draws the workload's own per-core streams with the run's
//! seed (`System::synthetic_streams`) and pushes every reference once
//! through the layers' public functions, in the order the system calls
//! them: `TlbHierarchy::lookup`/`fill`, `PageWalker::plan_into`,
//! `CacheHierarchy::access`, then `DramModel::access`/`write` or the
//! scheme's FAM path (`FamTranslator::lookup`/`install`,
//! `Stu::verify`/`Stu::ifam_access`/`Stu::walk_system_table`, broker
//! demand maps, `Fabric` traversals, `NvmModel::access`). It records
//! every layer's inputs as it goes. [`Recording::time_once`] replays each
//! layer alone on its recorded inputs from fresh state, timing whole
//! batches, because one call costs only a few nanoseconds.
//!
//! The recorder is functional, not the engine: cores take turns
//! by a per-core clock with no outstanding window, so the states of
//! shared structures (the LLC, the broker's allocation order) differ a
//! little from the real run. A core's TLB sees only its own stream, so
//! TLB hit counts match the real run exactly (a self-test checks that).
//! Timing a layer in isolation also leaves out the cache pollution other
//! layers cause in the real run, so isolated costs are lower bounds.

use std::hint::black_box;
use std::time::Instant;

use deact::node::{Node, FAM_KEY_PAGE, TRANSLATION_CACHE_BASE};
use deact::{FamTranslator, RequestId, Scheme, System, SystemConfig};
use fam_broker::{AccessKind, BrokerConfig, MemoryBroker};
use fam_fabric::packet::{Packet, PacketKind};
use fam_fabric::Fabric;
use fam_mem::{CacheHierarchy, DramModel, MemOpKind, NvmModel, Replacement};
use fam_sim::stats::Ratio;
use fam_sim::{Cycle, Duration};
use fam_stu::Stu;
use fam_vm::{
    NodeId, PageTable, PageWalker, Pte, PtwCache, TlbHierarchy, VirtAddr, WalkAccess, PAGE_BYTES,
};
use fam_workloads::Workload;

/// A simulator layer the ledger times, in the order a reference meets
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Reference generation (`RefStream::next_ref`).
    Workloads,
    /// Per-core TLB hierarchy (`TlbHierarchy::lookup`, `fill`).
    Tlb,
    /// Node page-walk planning (`PageWalker::plan_into`).
    Walk,
    /// L1/L2/L3 data caches (`CacheHierarchy::access`).
    Hierarchy,
    /// Node DRAM (`DramModel::access`, `write`).
    Dram,
    /// DeACT's node-side translator (`FamTranslator::lookup`,
    /// `install`).
    Translator,
    /// The STU (`Stu::verify`, `ifam_access`, `walk_system_table`).
    Stu,
    /// The memory broker (`MemoryBroker::demand_map`).
    Broker,
    /// Fabric traversals (`Fabric::round_trip`, `node_to_fam`).
    Fabric,
    /// FAM NVM modules (`NvmModel::access`).
    Nvm,
    /// Wire-frame encode, corruption and CRC-checked decode (`Packet`).
    Recovery,
}

impl Layer {
    /// Every layer, in ledger order.
    pub const ALL: [Layer; 11] = [
        Layer::Workloads,
        Layer::Tlb,
        Layer::Walk,
        Layer::Hierarchy,
        Layer::Dram,
        Layer::Translator,
        Layer::Stu,
        Layer::Broker,
        Layer::Fabric,
        Layer::Nvm,
        Layer::Recovery,
    ];

    /// The metric-name prefix, also the span name of its timing batch.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Workloads => "workloads",
            Layer::Tlb => "vm.tlb",
            Layer::Walk => "vm.walk",
            Layer::Hierarchy => "mem.hierarchy",
            Layer::Dram => "mem.dram",
            Layer::Translator => "translator",
            Layer::Stu => "stu",
            Layer::Broker => "broker",
            Layer::Fabric => "fabric",
            Layer::Nvm => "mem.nvm",
            Layer::Recovery => "recovery",
        }
    }

    /// Whether the layer runs at all under `config`.
    pub fn runs_under(self, config: &SystemConfig) -> bool {
        match self {
            Layer::Translator => config.scheme.has_fam_translator(),
            Layer::Stu => config.scheme != Scheme::EFam,
            Layer::Recovery => config.fault_injection.enabled,
            _ => true,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum TlbOp {
    Lookup(u64),
    Fill(u64, Pte),
}

#[derive(Debug, Clone, Copy)]
enum TranslatorOp {
    Lookup(u64),
    Install(u64, u64),
}

#[derive(Debug, Clone, Copy)]
enum StuOp {
    Verify(u64, AccessKind),
    IFam(u64, AccessKind),
    Walk(u64),
}

/// One timed memory-device call.
#[derive(Debug, Clone, Copy)]
struct MemOp {
    at: u64,
    addr: u64,
    kind: MemOpKind,
}

/// One fabric call: a round trip with `service` cycles at the FAM side,
/// or (`service == None`) a one-way posted writeback.
#[derive(Debug, Clone, Copy)]
struct FabricOp {
    at: u64,
    node: usize,
    module: usize,
    service: Option<u64>,
}

/// Every layer's recorded inputs, plus the state the read-only layers
/// (page walks, STU) need to be replayed against.
#[derive(Debug)]
pub struct Recording {
    config: SystemConfig,
    workload: Workload,
    /// Per core (global rank `node * cores_per_node + core`).
    tlb: Vec<Vec<TlbOp>>,
    /// Per core, the replay's own TLB hit ratio.
    tlb_stats: Vec<Ratio>,
    /// Per core, the virtual pages planned.
    walks: Vec<Vec<u64>>,
    walk_reads: u64,
    /// Per node, the node page table as the recording left it.
    page_tables: Vec<PageTable>,
    /// Per node: `(core, line, is_write)`.
    hierarchy: Vec<Vec<(usize, u64, bool)>>,
    /// Per node.
    dram: Vec<Vec<MemOp>>,
    /// Per node.
    translator: Vec<Vec<TranslatorOp>>,
    /// Per node.
    stu: Vec<Vec<StuOp>>,
    /// `(node, key)` per demand map.
    broker_maps: Vec<(usize, u64)>,
    /// The broker as the recording left it (the STU replays read it).
    broker: MemoryBroker,
    node_ids: Vec<NodeId>,
    fabric: Vec<FabricOp>,
    /// Per FAM module.
    nvm: Vec<Vec<MemOp>>,
    /// Request frames of every FAM round trip (fault-injected
    /// workloads only).
    packets: Vec<(NodeId, u64, MemOpKind)>,
}

/// Records every layer's inputs for one run of `workload` under
/// `config` (see the module docs).
///
/// # Panics
///
/// Panics if the FAM cannot fit the workload, which the benchmark's
/// configurations rule out.
pub fn record(config: &SystemConfig, workload: &Workload) -> Recording {
    let streams = System::synthetic_streams(config, workload);
    let mut d = Recorder::new(config, workload, streams);
    let cores = config.cores_per_node;
    let ranks = config.nodes * cores;
    let mut clock = vec![0u64; ranks];
    let mut left = vec![config.refs_per_core; ranks];
    // Cores take turns in simulated-time order (ties to the lower rank),
    // so the shared timelines see requests roughly in time order.
    while let Some(g) = (0..ranks)
        .filter(|&g| left[g] > 0)
        .min_by_key(|&g| (clock[g], g))
    {
        left[g] -= 1;
        clock[g] = d.reference(g / cores, g % cores, Cycle(clock[g])).0;
    }
    d.finish()
}

fn access_kind(kind: MemOpKind) -> AccessKind {
    match kind {
        MemOpKind::Read => AccessKind::Read,
        MemOpKind::Write => AccessKind::Write,
    }
}

/// The FAM module backing an address: pages interleave across modules.
fn module_of(fam_byte: u64, modules: usize) -> usize {
    ((fam_byte / PAGE_BYTES) % modules as u64) as usize
}

fn broker_config(config: &SystemConfig) -> BrokerConfig {
    BrokerConfig {
        fam_bytes: config.fam_bytes,
        acm_width: config.acm_width,
        max_nodes: config.nodes,
        seed: config.seed,
    }
}

/// The recorder: live layer state plus the recording it fills.
struct Recorder {
    config: SystemConfig,
    nodes: Vec<Node>,
    stus: Vec<Stu>,
    broker: MemoryBroker,
    fabric: Fabric,
    nvm: Vec<NvmModel>,
    walker_free: Vec<Cycle>,
    router: Duration,
    stu_lookup: Duration,
    fault_latency: Duration,
    walk_buf: Vec<WalkAccess>,
    /// Per node, the E-FAM OS's next data and kernel allocation cookies
    /// (mirrors `Node::map_page`, which keeps them private).
    efam_cookies: Vec<(u64, u64)>,
    rec: Recording,
}

impl Recorder {
    fn new(
        config: &SystemConfig,
        workload: &Workload,
        streams: Vec<Vec<fam_workloads::RefStream>>,
    ) -> Recorder {
        let freq = config.frequency();
        let mut broker = MemoryBroker::new(broker_config(config));
        let nodes: Vec<Node> = streams
            .into_iter()
            .enumerate()
            .map(|(i, s)| Node::new(config, s, &mut broker, i))
            .collect();
        let stus = if config.scheme == Scheme::EFam {
            Vec::new()
        } else {
            (0..config.nodes)
                .map(|_| Stu::with_ptw_entries(config.stu_config(), config.stu_ptw_entries))
                .collect()
        };
        let ranks = config.nodes * config.cores_per_node;
        let node_ids = nodes.iter().map(|n| n.id).collect();
        Recorder {
            config: *config,
            nodes,
            stus,
            fabric: Fabric::new(freq, config.fabric, config.nodes, config.fam_modules),
            nvm: (0..config.fam_modules)
                .map(|_| NvmModel::new(freq, config.nvm))
                .collect(),
            walker_free: vec![Cycle::ZERO; config.nodes],
            router: freq.ns_to_cycles(config.router_ns),
            stu_lookup: Duration(config.stu_lookup_cycles),
            fault_latency: freq.ns_to_cycles(config.fault_ns),
            walk_buf: Vec::new(),
            efam_cookies: vec![(0, 1 << 30); config.nodes],
            rec: Recording {
                config: *config,
                workload: *workload,
                tlb: vec![Vec::new(); ranks],
                tlb_stats: Vec::new(),
                walks: vec![Vec::new(); ranks],
                walk_reads: 0,
                page_tables: Vec::new(),
                hierarchy: vec![Vec::new(); config.nodes],
                dram: vec![Vec::new(); config.nodes],
                translator: vec![Vec::new(); config.nodes],
                stu: vec![Vec::new(); config.nodes],
                broker_maps: Vec::new(),
                broker: MemoryBroker::new(broker_config(config)),
                node_ids,
                fabric: Vec::new(),
                nvm: vec![Vec::new(); config.fam_modules],
                packets: Vec::new(),
            },
            broker,
        }
    }

    fn finish(mut self) -> Recording {
        for node in &mut self.nodes {
            self.rec
                .tlb_stats
                .extend(node.cores.iter().map(|c| c.tlb.stats()));
            self.rec
                .page_tables
                .push(std::mem::replace(&mut node.page_table, PageTable::new(0)));
        }
        self.rec.broker = self.broker;
        self.rec
    }

    /// One reference of core `c` on node `n`, issued at `t`; returns
    /// when the core issues its next one.
    fn reference(&mut self, n: usize, c: usize, t: Cycle) -> Cycle {
        let r = self.nodes[n].cores[c].gen.next_ref();
        let (pte, t) = self.translate(n, c, r.vaddr, t);
        let phys_byte = pte.target_page * PAGE_BYTES + r.vaddr.offset();
        let kind = if r.is_write {
            MemOpKind::Write
        } else {
            MemOpKind::Read
        };
        let (hit, mut done, writeback) = self.cache(n, c, phys_byte / 64, r.is_write, t);
        if !hit {
            done = if self.nodes[n].is_fam_page(pte.target_page) {
                let offset = r.vaddr.offset();
                match self.config.scheme {
                    Scheme::EFam => {
                        self.fam_round_trip(n, done, phys_byte - FAM_KEY_PAGE * PAGE_BYTES, kind)
                    }
                    Scheme::IFam => self.ifam(n, done, pte.target_page, offset, kind),
                    Scheme::DeactW | Scheme::DeactN => {
                        self.deact(n, done, pte.target_page, offset, kind)
                    }
                }
            } else {
                self.dram(n, done, phys_byte, kind)
            };
        }
        if let Some(line) = writeback {
            self.writeback(n, line, done);
        }
        let issue_width = u64::from(self.config.issue_width);
        done + Duration(u64::from(r.gap_instrs).div_ceil(issue_width) + 1)
    }

    /// TLB, then page walks (faulting pages in) until a mapping exists.
    fn translate(&mut self, n: usize, c: usize, vaddr: VirtAddr, t: Cycle) -> (Pte, Cycle) {
        let g = n * self.config.cores_per_node + c;
        let vpage = vaddr.vpage();
        self.rec.tlb[g].push(TlbOp::Lookup(vpage));
        let (_, latency, hit) = self.nodes[n].cores[c].tlb.lookup(vpage);
        let mut t = t + latency;
        if let Some(pte) = hit {
            return (pte, t);
        }
        loop {
            self.rec.walks[g].push(vpage);
            let node = &mut self.nodes[n];
            let mapping = PageWalker::plan_into(
                &node.page_table,
                Some(&mut node.cores[c].ptw),
                vpage,
                &mut self.walk_buf,
            );
            self.rec.walk_reads += self.walk_buf.len() as u64;
            match mapping {
                None => {
                    t += self.fault_latency;
                    self.map_page(n, vaddr);
                }
                Some(pte) => {
                    let steps = std::mem::take(&mut self.walk_buf);
                    for step in &steps {
                        t = self.pt_step(n, c, step.entry_addr, t);
                    }
                    self.walk_buf = steps;
                    self.rec.tlb[g].push(TlbOp::Fill(vpage, pte));
                    self.nodes[n].cores[c].tlb.fill(vpage, pte);
                    return (pte, t);
                }
            }
        }
    }

    /// A node-level page fault, recording the broker demand maps it
    /// makes. Only E-FAM's OS asks the broker directly: one data page,
    /// then any FAM-resident page-table pages, in that order.
    fn map_page(&mut self, n: usize, vaddr: VirtAddr) {
        let id = self.nodes[n].id;
        let before = self.broker.owned_pages(id);
        self.nodes[n]
            .map_page(vaddr, &mut self.broker)
            .expect("the FAM is sized to fit every benchmark workload");
        let maps = self.broker.owned_pages(id) - before;
        for i in 0..maps {
            let (data, kernel) = &mut self.efam_cookies[n];
            let cookie = if i == 0 { data } else { kernel };
            self.rec.broker_maps.push((n, *cookie));
            *cookie += 1;
        }
    }

    /// A system-level fault: the broker maps `npa_page` for node `n`.
    fn system_fault(&mut self, n: usize, npa_page: u64) {
        self.nodes[n]
            .system_fault(npa_page, &mut self.broker)
            .expect("the FAM is sized to fit every benchmark workload");
        self.rec.broker_maps.push((n, npa_page));
    }

    /// One cache-hierarchy access; returns (hit, time after the lookup,
    /// dirty victim).
    fn cache(
        &mut self,
        n: usize,
        c: usize,
        line: u64,
        is_write: bool,
        t: Cycle,
    ) -> (bool, Cycle, Option<u64>) {
        self.rec.hierarchy[n].push((c, line, is_write));
        let lookup = self.nodes[n].hierarchy.access(c, line, is_write);
        (lookup.level.is_some(), t + lookup.latency, lookup.writeback)
    }

    fn dram(&mut self, n: usize, t: Cycle, addr: u64, kind: MemOpKind) -> Cycle {
        self.rec.dram[n].push(MemOp {
            at: t.0,
            addr,
            kind,
        });
        match kind {
            MemOpKind::Read => self.nodes[n].dram.access(t, addr),
            MemOpKind::Write => self.nodes[n].dram.write(t, addr),
        }
    }

    fn nvm(&mut self, module: usize, t: Cycle, addr: u64, kind: MemOpKind) -> Cycle {
        self.rec.nvm[module].push(MemOp {
            at: t.0,
            addr,
            kind,
        });
        self.nvm[module].access(t, addr, kind)
    }

    /// One page-table entry read: caches, then DRAM or (E-FAM) the FAM.
    fn pt_step(&mut self, n: usize, c: usize, entry_addr: u64, t: Cycle) -> Cycle {
        let (hit, mut t, writeback) = self.cache(n, c, entry_addr / 64, false, t);
        if !hit {
            t = if self.nodes[n].is_fam_page(entry_addr / PAGE_BYTES) {
                let fam_byte = entry_addr - FAM_KEY_PAGE * PAGE_BYTES;
                self.fam_round_trip(n, t, fam_byte, MemOpKind::Read)
            } else {
                self.dram(n, t, entry_addr, MemOpKind::Read)
            };
        }
        if let Some(line) = writeback {
            self.writeback(n, line, t);
        }
        t
    }

    /// Fabric there, device service, fabric back.
    fn fam_round_trip(&mut self, n: usize, t: Cycle, fam_byte: u64, kind: MemOpKind) -> Cycle {
        if self.config.fault_injection.enabled {
            self.rec.packets.push((self.nodes[n].id, fam_byte, kind));
        }
        let module = module_of(fam_byte, self.nvm.len());
        let arrival = self.fabric.node_to_fam(t, n, module);
        let done = self.nvm(module, arrival, fam_byte, kind);
        self.rec.fabric.push(FabricOp {
            at: t.0,
            node: n,
            module,
            service: Some(done.0 - arrival.0),
        });
        self.fabric.fam_to_node(done, n, module, 64)
    }

    /// A dirty LLC victim: posted to DRAM or, through the fabric, FAM.
    fn writeback(&mut self, n: usize, line: u64, at: Cycle) {
        let byte = line * 64;
        let page = byte / PAGE_BYTES;
        if !self.nodes[n].is_fam_page(page) {
            self.dram(n, at, byte, MemOpKind::Write);
            return;
        }
        let fam_byte = match self.config.scheme {
            Scheme::EFam => byte - FAM_KEY_PAGE * PAGE_BYTES,
            _ => match self.broker.translate(self.nodes[n].id, page) {
                Some(pte) => pte.target_page * PAGE_BYTES + byte % PAGE_BYTES,
                None => return,
            },
        };
        let module = module_of(fam_byte, self.nvm.len());
        self.rec.fabric.push(FabricOp {
            at: at.0,
            node: n,
            module,
            service: None,
        });
        let arrival = self.fabric.node_to_fam(at, n, module);
        self.nvm(module, arrival, fam_byte, MemOpKind::Write);
    }

    /// The I-FAM data path: coupled translation and check at the STU.
    fn ifam(&mut self, n: usize, t: Cycle, npa_page: u64, offset: u64, kind: MemOpKind) -> Cycle {
        let id = self.nodes[n].id;
        let acc = access_kind(kind);
        let mut t = t + self.router + self.stu_lookup;
        let tr = loop {
            match self.stus[n].ifam_access(&self.broker, id, npa_page, acc, RequestId::UNTRACED) {
                Ok(tr) => break tr,
                Err(_) => {
                    t += self.fault_latency;
                    self.system_fault(n, npa_page);
                }
            }
        };
        assert!(tr.allowed, "benign workloads never trip access control");
        self.rec.stu[n].push(StuOp::IFam(npa_page, acc));
        if let Some(walk) = &tr.walk {
            let mut tw = t.max(self.walker_free[n]);
            for step in &walk.accesses {
                tw = self.fam_round_trip(n, tw, step.entry_addr, MemOpKind::Read);
            }
            self.walker_free[n] = tw;
            t = tw;
        }
        self.fam_round_trip(n, t, tr.fam_page * PAGE_BYTES + offset, kind) + self.router
    }

    fn translator(&mut self, n: usize) -> &mut FamTranslator {
        self.nodes[n]
            .translator
            .as_mut()
            .expect("DeACT nodes have a translator")
    }

    /// The DeACT data path: node-side translation from the in-DRAM
    /// cache, then decoupled verification at the STU.
    fn deact(&mut self, n: usize, t: Cycle, npa_page: u64, offset: u64, kind: MemOpKind) -> Cycle {
        let id = self.nodes[n].id;
        let acc = access_kind(kind);
        self.rec.translator[n].push(TranslatorOp::Lookup(npa_page));
        let set_addr = self.translator(n).dram_addr_of(npa_page);
        let mut t = self.dram(n, t, set_addr, MemOpKind::Read) + Duration(1);
        let cached = self.translator(n).lookup(npa_page);
        if self.config.translation_cache_lru {
            self.dram(n, t, set_addr, MemOpKind::Write);
        }
        t += self.router;
        let fam_page = match cached {
            Some(fam_page) => fam_page,
            None => {
                let (fam_page, tw) = self.stu_walk(n, t, npa_page);
                t = tw;
                self.rec.translator[n].push(TranslatorOp::Install(npa_page, fam_page));
                self.translator(n).install(npa_page, fam_page);
                self.dram(n, t, set_addr, MemOpKind::Read);
                self.dram(n, t, set_addr, MemOpKind::Write);
                fam_page
            }
        };
        if !(self.config.skip_read_checks && kind == MemOpKind::Read) {
            self.rec.stu[n].push(StuOp::Verify(fam_page, acc));
            let v = self.stus[n].verify(&self.broker, id, fam_page, acc, RequestId::UNTRACED);
            assert!(v.allowed, "benign workloads never trip access control");
            t += self.stu_lookup;
            if let Some(acm_addr) = v.acm_fetch_addr {
                t = self.fam_round_trip(n, t, acm_addr, MemOpKind::Read);
                if let Some(bitmap_addr) = v.bitmap_fetch_addr {
                    t = self.fam_round_trip(n, t, bitmap_addr, MemOpKind::Read);
                }
            }
        }
        self.fam_round_trip(n, t, fam_page * PAGE_BYTES + offset, kind) + self.router
    }

    /// A system page-table walk at the STU, serialized on its FAM-PTW.
    fn stu_walk(&mut self, n: usize, t: Cycle, npa_page: u64) -> (u64, Cycle) {
        let id = self.nodes[n].id;
        let mut t = t;
        loop {
            match self.stus[n].walk_system_table(&self.broker, id, npa_page, RequestId::UNTRACED) {
                Ok((fam_page, plan)) => {
                    self.rec.stu[n].push(StuOp::Walk(npa_page));
                    let mut tw = t.max(self.walker_free[n]);
                    for step in &plan.accesses {
                        tw = self.fam_round_trip(n, tw, step.entry_addr, MemOpKind::Read);
                    }
                    self.walker_free[n] = tw;
                    return (fam_page, tw);
                }
                Err(_) => {
                    t += self.fault_latency;
                    self.system_fault(n, npa_page);
                }
            }
        }
    }
}

impl Recording {
    /// References the recording pushed through the layers.
    pub fn refs(&self) -> u64 {
        self.config.refs_per_core * (self.config.nodes * self.config.cores_per_node) as u64
    }

    /// Per core (global rank), the replay's own TLB hit ratio.
    #[cfg(test)]
    pub fn tlb_stats(&self) -> &[Ratio] {
        &self.tlb_stats
    }

    /// Recorded calls per reference of `layer`, the replay's own count.
    pub fn calls_per_ref(&self, layer: Layer) -> f64 {
        self.calls(layer) as f64 / self.refs() as f64
    }

    /// Page-table entry reads per planned walk.
    pub fn reads_per_walk(&self) -> f64 {
        let plans = self.calls(Layer::Walk);
        if plans == 0 {
            0.0
        } else {
            self.walk_reads as f64 / plans as f64
        }
    }

    /// The calls `layer`'s `ns_per_call` divides by.
    pub fn calls(&self, layer: Layer) -> u64 {
        let count = |n: usize| n as u64;
        match layer {
            Layer::Workloads => self.refs(),
            Layer::Tlb => self
                .tlb
                .iter()
                .flatten()
                .filter(|op| matches!(op, TlbOp::Lookup(_)))
                .count() as u64,
            Layer::Walk => self.walks.iter().map(|w| count(w.len())).sum(),
            Layer::Hierarchy => self.hierarchy.iter().map(|h| count(h.len())).sum(),
            Layer::Dram => self.dram.iter().map(|d| count(d.len())).sum(),
            Layer::Translator => self
                .translator
                .iter()
                .flatten()
                .filter(|op| matches!(op, TranslatorOp::Lookup(_)))
                .count() as u64,
            Layer::Stu => self
                .stu
                .iter()
                .flatten()
                .filter(|op| !matches!(op, StuOp::Walk(_)))
                .count() as u64,
            Layer::Broker => count(self.broker_maps.len()),
            Layer::Fabric => self
                .fabric
                .iter()
                .map(|op| if op.service.is_some() { 2 } else { 1 })
                .sum(),
            Layer::Nvm => self.nvm.iter().map(|m| count(m.len())).sum(),
            Layer::Recovery => count(self.packets.len()),
        }
    }

    /// Replays `layer` once on its recorded inputs from fresh state and
    /// returns the host nanoseconds of the replay alone (building the
    /// fresh state is not timed).
    ///
    /// # Panics
    ///
    /// Panics if `layer` does not run under the recorded configuration.
    pub fn time_once(&self, layer: Layer) -> f64 {
        let cfg = &self.config;
        let freq = cfg.frequency();
        match layer {
            Layer::Workloads => {
                let mut streams = System::synthetic_streams(cfg, &self.workload);
                let start = Instant::now();
                for stream in streams.iter_mut().flatten() {
                    for _ in 0..cfg.refs_per_core {
                        black_box(stream.next_ref());
                    }
                }
                elapsed_ns(start)
            }
            Layer::Tlb => {
                let mut tlbs: Vec<TlbHierarchy> = self
                    .tlb
                    .iter()
                    .map(|_| TlbHierarchy::new(cfg.tlb))
                    .collect();
                let start = Instant::now();
                for (tlb, ops) in tlbs.iter_mut().zip(&self.tlb) {
                    for op in ops {
                        match *op {
                            TlbOp::Lookup(vpage) => {
                                black_box(tlb.lookup(vpage));
                            }
                            TlbOp::Fill(vpage, pte) => tlb.fill(vpage, pte),
                        }
                    }
                }
                elapsed_ns(start)
            }
            Layer::Walk => {
                let mut ptws: Vec<PtwCache> = self
                    .walks
                    .iter()
                    .map(|_| PtwCache::new(cfg.ptw_cache_entries))
                    .collect();
                let mut buf = Vec::new();
                let start = Instant::now();
                for (g, (ptw, vpages)) in ptws.iter_mut().zip(&self.walks).enumerate() {
                    let table = &self.page_tables[g / cfg.cores_per_node];
                    for &vpage in vpages {
                        black_box(PageWalker::plan_into(table, Some(ptw), vpage, &mut buf));
                    }
                }
                elapsed_ns(start)
            }
            Layer::Hierarchy => {
                let mut caches: Vec<CacheHierarchy> = self
                    .hierarchy
                    .iter()
                    .map(|_| CacheHierarchy::new(cfg.cores_per_node, cfg.hierarchy))
                    .collect();
                let start = Instant::now();
                for (cache, ops) in caches.iter_mut().zip(&self.hierarchy) {
                    for &(core, line, is_write) in ops {
                        black_box(cache.access(core, line, is_write));
                    }
                }
                elapsed_ns(start)
            }
            Layer::Dram => {
                let mut drams: Vec<DramModel> = self
                    .dram
                    .iter()
                    .map(|_| DramModel::new(freq, cfg.dram_access_ns, cfg.dram_occupancy_cycles))
                    .collect();
                let start = Instant::now();
                for (dram, ops) in drams.iter_mut().zip(&self.dram) {
                    for op in ops {
                        black_box(match op.kind {
                            MemOpKind::Read => dram.access(Cycle(op.at), op.addr),
                            MemOpKind::Write => dram.write(Cycle(op.at), op.addr),
                        });
                    }
                }
                elapsed_ns(start)
            }
            Layer::Translator => {
                let replacement = if cfg.translation_cache_lru {
                    Replacement::Lru
                } else {
                    Replacement::Random
                };
                let mut translators: Vec<FamTranslator> = (0..self.translator.len())
                    .map(|n| {
                        FamTranslator::with_replacement(
                            cfg.translation_cache_bytes,
                            TRANSLATION_CACHE_BASE,
                            cfg.nvm.max_outstanding,
                            cfg.seed ^ n as u64,
                            replacement,
                        )
                    })
                    .collect();
                let start = Instant::now();
                for (tr, ops) in translators.iter_mut().zip(&self.translator) {
                    for op in ops {
                        match *op {
                            TranslatorOp::Lookup(npa) => {
                                black_box(tr.dram_addr_of(npa));
                                black_box(tr.lookup(npa));
                            }
                            TranslatorOp::Install(npa, fam) => tr.install(npa, fam),
                        }
                    }
                }
                elapsed_ns(start)
            }
            Layer::Stu => {
                let mut stus: Vec<Stu> = self
                    .stu
                    .iter()
                    .map(|_| Stu::with_ptw_entries(cfg.stu_config(), cfg.stu_ptw_entries))
                    .collect();
                let untraced = RequestId::UNTRACED;
                let start = Instant::now();
                for ((stu, ops), &id) in stus.iter_mut().zip(&self.stu).zip(&self.node_ids) {
                    for op in ops {
                        match *op {
                            StuOp::Verify(fam, acc) => {
                                black_box(stu.verify(&self.broker, id, fam, acc, untraced));
                            }
                            StuOp::IFam(npa, acc) => {
                                black_box(stu.ifam_access(&self.broker, id, npa, acc, untraced))
                                    .expect("the recording mapped every page it accessed");
                            }
                            StuOp::Walk(npa) => {
                                black_box(stu.walk_system_table(&self.broker, id, npa, untraced))
                                    .expect("the recording mapped every page it walked");
                            }
                        }
                    }
                }
                elapsed_ns(start)
            }
            Layer::Broker => {
                let mut broker = MemoryBroker::new(broker_config(cfg));
                let ids: Vec<NodeId> = (0..cfg.nodes)
                    .map(|_| {
                        broker
                            .register_node()
                            .expect("the broker admits every node")
                    })
                    .collect();
                let start = Instant::now();
                for &(n, key) in &self.broker_maps {
                    black_box(broker.demand_map(ids[n], key))
                        .expect("the FAM is sized to fit every benchmark workload");
                }
                elapsed_ns(start)
            }
            Layer::Fabric => {
                let mut fabric = Fabric::new(freq, cfg.fabric, cfg.nodes, cfg.fam_modules);
                let start = Instant::now();
                for op in &self.fabric {
                    black_box(match op.service {
                        Some(service) => fabric.round_trip(
                            Cycle(op.at),
                            op.node,
                            op.module,
                            Duration(service),
                            64,
                        ),
                        None => fabric.node_to_fam(Cycle(op.at), op.node, op.module),
                    });
                }
                elapsed_ns(start)
            }
            Layer::Nvm => {
                let mut modules: Vec<NvmModel> = self
                    .nvm
                    .iter()
                    .map(|_| NvmModel::new(freq, cfg.nvm))
                    .collect();
                let start = Instant::now();
                for (nvm, ops) in modules.iter_mut().zip(&self.nvm) {
                    for op in ops {
                        black_box(nvm.access(Cycle(op.at), op.addr, op.kind));
                    }
                }
                elapsed_ns(start)
            }
            Layer::Recovery => {
                let mut frame = Vec::with_capacity(fam_fabric::packet::PACKET_BYTES);
                let start = Instant::now();
                for (i, &(id, addr, kind)) in self.packets.iter().enumerate() {
                    let packet_kind = match kind {
                        MemOpKind::Read => PacketKind::Read,
                        MemOpKind::Write => PacketKind::Write,
                    };
                    Packet::for_request(packet_kind, id, addr, true, RequestId::UNTRACED)
                        .encode_into(&mut frame);
                    // Flip one bit, as an injected corruption does, and
                    // let the CRC reject the frame.
                    let at = i % frame.len();
                    frame[at] ^= 1 << (i % 8);
                    black_box(Packet::decode(&frame)).expect_err("CRC-16 catches a one-bit flip");
                }
                elapsed_ns(start)
            }
        }
    }

    /// The layers that run under the recorded configuration.
    pub fn layers(&self) -> impl Iterator<Item = Layer> + '_ {
        Layer::ALL
            .into_iter()
            .filter(|l| l.runs_under(&self.config))
    }
}

fn elapsed_ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}
