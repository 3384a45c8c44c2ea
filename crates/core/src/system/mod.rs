//! The full-system model and simulation driver.
//!
//! This file assembles a [`System`], runs the scheduler and does
//! node-level translation. `fam.rs` is the FAM data path (each
//! scheme's translation, the round trip and its transient retries, the
//! STU walk and writebacks), `recovery.rs` the persistent-fault
//! protocol, and `report.rs` the run report, metrics and audit.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use fam_broker::{BrokerConfig, MemoryBroker, Quarantine};
use fam_fabric::Fabric;
use fam_mem::{MemOpKind, NvmModel};
use fam_sim::profile::{self, PhaseId};
use fam_sim::{
    Cycle, Duration, FaultInjector, PersistentFault, Stage, Tracer, Track, WindowSample,
};
use fam_stu::Stu;
use fam_vm::{NodeId, Pte, VirtAddr, WalkAccess, PAGE_BYTES};
use fam_workloads::{TraceGenerator, Workload};

use crate::error::SimError;
use crate::metrics::{DegradationReport, FamTraffic, FaultRecovery, RunReport};
use crate::node::{Node, FAM_KEY_PAGE};
use crate::{Scheme, SystemConfig};

mod fam;
mod recovery;
mod report;
#[cfg(test)]
mod tests;

/// A complete FAM system under one scheme: nodes, fabric, STUs, the
/// FAM device and the memory broker (Fig. 6 writ large).
///
/// # Examples
///
/// ```
/// use deact::{Scheme, System, SystemConfig};
/// use fam_workloads::Workload;
///
/// let cfg = SystemConfig::paper_default()
///     .with_scheme(Scheme::DeactN)
///     .with_refs_per_core(200);
/// let mut sys = System::new(cfg, &Workload::by_name("astar").unwrap());
/// let report = sys.try_run()?;
/// assert!(report.ipc > 0.0);
/// # Ok::<(), deact::SimError>(())
/// ```
#[derive(Debug)]
pub struct System {
    config: SystemConfig,
    workload_name: String,
    nodes: Vec<Node>,
    stus: Vec<Stu>,
    /// Per-STU FAM-PTW availability: the walker handles one walk at a
    /// time, so concurrent misses queue — the first-order reason
    /// I-FAM collapses on translation-hostile workloads.
    walker_free: Vec<Cycle>,
    fabric: Fabric,
    /// One device model per FAM module; pages interleave across them.
    nvm: Vec<NvmModel>,
    broker: MemoryBroker,
    router: Duration,
    stu_lookup: Duration,
    fault_latency: Duration,
    traffic: FamTraffic,
    /// Deterministic fault injection; a disabled injector costs one
    /// branch per FAM round trip and nothing else.
    injector: FaultInjector,
    /// Response-side recovery accounting (the injected-fault counters
    /// come from the injector itself at report time).
    recovery: FaultRecovery,
    /// Request-lifecycle tracing; like the injector, a disabled tracer
    /// costs one branch per event site and nothing else.
    tracer: Tracer,
    /// The FAM pages a scheduled persistent fault will destroy,
    /// precomputed from the config ([`Quarantine::None`] when no
    /// persistent fault is scheduled). Membership is pure arithmetic,
    /// so the strike check costs one compare per FAM round trip.
    pending_quarantine: Quarantine,
    /// Whether the broker-led recovery protocol has already run — the
    /// escalation state machine's Recovering → Degraded edge is
    /// one-shot.
    persistent_handled: bool,
    /// What the permanent failure cost (all-zero until one strikes).
    degradation: DegradationReport,
    /// Where each quarantined FAM page's data went: `Some(new)` for a
    /// page the broker evacuated, `None` for destroyed data. Fed by the
    /// recovery protocol, consumed by the degraded-mode redirect and
    /// the E-FAM lazy PTE heal.
    moved: BTreeMap<u64, Option<u64>>,
    /// `(node, npa_page)` of mappings the recovery protocol removed
    /// because the data was destroyed — the first re-walk of one of
    /// these is a poisoned access, not an ordinary first touch.
    lost: BTreeSet<(NodeId, u64)>,
    /// The page-walk access buffer: node-level walks and STU walks
    /// plan into it instead of allocating a fresh vector per walk.
    /// Neither kind of walk starts another while its reads are
    /// charged, so one buffer suffices.
    walk_buf: Vec<WalkAccess>,
}

impl System {
    /// Builds a system running `workload` on every core.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (see
    /// [`SystemConfig::validate`]).
    pub fn new(config: SystemConfig, workload: &Workload) -> System {
        // Refuse before building the per-core generators.
        config
            .validate()
            .unwrap_or_else(|reason| panic!("{reason}"));
        let streams = System::synthetic_streams(&config, workload);
        System::with_streams(config, workload.name, streams)
    }

    /// The per-core synthetic reference streams [`System::new`] runs:
    /// one generator per core, seeded from the config seed and the
    /// core's global rank.
    pub fn synthetic_streams(
        config: &SystemConfig,
        workload: &Workload,
    ) -> Vec<Vec<TraceGenerator>> {
        (0..config.nodes)
            .map(|n| {
                (0..config.cores_per_node)
                    .map(|c| {
                        let seed = config
                            .seed
                            .wrapping_mul(0x9E37_79B9)
                            .wrapping_add((n * SystemConfig::MAX_CORES_PER_NODE + c) as u64);
                        TraceGenerator::new(
                            *workload,
                            fam_workloads::VA_BASE + ((c as u64) << 40),
                            seed,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    /// Builds a system from explicit per-core reference streams.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (see
    /// [`SystemConfig::validate`]) or a mis-shaped stream matrix.
    pub fn with_streams(
        config: SystemConfig,
        label: &str,
        streams: Vec<Vec<TraceGenerator>>,
    ) -> System {
        config
            .validate()
            .unwrap_or_else(|reason| panic!("{reason}"));
        assert_eq!(streams.len(), config.nodes, "one stream set per node");
        let freq = config.frequency();
        let mut broker = MemoryBroker::new(BrokerConfig {
            fam_bytes: config.fam_bytes,
            acm_width: config.acm_width,
            max_nodes: config.nodes,
            seed: config.seed,
        });
        let mut nodes: Vec<Node> = streams
            .into_iter()
            .enumerate()
            .map(|(i, node_streams)| Node::new(&config, node_streams, &mut broker, i))
            .collect();
        if config.shared_segment_pages > 0 {
            let members: Vec<(fam_vm::NodeId, fam_vm::PtFlags, u64)> = nodes
                .iter()
                .map(|n| (n.id, fam_vm::PtFlags::rw(), crate::node::FAM_ZONE_PAGE))
                .collect();
            let segment = broker
                .share_segment(config.shared_segment_pages, &members)
                .expect("SystemConfig::validate leaves a spare region and table pages for it");
            for node in &mut nodes {
                node.map_shared_segment(segment.first_page, segment.pages);
            }
        }
        let stus = if config.scheme == Scheme::EFam {
            Vec::new()
        } else {
            (0..config.nodes)
                .map(|_| Stu::with_ptw_entries(config.stu_config(), config.stu_ptw_entries))
                .collect()
        };
        System {
            workload_name: label.to_string(),
            nodes,
            stus,
            walker_free: vec![Cycle::ZERO; config.nodes],
            fabric: Fabric::new(freq, config.fabric, config.nodes, config.fam_modules),
            nvm: (0..config.fam_modules)
                .map(|_| NvmModel::new(freq, config.nvm))
                .collect(),
            broker,
            router: freq.ns_to_cycles(config.router_ns),
            stu_lookup: Duration(config.stu_lookup_cycles),
            fault_latency: freq.ns_to_cycles(config.fault_ns),
            traffic: FamTraffic::default(),
            injector: FaultInjector::new(config.fault_injection)
                .expect("the fault profile passed SystemConfig::validate above"),
            recovery: FaultRecovery::default(),
            tracer: Tracer::new(config.trace),
            pending_quarantine: match config.fault_injection.persistent {
                None => Quarantine::None,
                Some(schedule) => match schedule.fault {
                    PersistentFault::NodeDead { module }
                    | PersistentFault::LinkSevered { module } => Quarantine::Module {
                        index: module,
                        stride: config.fam_modules,
                    },
                    PersistentFault::MediaFailed { first_page, pages } => {
                        Quarantine::Range { first_page, pages }
                    }
                },
            },
            persistent_handled: false,
            degradation: DegradationReport::default(),
            moved: BTreeMap::new(),
            lost: BTreeSet::new(),
            walk_buf: Vec::new(),
            config,
        }
    }

    /// The tracer (events, latency breakdowns, windowed time series).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Runs every core to `refs_per_core` references and reports,
    /// surfacing failures as a typed [`SimError`] instead of a panic.
    ///
    /// The engine is an event-driven scheduler: a binary min-heap of
    /// `(start_cycle, slot)` keys (`slot = node * cores_per_node +
    /// core`), one pop plus one push per reference. Staging admits a
    /// core's next reference to its outstanding window, so the key is
    /// the cycle the reference starts at. Executing in
    /// start order keeps every shared-resource timeline advancing in
    /// time order (out-of-order processing would let a far-future
    /// request push a resource's timeline past everyone else's
    /// present). Among equal start times the lower slot runs first.
    /// Keys are unique (one entry per slot), so the pop order is fully
    /// determined by the keys alone; the golden report digests
    /// (`tests/golden/reports.txt`) are its specification.
    ///
    /// A core's start time depends only on its own front end and
    /// outstanding window, so only the core that just executed needs
    /// re-keying. Debug builds check that argument on every reference:
    /// the popped start times never decrease (the last one is a
    /// watermark below which no later reference starts), and `sim_ref`
    /// runs each reference at exactly its popped key.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FamExhausted`] when the broker cannot
    /// demand-map another FAM page for the workload, and
    /// [`SimError::AuditFailed`] when the finished run's counters break
    /// a conservation invariant.
    pub fn try_run(&mut self) -> Result<RunReport, SimError> {
        let refs = self.config.refs_per_core;
        let cores_per_node = self.config.cores_per_node;
        let mut ready_queue = BinaryHeap::with_capacity(self.nodes.len() * cores_per_node);
        for n in 0..self.nodes.len() {
            for c in 0..self.nodes[n].cores.len() {
                if self.nodes[n].cores[c].refs_done < refs {
                    let slot = n * cores_per_node + c;
                    ready_queue.push(Reverse((self.stage_ref(n, c), slot)));
                }
            }
        }
        let mut watermark = Cycle::ZERO;
        loop {
            let popped = {
                let _prof = profile::span(PhaseId::SchedPop);
                ready_queue.pop()
            };
            let Some(Reverse((start, slot))) = popped else {
                break;
            };
            debug_assert!(
                start >= watermark,
                "slot {slot} popped at {start}, below the watermark {watermark}"
            );
            watermark = start;
            let (n, c) = (slot / cores_per_node, slot % cores_per_node);
            self.sim_ref(n, c, start)?;
            if self.nodes[n].cores[c].refs_done < refs {
                ready_queue.push(Reverse((self.stage_ref(n, c), slot)));
            }
        }
        self.report()
    }

    /// Draws the next reference of core `c`, admits it to the core's
    /// outstanding window and returns the cycle it starts at.
    fn stage_ref(&mut self, n: usize, c: usize) -> Cycle {
        let issue_width = u64::from(self.config.issue_width);
        let req = self.tracer.next_request();
        let core = &mut self.nodes[n].cores[c];
        let r = {
            let _prof = profile::span(PhaseId::RefGen);
            core.gen.next_ref()
        };
        core.instructions += u64::from(r.gap_instrs) + 1;
        core.next_issue += Duration(u64::from(r.gap_instrs).div_ceil(issue_width) + 1);
        let mut start_req = core.next_issue.max(core.issue_clock);
        if r.dependent {
            start_req = start_req.max(core.last_mem_completion);
        }
        let start = core.window.admit(start_req);
        core.issue_clock = start;
        core.pending = Some(crate::node::PendingRef { mem: r, req, start });
        start
    }

    /// Simulates one staged reference of core `c` on node `n` end to
    /// end; `key` is the start the scheduler popped it at.
    fn sim_ref(&mut self, n: usize, c: usize, key: Cycle) -> Result<(), SimError> {
        let _prof = profile::span(PhaseId::SchedDispatch);
        let (r, req, t) = {
            let p = self.nodes[n].cores[c]
                .pending
                .take()
                .expect("sim_ref runs only on staged cores");
            debug_assert!(
                key == p.start,
                "core {n}.{c} popped at {key}, staged to start at {}",
                p.start
            );
            (p.mem, p.req, p.start)
        };
        self.tracer.begin(req);
        // Time-series snapshot: traffic/recovery counters before the
        // reference, so their deltas can be attributed to its window.
        let window_before = if self.tracer.wants_windows() {
            Some((
                self.traffic.at_total(),
                self.traffic.total(),
                self.recovery.retries,
                self.recovery.recovered,
            ))
        } else {
            None
        };

        // Node-level translation (TLB → node page-table walk).
        let (pte, t) = self.translate(n, c, r.vaddr, t)?;
        let phys_byte = pte.target_page * PAGE_BYTES + r.vaddr.offset();
        let line = phys_byte / 64;

        // Data caches.
        let lookup = self.nodes[n].hierarchy.access(c, line, r.is_write);
        let mut completion = t + lookup.latency;
        if lookup.level.is_none() {
            let kind = if r.is_write {
                MemOpKind::Write
            } else {
                MemOpKind::Read
            };
            completion = if self.nodes[n].is_fam_page(pte.target_page) {
                let offset = r.vaddr.offset();
                self.fam_access(n, completion, pte.target_page, offset, kind)?
            } else if r.is_write {
                self.nodes[n].dram.write(completion, phys_byte)
            } else {
                self.nodes[n].dram.access(completion, phys_byte)
            };
        }
        if let Some(wb_line) = lookup.writeback {
            self.writeback(n, wb_line, completion);
        }

        let core = &mut self.nodes[n].cores[c];
        core.window.record_completion(completion);
        core.last_mem_completion = completion;
        core.refs_done += 1;
        core.finish = core.finish.max(completion);
        if let Some((at_before, total_before, retries_before, recovered_before)) = window_before {
            self.tracer.sample(
                completion,
                WindowSample {
                    instructions: u64::from(r.gap_instrs) + 1,
                    fam_at: self.traffic.at_total() - at_before,
                    fam_total: self.traffic.total() - total_before,
                    retries: self.recovery.retries - retries_before,
                    recovered: self.recovery.recovered - recovered_before,
                },
            );
        }
        Ok(())
    }

    /// Node-level translation: TLB, then a page-table walk whose entry
    /// reads replay through the data caches and the right memory.
    fn translate(
        &mut self,
        n: usize,
        c: usize,
        vaddr: VirtAddr,
        t: Cycle,
    ) -> Result<(Pte, Cycle), SimError> {
        let vpage = vaddr.vpage();
        let (_, tlb_latency, hit) = self.nodes[n].cores[c].tlb.lookup(vpage);
        let start = t;
        let mut t = t + tlb_latency;
        self.tracer
            .span(Stage::TlbLookup, Track::Node(n as u16), start, t);
        if let Some(pte) = hit {
            return Ok((pte, t));
        }
        // Reused walk buffer: plans land in it instead of a fresh
        // allocation per walk. On early `?` returns it is dropped
        // rather than stored back — harmless, the next walk allocates.
        let mut walk_buf = std::mem::take(&mut self.walk_buf);
        loop {
            let mapping = {
                let node = &mut self.nodes[n];
                fam_vm::PageWalker::plan_into(
                    &node.page_table,
                    Some(&mut node.cores[c].ptw),
                    vpage,
                    &mut walk_buf,
                )
            };
            match mapping {
                None => {
                    // Node-level page fault: the OS installs a mapping.
                    self.tracer.span(
                        Stage::Fault,
                        Track::Node(n as u16),
                        t,
                        t + self.fault_latency,
                    );
                    t += self.fault_latency;
                    let node = &mut self.nodes[n];
                    node.map_page(vaddr, &mut self.broker)
                        .map_err(|source| SimError::FamExhausted { node: n, source })?;
                }
                Some(mut pte) => {
                    let walk_start = t;
                    for acc in &walk_buf {
                        t = self.pt_step_access(n, c, acc.entry_addr, t)?;
                    }
                    if !walk_buf.is_empty() {
                        self.tracer
                            .span(Stage::PtWalk, Track::Node(n as u16), walk_start, t);
                    }
                    // E-FAM lazy PTE heal: a walk surfacing a PTE that
                    // names a quarantined FAM key repairs it in place
                    // (the data was evacuated) or unmaps and refaults
                    // (the data is gone — a counted poisoned access).
                    if self.persistent_handled
                        && self.config.scheme == Scheme::EFam
                        && pte.target_page >= FAM_KEY_PAGE
                    {
                        match self.moved.get(&(pte.target_page - FAM_KEY_PAGE)).copied() {
                            Some(Some(new_fam)) => {
                                let mut alloc = |_level: usize| -> u64 {
                                    unreachable!("rewriting an existing leaf allocates nothing")
                                };
                                self.nodes[n].page_table.map(
                                    vpage,
                                    FAM_KEY_PAGE + new_fam,
                                    pte.flags,
                                    &mut alloc,
                                );
                                pte.target_page = FAM_KEY_PAGE + new_fam;
                                self.degradation.pte_rewrites += 1;
                            }
                            Some(None) => {
                                self.poison();
                                self.nodes[n].page_table.unmap(vpage);
                                continue;
                            }
                            None => {}
                        }
                    }
                    self.nodes[n].cores[c].tlb.fill(vpage, pte);
                    self.walk_buf = walk_buf;
                    return Ok((pte, t));
                }
            }
        }
    }

    /// One page-table entry read: probes the caches, then local DRAM
    /// or (E-FAM only) the FAM.
    fn pt_step_access(
        &mut self,
        n: usize,
        c: usize,
        entry_addr: u64,
        t: Cycle,
    ) -> Result<Cycle, SimError> {
        let lookup = self.nodes[n].hierarchy.access(c, entry_addr / 64, false);
        let mut t = t + lookup.latency;
        if lookup.level.is_none() {
            let page = entry_addr / PAGE_BYTES;
            t = if self.nodes[n].is_fam_page(page) {
                debug_assert_eq!(
                    self.config.scheme,
                    Scheme::EFam,
                    "only E-FAM places node PT pages in FAM"
                );
                self.traffic.at_pte_reads += 1;
                let fam_byte = entry_addr - FAM_KEY_PAGE * PAGE_BYTES;
                self.fam_round_trip(n, t, fam_byte, MemOpKind::Read)?
            } else {
                self.nodes[n].dram.access(t, entry_addr)
            };
        }
        if let Some(wb_line) = lookup.writeback {
            self.writeback(n, wb_line, t);
        }
        Ok(t)
    }
}

/// Runs one Table III benchmark under one configuration and returns
/// the report — the workhorse of the experiment harness. Failures are a
/// typed [`SimError`], so binaries can exit with a readable message: a
/// configuration [`SystemConfig::validate`] refuses is
/// [`SimError::InvalidConfig`] (nothing is built for it), and a name
/// outside Table III is [`SimError::UnknownBenchmark`].
///
/// # Examples
///
/// ```
/// use deact::{try_run_benchmark, Scheme, SimError, SystemConfig};
///
/// let cfg = SystemConfig::paper_default().with_refs_per_core(100);
/// let r = try_run_benchmark("pf", cfg.with_scheme(Scheme::EFam))?;
/// assert_eq!(r.workload, "pf");
///
/// let err = try_run_benchmark("doom", cfg).unwrap_err();
/// assert!(matches!(err, SimError::UnknownBenchmark { .. }));
/// # Ok::<(), SimError>(())
/// ```
pub fn try_run_benchmark(name: &str, config: SystemConfig) -> Result<RunReport, SimError> {
    config
        .validate()
        .map_err(|reason| SimError::InvalidConfig { reason })?;
    let workload = Workload::by_name(name).ok_or_else(|| SimError::UnknownBenchmark {
        name: name.to_string(),
    })?;
    System::new(config, &workload).try_run()
}
