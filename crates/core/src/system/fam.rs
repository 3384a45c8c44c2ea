//! The FAM data path: how each scheme turns a node page into a
//! verified FAM address, the node↔FAM round trip and its transient
//! retries, the STU's system-table walk, and dirty-line writebacks.

use fam_broker::AccessKind;
use fam_fabric::packet::{PACKET_BYTES, RESPONSE_BYTES};
use fam_mem::MemOpKind;
use fam_sim::{Cycle, Duration, FabricFault, Stage, Track};
use fam_vm::PAGE_BYTES;

use super::System;
use crate::error::SimError;
use crate::node::FAM_KEY_PAGE;
use crate::translator::{FamTranslator, RetryState, TIMEOUT_CYCLES};
use crate::Scheme;

impl System {
    /// A last-level miss to a FAM-backed node page. The scheme decides
    /// how `page` becomes a verified FAM page (paper Figs. 2 and 6):
    /// the E-FAM node PTE already holds it, the I-FAM STU translates
    /// and checks it, and the DeACT translator supplies it for the STU
    /// to check. The data then takes one round trip.
    pub(super) fn fam_access(
        &mut self,
        n: usize,
        t: Cycle,
        page: u64,
        offset: u64,
        kind: MemOpKind,
    ) -> Result<Cycle, SimError> {
        let (fam_page, t) = match self.config.scheme {
            Scheme::EFam => (page - FAM_KEY_PAGE, t),
            Scheme::IFam => self.ifam_translate(n, t, page, kind)?,
            Scheme::DeactW | Scheme::DeactN => self.deact_translate(n, t, page, kind)?,
        };
        match kind {
            MemOpKind::Read => self.traffic.data_reads += 1,
            MemOpKind::Write => self.traffic.data_writes += 1,
        }
        let done = self.fam_round_trip(n, t, fam_page * PAGE_BYTES + offset, kind)?;
        if kind == MemOpKind::Read {
            // The response carries its FAM address; the outstanding-
            // mapping list hands back the node page (Fig. 7).
            if let Some(tr) = self.nodes[n].translator.as_mut() {
                tr.oml_mut().complete(fam_page);
            }
        }
        if self.config.scheme == Scheme::EFam {
            Ok(done)
        } else {
            Ok(done + self.router) // response back through the router
        }
    }

    /// The DeACT node's FAM translator.
    pub(super) fn translator(&mut self, n: usize) -> &mut FamTranslator {
        self.nodes[n]
            .translator
            .as_mut()
            .expect("DeACT nodes have a translator")
    }

    /// The I-FAM translation (Fig. 2b): every FAM access is translated
    /// *and* verified at the STU. Returns the FAM page and when the
    /// data request may leave the STU.
    fn ifam_translate(
        &mut self,
        n: usize,
        t: Cycle,
        npa_page: u64,
        kind: MemOpKind,
    ) -> Result<(u64, Cycle), SimError> {
        let node_id = self.nodes[n].id;
        let acc_kind = access_kind(kind);
        let lookup_done = t + self.router + self.stu_lookup; // node → STU lookup
        self.tracer
            .span(Stage::StuLookup, Track::Stu(n as u16), t, lookup_done);
        let mut t = lookup_done;
        let fam_page = match self.stus[n].cache_mut().ifam_lookup(npa_page) {
            Some(fam_page) => fam_page,
            None => {
                // Coupled-entry miss: walk serialized at the FAM-PTW
                // (`stu_walk` handles system faults internally), then
                // fill the coupled entry.
                let (fam_page, tw) = self.stu_walk(n, t, npa_page)?;
                t = tw;
                self.stus[n].cache_mut().ifam_fill(npa_page, fam_page);
                fam_page
            }
        };
        assert!(
            self.broker.check_access(node_id, fam_page, acc_kind),
            "benign workloads never trip access control"
        );
        Ok((fam_page, t))
    }

    /// The DeACT translation (Fig. 6): unverified node-side translation
    /// from the in-DRAM cache, then decoupled verification at the STU.
    /// Returns the FAM page and when the data request may leave the
    /// STU.
    fn deact_translate(
        &mut self,
        n: usize,
        t: Cycle,
        npa_page: u64,
        kind: MemOpKind,
    ) -> Result<(u64, Cycle), SimError> {
        let node_id = self.nodes[n].id;
        let acc_kind = access_kind(kind);

        // ① FAM translator: one DRAM set read + parallel tag match.
        let t_in = t;
        let set_addr = self.translator(n).dram_addr_of(npa_page);
        let mut t = self.nodes[n].dram.access(t, set_addr) + Duration(1);
        self.tracer
            .span(Stage::TranslationCache, Track::Node(n as u16), t_in, t);

        let mut cached = self.translator(n).lookup(npa_page);
        if self.config.translation_cache_lru {
            // §III-C: LRU means writing back updated recency bits on
            // every access — an extra DRAM write off the critical path.
            self.nodes[n].dram.write(t, set_addr);
        }

        // Injected staleness: the broker remapped this page behind the
        // node's back, so the STU rejects the `V = 1` request with a
        // stale-NACK (the DeACT verification story — unverified cached
        // translations are *allowed* to be wrong, and this is the
        // hardware path that makes that safe). The node invalidates the
        // cached entry and falls back to the full STU walk below.
        let mut stale_nacked = false;
        if cached.is_some() && self.injector.is_enabled() && self.injector.stale_translation() {
            // The doomed pre-translated request travels node → STU and
            // the NACK travels back before the node can react.
            self.tracer.span(
                Stage::Fault,
                Track::Stu(n as u16),
                t,
                t + self.router + self.stu_lookup + self.router,
            );
            t += self.router + self.stu_lookup + self.router;
            self.recovery.nacks_stale += 1;
            self.translator(n).handle_stale_nack(npa_page);
            // Invalidation is a read-modify-write of the set's tags.
            self.nodes[n].dram.write(t, set_addr);
            cached = None;
            stale_nacked = true;
        }
        let fam_page = match cached {
            Some(fam_page) => {
                // ③ forward pre-translated with V = 1.
                t += self.router;
                fam_page
            }
            None => {
                // ④ V = 0: the STU walks on our behalf...
                t += self.router;
                let (fam_page, tw) = self.stu_walk(n, t, npa_page)?;
                t = tw;
                if stale_nacked {
                    // The reissue-as-unverified walk *is* the retry, and
                    // completing it is the recovery.
                    self.recovery.retries += 1;
                    self.recovery.recovered += 1;
                }
                // ⑤ ...and returns the mapping; the translator updates
                // the in-DRAM cache with a read-modify-write that only
                // occupies the channel (off the critical path).
                self.translator(n).install(npa_page, fam_page);
                self.nodes[n].dram.access(t, set_addr);
                self.nodes[n].dram.write(t, set_addr);
                fam_page
            }
        };

        // Outstanding-mapping-list bookkeeping (reads expect data
        // responses tagged with FAM addresses).
        if kind == MemOpKind::Read {
            self.translator(n).oml_mut().register(fam_page, npa_page);
        }

        // Decoupled verification at the STU. Under the §III-A
        // encrypted-memory extension, reads skip verification entirely
        // (a foreign node's ciphertext is useless without its key).
        if !(self.config.skip_read_checks && kind == MemOpKind::Read) {
            let req = self.tracer.current();
            let v = self.stus[n].verify(&self.broker, node_id, fam_page, acc_kind, req);
            self.tracer.span(
                Stage::StuLookup,
                Track::Stu(n as u16),
                t,
                t + self.stu_lookup,
            );
            t += self.stu_lookup;
            if let Some(acm_addr) = v.acm_fetch_addr {
                let fetch_start = t;
                self.traffic.at_acm_reads += 1;
                t = self.fam_round_trip(n, t, acm_addr, MemOpKind::Read)?;
                if let Some(bitmap_addr) = v.bitmap_fetch_addr {
                    self.traffic.at_bitmap_reads += 1;
                    t = self.fam_round_trip(n, t, bitmap_addr, MemOpKind::Read)?;
                }
                self.tracer
                    .span(Stage::AcmFetch, Track::Stu(n as u16), fetch_start, t);
            }
            assert!(v.allowed, "benign workloads never trip access control");
        }
        Ok((fam_page, t))
    }

    /// A node↔FAM round trip for one block: fabric there, device
    /// service, fabric back. Every FAM request in every scheme funnels
    /// through here, so this is where injected fabric faults strike
    /// and where the retry/timeout/backoff machine recovers from them.
    /// A *persistent* fault on the target page never heals under retry
    /// and escalates into broker-led recovery instead
    /// ([`System::persistent_path`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FamExhausted`] when the recovery protocol a
    /// persistent fault escalates into cannot re-home evacuated pages.
    pub(super) fn fam_round_trip(
        &mut self,
        n: usize,
        t: Cycle,
        fam_byte: u64,
        kind: MemOpKind,
    ) -> Result<Cycle, SimError> {
        if !self.injector.is_enabled() {
            return Ok(self.fam_round_trip_clean(n, t, fam_byte, kind));
        }
        self.injector.note_fam_op();
        if self.persistent_strikes(fam_byte) {
            return self.persistent_path(n, t, fam_byte, kind);
        }
        let mut t = t;
        let mut state = RetryState::new();
        loop {
            // Scheduled link-down window: the requester sits at the
            // serializer until the link returns.
            let up = self.injector.link_up_at(t);
            self.recovery.link_down_wait_cycles += (up - t).0;
            if up > t {
                self.tracer
                    .span(Stage::Fault, Track::Fabric(n as u16), t, up);
            }
            t = up;
            match self.injector.fabric_fault() {
                None => {
                    let done = self.fam_round_trip_clean(n, t, fam_byte, kind);
                    if state.attempts() > 0 {
                        self.recovery.recovered += 1;
                    }
                    return Ok(done);
                }
                Some(FabricFault::Drop) => {
                    // The frame left the node (the link was occupied)
                    // and vanished; the requester burns the timeout.
                    let module = self.module_of(fam_byte);
                    self.fabric.node_to_fam(t, n, module);
                    self.recovery.timeouts += 1;
                    let expiry = t + Duration(TIMEOUT_CYCLES);
                    self.tracer
                        .span(Stage::Retry, Track::Fabric(n as u16), t, expiry);
                    t = expiry;
                }
                Some(FabricFault::Corrupt) => {
                    // One corrupted byte in the request frame. The CRC
                    // trailer catches every such flip (packet.rs's
                    // exhaustive test), so the FAM side answers with a
                    // corrupt-NACK: a full fabric round trip with no
                    // device service. The site is drawn but not applied,
                    // which keeps the injector's RNG sequence.
                    let _site = self.injector.corruption_site(PACKET_BYTES);
                    self.recovery.nacks_corrupt += 1;
                    let module = self.module_of(fam_byte);
                    t = self.nack_round_trip(n, t, module);
                }
            }
            match state.on_fault() {
                Some(backoff) => t = self.back_off(n, t, backoff),
                None => {
                    // Graceful degradation: the access is counted as
                    // fatal (a real system would raise a poison/MCE)
                    // but still completes so the run finishes and the
                    // damage is measurable instead of a crash.
                    self.recovery.fatal += 1;
                    return Ok(self.fam_round_trip_clean(n, t, fam_byte, kind));
                }
            }
        }
    }

    /// The retry arm after a fabric fault: counts the retry, charges
    /// the backoff and traces it; returns when the requester reissues.
    pub(super) fn back_off(&mut self, n: usize, t: Cycle, backoff: Duration) -> Cycle {
        self.recovery.retries += 1;
        self.recovery.backoff_cycles += backoff.0;
        self.tracer
            .span(Stage::Backoff, Track::Fabric(n as u16), t, t + backoff);
        t + backoff
    }

    /// One fabric round trip ending in a NACK instead of data: the
    /// request crosses to `module` and a `RESPONSE_BYTES` NACK comes
    /// back with no device service. Both the corrupt-NACK and the
    /// unreachable-NACK (from a failed endpoint's management plane —
    /// the data path is gone, the enclosure still answers) take it.
    pub(super) fn nack_round_trip(&mut self, n: usize, t: Cycle, module: usize) -> Cycle {
        let arrival = self.fabric.node_to_fam(t, n, module);
        let back = self
            .fabric
            .fam_to_node(arrival, n, module, RESPONSE_BYTES as u64);
        self.tracer
            .span(Stage::Retry, Track::Fabric(n as u16), t, back);
        back
    }

    /// The fault-free round trip: fabric there, device service,
    /// fabric back.
    pub(super) fn fam_round_trip_clean(
        &mut self,
        n: usize,
        t: Cycle,
        fam_byte: u64,
        kind: MemOpKind,
    ) -> Cycle {
        let module = self.module_of(fam_byte);
        let arrival = self.fabric.node_to_fam(t, n, module);
        let done = self.nvm[module].access(arrival, fam_byte, kind);
        let ret = self.fabric.fam_to_node(done, n, module, 64);
        self.tracer
            .span(Stage::FabricSend, Track::Fabric(n as u16), t, arrival);
        self.tracer
            .span(Stage::NvmAccess, Track::Nvm(module as u16), arrival, done);
        self.tracer
            .span(Stage::FabricRecv, Track::Fabric(n as u16), done, ret);
        ret
    }

    /// Selects the FAM module backing an address (page-interleaved).
    pub(super) fn module_of(&self, fam_byte: u64) -> usize {
        // Single-module systems (the paper default) skip the divide.
        let modules = self.nvm.len();
        if modules == 1 {
            return 0;
        }
        ((fam_byte / PAGE_BYTES) % modules as u64) as usize
    }

    /// Walks the system page table at the STU, serialized on the
    /// node's single FAM-PTW unit; every entry read is a FAM round
    /// trip counted as AT traffic.
    fn stu_walk(&mut self, n: usize, t: Cycle, npa_page: u64) -> Result<(u64, Cycle), SimError> {
        let node_id = self.nodes[n].id;
        let mut t = t;
        // Injected STU stall: the unit is briefly unresponsive (queue
        // backpressure, firmware hiccup) before the walk begins.
        if self.injector.is_enabled() {
            if let Some(stall) = self.injector.stu_stall() {
                self.recovery.stu_stall_cycles += stall.0;
                self.tracer
                    .span(Stage::Fault, Track::Stu(n as u16), t, t + stall);
                t += stall;
            }
        }
        // Reused walk buffer, as for node walks (dropped on early `?`
        // returns; the next walk allocates).
        let mut walk_buf = std::mem::take(&mut self.walk_buf);
        loop {
            match self.stus[n].walk_system_table_into(
                &self.broker,
                node_id,
                npa_page,
                self.tracer.current(),
                &mut walk_buf,
            ) {
                Ok(pte) => {
                    let fam_page = pte.target_page;
                    let start = t.max(self.walker_free[n]);
                    let mut tw = start;
                    for acc in &walk_buf {
                        self.traffic.at_walk_reads += 1;
                        tw = self.fam_round_trip(n, tw, acc.entry_addr, MemOpKind::Read)?;
                    }
                    if tw > start {
                        self.tracer
                            .span(Stage::StuWalk, Track::Stu(n as u16), start, tw);
                    }
                    // A walk whose entry reads escalated into recovery
                    // planned against the pre-recovery table; its
                    // mapping may name a page that no longer exists.
                    // The walker re-walks the (now rewritten) table —
                    // the raced shootdown's retry.
                    if self.persistent_handled && self.persistent_strikes(fam_page * PAGE_BYTES) {
                        t = tw;
                        continue;
                    }
                    self.walker_free[n] = tw;
                    self.walk_buf = walk_buf;
                    return Ok((fam_page, tw));
                }
                Err(_) => {
                    // A mapping the recovery protocol removed because
                    // its data died with the hardware: the re-walk is a
                    // poisoned access (the refault below hands back a
                    // fresh page, not the lost bytes).
                    if self.persistent_handled && self.lost.remove(&(node_id, npa_page)) {
                        self.poison();
                    }
                    // System-level fault: the STU asks the broker for
                    // a page (§II-C) and retries.
                    self.tracer.span(
                        Stage::Fault,
                        Track::Stu(n as u16),
                        t,
                        t + self.fault_latency,
                    );
                    t += self.fault_latency;
                    self.nodes[n]
                        .system_fault(npa_page, &mut self.broker)
                        .map_err(|source| SimError::FamExhausted { node: n, source })?;
                }
            }
        }
    }

    /// A dirty-line writeback, off the critical path: it occupies the
    /// memory resources at `at` but delays nobody directly.
    pub(super) fn writeback(&mut self, n: usize, wb_line: u64, at: Cycle) {
        let byte = wb_line * 64;
        let page = byte / PAGE_BYTES;
        if self.nodes[n].is_fam_page(page) {
            let fam_byte = if self.config.scheme == Scheme::EFam {
                byte - FAM_KEY_PAGE * PAGE_BYTES
            } else {
                // The LLC holds node addresses; eviction reuses the
                // system translation (hardware tags the line), so no
                // timing charge and no AT traffic. A mapping the
                // recovery protocol removed has nowhere to land — the
                // dirty line dies with the hardware it named.
                let Some(pte) = self.broker.translate(self.nodes[n].id, page) else {
                    if self.persistent_handled {
                        self.degradation.writebacks_dropped += 1;
                    }
                    return;
                };
                pte.target_page * PAGE_BYTES + byte % PAGE_BYTES
            };
            // A dirty line still tagged with a quarantined FAM address
            // (E-FAM keys embed the page): the write follows evacuated
            // data to its new home; with the data destroyed it is
            // dropped — the target no longer exists.
            let mut fam_byte = fam_byte;
            if self.injector.is_enabled() && self.persistent_strikes(fam_byte) {
                match self.moved.get(&(fam_byte / PAGE_BYTES)).copied().flatten() {
                    Some(new_fam) => fam_byte = new_fam * PAGE_BYTES + fam_byte % PAGE_BYTES,
                    None => {
                        self.degradation.writebacks_dropped += 1;
                        return;
                    }
                }
            }
            self.traffic.writebacks += 1;
            let module = self.module_of(fam_byte);
            let arrival = self.fabric.node_to_fam(at, n, module);
            self.nvm[module].access(arrival, fam_byte, MemOpKind::Write);
        } else {
            self.nodes[n].dram.write(at, byte);
        }
    }
}

fn access_kind(kind: MemOpKind) -> AccessKind {
    match kind {
        MemOpKind::Read => AccessKind::Read,
        MemOpKind::Write => AccessKind::Write,
    }
}
