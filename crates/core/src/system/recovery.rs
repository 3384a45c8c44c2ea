//! The persistent-fault protocol: escalation from retries into
//! broker-led recovery (quarantine, evacuation, translation shootdown)
//! and the degraded mode that follows, where accesses to destroyed
//! data are counted as poisoned.

use fam_broker::PageRelocation;
use fam_mem::MemOpKind;
use fam_sim::profile::{self, PhaseId};
use fam_sim::{Cycle, Duration, Stage, Track};
use fam_vm::PAGE_BYTES;

use super::System;
use crate::error::SimError;
use crate::node::FAM_KEY_PAGE;
use crate::translator::RetryState;
use crate::Scheme;

/// Management-path copy bandwidth, in bytes per core cycle, charged on
/// the simulated clock while the broker evacuates still-reachable pages
/// off quarantined FAM (a persistent [`fam_sim::PersistentFault`]).
const EVACUATION_BYTES_PER_CYCLE: u64 = 64;

impl System {
    /// Whether a persistent fault has struck and destroyed the page
    /// holding `fam_byte`. Only the usable data region is in the blast
    /// zone: the Fig. 5 metadata regions (ACM, bitmaps) are
    /// broker-authored and modeled as rebuilt from the broker's mirror
    /// for free.
    pub(super) fn persistent_strikes(&self, fam_byte: u64) -> bool {
        let page = fam_byte / PAGE_BYTES;
        self.injector.persistent_active().is_some()
            && page < self.broker.layout().usable_pages()
            && self.pending_quarantine.contains(page)
    }

    /// The persistent-fault arm of [`System::fam_round_trip`]: the
    /// escalation state machine.
    ///
    /// * **Suspect** — the first access into the blast zone burns its
    ///   full retry budget against unreachable-NACKs (a persistent
    ///   fault never heals under retry).
    /// * **Recovering** — budget exhausted: escalate into the one-shot
    ///   broker-led recovery protocol
    ///   ([`System::recover_from_persistent`]).
    /// * **Degraded** — the system is consistent again. The escalating
    ///   access (and any straggler still naming a quarantined page)
    ///   either redirects to the page's evacuated home or fast-fails
    ///   with a single unreachable-NACK as a counted poisoned access.
    pub(super) fn persistent_path(
        &mut self,
        n: usize,
        t: Cycle,
        fam_byte: u64,
        kind: MemOpKind,
    ) -> Result<Cycle, SimError> {
        let mut t = t;
        let module = self.module_of(fam_byte);
        if !self.persistent_handled {
            let mut state = RetryState::new();
            loop {
                self.recovery.nacks_unreachable += 1;
                t = self.nack_round_trip(n, t, module);
                let Some(backoff) = state.on_fault() else {
                    break;
                };
                t = self.back_off(n, t, backoff);
            }
            t = self.recover_from_persistent(n, t)?;
        }
        let fam_page = fam_byte / PAGE_BYTES;
        match self.moved.get(&fam_page).copied().flatten() {
            Some(new_fam) => {
                // The data survived on another module; the requester
                // re-issues against the evacuated home.
                Ok(self.fam_round_trip_clean(
                    n,
                    t,
                    new_fam * PAGE_BYTES + fam_byte % PAGE_BYTES,
                    kind,
                ))
            }
            None => {
                // Destroyed data (or a mapping recovery never knew
                // about): fast-fail with one NACK and poison the
                // access instead of panicking.
                self.recovery.nacks_unreachable += 1;
                let back = self.nack_round_trip(n, t, module);
                self.poison();
                Ok(back)
            }
        }
    }

    /// The broker-led recovery protocol, run exactly once per run, on
    /// the simulated clock of the access that escalated:
    ///
    /// 1. Quarantine the blast zone in the broker's [`FamLayout`] and
    ///    evacuate still-reachable pages (link-severed modules keep a
    ///    management path; dead nodes and failed media lose their
    ///    data), charging the copy at [`EVACUATION_BYTES_PER_CYCLE`].
    /// 2. Broadcast a translation shootdown to every surviving node:
    ///    stale TLB entries (E-FAM), STU and FAM-PTW cache entries, and
    ///    in-DRAM translation-cache entries naming quarantined pages
    ///    are invalidated, with per-entry latency accounting.
    /// 3. Rebuild node-table pages that lived on the failed hardware
    ///    (the broker authored every entry, so tables are always
    ///    rebuildable).
    ///
    /// [`FamLayout`]: fam_broker::FamLayout
    fn recover_from_persistent(&mut self, n: usize, t: Cycle) -> Result<Cycle, SimError> {
        self.persistent_handled = true;
        let started = t;
        self.degradation.recovery_started_cycle = t.0;
        let fault = self
            .injector
            .persistent_active()
            .expect("recovery runs only on an active persistent fault");
        let (evac, relocations) = self
            .broker
            .quarantine_and_evacuate(self.pending_quarantine, fault.evacuable())
            .map_err(|source| SimError::FamExhausted { node: n, source })?;

        // Evacuation rides the management path at a fixed bandwidth;
        // the protocol is stop-the-world on the simulated clock (every
        // node waits for the broker's all-clear).
        let evacuation_cycles = evac.bytes_copied.div_ceil(EVACUATION_BYTES_PER_CYCLE);
        let mut t = t + Duration(evacuation_cycles);

        for r in &relocations {
            self.moved.entry(r.old_fam_page).or_insert(r.new_fam_page);
            if r.new_fam_page.is_none() {
                self.lost.insert((r.node, r.npa_page));
            }
        }
        let shootdown_start = t;
        t += self.shootdown_all_nodes(&relocations);
        self.tracer
            .span(Stage::Fault, Track::Fabric(n as u16), started, t);

        let d = &mut self.degradation;
        d.pages_quarantined = evac.capacity_pages_lost;
        d.pages_evacuated = evac.pages_evacuated;
        d.pages_lost = evac.pages_lost;
        d.table_pages_rebuilt += evac.table_pages_rebuilt;
        d.evacuation_cycles = evacuation_cycles;
        d.shootdown_cycles = (t - shootdown_start).0;
        d.capacity_pages_remaining = self.broker.layout().usable_pages() - evac.capacity_pages_lost;
        d.recovery_cycles = (t - started).0;
        Ok(t)
    }

    /// The broadcast translation shootdown: every surviving node drops
    /// cached translations that name a quarantined FAM page. Returns
    /// the simulated cost (one management round trip per node plus one
    /// cycle per invalidated entry, serialized on the broker's
    /// management port).
    fn shootdown_all_nodes(&mut self, relocations: &[PageRelocation]) -> Duration {
        let _prof = profile::span(PhaseId::Shootdown);
        let mut invalidations = 0u64;
        let mut cost = Duration(0);
        for m in 0..self.nodes.len() {
            let node_id = self.nodes[m].id;
            let mut node_invalidations = 0u64;
            match self.config.scheme {
                Scheme::EFam => {
                    // E-FAM PTEs embed FAM keys, so stale entries sit in
                    // the per-core TLBs; interior table pages the broker
                    // re-homed are repointed eagerly (the lazy walk-time
                    // heal covers leaf PTEs).
                    let quarantine = self.pending_quarantine;
                    for core in &mut self.nodes[m].cores {
                        node_invalidations += core.tlb.invalidate_stale(|pte| {
                            pte.target_page >= FAM_KEY_PAGE
                                && quarantine.contains(pte.target_page - FAM_KEY_PAGE)
                        }) as u64;
                        core.ptw.flush();
                    }
                    for r in relocations {
                        if r.node != node_id {
                            continue;
                        }
                        if let Some(new_fam) = r.new_fam_page {
                            if self.nodes[m].page_table.relocate_table_page(
                                (FAM_KEY_PAGE + r.old_fam_page) * PAGE_BYTES,
                                (FAM_KEY_PAGE + new_fam) * PAGE_BYTES,
                            ) {
                                self.degradation.table_pages_rebuilt += 1;
                            }
                        }
                    }
                }
                Scheme::IFam => {
                    // Coupled STU entries are keyed by the owning node's
                    // NPA pages; a table rebuild names none.
                    let keys = relocations
                        .iter()
                        .filter(|r| r.node == node_id && !r.is_table_rebuild())
                        .map(|r| r.npa_page);
                    node_invalidations += self.stus[m].shootdown(keys);
                }
                Scheme::DeactW | Scheme::DeactN => {
                    // ACM-organized STU entries are keyed by FAM page
                    // (any node's STU may cache any page), and the
                    // in-DRAM translation cache by this node's NPAs.
                    let keys = relocations.iter().map(|r| r.old_fam_page);
                    node_invalidations += self.stus[m].shootdown(keys);
                    let tr = self.translator(m);
                    for r in relocations {
                        if r.node == node_id
                            && !r.is_table_rebuild()
                            && tr.handle_stale_nack(r.npa_page)
                        {
                            node_invalidations += 1;
                        }
                    }
                }
            }
            invalidations += node_invalidations;
            cost = cost + self.router + self.router + Duration(node_invalidations);
        }
        self.degradation.shootdown_invalidations = invalidations;
        cost
    }

    /// Counts a poisoned access: one that reached data a permanent
    /// failure destroyed.
    pub(super) fn poison(&mut self) {
        self.degradation.poisoned_accesses += 1;
    }
}
