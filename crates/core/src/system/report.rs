//! The end-of-run view: the [`RunReport`], the named metrics registry
//! and the conservation audit every run passes before it reports.

use fam_sim::stats::Ratio;
use fam_sim::Cycle;

use super::System;
use crate::error::SimError;
use crate::metrics::{AuditCheck, AuditReport, FaultRecovery, RunReport};
use crate::node::Node;
use crate::Scheme;

impl System {
    /// Assembles the run report once the end-of-run conservation
    /// audit passes, so every run in every build checks its own books.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AuditFailed`] when a counter invariant does
    /// not hold.
    pub(super) fn report(&self) -> Result<RunReport, SimError> {
        let audit = self.audit();
        if !audit.passed() {
            return Err(SimError::AuditFailed { audit });
        }
        let instructions: u64 = self.nodes.iter().map(Node::instructions).sum();
        let cycles = self
            .nodes
            .iter()
            .map(Node::finish)
            .max()
            .unwrap_or(Cycle::ZERO)
            .0
            .max(1);
        let mut tlb = Ratio::new();
        for node in &self.nodes {
            for core in &node.cores {
                tlb.merge(core.tlb.stats());
            }
        }
        let mut llc = Ratio::new();
        for node in &self.nodes {
            llc.merge(node.hierarchy.llc_stats());
        }
        let mut acm = Ratio::new();
        for stu in &self.stus {
            acm.merge(stu.acm_stats());
        }
        let mut tr = Ratio::new();
        for node in &self.nodes {
            if let Some(t) = &node.translator {
                tr.merge(t.hit_ratio());
            }
        }
        let (translation_hit_rate, acm_hit_rate) = match self.config.scheme {
            Scheme::EFam => (None, None),
            Scheme::IFam => (Some(acm.rate()), Some(acm.rate())),
            Scheme::DeactW | Scheme::DeactN => (Some(tr.rate()), Some(acm.rate())),
        };
        Ok(RunReport {
            scheme: self.config.scheme,
            workload: self.workload_name.clone(),
            nodes: self.config.nodes,
            cores_per_node: self.config.cores_per_node,
            instructions,
            cycles,
            ipc: instructions as f64 / cycles as f64,
            fam: self.traffic,
            translation_hit_rate,
            acm_hit_rate,
            tlb_hit_rate: tlb.rate(),
            mpki: llc.misses() as f64 / (instructions as f64 / 1000.0),
            dram_reads: self.nodes.iter().map(|n| n.dram.reads()).sum(),
            dram_writes: self.nodes.iter().map(|n| n.dram.writes()).sum(),
            faults: self.nodes.iter().map(|n| n.faults).sum(),
            recovery: self.recovery_report(),
            degradation: self.degradation,
            refs_per_core: self.config.refs_per_core,
            latency: *self.tracer.breakdown(),
            fast_path_coverage: 0.0,
        })
    }

    /// Combines the injector's view (what was thrown) with the
    /// system's view (what was done about it).
    fn recovery_report(&self) -> FaultRecovery {
        let mut r = self.recovery;
        let injected = self.injector.stats();
        r.injected_drops = injected.drops;
        r.injected_corruptions = injected.corruptions;
        r.injected_stale = injected.stale_marks;
        r.injected_stu_stalls = injected.stu_stalls;
        r
    }

    /// Collects every component's raw counters into one named
    /// [`fam_sim::Registry`] snapshot, the per-unit export.
    ///
    /// Names are hierarchical and stable: `node{n}/…` for per-node
    /// state, `nvm{m}/…` per FAM module, `traffic/…` for the
    /// cross-fabric request mix, and `recovery/…` for the fault
    /// ledger.
    pub fn metrics(&self) -> fam_sim::Registry {
        let mut reg = fam_sim::Registry::new();
        for (n, node) in self.nodes.iter().enumerate() {
            let mut tlb = Ratio::new();
            let mut staged = 0u64;
            let mut refs_done = 0u64;
            for core in &node.cores {
                tlb.merge(core.tlb.stats());
                staged = staged.saturating_add(core.gen.emitted());
                refs_done = refs_done.saturating_add(core.refs_done);
            }
            *reg.ratio(&format!("node{n}/tlb")) = tlb;
            *reg.counter(&format!("node{n}/staged")) += staged;
            *reg.counter(&format!("node{n}/refs_done")) += refs_done;
            *reg.counter(&format!("node{n}/faults")) += node.faults;
            *reg.counter(&format!("node{n}/dram_reads")) += node.dram.reads();
            *reg.counter(&format!("node{n}/dram_writes")) += node.dram.writes();
            *reg.ratio(&format!("node{n}/llc")) = node.hierarchy.llc_stats();
        }
        for (m, nvm) in self.nvm.iter().enumerate() {
            *reg.counter(&format!("nvm{m}/reads")) += nvm.reads();
            *reg.counter(&format!("nvm{m}/writes")) += nvm.writes();
            *reg.counter(&format!("nvm{m}/admission_stalls")) += nvm.admission_stalls();
        }
        for (s, stu) in self.stus.iter().enumerate() {
            *reg.ratio(&format!("stu{s}/acm")) = stu.acm_stats();
        }
        *reg.counter("fabric/traversals") += self.fabric.traversals();
        let t = &self.traffic;
        *reg.counter("traffic/data_reads") += t.data_reads;
        *reg.counter("traffic/data_writes") += t.data_writes;
        *reg.counter("traffic/writebacks") += t.writebacks;
        *reg.counter("traffic/at_pte_reads") += t.at_pte_reads;
        *reg.counter("traffic/at_walk_reads") += t.at_walk_reads;
        *reg.counter("traffic/at_acm_reads") += t.at_acm_reads;
        *reg.counter("traffic/at_bitmap_reads") += t.at_bitmap_reads;
        let r = self.recovery_report();
        *reg.counter("recovery/timeouts") += r.timeouts;
        *reg.counter("recovery/retries") += r.retries;
        *reg.counter("recovery/nacks_corrupt") += r.nacks_corrupt;
        *reg.counter("recovery/nacks_stale") += r.nacks_stale;
        *reg.counter("recovery/nacks_unreachable") += r.nacks_unreachable;
        *reg.counter("recovery/recovered") += r.recovered;
        *reg.counter("recovery/fatal") += r.fatal;
        *reg.counter("recovery/injected_drops") += r.injected_drops;
        *reg.counter("recovery/injected_corruptions") += r.injected_corruptions;
        reg
    }

    /// End-of-run conservation audit: cross-checks independently
    /// maintained counters against each other, summed straight from
    /// the components.
    ///
    /// Invariants checked:
    ///
    /// 1. `refs-conservation` — every staged reference (each one a
    ///    generator draw) retired
    ///    (poisoned accesses retire through the degraded path, so
    ///    they are *included* in `refs_done`).
    /// 2. `tlb-conservation` — exactly one TLB hierarchy lookup per
    ///    retired reference.
    /// 3. `nvm-traffic-balance` — every FAM traffic increment lands
    ///    exactly one NVM access; skipped when a permanent failure is
    ///    scheduled (evacuation copies bypass the traffic ledger).
    /// 4. `fabric-parity` — reads cross the fabric twice and posted
    ///    writebacks once, so `traversals == 2*total - writebacks`;
    ///    skipped when fault injection is enabled (retries and NACKs
    ///    add traversals).
    /// 5. `drop-accounting` — every injected drop was seen as exactly
    ///    one timeout; skipped under permanent failures (a dead
    ///    module times out without injector bookkeeping).
    /// 6. `crc-detection` — every injected corruption is answered by
    ///    one corrupt NACK; skipped under permanent failures. Detection
    ///    itself is guaranteed by `fam_fabric::packet`'s exhaustive
    ///    test (`every_single_byte_corruption_fails_the_checksum`); the
    ///    injector still draws each corruption site, for RNG
    ///    stability, but no frame is encoded per fault.
    pub fn audit(&self) -> AuditReport {
        let cores = || self.nodes.iter().flat_map(|n| &n.cores);
        let mut checks = Vec::new();
        fn check(
            checks: &mut Vec<AuditCheck>,
            name: &'static str,
            lhs: (&str, u64),
            rhs: (&str, u64),
        ) {
            checks.push(AuditCheck {
                name,
                passed: lhs.1 == rhs.1,
                detail: format!("{} = {} vs {} = {}", lhs.0, lhs.1, rhs.0, rhs.1),
            });
        }
        fn skip(checks: &mut Vec<AuditCheck>, name: &'static str, why: &str) {
            checks.push(AuditCheck {
                name,
                passed: true,
                detail: format!("skipped: {why}"),
            });
        }

        let refs_done = cores().map(|c| c.refs_done).sum();
        check(
            &mut checks,
            "refs-conservation",
            ("staged", cores().map(|c| c.gen.emitted()).sum()),
            ("refs_done", refs_done),
        );
        let tlb_lookups = cores().map(|c| c.tlb.stats().total()).sum();
        check(
            &mut checks,
            "tlb-conservation",
            ("tlb lookups", tlb_lookups),
            ("refs_done", refs_done),
        );

        let traffic_total = self.traffic.total();
        let permanent = "permanent failure scheduled";
        let persistent = self.injector.persistent_schedule().is_some();
        if persistent {
            skip(&mut checks, "nvm-traffic-balance", permanent);
        } else {
            let nvm_accesses = self.nvm.iter().map(|m| m.reads() + m.writes()).sum();
            check(
                &mut checks,
                "nvm-traffic-balance",
                ("nvm accesses", nvm_accesses),
                ("traffic total", traffic_total),
            );
        }

        if self.injector.is_enabled() {
            skip(&mut checks, "fabric-parity", "fault injection enabled");
        } else {
            check(
                &mut checks,
                "fabric-parity",
                ("fabric traversals", self.fabric.traversals()),
                (
                    "2*traffic - writebacks",
                    2 * traffic_total - self.traffic.writebacks,
                ),
            );
        }

        if persistent {
            skip(&mut checks, "drop-accounting", permanent);
            skip(&mut checks, "crc-detection", permanent);
        } else {
            let r = self.recovery_report();
            check(
                &mut checks,
                "drop-accounting",
                ("timeouts", r.timeouts),
                ("injected drops", r.injected_drops),
            );
            check(
                &mut checks,
                "crc-detection",
                ("corrupt NACKs", r.nacks_corrupt),
                ("injected corruptions", r.injected_corruptions),
            );
        }
        AuditReport { checks }
    }
}
