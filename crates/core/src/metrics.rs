//! Run-level metrics: everything the paper's figures plot.

use crate::Scheme;
use fam_sim::LatencyBreakdown;

/// Request traffic observed *at the FAM*, split the way Figs. 4 and 11
/// split it: address-translation (AT) requests vs everything else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FamTraffic {
    /// Data reads reaching the FAM.
    pub data_reads: u64,
    /// Data writes reaching the FAM.
    pub data_writes: u64,
    /// Dirty-line writebacks reaching the FAM.
    pub writebacks: u64,
    /// Node page-table entry reads served by the FAM (E-FAM's AT
    /// traffic: PTE pages live in FAM).
    pub at_pte_reads: u64,
    /// System page-table walk reads issued by STUs.
    pub at_walk_reads: u64,
    /// ACM metadata-block reads (DeACT).
    pub at_acm_reads: u64,
    /// Sharing-bitmap reads (DeACT, shared pages).
    pub at_bitmap_reads: u64,
}

impl FamTraffic {
    /// Address-translation requests (the AT bar of Fig. 4).
    pub fn at_total(&self) -> u64 {
        self.at_pte_reads + self.at_walk_reads + self.at_acm_reads + self.at_bitmap_reads
    }

    /// Non-AT requests.
    pub fn non_at_total(&self) -> u64 {
        self.data_reads + self.data_writes + self.writebacks
    }

    /// All requests at the FAM.
    pub fn total(&self) -> u64 {
        self.at_total() + self.non_at_total()
    }

    /// AT requests as a percentage of all FAM requests (Figs. 4 / 11).
    pub fn at_percent(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.at_total() as f64 * 100.0 / self.total() as f64
        }
    }
}

/// Graceful-degradation accounting: what the fault injector threw at
/// the run and what the retry/NACK machinery did about it.
///
/// All-zero (the [`Default`]) when injection is disabled — the
/// zero-overhead-off contract is that a default run's report differs
/// from a pre-fault-layer run *only* by this all-zero block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultRecovery {
    /// Fabric frames the injector silently dropped.
    pub injected_drops: u64,
    /// Fabric frames the injector corrupted in flight.
    pub injected_corruptions: u64,
    /// Cached translations the injector declared stale.
    pub injected_stale: u64,
    /// STU stalls the injector inserted.
    pub injected_stu_stalls: u64,
    /// Timeout expiries observed by requesters (drop detections).
    pub timeouts: u64,
    /// Corrupt-frame NACKs received (wire CRC rejections).
    pub nacks_corrupt: u64,
    /// Stale-translation NACKs received (DeACT `V`-flag rejections).
    pub nacks_stale: u64,
    /// Unreachable-permanent NACKs received (persistent faults: dead
    /// module, failed media, severed link). These never clear on
    /// retry; the requester escalates to broker recovery instead.
    pub nacks_unreachable: u64,
    /// Reissues performed by the retry state machine.
    pub retries: u64,
    /// Cycles spent waiting out exponential backoff.
    pub backoff_cycles: u64,
    /// Cycles spent stalled behind scheduled link-down windows.
    pub link_down_wait_cycles: u64,
    /// Cycles lost to injected STU stalls.
    pub stu_stall_cycles: u64,
    /// Faulted requests that eventually completed within the retry
    /// budget.
    pub recovered: u64,
    /// Requests that exhausted the retry budget (the run still
    /// completes — degradation, not collapse — but these are the
    /// accesses a real system would surface as machine-check-grade
    /// errors).
    pub fatal: u64,
}

impl FaultRecovery {
    /// Total faults injected into this run.
    pub fn injected_total(&self) -> u64 {
        self.injected_drops
            + self.injected_corruptions
            + self.injected_stale
            + self.injected_stu_stalls
    }

    /// Fraction of faulted requests that recovered within budget
    /// (`1.0` when nothing faulted).
    pub fn recovery_rate(&self) -> f64 {
        let total = self.recovered + self.fatal;
        if total == 0 {
            1.0
        } else {
            self.recovered as f64 / total as f64
        }
    }

    /// Whether the run saw no injected faults at all (the disabled-
    /// injector invariant).
    pub fn is_zero(&self) -> bool {
        *self == FaultRecovery::default()
    }
}

/// What surviving a permanent failure cost: the broker-driven
/// quarantine/evacuation/shootdown protocol's end-to-end accounting,
/// the raw material of graceful-degradation curves.
///
/// All-zero (the [`Default`]) when no persistent fault was scheduled —
/// the same zero-overhead-off contract as [`FaultRecovery`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// Usable FAM pages the quarantine removed from service.
    pub pages_quarantined: u64,
    /// Data pages copied to surviving FAM over the management path.
    pub pages_evacuated: u64,
    /// Data pages destroyed with the failed hardware.
    pub pages_lost: u64,
    /// System-page-table interior pages the broker rebuilt.
    pub table_pages_rebuilt: u64,
    /// Cache entries invalidated by the broadcast shootdown (TLB +
    /// STU + PTW-cache, every surviving node).
    pub shootdown_invalidations: u64,
    /// Cycles the shootdown broadcast cost on the simulated clock.
    pub shootdown_cycles: u64,
    /// Cycles spent copying evacuated pages at the configured
    /// evacuation bandwidth.
    pub evacuation_cycles: u64,
    /// Cycle at which the escalation began (the first access that
    /// exhausted its retry budget against the persistent fault).
    pub recovery_started_cycle: u64,
    /// Cycles from escalation to a fully recovered (degraded but
    /// consistent) system — the time-to-recover metric.
    pub recovery_cycles: u64,
    /// Usable FAM pages remaining in service after the quarantine.
    pub capacity_pages_remaining: u64,
    /// Accesses that surfaced as poisoned (data loss) after recovery.
    pub poisoned_accesses: u64,
    /// E-FAM node PTEs lazily rewritten to evacuated locations at walk
    /// time.
    pub pte_rewrites: u64,
    /// Dirty writebacks dropped because their target was quarantined.
    pub writebacks_dropped: u64,
}

impl DegradationReport {
    /// Whether the run survived without any permanent failure (the
    /// disabled-schedule invariant).
    pub fn is_zero(&self) -> bool {
        *self == DegradationReport::default()
    }
}

/// The result of one simulation run: one benchmark under one scheme
/// and configuration.
///
/// It holds simulated state only, so `PartialEq` compares every field
/// (including the `f64` rates), which is exactly what the
/// scheduler-equivalence and determinism tests need: two runs are "the
/// same" only if they are bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Scheme simulated.
    pub scheme: Scheme,
    /// Benchmark name.
    pub workload: String,
    /// Nodes simulated.
    pub nodes: usize,
    /// Cores per node.
    pub cores_per_node: usize,
    /// Instructions retired, all cores.
    pub instructions: u64,
    /// Makespan in cycles.
    pub cycles: u64,
    /// System IPC (`instructions / cycles`); the paper's normalized
    /// performance is the ratio of this across schemes.
    pub ipc: f64,
    /// Traffic observed at the FAM.
    pub fam: FamTraffic,
    /// FAM address-translation hit rate (Fig. 10): the STU's coupled
    /// entry hit rate for I-FAM, the in-DRAM translation cache hit
    /// rate for DeACT. `None` for E-FAM (no system-level translation).
    pub translation_hit_rate: Option<f64>,
    /// ACM hit rate at the STU (Fig. 9). `None` for E-FAM.
    pub acm_hit_rate: Option<f64>,
    /// Node TLB hit rate.
    pub tlb_hit_rate: f64,
    /// LLC misses per kilo-instruction (Table III's metric).
    pub mpki: f64,
    /// Local DRAM reads (data + translation-cache traffic).
    pub dram_reads: u64,
    /// Local DRAM writes.
    pub dram_writes: u64,
    /// Page faults (node-level first touches plus system-level
    /// demand maps).
    pub faults: u64,
    /// Fault-injection and recovery accounting (all-zero when the
    /// injector is disabled).
    pub recovery: FaultRecovery,
    /// Permanent-failure survival accounting (all-zero when no
    /// persistent fault was scheduled).
    pub degradation: DegradationReport,
    /// References simulated per core.
    pub refs_per_core: u64,
    /// Per-stage span totals (count, summed cycles, longest span),
    /// summed across nodes and devices. Filled on every run, traced or
    /// not. Nested spans count in each of their stages, so the stages
    /// do not partition the run's cycles.
    pub latency: LatencyBreakdown,
    /// Always `0.0`. This once measured how much of a run a fused fast
    /// path retired without the scheduler heap; that fast path was
    /// removed (the plain heap scheduler measured faster), and the
    /// field remains only because downstream benchmark tooling still
    /// reads it.
    pub fast_path_coverage: f64,
}

/// One conservation-audit check: an invariant the system's counters
/// must satisfy at end of run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditCheck {
    /// Stable check name (e.g. `refs-conservation`).
    pub name: &'static str,
    /// Whether the invariant held.
    pub passed: bool,
    /// Human-readable statement of the invariant with both sides'
    /// values, or the reason the check was skipped.
    pub detail: String,
}

/// The result of [`crate::System::audit`]: every cross-metric
/// conservation invariant, with pass/fail/skip detail.
///
/// Checks that depend on fault injection being off (fabric traversal
/// parity) or on no permanent failure being scheduled (NVM/traffic
/// balance, drop accounting) are *skipped* — reported passing with a
/// "skipped" detail — rather than misapplied.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Every check performed, in a stable order.
    pub checks: Vec<AuditCheck>,
}

impl AuditReport {
    /// True when every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for c in &self.checks {
            writeln!(
                f,
                "[{}] {:<24} {}",
                if c.passed { "ok" } else { "FAIL" },
                c.name,
                c.detail
            )?;
        }
        Ok(())
    }
}

impl RunReport {
    /// Performance of this run normalized to a baseline run (the y
    /// axis of Figs. 3 and 12: `self` relative to E-FAM).
    pub fn normalized_to(&self, baseline: &RunReport) -> f64 {
        self.ipc / baseline.ipc
    }

    /// Speedup of this run over another (the y axis of Figs. 13–16:
    /// DeACT relative to I-FAM).
    pub fn speedup_over(&self, other: &RunReport) -> f64 {
        self.ipc / other.ipc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic() -> FamTraffic {
        FamTraffic {
            data_reads: 60,
            data_writes: 20,
            writebacks: 10,
            at_pte_reads: 5,
            at_walk_reads: 3,
            at_acm_reads: 1,
            at_bitmap_reads: 1,
        }
    }

    #[test]
    fn traffic_totals() {
        let t = traffic();
        assert_eq!(t.at_total(), 10);
        assert_eq!(t.non_at_total(), 90);
        assert_eq!(t.total(), 100);
        assert!((t.at_percent() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_traffic_is_zero_percent() {
        assert_eq!(FamTraffic::default().at_percent(), 0.0);
    }

    fn report(ipc: f64) -> RunReport {
        RunReport {
            scheme: Scheme::EFam,
            workload: "test".into(),
            nodes: 1,
            cores_per_node: 4,
            instructions: 1000,
            cycles: 100,
            ipc,
            fam: FamTraffic::default(),
            translation_hit_rate: None,
            acm_hit_rate: None,
            tlb_hit_rate: 0.9,
            mpki: 50.0,
            dram_reads: 0,
            dram_writes: 0,
            faults: 0,
            recovery: FaultRecovery::default(),
            degradation: DegradationReport::default(),
            refs_per_core: 10,
            latency: LatencyBreakdown::default(),
            fast_path_coverage: 0.0,
        }
    }

    #[test]
    fn normalization_and_speedup() {
        let efam = report(2.0);
        let ifam = report(0.5);
        assert!((ifam.normalized_to(&efam) - 0.25).abs() < 1e-12);
        assert!((efam.speedup_over(&ifam) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn recovery_defaults_to_zero_and_full_rate() {
        let r = FaultRecovery::default();
        assert!(r.is_zero());
        assert_eq!(r.injected_total(), 0);
        assert_eq!(r.recovery_rate(), 1.0, "no faults means perfect rate");
    }

    #[test]
    fn degradation_defaults_to_zero() {
        let d = DegradationReport::default();
        assert!(d.is_zero());
        let populated = DegradationReport {
            pages_lost: 1,
            ..DegradationReport::default()
        };
        assert!(!populated.is_zero());
    }

    #[test]
    fn recovery_rate_and_totals() {
        let a = FaultRecovery {
            injected_drops: 3,
            injected_corruptions: 2,
            retries: 5,
            backoff_cycles: 900,
            recovered: 4,
            fatal: 1,
            ..FaultRecovery::default()
        };
        assert_eq!(a.injected_total(), 5);
        assert!((a.recovery_rate() - 0.8).abs() < 1e-12);
        assert!(!a.is_zero());
    }
}
