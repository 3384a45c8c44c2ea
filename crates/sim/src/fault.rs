//! Deterministic, seed-driven fault injection for the simulation
//! substrate.
//!
//! Real fabric-attached-memory interconnects see transient link
//! errors, congestion-induced timeouts, and stale-mapping rejections;
//! a virtual-memory scheme for FAM is only credible if its recovery
//! half is exercised. This module provides the substrate-level
//! [`FaultInjector`]: timing models ask it whether a traversal is
//! dropped or corrupted, whether a link is inside a scheduled
//! down-window, whether the STU momentarily stalls, and whether a
//! cached translation has gone stale.
//!
//! Two properties are load-bearing:
//!
//! * **Determinism** — all probabilistic draws come from one seeded
//!   [`SimRng`] consumed in simulation order, and link-down windows are
//!   computed arithmetically from the seed (no RNG state consumed), so
//!   the same seed always yields a bit-identical fault schedule.
//! * **Zero cost when disabled** — a disabled injector is never
//!   consulted beyond one branch on [`FaultInjector::is_enabled`]; no
//!   RNG state advances and no timing changes, so runs with injection
//!   off are identical to runs built without the injector at all.

use crate::rng::splitmix64;
use crate::stats::Counter;
use crate::{Cycle, Duration, SimRng};

/// What happened to one fabric traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FabricFault {
    /// The request (or its response) vanished; the sender times out.
    Drop,
    /// The frame arrived with flipped bits; the receiver's CRC check
    /// rejects it and a corrupt-NACK travels back.
    Corrupt,
}

/// A fault that never heals, no matter how many times the requester
/// retries. Where [`FabricFault`]s model a flaky wire, these model a
/// dead one: the *virtual-memory* layer, not the retry loop, must
/// absorb them (quarantine, evacuation, shootdown, degraded mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PersistentFault {
    /// FAM module `module` dies outright. Both the data path and the
    /// media are gone: every page the module backs is lost.
    NodeDead {
        /// Index of the dead module in the FAM pool.
        module: usize,
    },
    /// A contiguous range of FAM pages fails at the media level
    /// (uncorrectable NVM wear-out). The module stays reachable; only
    /// the failed pages are lost.
    MediaFailed {
        /// First failed FAM page.
        first_page: u64,
        /// Number of consecutive failed pages.
        pages: u64,
    },
    /// The fabric link to module `module` is severed for good. The
    /// media is intact and the broker's management path still reaches
    /// it, so pages can be *evacuated* to surviving modules — but the
    /// data path never comes back.
    LinkSevered {
        /// Index of the unreachable module.
        module: usize,
    },
}

impl PersistentFault {
    /// The module this fault takes off the data path, if it is a
    /// whole-module fault.
    pub fn module(&self) -> Option<usize> {
        match *self {
            PersistentFault::NodeDead { module } | PersistentFault::LinkSevered { module } => {
                Some(module)
            }
            PersistentFault::MediaFailed { .. } => None,
        }
    }

    /// Whether affected pages can still be copied out through the
    /// broker's management path. Severed links strand reachable data;
    /// dead nodes and failed media destroy it.
    pub fn evacuable(&self) -> bool {
        matches!(self, PersistentFault::LinkSevered { .. })
    }
}

/// When a [`PersistentFault`] strikes: at the `after_fam_ops`-th FAM
/// operation (1-based) counted at the injector. Counting operations —
/// not cycles or references — pins the strike point to the workload's
/// FAM traffic rather than to timing details.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistentSchedule {
    /// The fault that strikes.
    pub fault: PersistentFault,
    /// The 1-based FAM-operation ordinal at which it strikes.
    pub after_fam_ops: u64,
}

/// Injector knobs. The default is fully disabled and adds no cost.
///
/// Probabilities are per *fabric traversal* (or per translator hit for
/// `stale_prob`); the link-down schedule is periodic with a
/// seed-derived jitter per window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultConfig {
    /// Master switch; `false` makes every query a no-op.
    pub enabled: bool,
    /// Seed of the injector's private RNG (independent of the
    /// workload seed so fault schedules can be varied in isolation).
    pub seed: u64,
    /// Probability a traversal is silently dropped (recovered by
    /// timeout + retry).
    pub drop_prob: f64,
    /// Probability a traversal arrives corrupted (recovered by
    /// CRC-detect + NACK + retry).
    pub corrupt_prob: f64,
    /// Probability a node-cached FAM translation is stale when used
    /// (recovered by invalidate + full STU walk — DeACT's `V`-flag
    /// verification story).
    pub stale_prob: f64,
    /// Probability the STU stalls on a verification or walk request.
    pub stu_stall_prob: f64,
    /// Cycles one STU stall lasts.
    pub stu_stall_cycles: u64,
    /// Cycles between scheduled transient link-down windows
    /// (`0` = no windows).
    pub link_down_period: u64,
    /// Cycles each link-down window lasts.
    pub link_down_cycles: u64,
    /// An optional scheduled permanent failure. Unlike every other
    /// knob it is not probabilistic: it strikes exactly once, at a
    /// fixed FAM-operation ordinal, and never heals.
    pub persistent: Option<PersistentSchedule>,
}

impl FaultConfig {
    /// The all-off configuration (also [`Default`]).
    pub fn disabled() -> FaultConfig {
        FaultConfig {
            enabled: false,
            seed: 0,
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            stale_prob: 0.0,
            stu_stall_prob: 0.0,
            stu_stall_cycles: 0,
            link_down_period: 0,
            link_down_cycles: 0,
            persistent: None,
        }
    }

    /// A transient-fault-only profile: every injected fault is
    /// recoverable with bounded retries — drops, corruptions, stale
    /// translations and short STU stalls at rates high enough to
    /// exercise every recovery path in a short run.
    pub fn transient(seed: u64) -> FaultConfig {
        FaultConfig {
            enabled: true,
            seed,
            drop_prob: 0.01,
            corrupt_prob: 0.01,
            stale_prob: 0.005,
            stu_stall_prob: 0.01,
            stu_stall_cycles: 200,
            link_down_period: 2_000_000,
            link_down_cycles: 10_000,
            persistent: None,
        }
    }

    /// A persistent-fault-only profile: no transient noise, just
    /// `fault` striking at the `after_fam_ops`-th FAM operation. Used
    /// by the `--kill-node` CLI knob and the chaos sweep.
    pub fn persistent_only(seed: u64, fault: PersistentFault, after_fam_ops: u64) -> FaultConfig {
        FaultConfig {
            enabled: true,
            seed,
            persistent: Some(PersistentSchedule {
                fault,
                after_fam_ops,
            }),
            ..FaultConfig::disabled()
        }
    }

    /// Adds a scheduled persistent fault to this profile (enabling the
    /// injector if it was off).
    pub fn with_persistent(self, fault: PersistentFault, after_fam_ops: u64) -> FaultConfig {
        FaultConfig {
            enabled: true,
            persistent: Some(PersistentSchedule {
                fault,
                after_fam_ops,
            }),
            ..self
        }
    }

    /// Checks knob ranges.
    ///
    /// # Errors
    ///
    /// Names the first broken rule, such as a probability outside
    /// `[0, 1]` or drop and corrupt probabilities summing past 1 (they
    /// are drawn from one partitioned uniform sample).
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("corrupt_prob", self.corrupt_prob),
            ("stale_prob", self.stale_prob),
            ("stu_stall_prob", self.stu_stall_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability"));
            }
        }
        if self.drop_prob + self.corrupt_prob > 1.0 {
            return Err("drop_prob + corrupt_prob must not exceed 1".into());
        }
        if self.link_down_period > 0 && self.link_down_cycles >= self.link_down_period {
            return Err("link-down windows must be shorter than their period".into());
        }
        if let Some(schedule) = self.persistent {
            if !self.enabled {
                return Err("a persistent fault requires the injector to be enabled".into());
            }
            if schedule.after_fam_ops == 0 {
                return Err("after_fam_ops is a 1-based ordinal".into());
            }
            if let PersistentFault::MediaFailed { pages: 0, .. } = schedule.fault {
                return Err("a media failure must cover at least one page".into());
            }
        }
        Ok(())
    }
}

/// Counts of faults the injector actually produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Traversals dropped.
    pub drops: Counter,
    /// Traversals corrupted.
    pub corruptions: Counter,
    /// Translator entries declared stale.
    pub stale_marks: Counter,
    /// STU stalls injected.
    pub stu_stalls: Counter,
}

/// The substrate fault injector. See the module docs for the
/// determinism and zero-cost-when-disabled contracts.
///
/// # Examples
///
/// ```
/// use fam_sim::{Cycle, FaultConfig, FaultInjector};
///
/// let mut a = FaultInjector::new(FaultConfig::transient(7));
/// let mut b = FaultInjector::new(FaultConfig::transient(7));
/// for _ in 0..1000 {
///     assert_eq!(a.fabric_fault(), b.fabric_fault());
/// }
///
/// let mut off = FaultInjector::disabled();
/// assert!(!off.is_enabled());
/// assert_eq!(off.fabric_fault(), None);
/// assert_eq!(off.link_up_at(Cycle(123)), Cycle(123));
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: SimRng,
    stats: FaultStats,
    /// 1-based ordinal of FAM operations seen so far; drives the
    /// persistent-fault schedule. Never advanced when no persistent
    /// fault is configured.
    fam_ops: u64,
}

impl FaultInjector {
    /// Creates an injector.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range knobs, with the reason
    /// [`FaultConfig::validate`] gives.
    pub fn new(config: FaultConfig) -> FaultInjector {
        config
            .validate()
            .unwrap_or_else(|reason| panic!("{reason}"));
        FaultInjector {
            rng: SimRng::seeded(config.seed ^ 0xFA_017),
            config,
            stats: FaultStats::default(),
            fam_ops: 0,
        }
    }

    /// An injector that never fires.
    pub fn disabled() -> FaultInjector {
        FaultInjector::new(FaultConfig::disabled())
    }

    /// Whether any fault can ever fire. Callers on hot paths branch on
    /// this once and skip all other queries when it is `false`.
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// The configuration in force.
    pub fn config(&self) -> FaultConfig {
        self.config
    }

    /// Draws the fate of one fabric traversal. `None` means delivered
    /// intact. Disabled injectors always deliver and consume no RNG
    /// state.
    pub fn fabric_fault(&mut self) -> Option<FabricFault> {
        if !self.config.enabled || (self.config.drop_prob == 0.0 && self.config.corrupt_prob == 0.0)
        {
            return None;
        }
        let u = self.rng.unit();
        if u < self.config.drop_prob {
            self.stats.drops.inc();
            Some(FabricFault::Drop)
        } else if u < self.config.drop_prob + self.config.corrupt_prob {
            self.stats.corruptions.inc();
            Some(FabricFault::Corrupt)
        } else {
            None
        }
    }

    /// Start of link-down window `k` (`k >= 1`): `k * period` plus a
    /// seed-derived jitter of up to a quarter period, so windows are
    /// scheduled, not metronomic, yet fully determined by the seed.
    fn window_start(&self, k: u64) -> u64 {
        let period = self.config.link_down_period;
        k * period + splitmix64(&mut (self.config.seed ^ k)) % (period / 4).max(1)
    }

    /// When the link is next usable at `now`: `now` itself if the link
    /// is up, otherwise the end of the scheduled down-window covering
    /// `now`.
    pub fn link_up_at(&self, now: Cycle) -> Cycle {
        if !self.config.enabled || self.config.link_down_period == 0 {
            return now;
        }
        let k = now.0 / self.config.link_down_period;
        if k == 0 {
            return now;
        }
        let start = self.window_start(k);
        if now.0 >= start && now.0 < start + self.config.link_down_cycles {
            Cycle(start + self.config.link_down_cycles)
        } else {
            now
        }
    }

    /// Draws whether the STU stalls on this request, and for how long.
    pub fn stu_stall(&mut self) -> Option<Duration> {
        if !self.config.enabled || self.config.stu_stall_prob == 0.0 {
            return None;
        }
        if self.rng.chance(self.config.stu_stall_prob) {
            self.stats.stu_stalls.inc();
            Some(Duration(self.config.stu_stall_cycles))
        } else {
            None
        }
    }

    /// Draws where to corrupt a frame of `frame_len` bytes: a byte
    /// position and a non-zero XOR mask. The system draws one site per
    /// injected corruption but does not apply it: `fam_fabric::packet`'s
    /// exhaustive test (`every_single_byte_corruption_fails_the_checksum`)
    /// guarantees that the CRC detects every such site. The two draws
    /// still happen, to hold the injector's RNG sequence, and with it
    /// every later fault draw, fixed.
    pub fn corruption_site(&mut self, frame_len: usize) -> (usize, u8) {
        let pos = self.rng.index(frame_len.max(1));
        let mask = 1 + self.rng.below(255) as u8;
        (pos, mask)
    }

    /// Draws whether a node-cached translation is stale when consumed
    /// (triggering the NACK-stale → invalidate → re-walk recovery).
    pub fn stale_translation(&mut self) -> bool {
        if !self.config.enabled || self.config.stale_prob == 0.0 {
            return false;
        }
        let stale = self.rng.chance(self.config.stale_prob);
        if stale {
            self.stats.stale_marks.inc();
        }
        stale
    }

    /// Advances the FAM-operation ordinal that drives the persistent
    /// schedule. Call exactly once per FAM operation, in simulation
    /// order; a no-op (and free) when no persistent fault is armed.
    pub fn note_fam_op(&mut self) {
        if self.config.persistent.is_some() {
            self.fam_ops += 1;
        }
    }

    /// The persistent fault now in force, if its strike ordinal has
    /// been reached. Purely arithmetic — consumes no RNG state.
    pub fn persistent_active(&self) -> Option<PersistentFault> {
        let schedule = self.config.persistent?;
        (self.fam_ops >= schedule.after_fam_ops).then_some(schedule.fault)
    }

    /// The armed persistent schedule, active or not.
    pub fn persistent_schedule(&self) -> Option<PersistentSchedule> {
        self.config.persistent
    }

    /// Counts of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Total faults of all kinds injected so far.
    pub fn injected_total(&self) -> u64 {
        let s = self.stats;
        s.drops.value() + s.corruptions.value() + s.stale_marks.value() + s.stu_stalls.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_is_inert_and_consumes_no_rng() {
        let mut i = FaultInjector::disabled();
        let before = i.rng.clone().next_u64();
        for _ in 0..100 {
            assert_eq!(i.fabric_fault(), None);
            assert!(!i.stale_translation());
            assert_eq!(i.stu_stall(), None);
            assert_eq!(i.link_up_at(Cycle(1_000_000)), Cycle(1_000_000));
        }
        assert_eq!(i.rng.next_u64(), before, "no RNG state consumed");
        assert_eq!(i.injected_total(), 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultInjector::new(FaultConfig::transient(42));
        let mut b = FaultInjector::new(FaultConfig::transient(42));
        for t in 0..5000u64 {
            assert_eq!(a.fabric_fault(), b.fabric_fault());
            assert_eq!(a.stale_translation(), b.stale_translation());
            assert_eq!(a.link_up_at(Cycle(t * 997)), b.link_up_at(Cycle(t * 997)));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultInjector::new(FaultConfig::transient(1));
        let mut b = FaultInjector::new(FaultConfig::transient(2));
        let diverged = (0..2000).any(|_| a.fabric_fault() != b.fabric_fault());
        assert!(diverged);
    }

    #[test]
    fn fault_mix_tracks_probabilities() {
        let cfg = FaultConfig {
            drop_prob: 0.2,
            corrupt_prob: 0.1,
            ..FaultConfig::transient(3)
        };
        let mut i = FaultInjector::new(cfg);
        let n = 20_000;
        for _ in 0..n {
            i.fabric_fault();
        }
        let drops = i.stats().drops.value() as f64 / n as f64;
        let corr = i.stats().corruptions.value() as f64 / n as f64;
        assert!((drops - 0.2).abs() < 0.02, "drop rate {drops}");
        assert!((corr - 0.1).abs() < 0.02, "corrupt rate {corr}");
    }

    #[test]
    fn link_down_windows_cover_the_schedule() {
        let cfg = FaultConfig {
            enabled: true,
            link_down_period: 1000,
            link_down_cycles: 100,
            ..FaultConfig::disabled()
        };
        let i = FaultInjector::new(cfg);
        // Inside window 1 the caller is pushed to the window end.
        let start = i.window_start(1);
        let up = i.link_up_at(Cycle(start + 10));
        assert_eq!(up, Cycle(start + 100));
        // Clear of any window, time passes through.
        let free = Cycle(start + 500);
        assert_eq!(i.link_up_at(free), free);
    }

    #[test]
    fn stall_duration_matches_config() {
        let cfg = FaultConfig {
            stu_stall_prob: 1.0,
            stu_stall_cycles: 77,
            ..FaultConfig::transient(5)
        };
        let mut i = FaultInjector::new(cfg);
        assert_eq!(i.stu_stall(), Some(Duration(77)));
    }

    #[test]
    fn persistent_schedule_is_ordinal_driven_and_rng_free() {
        let fault = PersistentFault::NodeDead { module: 2 };
        let mut i = FaultInjector::new(FaultConfig::persistent_only(9, fault, 3));
        let before = i.rng.clone().next_u64();
        assert_eq!(i.persistent_active(), None, "armed but not yet struck");
        i.note_fam_op();
        i.note_fam_op();
        assert_eq!(i.persistent_active(), None, "ordinal 2 < strike point 3");
        i.note_fam_op();
        assert_eq!(i.persistent_active(), Some(fault), "strikes at ordinal 3");
        i.note_fam_op();
        assert_eq!(i.persistent_active(), Some(fault), "never heals");
        // The persistent-only profile has zero transient probabilities,
        // so the fabric path stays clean and consumes no RNG.
        assert_eq!(i.fabric_fault(), None);
        assert_eq!(i.rng.next_u64(), before, "no RNG state consumed");
    }

    #[test]
    fn persistent_ordinal_never_advances_when_unarmed() {
        let mut i = FaultInjector::new(FaultConfig::transient(4));
        for _ in 0..100 {
            i.note_fam_op();
        }
        assert_eq!(i.fam_ops, 0, "ordinal is free when nothing is armed");
        assert_eq!(i.persistent_active(), None);
    }

    #[test]
    fn persistent_fault_classification() {
        let dead = PersistentFault::NodeDead { module: 1 };
        let media = PersistentFault::MediaFailed {
            first_page: 10,
            pages: 4,
        };
        let severed = PersistentFault::LinkSevered { module: 1 };
        assert_eq!(dead.module(), Some(1));
        assert_eq!(media.module(), None);
        assert_eq!(severed.module(), Some(1));
        assert!(!dead.evacuable());
        assert!(!media.evacuable());
        assert!(severed.evacuable(), "management path survives a cut link");
    }

    #[test]
    #[should_panic(expected = "1-based ordinal")]
    fn zero_strike_ordinal_rejected() {
        FaultInjector::new(FaultConfig::persistent_only(
            0,
            PersistentFault::NodeDead { module: 0 },
            0,
        ));
    }

    #[test]
    #[should_panic(expected = "injector to be enabled")]
    fn disabled_injector_with_persistent_fault_rejected() {
        FaultInjector::new(FaultConfig {
            enabled: false,
            persistent: Some(PersistentSchedule {
                fault: PersistentFault::LinkSevered { module: 0 },
                after_fam_ops: 1,
            }),
            ..FaultConfig::disabled()
        });
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn out_of_range_probability_rejected() {
        FaultInjector::new(FaultConfig {
            enabled: true,
            drop_prob: 1.5,
            ..FaultConfig::disabled()
        });
    }

    #[test]
    #[should_panic(expected = "shorter than their period")]
    fn degenerate_link_window_rejected() {
        FaultInjector::new(FaultConfig {
            enabled: true,
            link_down_period: 100,
            link_down_cycles: 100,
            ..FaultConfig::disabled()
        });
    }
}
