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
    pub(crate) after_fam_ops: u64,
}

/// Per-traversal drop probability at `rate_scale` 1 (recovered by
/// timeout + retry).
const DROP_PROB: f64 = 0.01;
/// Per-traversal corruption probability at `rate_scale` 1 (recovered
/// by CRC-detect + NACK + retry).
const CORRUPT_PROB: f64 = 0.01;
/// Probability, at `rate_scale` 1, that a node-cached FAM translation
/// is stale when used (recovered by invalidate + full STU walk —
/// DeACT's `V`-flag verification story).
const STALE_PROB: f64 = 0.005;
/// Probability, at `rate_scale` 1, that the STU stalls on a
/// verification or walk request.
const STU_STALL_PROB: f64 = 0.01;
/// Cycles one STU stall lasts.
const STU_STALL_CYCLES: u64 = 200;
/// Cycles between scheduled transient link-down windows.
const LINK_DOWN_PERIOD: u64 = 2_000_000;
/// Cycles each link-down window lasts.
const LINK_DOWN_CYCLES: u64 = 10_000;
const _: () = assert!(LINK_DOWN_CYCLES < LINK_DOWN_PERIOD);
/// The largest `rate_scale` whose drop and corrupt probabilities, drawn
/// from one partitioned uniform sample, still sum to at most 1.
const MAX_RATE_SCALE: f64 = 1.0 / (DROP_PROB + CORRUPT_PROB);

/// Injector settings. The default is fully disabled and adds no cost.
///
/// The transient fault mix is fixed: drops, corruptions, stale
/// translations and STU stalls each fire with a constant probability
/// (per fabric traversal, per translator hit for staleness) that
/// `rate_scale` multiplies, and while `rate_scale > 0` the link goes
/// down on a periodic schedule with a seed-derived jitter per window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultConfig {
    /// Master switch; `false` makes every query a no-op.
    pub enabled: bool,
    /// Seed of the injector's private RNG (independent of the
    /// workload seed so fault schedules can be varied in isolation).
    pub seed: u64,
    /// Multiplies every transient fault probability; `0` injects no
    /// transient fault and opens no link-down window.
    pub rate_scale: f64,
    /// An optional scheduled permanent failure. Unlike the transient
    /// mix it is not probabilistic: it strikes exactly once, at a
    /// fixed FAM-operation ordinal, and never heals.
    pub persistent: Option<PersistentSchedule>,
}

impl FaultConfig {
    /// The all-off configuration (also [`Default`]).
    pub fn disabled() -> FaultConfig {
        FaultConfig {
            enabled: false,
            seed: 0,
            rate_scale: 0.0,
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
            rate_scale: 1.0,
            persistent: None,
        }
    }

    /// Adds a scheduled persistent fault to this profile (enabling the
    /// injector if it was off). On [`FaultConfig::disabled`] it gives a
    /// persistent-fault-only profile: no transient noise, just `fault`
    /// striking at the `after_fam_ops`-th FAM operation.
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

    /// Checks the settings.
    ///
    /// # Errors
    ///
    /// Names the first broken rule, such as a `rate_scale` outside
    /// `[0, 50]` (past 50 the drop and corrupt probabilities, drawn
    /// from one partitioned uniform sample, sum past 1).
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=MAX_RATE_SCALE).contains(&self.rate_scale) {
            return Err(format!("rate_scale must lie in [0, {MAX_RATE_SCALE}]"));
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
    pub drops: u64,
    /// Traversals corrupted.
    pub corruptions: u64,
    /// Translator entries declared stale.
    pub stale_marks: u64,
    /// STU stalls injected.
    pub stu_stalls: u64,
}

/// The substrate fault injector. See the module docs for the
/// determinism and zero-cost-when-disabled contracts.
///
/// # Examples
///
/// ```
/// use fam_sim::{Cycle, FaultConfig, FaultInjector};
///
/// let mut a = FaultInjector::new(FaultConfig::transient(7))?;
/// let mut b = FaultInjector::new(FaultConfig::transient(7))?;
/// for _ in 0..1000 {
///     assert_eq!(a.fabric_fault(), b.fabric_fault());
/// }
///
/// let mut off = FaultInjector::new(FaultConfig::disabled())?;
/// assert!(!off.is_enabled());
/// assert_eq!(off.fabric_fault(), None);
/// assert_eq!(off.link_up_at(Cycle(123)), Cycle(123));
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    /// `config.rate_scale` if the injector is enabled, else `0`: the
    /// one value every transient query branches on.
    scale: f64,
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
    /// # Errors
    ///
    /// Refuses a config [`FaultConfig::validate`] refuses, with its
    /// reason.
    pub fn new(config: FaultConfig) -> Result<FaultInjector, String> {
        config.validate()?;
        Ok(FaultInjector {
            scale: if config.enabled {
                config.rate_scale
            } else {
                0.0
            },
            rng: SimRng::seeded(config.seed ^ 0xFA_017),
            config,
            stats: FaultStats::default(),
            fam_ops: 0,
        })
    }

    /// Whether any fault can ever fire. Callers on hot paths branch on
    /// this once and skip all other queries when it is `false`.
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// Draws the fate of one fabric traversal. `None` means delivered
    /// intact. Disabled injectors always deliver and consume no RNG
    /// state.
    pub fn fabric_fault(&mut self) -> Option<FabricFault> {
        if self.scale == 0.0 {
            return None;
        }
        let u = self.rng.unit();
        let drop = DROP_PROB * self.scale;
        if u < drop {
            self.stats.drops += 1;
            Some(FabricFault::Drop)
        } else if u < drop + CORRUPT_PROB * self.scale {
            self.stats.corruptions += 1;
            Some(FabricFault::Corrupt)
        } else {
            None
        }
    }

    /// Start of link-down window `k` (`k >= 1`): `k * period` plus a
    /// seed-derived jitter of up to a quarter period, so windows are
    /// scheduled, not metronomic, yet fully determined by the seed.
    fn window_start(&self, k: u64) -> u64 {
        k * LINK_DOWN_PERIOD + splitmix64(&mut (self.config.seed ^ k)) % (LINK_DOWN_PERIOD / 4)
    }

    /// When the link is next usable at `now`: `now` itself if the link
    /// is up, otherwise the end of the scheduled down-window covering
    /// `now`.
    pub fn link_up_at(&self, now: Cycle) -> Cycle {
        let k = now.0 / LINK_DOWN_PERIOD;
        if self.scale == 0.0 || k == 0 {
            return now;
        }
        let start = self.window_start(k);
        if now.0 >= start && now.0 < start + LINK_DOWN_CYCLES {
            Cycle(start + LINK_DOWN_CYCLES)
        } else {
            now
        }
    }

    /// Draws whether the STU stalls on this request, and for how long.
    pub fn stu_stall(&mut self) -> Option<Duration> {
        if self.scale == 0.0 {
            return None;
        }
        if self.rng.chance(STU_STALL_PROB * self.scale) {
            self.stats.stu_stalls += 1;
            Some(Duration(STU_STALL_CYCLES))
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
        if self.scale == 0.0 {
            return false;
        }
        let stale = self.rng.chance(STALE_PROB * self.scale);
        if stale {
            self.stats.stale_marks += 1;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(config: FaultConfig) -> FaultInjector {
        FaultInjector::new(config).unwrap()
    }

    #[test]
    fn default_config_is_disabled() {
        assert_eq!(FaultConfig::default(), FaultConfig::disabled());
        assert!(!injector(FaultConfig::default()).is_enabled());
    }

    #[test]
    fn disabled_injector_is_inert_and_consumes_no_rng() {
        let mut i = injector(FaultConfig::disabled());
        let before = i.rng.clone().next_u64();
        for _ in 0..100 {
            assert_eq!(i.fabric_fault(), None);
            assert!(!i.stale_translation());
            assert_eq!(i.stu_stall(), None);
            assert_eq!(i.link_up_at(Cycle(1_000_000)), Cycle(1_000_000));
        }
        assert_eq!(i.rng.next_u64(), before, "no RNG state consumed");
        assert_eq!(i.stats(), FaultStats::default());
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = injector(FaultConfig::transient(42));
        let mut b = injector(FaultConfig::transient(42));
        for t in 0..5000u64 {
            assert_eq!(a.fabric_fault(), b.fabric_fault());
            assert_eq!(a.stale_translation(), b.stale_translation());
            assert_eq!(a.link_up_at(Cycle(t * 997)), b.link_up_at(Cycle(t * 997)));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = injector(FaultConfig::transient(1));
        let mut b = injector(FaultConfig::transient(2));
        let diverged = (0..2000).any(|_| a.fabric_fault() != b.fabric_fault());
        assert!(diverged);
    }

    #[test]
    fn fault_mix_tracks_probabilities() {
        // At 10x the drop and corrupt probabilities are 0.1 each.
        let mut i = injector(FaultConfig {
            rate_scale: 10.0,
            ..FaultConfig::transient(3)
        });
        let n = 20_000;
        for _ in 0..n {
            i.fabric_fault();
        }
        let drops = i.stats().drops as f64 / n as f64;
        let corr = i.stats().corruptions as f64 / n as f64;
        assert!((drops - 0.1).abs() < 0.02, "drop rate {drops}");
        assert!((corr - 0.1).abs() < 0.02, "corrupt rate {corr}");
    }

    #[test]
    fn link_down_windows_cover_the_schedule() {
        let i = injector(FaultConfig::transient(6));
        // Before the first period the link is always up.
        let early = Cycle(LINK_DOWN_PERIOD - 1);
        assert_eq!(i.link_up_at(early), early);
        for k in 1..4 {
            // Inside window k the caller is pushed to the window end.
            let start = i.window_start(k);
            assert!(
                start < (k + 1) * LINK_DOWN_PERIOD,
                "jitter stays in the period"
            );
            let up = i.link_up_at(Cycle(start + 10));
            assert_eq!(up, Cycle(start + LINK_DOWN_CYCLES));
            // Clear of any window, time passes through.
            let free = Cycle(start + LINK_DOWN_CYCLES);
            assert_eq!(i.link_up_at(free), free);
        }
    }

    #[test]
    fn stall_duration_matches_config() {
        // At 50x a stall fires on half the draws.
        let mut i = injector(FaultConfig {
            rate_scale: 50.0,
            ..FaultConfig::transient(5)
        });
        let stall = (0..64).find_map(|_| i.stu_stall());
        assert_eq!(stall, Some(Duration(STU_STALL_CYCLES)));
    }

    #[test]
    fn persistent_schedule_is_ordinal_driven_and_rng_free() {
        let fault = PersistentFault::NodeDead { module: 2 };
        let mut i = injector(FaultConfig::disabled().with_persistent(fault, 3));
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
    fn persistent_only_profile_injects_no_transient_fault() {
        let fault = PersistentFault::LinkSevered { module: 1 };
        let mut i = injector(FaultConfig::disabled().with_persistent(fault, 1));
        assert!(i.is_enabled());
        let before = i.rng.clone().next_u64();
        // No draw consumes RNG state, and no link-down window opens,
        // not even where a transient profile's windows would be.
        let transient = injector(FaultConfig::transient(0));
        for k in 1..64 {
            assert_eq!(i.fabric_fault(), None);
            assert!(!i.stale_translation());
            assert_eq!(i.stu_stall(), None);
            let start = transient.window_start(k);
            for t in [k * LINK_DOWN_PERIOD, start, start + LINK_DOWN_CYCLES / 2] {
                assert_eq!(i.link_up_at(Cycle(t)), Cycle(t));
            }
            assert!(transient.link_up_at(Cycle(start)) > Cycle(start));
        }
        assert_eq!(i.rng.next_u64(), before, "no RNG state consumed");
        assert_eq!(i.stats(), FaultStats::default());
    }

    #[test]
    fn persistent_ordinal_never_advances_when_unarmed() {
        let mut i = injector(FaultConfig::transient(4));
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
        injector(
            FaultConfig::disabled().with_persistent(PersistentFault::NodeDead { module: 0 }, 0),
        );
    }

    #[test]
    #[should_panic(expected = "injector to be enabled")]
    fn disabled_injector_with_persistent_fault_rejected() {
        injector(FaultConfig {
            enabled: false,
            persistent: Some(PersistentSchedule {
                fault: PersistentFault::LinkSevered { module: 0 },
                after_fam_ops: 1,
            }),
            ..FaultConfig::disabled()
        });
    }

    /// `rate_scale` is the one transient setting `validate` checks:
    /// `new` refuses NaN, negatives and scales past 50 with one
    /// reason, and accepts both ends of `[0, 50]`.
    #[test]
    #[should_panic(expected = "rate_scale must lie in [0, 50]")]
    fn out_of_range_probability_rejected() {
        let at = |rate_scale| FaultConfig {
            rate_scale,
            ..FaultConfig::transient(1)
        };
        // The messages below must not contain the expected text, or a
        // failed check would pass for the expected panic.
        let refused = |rate_scale| FaultInjector::new(at(rate_scale)).err();
        assert!(
            refused(0.0).is_none() && refused(50.0).is_none(),
            "both ends accepted"
        );
        for bad in [f64::NAN, -1.0] {
            assert!(
                refused(bad).is_some() && refused(bad) == refused(51.0),
                "{bad} refused"
            );
        }
        injector(at(51.0));
    }
}
