//! Discrete-event simulation substrate for the DeACT reproduction.
//!
//! This crate provides the building blocks every timing model in the
//! workspace is written against:
//!
//! * [`Cycle`] / [`Duration`] — a cycle-granular clock (the whole system
//!   is simulated in CPU cycles; [`Frequency`] converts nanoseconds to
//!   cycles at a configurable core frequency).
//! * [`scoped_map`] — a scoped bounded parallel map returning results
//!   in index order, the one fan-out behind the experiment harness's
//!   sweeps and `deact-sim compare`.
//! * [`Resource`] / [`BankedResource`] / [`Window`] — contention
//!   primitives: a serially-occupied unit (a DRAM channel, a fabric
//!   link), a set of independently occupied banks (NVM banks), and a
//!   bounded window of outstanding operations (a core's outstanding
//!   request budget or a memory device's outstanding-request cap).
//! * [`stats`] — counters, ratios and histograms that every component
//!   uses to report the quantities the paper plots.
//! * [`SimRng`] — a small, seedable RNG so every simulation is
//!   reproducible.
//! * [`FaultInjector`] — deterministic, seed-driven fault injection
//!   (packet drop/corruption, link-down windows, STU stalls, stale
//!   translations) that is a zero-cost no-op when disabled.
//! * [`trace`] — request-lifecycle tracing: typed [`TraceEvent`]s in a
//!   bounded ring buffer with drop accounting, per-stage latency
//!   histograms, a Chrome trace-event exporter and a windowed time
//!   series; like the fault injector, a zero-cost no-op when disabled.
//! * [`json`] — a small dependency-free JSON reader, shared by the
//!   trace validator and the benchmark-diff tooling.
//! * [`profile`] — a scoped *host-time* profiler: RAII [`PhaseId`]
//!   spans accumulate per-thread into a hierarchical [`ProfileReport`]
//!   (self vs. children time, folded-stack export); one relaxed atomic
//!   load when disabled.
//! * [`registry`] — a unified named metrics [`Registry`] with
//!   snapshot/diff/merge, the substrate of end-of-run conservation
//!   audits.
//!
//! # Examples
//!
//! ```
//! use fam_sim::{Cycle, Resource};
//!
//! // A memory channel that is busy for 10 cycles per request.
//! let mut chan = Resource::new(10);
//! let start = chan.acquire(Cycle(0));
//! assert_eq!(start, Cycle(0));
//! // A second request issued at the same time queues behind the first.
//! let start2 = chan.acquire(Cycle(0));
//! assert_eq!(start2, Cycle(10));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod fault;
pub mod hash;
pub mod json;
mod pool;
pub mod profile;
pub mod registry;
mod resource;
mod rng;
pub mod stats;
pub mod timeline;
pub mod trace;
mod window;

pub use clock::{Cycle, Duration, Frequency};
pub use fault::{
    FabricFault, FaultConfig, FaultInjector, FaultStats, PersistentFault, PersistentSchedule,
};
pub use pool::{default_jobs, scoped_map, FreeList};
pub use profile::{PhaseId, PhaseStat, ProfileReport};
pub use registry::{Metric, Registry};
pub use resource::{BankedResource, Resource};
pub use rng::SimRng;
pub use trace::{
    LatencyBreakdown, RequestId, Stage, TraceConfig, TraceEvent, Tracer, Track, WindowSample,
    WindowSeries,
};
pub use window::Window;
