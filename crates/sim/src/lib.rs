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
//! * [`stats`] — counters and ratios that every component
//!   uses to report the quantities the paper plots.
//! * [`SimRng`] — a small, seedable RNG so every simulation is
//!   reproducible.
//! * [`FaultInjector`] — deterministic, seed-driven fault injection
//!   (packet drop/corruption, link-down windows, STU stalls, stale
//!   translations) that is a zero-cost no-op when disabled.
//! * [`trace`] — per-stage span totals kept on every run, plus
//!   request-lifecycle tracing: typed [`TraceEvent`]s in a bounded
//!   ring buffer with drop accounting, a Chrome trace-event exporter
//!   and a windowed time series, none of which a disabled tracer keeps.
//! * [`json`] — a small dependency-free JSON reader, shared by the
//!   trace validator and the benchmark-diff tooling.
//! * [`profile`] — a scoped *host-time* profiler: RAII [`profile::PhaseId`]
//!   spans accumulate per-thread into a hierarchical [`profile::ProfileReport`]
//!   (self vs. children time, folded-stack export); one relaxed atomic
//!   load when disabled.
//! * `registry` — a unified named metrics [`Registry`] with
//!   snapshot/diff, the substrate of end-of-run conservation
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
pub(crate) mod registry;
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
pub use pool::{default_jobs, jobs_override, scoped_map};
pub use registry::{Metric, Registry};
pub use resource::{BankedResource, Resource};
pub use rng::SimRng;
pub use trace::{
    LatencyBreakdown, RequestId, Stage, StageCycles, TraceConfig, TraceEvent, Tracer, Track,
    WindowSample, WindowSeries,
};
pub use window::Window;

/// Makes a closed stdout end a command-line front end quietly. Rust
/// ignores `SIGPIPE`, so once a reader such as `head -1` exits, the
/// next `println!` panics with "failed printing to stdout: Broken
/// pipe". This hook turns that one panic into exit status 0 and hands
/// every other panic to the default hook.
pub fn exit_quietly_on_broken_pipe() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload_as_str().unwrap_or_default();
        if msg.starts_with("failed printing to stdout") && msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        default(info);
    }));
}
