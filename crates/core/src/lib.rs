//! # DeACT — decoupled access control and address translation for
//! fabric-attached memory
//!
//! A full-system reproduction of *"DeACT: Architecture-Aware Virtual
//! Memory Support for Fabric Attached Memory Systems"* (HPCA 2021).
//!
//! FAM systems pool memory behind a fabric and share it between
//! compute nodes, which forces a second, *system-level* translation
//! step so that a buggy or malicious node cannot reach other tenants'
//! pages. Doing that step entirely at a System Translation Unit
//! (I-FAM) is secure but slow; exposing raw FAM addresses to node OSes
//! (E-FAM) is fast but insecure. DeACT's observation is that the two
//! halves of the system-level step have different trust requirements:
//!
//! * **translation** (node address → FAM address) needs no trust —
//!   a wrong or forged translation is caught later — so it can be
//!   cached *unverified* in each node's local DRAM, with huge capacity;
//! * **access control** must stay off-node, but its metadata is tiny
//!   (16 bits/page) and extremely cacheable at the STU once it no
//!   longer shares cache space with translations (Fig. 8).
//!
//! This crate assembles the whole system out of the workspace
//! substrates and implements the paper's four schemes end to end:
//!
//! * [`FamTranslator`] — the node-side translator of Fig. 7 with its
//!   in-DRAM translation cache and outstanding-mapping list;
//! * [`Scheme`] — E-FAM, I-FAM, DeACT-W, DeACT-N (Table I);
//! * [`SystemConfig`] — Table II's configuration, with builders for
//!   every sensitivity axis the paper sweeps;
//! * [`System`] / [`run_benchmark`] — the simulation driver;
//! * [`RunReport`] / [`FamTraffic`] — every quantity Figs. 3–16 plot.
//!
//! # Quickstart
//!
//! ```
//! use deact::{run_benchmark, Scheme, SystemConfig};
//!
//! let cfg = SystemConfig::paper_default().with_refs_per_core(500);
//! let efam = run_benchmark("mcf", cfg.with_scheme(Scheme::EFam));
//! let ifam = run_benchmark("mcf", cfg.with_scheme(Scheme::IFam));
//! let deact = run_benchmark("mcf", cfg.with_scheme(Scheme::DeactN));
//! // The paper's headline: DeACT recovers most of I-FAM's loss.
//! assert!(deact.ipc >= ifam.ipc * 0.9);
//! assert!(efam.ipc > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod error;
mod metrics;
pub mod node;
mod scheme;
mod system;
mod translator;

pub use config::SystemConfig;
pub use error::SimError;
// The tracing vocabulary types cross this crate's public API
// (`SystemConfig::with_trace`, `RunReport::latency`,
// `System::tracer`), so re-export them for downstream convenience.
pub use fam_sim::{LatencyBreakdown, RequestId, Stage, TraceConfig, TraceEvent, Tracer, Track};
pub use metrics::{
    AuditCheck, AuditReport, DegradationReport, FamTraffic, FaultRecovery, RunReport,
};
pub use scheme::Scheme;
pub use system::{run_benchmark, try_run_benchmark, System};
pub use translator::FamTranslator;
