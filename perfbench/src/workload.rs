//! The benchmark's workloads: which simulated system each one builds.
//!
//! Each workload pairs one Table III benchmark with one scheme and one
//! system shape, chosen so the three together stress different layers
//! (see `README.md` for the reasons).

use deact::{Scheme, SystemConfig};
use fam_sim::FaultConfig;
use fam_workloads::Workload;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// sssp under DeACT-N on 4 nodes x 4 cores and 4 FAM modules: the
    /// FAM path (translator, STU ACM cache, fabric, NVM) and the broker.
    GapFam,
    /// sp under E-FAM on 1 node x 4 cores: TLB, caches, DRAM and the
    /// engine's own overhead; no STU and no translator.
    NpbLocal,
    /// mcf under I-FAM on 1 node x 4 cores with transient fabric faults:
    /// STU walks, retries and the recovery layer.
    SpecFaults,
}

impl Scenario {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Scenario; 3] = [Scenario::GapFam, Scenario::NpbLocal, Scenario::SpecFaults];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::GapFam => "gap-fam",
            Scenario::NpbLocal => "npb-local",
            Scenario::SpecFaults => "spec-faults",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The Table III benchmark whose generator feeds every core.
    pub fn benchmark(self) -> Workload {
        let name = match self {
            Scenario::GapFam => "sssp",
            Scenario::NpbLocal => "sp",
            Scenario::SpecFaults => "mcf",
        };
        Workload::by_name(name).expect("every benchmark workload names a Table III entry")
    }

    /// References per core in one timed run: about one to two host
    /// seconds each, so a run of the benchmark holds several samples.
    pub fn refs_per_core(self) -> u64 {
        match self {
            Scenario::GapFam => 60_000,
            Scenario::NpbLocal | Scenario::SpecFaults => 250_000,
        }
    }

    /// The simulated system for `seed`, with `refs_per_core` references
    /// on every core. Tracing stays off: the benchmark's spans sit
    /// outside the simulator.
    pub fn config(self, seed: u64, refs_per_core: u64) -> SystemConfig {
        let base = SystemConfig::paper_default()
            .with_seed(seed)
            .with_refs_per_core(refs_per_core);
        match self {
            Scenario::GapFam => base
                .with_scheme(Scheme::DeactN)
                .with_nodes(4)
                .with_fam_modules(4),
            Scenario::NpbLocal => base.with_scheme(Scheme::EFam),
            Scenario::SpecFaults => base
                .with_scheme(Scheme::IFam)
                .with_fault_injection(FaultConfig::transient(seed)),
        }
    }
}
