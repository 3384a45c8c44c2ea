//! Full-system configuration (Table II).

use fam_broker::AcmWidth;
use fam_fabric::FabricConfig;
use fam_mem::{HierarchyConfig, NvmConfig};
use fam_sim::{FaultConfig, Frequency, TraceConfig};
use fam_stu::StuConfig;
use fam_vm::{NodeId, TlbConfig};

use crate::Scheme;

/// Configuration of one simulated FAM system, defaulting to the
/// paper's Table II parameters.
///
/// # Examples
///
/// ```
/// use deact::{Scheme, SystemConfig};
///
/// let cfg = SystemConfig::paper_default()
///     .with_scheme(Scheme::DeactN)
///     .with_fabric_latency_ns(1000);
/// assert_eq!(cfg.fabric.latency_ns, 1000);
/// assert_eq!(cfg.cores_per_node, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Virtual-memory scheme under test.
    pub scheme: Scheme,
    /// Number of compute nodes sharing the fabric and FAM (Fig. 16
    /// sweeps 1–8; default 1).
    pub nodes: usize,
    /// Cores per node (Table II: 4).
    pub cores_per_node: usize,
    /// Core frequency (Table II: 2 GHz).
    pub frequency_mhz: u64,
    /// Issue/retire width (Table II: 2 instructions per cycle).
    pub issue_width: u32,
    /// Maximum outstanding memory requests per core (Table II: 32).
    pub core_outstanding: usize,
    /// TLB hierarchy (Table II: 32 + 256 entries).
    pub tlb: TlbConfig,
    /// Node PTW-cache entries (§IV: 32, per Bhargava et al.).
    pub ptw_cache_entries: usize,
    /// Data-cache hierarchy (Table II: 32 KB / 256 KB / 1 MB).
    pub hierarchy: HierarchyConfig,
    /// Local DRAM access latency in nanoseconds.
    pub dram_access_ns: u64,
    /// Local DRAM channel occupancy in cycles per block.
    pub dram_occupancy_cycles: u64,
    /// Local DRAM capacity in bytes (Table II: 1 GB).
    pub dram_bytes: u64,
    /// The FAM NVM device (Table II: 16 GB, 60/150 ns, 32 banks, 128
    /// outstanding).
    pub nvm: NvmConfig,
    /// FAM capacity in bytes (Table II: 16 GB).
    pub fam_bytes: u64,
    /// Independent FAM modules behind the fabric. Fig. 16's setup
    /// keeps "memory pools directly proportional to the number of
    /// nodes"; pages are interleaved across modules, each with its own
    /// banks and outstanding-request cap.
    pub fam_modules: usize,
    /// Fabric parameters (Table II: 500 ns).
    pub fabric: FabricConfig,
    /// STU cache entries (Table II: 1024; Fig. 13 sweeps 256–4096).
    pub stu_entries: usize,
    /// STU cache associativity (Table II: 8).
    pub stu_ways: usize,
    /// STU FAM-PTW cache entries. The paper grants 32 entries at full
    /// memory scale (§IV), where they covered roughly a tenth of a
    /// scatter benchmark's footprint; at this repo's scaled-down
    /// footprints (DESIGN.md §1) the equivalent reach is 4 entries.
    pub stu_ptw_entries: usize,
    /// ACM entry width (Fig. 14 sweeps 8/16/32-bit; default 16).
    pub acm_width: AcmWidth,
    /// DeACT-N tag/ACM pairs per way override (§V-D2; `None` =
    /// natural packing).
    pub(crate) deact_n_pairs: Option<usize>,
    /// In-DRAM FAM translation cache size in bytes (§IV: 1 MB).
    pub translation_cache_bytes: u64,
    /// §III-C ablation: track recency (LRU) in the translation cache
    /// instead of random replacement. Real LRU costs a DRAM write per
    /// access to update the mapping status, which the timing model
    /// charges; the paper rejects it for exactly that reason.
    pub translation_cache_lru: bool,
    /// One-way node↔STU router hop in nanoseconds (the STU sits in
    /// the first router, §III-A).
    pub router_ns: u64,
    /// STU cache lookup latency in cycles.
    pub stu_lookup_cycles: u64,
    /// Kernel page-fault service time in nanoseconds (charged once per
    /// first touch; identical across schemes).
    pub fault_ns: u64,
    /// Pages in a cross-node shared segment (§VI "Shared Pages"),
    /// mapped RW into every node at [`fam_workloads::SHARED_VA_BASE`]
    /// during construction. 0 (the default) disables sharing; pair a
    /// non-zero value with a workload whose `shared_fraction` is set.
    pub(crate) shared_segment_pages: u64,
    /// §III-A extension: with per-node memory-encryption keys, read
    /// requests need no access-control check (stolen ciphertext is
    /// useless), so DeACT may skip verification for reads. Off by
    /// default; exercised by the ablation bench.
    pub skip_read_checks: bool,
    /// Off-core references simulated per core.
    pub refs_per_core: u64,
    /// Master seed.
    pub seed: u64,
    /// Fabric fault injection (drops, corruption, link-down windows,
    /// STU stalls, stale translations). Disabled by default — a
    /// disabled injector is a zero-cost no-op, so default runs are
    /// bit-identical to a build without the fault layer. Named
    /// `fault_injection` to stay clearly apart from `fault_ns`, the
    /// page-fault service latency.
    pub fault_injection: FaultConfig,
    /// Request-lifecycle tracing (event ring, request ids, windowed
    /// time series). Disabled by default. Reports are identical with
    /// it on or off; the per-stage latency breakdown is kept either
    /// way.
    pub(crate) trace: TraceConfig,
}

impl SystemConfig {
    /// The paper's configuration (Table II), one node, DeACT-N.
    pub fn paper_default() -> SystemConfig {
        SystemConfig {
            scheme: Scheme::DeactN,
            nodes: 1,
            cores_per_node: 4,
            frequency_mhz: 2000,
            issue_width: 2,
            core_outstanding: 32,
            tlb: TlbConfig::default(),
            ptw_cache_entries: 32,
            hierarchy: HierarchyConfig::default(),
            dram_access_ns: 60,
            dram_occupancy_cycles: 2,
            dram_bytes: 1 << 30,
            nvm: NvmConfig::default(),
            fam_bytes: 16 << 30,
            fam_modules: 1,
            fabric: FabricConfig::default(),
            stu_entries: 1024,
            stu_ways: 8,
            stu_ptw_entries: 4,
            acm_width: AcmWidth::W16,
            deact_n_pairs: None,
            translation_cache_bytes: 1 << 20,
            translation_cache_lru: false,
            router_ns: 10,
            stu_lookup_cycles: 4,
            fault_ns: 1500,
            shared_segment_pages: 0,
            skip_read_checks: false,
            refs_per_core: 100_000,
            seed: 0xDEAC7,
            fault_injection: FaultConfig::disabled(),
            trace: TraceConfig::disabled(),
        }
    }

    /// Sets the scheme.
    #[must_use]
    pub fn with_scheme(mut self, scheme: Scheme) -> SystemConfig {
        self.scheme = scheme;
        self
    }

    /// Sets the node count (Fig. 16).
    #[must_use]
    pub fn with_nodes(mut self, nodes: usize) -> SystemConfig {
        self.nodes = nodes;
        self
    }

    /// Sets the core count per node.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn with_cores_per_node(mut self, cores: usize) -> SystemConfig {
        self.cores_per_node = cores;
        self
    }

    /// Sets the FAM module count (Fig. 16 pairs it with the node
    /// count).
    #[must_use]
    pub fn with_fam_modules(mut self, modules: usize) -> SystemConfig {
        self.fam_modules = modules;
        self
    }

    /// Sets the fabric one-way latency (Fig. 15).
    #[must_use]
    pub fn with_fabric_latency_ns(mut self, ns: u64) -> SystemConfig {
        self.fabric.latency_ns = ns;
        self
    }

    /// Sets the FAM pool capacity in bytes.
    #[must_use]
    pub fn with_fam_bytes(mut self, bytes: u64) -> SystemConfig {
        self.fam_bytes = bytes;
        self
    }

    /// Sets the STU cache size in entries (Fig. 13).
    #[must_use]
    pub fn with_stu_entries(mut self, entries: usize) -> SystemConfig {
        self.stu_entries = entries;
        self
    }

    /// Sets the STU associativity (§V-D1 text sweep).
    #[must_use]
    pub fn with_stu_ways(mut self, ways: usize) -> SystemConfig {
        self.stu_ways = ways;
        self
    }

    /// Sets the ACM width (Fig. 14).
    #[must_use]
    pub fn with_acm_width(mut self, width: AcmWidth) -> SystemConfig {
        self.acm_width = width;
        self
    }

    /// Sets the DeACT-N pairs-per-way override (Fig. 14's 1/2/3-pair
    /// study).
    #[must_use]
    pub fn with_deact_n_pairs(mut self, pairs: Option<usize>) -> SystemConfig {
        self.deact_n_pairs = pairs;
        self
    }

    /// Sets the number of references each core executes.
    #[must_use]
    pub fn with_refs_per_core(mut self, refs: u64) -> SystemConfig {
        self.refs_per_core = refs;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> SystemConfig {
        self.seed = seed;
        self
    }

    /// Enables the §III-A encrypted-memory read bypass (see
    /// [`SystemConfig::skip_read_checks`]).
    #[must_use]
    pub fn with_skip_read_checks(mut self, on: bool) -> SystemConfig {
        self.skip_read_checks = on;
        self
    }

    /// Sets the cross-node shared-segment size (§VI).
    #[must_use]
    pub fn with_shared_segment_pages(mut self, pages: u64) -> SystemConfig {
        self.shared_segment_pages = pages;
        self
    }

    /// Enables the §III-C LRU translation-cache ablation (see
    /// [`SystemConfig::translation_cache_lru`]).
    #[must_use]
    pub fn with_translation_cache_lru(mut self, on: bool) -> SystemConfig {
        self.translation_cache_lru = on;
        self
    }

    /// Sets the fault-injection profile (see [`FaultConfig`]).
    #[must_use]
    pub fn with_fault_injection(mut self, faults: FaultConfig) -> SystemConfig {
        self.fault_injection = faults;
        self
    }

    /// Sets the tracing configuration (see [`TraceConfig`]).
    #[must_use]
    pub fn with_trace(mut self, trace: TraceConfig) -> SystemConfig {
        self.trace = trace;
        self
    }

    /// The core clock.
    pub fn frequency(&self) -> Frequency {
        Frequency::mhz(self.frequency_mhz)
    }

    /// The STU cache configuration implied by scheme, geometry and ACM
    /// width.
    ///
    /// # Panics
    ///
    /// Panics for [`Scheme::EFam`], which has no STU, or if
    /// `stu_entries` does not divide by `stu_ways`.
    pub fn stu_config(&self) -> StuConfig {
        let organization = self
            .scheme
            .stu_organization()
            .expect("E-FAM has no STU cache");
        assert_eq!(
            self.stu_entries % self.stu_ways,
            0,
            "STU entries must divide into ways"
        );
        StuConfig {
            sets: self.stu_entries / self.stu_ways,
            ways: self.stu_ways,
            organization,
            acm_width: self.acm_width,
            pairs_per_way: self.deact_n_pairs,
        }
    }

    /// The most nodes this configuration can run: one per node id an
    /// ACM entry of [`SystemConfig::acm_width`] can name, and never
    /// more than the 16,383 ids a [`NodeId`] holds below its shared
    /// marker (the binding bound at 32-bit entries).
    pub(crate) fn max_nodes(&self) -> usize {
        (self.acm_width.max_nodes() as usize + 1).min(usize::from(NodeId::SHARED_MARKER))
    }

    /// Checks that this configuration can run: the one place that
    /// decides it. [`crate::System::with_streams`] panics with the
    /// reason; `deact-sim` prints it.
    ///
    /// # Errors
    ///
    /// Names the first rule the configuration breaks.
    pub fn validate(&self) -> Result<(), String> {
        let killed = self
            .fault_injection
            .persistent
            .and_then(|s| s.fault.module());
        for (broken, reason) in [
            (self.nodes == 0, "need at least one node"),
            (self.cores_per_node == 0, "need at least one core"),
            (self.refs_per_core == 0, "need at least one reference"),
            (self.issue_width == 0, "issue width must be non-zero"),
            (self.fam_modules == 0, "need at least one FAM module"),
            (self.stu_entries == 0, "need at least one STU entry"),
            (self.stu_ways == 0, "need at least one STU way"),
            (
                self.fam_modules == 1 && killed == Some(0),
                "persistent fault kills the only FAM module, leaving none to survive on",
            ),
        ] {
            if broken {
                return Err(reason.into());
            }
        }
        if !self.stu_entries.is_multiple_of(self.stu_ways) {
            return Err(format!(
                "{} STU entries leave a partial set of {} ways",
                self.stu_entries, self.stu_ways
            ));
        }
        if self.nodes > self.max_nodes() {
            return Err(format!(
                "{} nodes exceed the limit of {} ({}-bit ACM entries, node ids below {:#x})",
                self.nodes,
                self.max_nodes(),
                self.acm_width.bits(),
                NodeId::SHARED_MARKER
            ));
        }
        if let Some(module) = killed.filter(|&m| m >= self.fam_modules) {
            return Err(format!(
                "persistent fault names FAM module {module}, but only {} exist",
                self.fam_modules
            ));
        }
        self.fault_injection.validate()
    }
}

impl Default for SystemConfig {
    fn default() -> SystemConfig {
        SystemConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fam_sim::PersistentFault;

    #[test]
    fn paper_default_matches_table2() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.cores_per_node, 4);
        assert_eq!(c.frequency_mhz, 2000);
        assert_eq!(c.issue_width, 2);
        assert_eq!(c.core_outstanding, 32);
        assert_eq!(c.tlb.l1_entries, 32);
        assert_eq!(c.tlb.l2_entries, 256);
        assert_eq!(c.hierarchy.l1_bytes, 32 * 1024);
        assert_eq!(c.hierarchy.l2_bytes, 256 * 1024);
        assert_eq!(c.hierarchy.l3_bytes, 1024 * 1024);
        assert_eq!(c.dram_bytes, 1 << 30);
        assert_eq!(c.fam_bytes, 16 << 30);
        assert_eq!(c.nvm.read_ns, 60);
        assert_eq!(c.nvm.write_ns, 150);
        assert_eq!(c.nvm.banks, 32);
        assert_eq!(c.nvm.max_outstanding, 128);
        assert_eq!(c.fabric.latency_ns, 500);
        assert_eq!(c.stu_entries, 1024);
        assert_eq!(c.stu_ways, 8);
        assert_eq!(c.translation_cache_bytes, 1 << 20);
    }

    #[test]
    fn builders_compose() {
        let c = SystemConfig::paper_default()
            .with_scheme(Scheme::IFam)
            .with_nodes(8)
            .with_stu_entries(256)
            .with_fabric_latency_ns(6000)
            .with_refs_per_core(10)
            .with_seed(1);
        assert_eq!(c.scheme, Scheme::IFam);
        assert_eq!(c.nodes, 8);
        assert_eq!(c.stu_config().sets, 32);
        assert_eq!(c.fabric.latency_ns, 6000);
    }

    #[test]
    fn stu_config_reflects_scheme() {
        use fam_stu::StuOrganization;
        let c = SystemConfig::paper_default().with_scheme(Scheme::DeactW);
        assert_eq!(c.stu_config().organization, StuOrganization::DeactW);
        assert_eq!(c.stu_config().sets, 128);
    }

    #[test]
    #[should_panic(expected = "E-FAM has no STU")]
    fn efam_has_no_stu_config() {
        SystemConfig::paper_default()
            .with_scheme(Scheme::EFam)
            .stu_config();
    }

    #[test]
    fn validate_accepts_default() {
        assert_eq!(SystemConfig::paper_default().validate(), Ok(()));
    }

    /// Asserts that `c` is refused with a reason containing `phrase`.
    fn assert_rejected(c: SystemConfig, phrase: &str) {
        let reason = c.validate().expect_err(phrase);
        assert!(reason.contains(phrase), "{reason:?} lacks {phrase:?}");
    }

    #[test]
    #[should_panic(expected = "64 nodes exceed the limit of 63 (8-bit ACM entries")]
    fn validate_rejects_more_nodes_than_the_acm_width_names() {
        let c = SystemConfig::paper_default().with_acm_width(AcmWidth::W8);
        assert_eq!(c.with_nodes(63).validate(), Ok(()));
        c.with_nodes(64).validate().unwrap();
    }

    /// A 32-bit ACM entry names 2^30 - 2 nodes, but a node id stops
    /// below 0x3FFF: the id space is the binding bound.
    #[test]
    #[should_panic(expected = "16384 nodes exceed the limit of 16383 (32-bit ACM entries")]
    fn validate_bounds_wide_acm_entries_by_the_node_id_space() {
        let c = SystemConfig::paper_default().with_acm_width(AcmWidth::W32);
        assert_eq!(c.with_nodes(16_383).validate(), Ok(()));
        c.with_nodes(16_384).validate().unwrap();
    }

    #[test]
    fn fault_injection_defaults_off() {
        let c = SystemConfig::paper_default();
        assert!(!c.fault_injection.enabled);
        assert!(!c.trace.is_enabled(), "tracing defaults off like faults");
        assert!(c.with_trace(TraceConfig::full()).trace.is_enabled());
        let faulty = c.with_fault_injection(FaultConfig::transient(9));
        assert!(faulty.fault_injection.enabled);
        assert_eq!(faulty.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn validate_rejects_bad_fault_profile() {
        let bad = FaultConfig {
            drop_prob: 7.0,
            ..FaultConfig::transient(1)
        };
        let c = SystemConfig::paper_default().with_fault_injection(bad);
        c.validate().unwrap();
    }

    /// A paper-default config over `modules` FAM modules that `fault`
    /// strikes at FAM operation `at`.
    fn killing(modules: usize, fault: PersistentFault, at: u64) -> SystemConfig {
        SystemConfig::paper_default()
            .with_fam_modules(modules)
            .with_fault_injection(FaultConfig::persistent_only(1, fault, at))
    }

    #[test]
    #[should_panic(expected = "names FAM module")]
    fn validate_rejects_killing_a_nonexistent_module() {
        killing(2, PersistentFault::NodeDead { module: 5 }, 100)
            .validate()
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn validate_rejects_zero_nodes() {
        SystemConfig::paper_default()
            .with_nodes(0)
            .validate()
            .unwrap();
    }

    /// Each config breaks one rule and is refused with a reason naming
    /// it.
    #[test]
    fn validate_names_each_broken_rule() {
        use PersistentFault::{LinkSevered, MediaFailed, NodeDead};
        let c = SystemConfig::paper_default();
        for (bad, phrase) in [
            (c.with_stu_entries(12), "12 STU entries leave a partial set"),
            (c.with_stu_entries(0), "at least one STU entry"),
            (c.with_stu_ways(0), "at least one STU way"),
            (c.with_fam_modules(0), "at least one FAM module"),
            (killing(1, NodeDead { module: 0 }, 9), "only FAM module"),
            (killing(1, LinkSevered { module: 0 }, 9), "only FAM module"),
            (killing(2, NodeDead { module: 1 }, 0), "1-based ordinal"),
        ] {
            assert_rejected(bad, phrase);
        }
        // A media failure leaves its module up, so one module suffices.
        let media = MediaFailed {
            first_page: 0,
            pages: 4,
        };
        assert_eq!(killing(1, media, 9).validate(), Ok(()));
    }
}
