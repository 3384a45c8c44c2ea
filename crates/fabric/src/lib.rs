//! Fabric interconnect model for the DeACT reproduction.
//!
//! The paper models the Gen-Z-style fabric as a fixed-latency network
//! (500 ns in Table II, swept from 100 ns to 6 µs in Fig. 15) shared by
//! every node attached to a FAM pool. This crate provides:
//!
//! * [`Fabric`] — per-node access links plus per-module ports into the
//!   FAM pool, each modelled as a contended resource, so the Fig. 16
//!   node-count sweep sees queueing as more nodes share the fabric
//!   while traffic to distinct NVM modules rides independent ports.
//! * [`packet`] — the wire format of memory-semantic requests,
//!   including the `V` (verified) flag DeACT adds to request packets
//!   (§III-C), encoded with a real serializer so the flag has a
//!   concrete bit position.
//!
//! # Examples
//!
//! ```
//! use fam_fabric::{Fabric, FabricConfig};
//! use fam_sim::{Cycle, Frequency};
//!
//! let mut fabric = Fabric::new(Frequency::ghz(2), FabricConfig::default(), 1, 1);
//! let arrival = fabric.node_to_fam(Cycle(0), 0, 0);
//! assert_eq!(arrival, Cycle(1000)); // 500 ns at 2 GHz
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod packet;

use fam_sim::{Cycle, Duration, Frequency, Resource};

/// Fabric timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricConfig {
    /// One-way traversal latency in nanoseconds (paper default:
    /// 500 ns; Fig. 15 sweeps 100 ns – 6 µs).
    pub latency_ns: u64,
    /// Cycles a node's access link is occupied per 64-byte flit.
    pub(crate) link_occupancy_cycles: u64,
    /// Cycles a FAM module's port is occupied per flit; traffic to the
    /// same module contends here in the Fig. 16 sweep, while distinct
    /// modules queue independently. (Historically named for the single
    /// shared trunk the port array replaced; with one module the two
    /// models are identical.)
    pub(crate) trunk_occupancy_cycles: u64,
}

impl Default for FabricConfig {
    fn default() -> FabricConfig {
        FabricConfig {
            latency_ns: 500,
            link_occupancy_cycles: 4,
            trunk_occupancy_cycles: 2,
        }
    }
}

/// The system fabric connecting `nodes` compute nodes to a FAM pool of
/// `modules` NVM modules.
///
/// A traversal claims the node's private access link, then the target
/// module's port, then completes one traversal latency later.
/// Responses take the same path in reverse; both directions share the
/// same resources, which is how contention grows with node count.
/// Traffic to distinct modules only shares the node link.
#[derive(Debug, Clone)]
pub struct Fabric {
    latency: Duration,
    links: Vec<Resource>,
    ports: Vec<Resource>,
    traversals: u64,
    config: FabricConfig,
}

impl Fabric {
    /// Creates a fabric for `nodes` nodes and `modules` FAM modules.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `modules` is zero.
    pub fn new(freq: Frequency, config: FabricConfig, nodes: usize, modules: usize) -> Fabric {
        assert!(nodes > 0, "fabric needs at least one node");
        assert!(modules > 0, "fabric needs at least one module");
        Fabric {
            latency: freq.ns_to_cycles(config.latency_ns),
            links: (0..nodes)
                .map(|_| Resource::new(config.link_occupancy_cycles))
                .collect(),
            ports: (0..modules)
                .map(|_| Resource::new(config.trunk_occupancy_cycles))
                .collect(),
            traversals: 0,
            config,
        }
    }

    fn traverse(&mut self, now: Cycle, node: usize, module: usize, flits: u64) -> Cycle {
        assert!(node < self.links.len(), "unknown node {node}");
        assert!(module < self.ports.len(), "unknown module {module}");
        let _prof = fam_sim::profile::span(fam_sim::profile::PhaseId::Fabric);
        self.traversals += 1;
        let flits = flits.max(1);
        let on_link = self.links[node].acquire_for(
            now,
            Duration(self.config.link_occupancy_cycles).times(flits),
        );
        let on_port = self.ports[module].acquire_for(
            on_link,
            Duration(self.config.trunk_occupancy_cycles).times(flits),
        );
        on_port + self.latency
    }

    /// A single-flit request from `node` to FAM module `module`;
    /// returns the arrival time.
    pub fn node_to_fam(&mut self, now: Cycle, node: usize, module: usize) -> Cycle {
        self.traverse(now, node, module, 1)
    }

    /// A response (or any transfer) from module `module` back to
    /// `node`; `bytes` sizes the transfer (rounded up to 64-byte
    /// flits).
    pub fn fam_to_node(&mut self, now: Cycle, node: usize, module: usize, bytes: u64) -> Cycle {
        self.traverse(now, node, module, bytes.div_ceil(64))
    }

    /// Round trip: request to module `module` plus `response_bytes`
    /// back, with `service` cycles spent at the FAM side in between.
    pub fn round_trip(
        &mut self,
        now: Cycle,
        node: usize,
        module: usize,
        service: Duration,
        response_bytes: u64,
    ) -> Cycle {
        let there = self.node_to_fam(now, node, module);
        self.fam_to_node(there + service, node, module, response_bytes)
    }

    /// Total traversals in both directions.
    pub fn traversals(&self) -> u64 {
        self.traversals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(nodes: usize) -> Fabric {
        Fabric::new(Frequency::ghz(2), FabricConfig::default(), nodes, 1)
    }

    #[test]
    fn one_way_latency_matches_config() {
        let mut f = fabric(2);
        assert_eq!(f.node_to_fam(Cycle(0), 0, 0), Cycle(1000));
        assert_eq!(f.latency, Duration(1000));
    }

    #[test]
    fn per_node_links_are_private() {
        let mut f = fabric(2);
        let a = f.node_to_fam(Cycle(0), 0, 0);
        let b = f.node_to_fam(Cycle(0), 1, 0);
        // Node 1 only waits behind node 0 on the shared module port.
        assert_eq!(a, Cycle(1000));
        assert!(b > a && b < Cycle(1010), "port-only queueing: got {b:?}");
    }

    #[test]
    fn per_module_ports_are_independent() {
        let mut f = Fabric::new(Frequency::ghz(2), FabricConfig::default(), 2, 2);
        let a = f.node_to_fam(Cycle(0), 0, 0);
        let b = f.node_to_fam(Cycle(0), 1, 1);
        // Different nodes, different modules: no shared resource at all.
        assert_eq!(a, Cycle(1000));
        assert_eq!(b, Cycle(1000));
    }

    #[test]
    fn same_node_requests_queue_on_link() {
        let mut f = fabric(1);
        let a = f.node_to_fam(Cycle(0), 0, 0);
        let b = f.node_to_fam(Cycle(0), 0, 0);
        assert!(b >= a + Duration(4), "second flit waits for the link");
    }

    #[test]
    fn large_response_occupies_longer() {
        let mut f = fabric(1);
        f.fam_to_node(Cycle(0), 0, 0, 4096); // 64 flits
        let next = f.node_to_fam(Cycle(0), 0, 0);
        assert!(next > Cycle(1200), "link busy for 64 flits: {next:?}");
    }

    #[test]
    fn round_trip_includes_service_time() {
        let mut f = fabric(1);
        let done = f.round_trip(Cycle(0), 0, 0, Duration(120), 64);
        // 1000 there + 120 service + 1000 back, plus occupancies.
        assert!(done >= Cycle(2120));
        assert!(done < Cycle(2200));
        assert_eq!(f.traversals(), 2);
    }

    #[test]
    fn sweeping_latency_changes_traversal() {
        let cfg = FabricConfig {
            latency_ns: 6000,
            ..FabricConfig::default()
        };
        let mut f = Fabric::new(Frequency::ghz(2), cfg, 1, 1);
        assert_eq!(f.node_to_fam(Cycle(0), 0, 0), Cycle(12000));
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn out_of_range_node_rejected() {
        fabric(1).node_to_fam(Cycle(0), 5, 0);
    }

    #[test]
    #[should_panic(expected = "unknown module")]
    fn out_of_range_module_rejected() {
        fabric(1).node_to_fam(Cycle(0), 0, 3);
    }
}
