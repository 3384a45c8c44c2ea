//! Fabric-attached NVM timing model.

use fam_sim::{BankedResource, Cycle, Duration, Frequency, Window};

/// Whether a memory operation reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOpKind {
    /// A load / read.
    Read,
    /// A store / write.
    Write,
}

/// Configuration of the FAM NVM device (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvmConfig {
    /// Read latency in nanoseconds (paper: 60 ns).
    pub(crate) read_ns: u64,
    /// Write latency in nanoseconds (paper: 150 ns).
    pub(crate) write_ns: u64,
    /// Independent banks (paper: 32).
    pub(crate) banks: usize,
    /// Maximum outstanding requests (paper: 128).
    pub max_outstanding: usize,
    /// Per-request bank occupancy in cycles (command/data bus time).
    pub(crate) bank_occupancy_cycles: u64,
}

impl Default for NvmConfig {
    /// The paper's FAM configuration (Table II).
    fn default() -> NvmConfig {
        NvmConfig {
            read_ns: 60,
            write_ns: 150,
            banks: 32,
            max_outstanding: 128,
            bank_occupancy_cycles: 8,
        }
    }
}

impl NvmConfig {
    /// Read and write latencies in nanoseconds.
    pub fn latency_ns(&self) -> (u64, u64) {
        (self.read_ns, self.write_ns)
    }

    /// Independent banks.
    pub fn banks(&self) -> usize {
        self.banks
    }
}

/// The fabric-attached NVM: banked, read/write asymmetric, with a cap
/// on outstanding requests.
///
/// A request first waits for an outstanding-request slot (at most 128
/// in flight), then for its bank (selected by block-address
/// interleaving), then completes after the read or write latency.
///
/// # Examples
///
/// ```
/// use fam_mem::{MemOpKind, NvmConfig, NvmModel};
/// use fam_sim::{Cycle, Frequency};
///
/// let mut nvm = NvmModel::new(Frequency::ghz(2), NvmConfig::default());
/// let done = nvm.access(Cycle(0), 0x4000, MemOpKind::Read);
/// assert_eq!(done, Cycle(120)); // 60 ns read at 2 GHz
/// ```
#[derive(Debug, Clone)]
pub struct NvmModel {
    read_latency: Duration,
    write_latency: Duration,
    banks: BankedResource,
    window: Window,
    reads: u64,
    writes: u64,
}

impl NvmModel {
    /// Creates an NVM device at core frequency `freq`.
    pub fn new(freq: Frequency, config: NvmConfig) -> NvmModel {
        NvmModel {
            read_latency: freq.ns_to_cycles(config.read_ns),
            write_latency: freq.ns_to_cycles(config.write_ns),
            banks: BankedResource::new(config.banks, config.bank_occupancy_cycles),
            window: Window::new(config.max_outstanding),
            reads: 0,
            writes: 0,
        }
    }

    /// Services an operation on the block containing `byte_addr`
    /// arriving at `now`; returns the completion time.
    pub fn access(&mut self, now: Cycle, byte_addr: u64, kind: MemOpKind) -> Cycle {
        let _prof = fam_sim::profile::span(fam_sim::profile::PhaseId::Nvm);
        match kind {
            MemOpKind::Read => self.reads += 1,
            MemOpKind::Write => self.writes += 1,
        }
        let admitted = self.window.admit(now);
        let line = crate::line_of(byte_addr);
        let start = self.banks.acquire(admitted, line);
        let done = start
            + match kind {
                MemOpKind::Read => self.read_latency,
                MemOpKind::Write => self.write_latency,
            };
        self.window.record_completion(done);
        done
    }

    /// Total reads serviced.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total writes serviced.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Requests delayed by the outstanding-request cap.
    pub fn admission_stalls(&self) -> u64 {
        self.window.stalls()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nvm() -> NvmModel {
        NvmModel::new(Frequency::ghz(2), NvmConfig::default())
    }

    #[test]
    fn read_write_asymmetry() {
        let mut n = nvm();
        assert_eq!(n.access(Cycle(0), 0, MemOpKind::Read), Cycle(120));
        // Different bank so no queueing: write takes 300 cycles.
        assert_eq!(n.access(Cycle(0), 64, MemOpKind::Write), Cycle(300));
    }

    #[test]
    fn same_bank_requests_queue() {
        let mut n = nvm();
        let a = n.access(Cycle(0), 0, MemOpKind::Read);
        // 32 banks; block 32 maps back to bank 0.
        let b = n.access(Cycle(0), 32 * 64, MemOpKind::Read);
        assert_eq!(a, Cycle(120));
        assert_eq!(b, Cycle(128)); // 8-cycle bank occupancy
    }

    #[test]
    fn different_banks_proceed_in_parallel() {
        let mut n = nvm();
        let a = n.access(Cycle(0), 0, MemOpKind::Read);
        let b = n.access(Cycle(0), 64, MemOpKind::Read);
        assert_eq!(a, b);
    }

    #[test]
    fn outstanding_cap_delays_admission() {
        let cfg = NvmConfig {
            max_outstanding: 2,
            ..NvmConfig::default()
        };
        let mut n = NvmModel::new(Frequency::ghz(2), cfg);
        n.access(Cycle(0), 0, MemOpKind::Read);
        n.access(Cycle(0), 64, MemOpKind::Read);
        // Third request must wait for one of the two to finish (120).
        let c = n.access(Cycle(0), 128, MemOpKind::Read);
        assert_eq!(c, Cycle(240));
        assert_eq!(n.admission_stalls(), 1);
    }

    #[test]
    fn counters_track_ops() {
        let mut n = nvm();
        n.access(Cycle(0), 0, MemOpKind::Read);
        n.access(Cycle(0), 0, MemOpKind::Write);
        assert_eq!(n.reads(), 1);
        assert_eq!(n.writes(), 1);
    }
}
