//! Local DRAM timing model.

use fam_sim::stats::Counter;
use fam_sim::{Cycle, Duration, Frequency, Resource};

/// The node-local DRAM (1 GB in Table II).
///
/// Modelled as a fixed access latency behind a contended channel: a
/// request arriving at `now` waits for the channel, occupies it for the
/// transfer time of one 64-byte block, and completes one access latency
/// after service starts.
///
/// # Examples
///
/// ```
/// use fam_mem::DramModel;
/// use fam_sim::{Cycle, Frequency};
///
/// let mut dram = DramModel::new(Frequency::ghz(2), 60, 2);
/// let done = dram.access(Cycle(0), 0x1000);
/// assert_eq!(done, Cycle(120)); // 60 ns at 2 GHz
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    latency: Duration,
    channel: Resource,
    reads: Counter,
    writes: Counter,
}

impl DramModel {
    /// Creates a DRAM with `access_ns` latency and `occupancy_cycles`
    /// channel occupancy per block transfer, at core frequency `freq`.
    pub fn new(freq: Frequency, access_ns: u64, occupancy_cycles: u64) -> DramModel {
        DramModel {
            latency: freq.ns_to_cycles(access_ns),
            channel: Resource::new(occupancy_cycles),
            reads: Counter::new(),
            writes: Counter::new(),
        }
    }

    /// A read of the block containing `byte_addr` arriving at `now`;
    /// returns the completion time.
    pub fn access(&mut self, now: Cycle, byte_addr: u64) -> Cycle {
        let _ = byte_addr; // single channel: address does not matter
        self.reads.inc();
        let start = self.channel.acquire(now);
        start + self.latency
    }

    /// A write of the block containing `byte_addr` arriving at `now`;
    /// returns the completion time. Writes have the same latency as
    /// reads in DRAM.
    pub fn write(&mut self, now: Cycle, byte_addr: u64) -> Cycle {
        let _ = byte_addr;
        self.writes.inc();
        let start = self.channel.acquire(now);
        start + self.latency
    }

    /// Total reads serviced.
    pub fn reads(&self) -> u64 {
        self.reads.value()
    }

    /// Total writes serviced.
    pub fn writes(&self) -> u64 {
        self.writes.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> DramModel {
        DramModel::new(Frequency::ghz(2), 60, 2)
    }

    #[test]
    fn latency_is_converted_to_cycles() {
        assert_eq!(dram().latency, Duration(120));
    }

    #[test]
    fn back_to_back_requests_queue_on_channel() {
        let mut d = dram();
        let a = d.access(Cycle(0), 0);
        let b = d.access(Cycle(0), 64);
        assert_eq!(a, Cycle(120));
        assert_eq!(b, Cycle(122)); // 2-cycle channel occupancy
    }

    #[test]
    fn idle_channel_adds_no_queueing() {
        let mut d = dram();
        d.access(Cycle(0), 0);
        assert_eq!(d.access(Cycle(1000), 0), Cycle(1120));
    }

    #[test]
    fn read_write_counters() {
        let mut d = dram();
        d.access(Cycle(0), 0);
        d.write(Cycle(0), 0);
        d.write(Cycle(0), 0);
        assert_eq!(d.reads(), 1);
        assert_eq!(d.writes(), 2);
    }
}
