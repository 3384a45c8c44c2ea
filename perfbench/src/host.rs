//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts. Neighbours slow the simulator by
//! 20% to 2x for minutes at a time, and such a shift moves the raw
//! median of a whole run. A fixed calibration kernel owned by the
//! benchmark (no simulator code runs in it) is timed right before and
//! after every run; its slowdown against [`REFERENCE_S`] is the run's
//! *host factor*, and the benchmark divides host times by it.
//!
//! The kernel is a dependent chain of integer operations and
//! read-modify-writes over a 32 KiB table: it stays in the L1 cache, so
//! it sees the host taking CPU time away but not cache or memory
//! contention, which the simulator feels more. In recordings of the
//! simulator next to candidate kernels it moved about half as much as
//! the simulator did under a host slowdown and never more, so dividing
//! by it under-corrects but never over-corrects. Kernels over larger
//! tables tracked some slowdowns better but over-corrected others.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one kernel pass takes on a quiet host (2 GHz Xeon vCPU).
/// Only the unit of normalized times depends on it.
pub const REFERENCE_S: f64 = 0.0031;

/// Iterations of one kernel pass.
const PASS_ITERS: usize = 600_000;

/// Timed passes per measurement.
const PASSES: usize = 3;

/// The calibration kernel's table.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
}

impl Calibrator {
    /// Allocates the kernel's 32 KiB table.
    pub fn new() -> Calibrator {
        Calibrator {
            table: vec![1; 1 << 12],
        }
    }

    /// One pass of the kernel; returns its host seconds.
    fn pass(&mut self) -> f64 {
        let mask = self.table.len() - 1;
        let start = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for _ in 0..PASS_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = ((x ^ acc) as usize) & mask;
            let v = self.table[i];
            if v & 3 == 0 {
                acc = acc.wrapping_add(v);
            } else {
                acc ^= v.rotate_left(7);
            }
            self.table[i] = v.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(x);
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }

    /// The host's current slowdown against the reference host: the mean
    /// of a few kernel passes over [`REFERENCE_S`].
    pub fn factor(&mut self) -> f64 {
        let total: f64 = (0..PASSES).map(|_| self.pass()).sum();
        total / (PASSES as f64 * REFERENCE_S)
    }
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        Calibrator::new()
    }
}
