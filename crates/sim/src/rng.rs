//! Seedable randomness for reproducible simulations.
//!
//! The generator is a self-contained xoshiro256++ (Blackman & Vigna),
//! seeded through SplitMix64 so any `u64` seed — including zero —
//! yields a well-mixed state. Keeping the implementation local makes
//! the workspace hermetic: simulations replay bit-for-bit on any
//! toolchain without an external RNG crate pinning the stream.

/// A small, fast, seedable RNG.
///
/// Every stochastic choice in the workspace (workload address streams,
/// random cache replacement, FAM allocation shuffling, fault
/// injection) draws from a `SimRng` constructed from an explicit seed,
/// so any experiment can be replayed bit-for-bit.
///
/// # Examples
///
/// ```
/// use fam_sim::SimRng;
///
/// let mut a = SimRng::seeded(42);
/// let mut b = SimRng::seeded(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

/// SplitMix64 step, used to expand a 64-bit seed into generator state
/// and, statelessly, to jitter the fault injector's link-down windows.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates an RNG from an explicit seed.
    pub fn seeded(seed: u64) -> SimRng {
        let mut s = seed;
        SimRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// The next uniformly random `u64` (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let s3b = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3b;
        s2 ^= t;
        self.state = [s0, s1, s2, s3b.rotate_left(45)];
        result
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift
    /// rejection, bias-free.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        let mut m = (self.next_u64() as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                m = (self.next_u64() as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Picks a uniformly random index into a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seeded(7);
        let mut b = SimRng::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seeded(1);
        let mut b = SimRng::seeded(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn zero_seed_is_well_mixed() {
        // SplitMix64 expansion must not leave an all-zero (stuck) state.
        let mut r = SimRng::seeded(0);
        let distinct: std::collections::HashSet<u64> = (0..64).map(|_| r.next_u64()).collect();
        assert!(distinct.len() > 60);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SimRng::seeded(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_covers_small_ranges_roughly_uniformly() {
        let mut r = SimRng::seeded(11);
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            counts[r.below(4) as usize] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn unit_stays_in_range() {
        let mut r = SimRng::seeded(4);
        for _ in 0..1000 {
            let x = r.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seeded(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // Out-of-range p clamps rather than panicking.
        assert!(r.chance(2.0));
        assert!(!r.chance(-1.0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn below_zero_bound_rejected() {
        SimRng::seeded(0).below(0);
    }
}
