//! Deterministic random number generation.
//!
//! The simulator must be bit-for-bit reproducible across platforms, so it
//! carries its own tiny PRNG, [`SplitMix64`], whose inherent methods
//! (`next_u64`, `below`, `range_inclusive`, `chance`, `coin`) are every
//! draw the workspace makes.

/// A [SplitMix64](https://prng.di.unimi.it/splitmix64.c) pseudo-random
/// generator.
///
/// Fast, tiny state, and good enough statistical quality for scheduling
/// decisions and protocol coin flips. **Not** cryptographically secure.
///
/// ```
/// use ooc_simnet::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // fully deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives an independent child generator, e.g. one per process.
    ///
    /// Mixing the stream index through one SplitMix64 step decorrelates the
    /// child streams even for adjacent indices.
    pub fn derive(&self, stream: u64) -> SplitMix64 {
        let mut base = SplitMix64::new(self.state ^ 0x9e37_79b9_7f4a_7c15u64.rotate_left(17));
        let a = base.next_u64();
        let mut child = SplitMix64::new(a ^ stream.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        // One warm-up step so even stream=0 diverges from the parent.
        child.next_u64();
        child
    }

    /// Returns the next value in the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. Returns 0 when `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Lemire-style rejection sampling keeps the distribution exactly
        // uniform regardless of bound.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            let (hi, lo) = {
                let wide = (r as u128) * (bound as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// Uniform value in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_inclusive: lo {lo} > hi {hi}");
        lo + self.below(hi - lo + 1)
    }

    /// A Bernoulli trial that succeeds with probability `p` (clamped to
    /// `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53 bits of randomness: enough to compare against an f64 in [0,1).
        let r = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        r < p
    }

    /// A fair coin flip, returned as `0` or `1`.
    pub fn coin(&mut self) -> u64 {
        self.next_u64() & 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn derive_is_deterministic_and_distinct() {
        let parent = SplitMix64::new(99);
        let mut c0 = parent.derive(0);
        let mut c0b = parent.derive(0);
        let mut c1 = parent.derive(1);
        assert_eq!(c0.next_u64(), c0b.next_u64());
        let mut c0 = parent.derive(0);
        assert_ne!(c0.next_u64(), c1.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = rng.below(13);
            assert!(v < 13);
        }
        assert_eq!(rng.below(0), 0);
        assert_eq!(rng.below(1), 0);
    }

    #[test]
    fn range_inclusive_covers_endpoints() {
        let mut rng = SplitMix64::new(5);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = rng.range_inclusive(2, 4);
            assert!((2..=4).contains(&v));
            seen_lo |= v == 2;
            seen_hi |= v == 4;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SplitMix64::new(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = SplitMix64::new(11);
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn coin_is_fair_enough() {
        let mut rng = SplitMix64::new(13);
        let ones: u64 = (0..100_000).map(|_| rng.coin()).sum();
        let frac = ones as f64 / 100_000.0;
        assert!((frac - 0.5).abs() < 0.01, "got {frac}");
    }
}
