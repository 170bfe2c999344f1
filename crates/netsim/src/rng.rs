//! Deterministic random number generation.
//!
//! The simulator uses a hand-rolled xoshiro256** generator rather than an
//! external crate so that experiment runs are bit-for-bit reproducible across
//! platforms and crate upgrades. Every run owns exactly one root [`SimRng`]
//! seeded from the experiment seed; substreams for independent components are
//! derived with [`SimRng::fork`], which keeps component behaviour independent
//! of the order in which *other* components draw numbers.

use crate::time::SimDuration;

/// splitmix64, used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** pseudo-random generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed (expanded via splitmix64).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent substream, keyed by `stream`. Forking with the
    /// same key from the same generator state yields the same substream.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::seed_from_u64(base ^ stream.wrapping_mul(0x9E3779B97F4A7C15))
    }

    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    /// Uses Lemire's multiply-shift rejection method (unbiased).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`. Panics when `lo >= hi`.
    // detlint: allow test-oracle step proptest_sim drives
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Uniform duration in `[lo, hi)`; returns `lo` when the range is empty.
    pub fn duration_between(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        if hi <= lo {
            return lo;
        }
        SimDuration::from_nanos(self.range_u64(lo.as_nanos(), hi.as_nanos()))
    }

    /// Jitter a base duration to a uniform value in
    /// `[base*lo_frac, base*hi_frac)`. This is how the BGP MRAI timer applies
    /// its RFC 4271 §9.2.1.1 jitter (`lo_frac = 0.75, hi_frac = 1.0`).
    pub fn jittered(&mut self, base: SimDuration, lo_frac: f64, hi_frac: f64) -> SimDuration {
        assert!(
            0.0 <= lo_frac && lo_frac <= hi_frac,
            "invalid jitter range {lo_frac}..{hi_frac}"
        );
        let lo = (base.as_nanos() as f64 * lo_frac) as u64;
        let hi = (base.as_nanos() as f64 * hi_frac) as u64;
        if hi <= lo {
            return SimDuration::from_nanos(lo);
        }
        SimDuration::from_nanos(self.range_u64(lo, hi))
    }

    /// Pick a uniformly random element, or `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.below_usize(xs.len())])
        }
    }

    /// Sample `k` distinct indices from `0..n` (reservoir sampling; output in
    /// ascending order for determinism of downstream iteration).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut reservoir: Vec<usize> = (0..k).collect();
        for i in k..n {
            let j = self.below_usize(i + 1);
            if j < k {
                reservoir[j] = i;
            }
        }
        reservoir.sort_unstable();
        reservoir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SimRng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit in 1000 draws");
    }

    #[test]
    fn unit_f64_is_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(9);
        for _ in 0..1000 {
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn jittered_respects_bounds() {
        let mut r = SimRng::seed_from_u64(3);
        let base = SimDuration::from_secs(30);
        for _ in 0..1000 {
            let d = r.jittered(base, 0.75, 1.0);
            assert!(d >= SimDuration::from_millis(22_500));
            assert!(d < SimDuration::from_secs(30));
        }
    }

    #[test]
    fn jittered_degenerate_range_returns_lo() {
        let mut r = SimRng::seed_from_u64(3);
        let base = SimDuration::from_secs(10);
        assert_eq!(r.jittered(base, 1.0, 1.0), base);
        assert_eq!(r.jittered(SimDuration::ZERO, 0.5, 2.0), SimDuration::ZERO);
    }

    #[test]
    fn forks_are_independent_of_parent_draw_order() {
        // Forking with the same key from the same state must agree.
        let mut a = SimRng::seed_from_u64(5);
        let mut b = SimRng::seed_from_u64(5);
        let mut fa = a.fork(77);
        let mut fb = b.fork(77);
        for _ in 0..32 {
            assert_eq!(fa.next_u64(), fb.next_u64());
        }
    }

    #[test]
    fn sample_indices_distinct_sorted() {
        let mut r = SimRng::seed_from_u64(13);
        let s = r.sample_indices(100, 10);
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&i| i < 100));
        // k >= n returns everything
        assert_eq!(r.sample_indices(5, 99), vec![0, 1, 2, 3, 4]);
    }
}
