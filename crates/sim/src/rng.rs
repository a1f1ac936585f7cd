//! Deterministic random number generation.
//!
//! [`DetRng`] is a self-contained xoshiro256\*\* generator seeded through
//! SplitMix64. We implement the generator ourselves (rather than relying on
//! an external crate's generator) so that simulation results never depend
//! on a dependency's version.
//!
//! Streams can be [`fork`](DetRng::fork)ed: each (experiment, trace, run,
//! subsystem) tuple derives its own independent stream, so adding randomness
//! to one subsystem never perturbs another — a property the regression tests
//! rely on.

/// SplitMix64 step, used for seeding and stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256\*\* PRNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Create a generator from a 64-bit seed. Any seed (including 0) yields
    /// a well-mixed state via SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derive an independent stream for a named subsystem. The same
    /// `(parent seed, label)` pair always yields the same stream.
    pub fn fork(&self, label: u64) -> DetRng {
        // Mix the current state with the label through SplitMix64 so forked
        // streams do not overlap with the parent sequence.
        let mut sm = self
            .s
            .iter()
            .fold(label ^ 0xA076_1D64_78BD_642F, |acc, &w| {
                acc.rotate_left(23) ^ w.wrapping_mul(0xE703_7ED1_A0B4_28DB)
            });
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Next raw 64-bit value (xoshiro256\*\* output function).
    #[inline]
    pub fn next_u64_raw(&mut self) -> u64 {
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

    /// Uniform `f64` in `[0, 1)` with 53-bit resolution.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. Uses Lemire's multiply-shift
    /// rejection method; unbiased. `bound` must be nonzero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "DetRng::below called with bound 0");
        // Lemire 2019: unbiased bounded integers without division in the
        // common case.
        let mut x = self.next_u64_raw();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64_raw();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`. Panics when the range is empty.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "DetRng::range_u64 called with empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform `usize` index in `[0, len)`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    #[inline]
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "DetRng::pick on empty slice");
        &items[self.index(items.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (uniform without
    /// replacement, order random). If `k >= n` returns all indices shuffled.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        // Partial Fisher–Yates: after k swaps the first k entries are a
        // uniform sample.
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Exponentially distributed value with the given mean.
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Inverse CDF; (1 - u) avoids ln(0).
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Pareto(Lomax)-distributed value with scale `x_min` and shape `alpha`.
    /// Heavy-tailed; used for session lengths and file sizes in the trace
    /// generator.
    #[inline]
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        debug_assert!(x_min > 0.0 && alpha > 0.0);
        x_min / (1.0 - self.next_f64()).powf(1.0 / alpha)
    }

    /// Log-normal-ish positive jitter: multiply `base` by a factor uniform
    /// in `[1-spread, 1+spread]`.
    #[inline]
    pub fn jitter(&mut self, base: f64, spread: f64) -> f64 {
        base * (1.0 + spread * (2.0 * self.next_f64() - 1.0))
    }
}

// The four xoshiro256** state words: restoring resumes the stream at
// exactly the next draw.
rvs_checkpoint::persist_struct!(DetRng { s });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64_raw()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64_raw()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn forked_streams_are_stable_and_independent() {
        let parent = DetRng::new(7);
        let mut f1 = parent.fork(1);
        let mut f1b = parent.fork(1);
        let mut f2 = parent.fork(2);
        assert_eq!(f1.next_u64_raw(), f1b.next_u64_raw());
        assert_ne!(f1.next_u64_raw(), f2.next_u64_raw());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_bounded_and_covers() {
        let mut r = DetRng::new(9);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = DetRng::new(11);
        let n = 100_000;
        let k = 7u64;
        let mut counts = vec![0usize; k as usize];
        for _ in 0..n {
            counts[r.below(k) as usize] += 1;
        }
        let expected = n as f64 / k as f64;
        for &c in &counts {
            assert!(
                (c as f64 - expected).abs() < expected * 0.1,
                "bucket count {c} too far from expectation {expected}"
            );
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = DetRng::new(5);
        for _ in 0..1_000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        DetRng::new(0).range_u64(5, 5);
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_mid_probability_is_calibrated() {
        let mut r = DetRng::new(13);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        assert!((hits as f64 - 30_000.0).abs() < 1_500.0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(21);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut r = DetRng::new(33);
        for _ in 0..100 {
            let s = r.sample_indices(20, 8);
            assert_eq!(s.len(), 8);
            let mut u = s.clone();
            u.sort_unstable();
            u.dedup();
            assert_eq!(u.len(), 8, "indices must be distinct");
            assert!(s.iter().all(|&i| i < 20));
        }
    }

    #[test]
    fn sample_indices_oversample_returns_all() {
        let mut r = DetRng::new(34);
        let mut s = r.sample_indices(5, 99);
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = DetRng::new(55);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.exp(10.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.2, "sample mean {mean}");
    }

    #[test]
    fn pareto_respects_minimum() {
        let mut r = DetRng::new(77);
        for _ in 0..10_000 {
            assert!(r.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn jitter_stays_within_spread() {
        let mut r = DetRng::new(6);
        for _ in 0..1_000 {
            let v = r.jitter(100.0, 0.25);
            assert!((75.0..=125.0).contains(&v));
        }
    }
}
