//! # sim-rng
//!
//! A zero-dependency, deterministic pseudo-random number generator for the
//! simulator. Every experiment in this workspace must be exactly
//! reproducible from a `u64` seed — across runs, platforms, and thread
//! counts — so we pin the algorithm (xoshiro256++ seeded via SplitMix64)
//! here instead of depending on an external crate whose stream could
//! change between versions.
//!
//! The API mirrors the small subset of `rand` the workspace used:
//!
//! ```
//! use sim_rng::SmallRng;
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let x = rng.gen_f64();             // uniform in [0, 1)
//! assert!((0.0..1.0).contains(&x));
//! let c = rng.gen_range(0..128u32);  // uniform integer
//! assert!(c < 128);
//! let again = SmallRng::seed_from_u64(7).gen_f64();
//! assert_eq!(x, again);              // fully deterministic
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::ops::{Range, RangeInclusive};

/// A small, fast, deterministic PRNG (xoshiro256++).
///
/// Not cryptographically secure — it drives simulation workloads, where
/// statistical quality and bit-for-bit reproducibility are what matter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

/// One step of SplitMix64 — used to expand a 64-bit seed into the
/// 256-bit xoshiro state (the initialization recommended by the
/// xoshiro authors).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SmallRng {
    /// Builds a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SmallRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform sample from a range; see [`RangeSample`] for supported
    /// range types.
    pub fn gen_range<R: RangeSample>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Uniform integer in `[0, n)` via 128-bit widening multiply
    /// (avoids modulo bias to within 2^-64, plenty for simulation).
    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Ranges [`SmallRng::gen_range`] can sample from.
pub trait RangeSample {
    /// The sampled value type.
    type Output;
    /// Draws one uniform sample.
    fn sample(self, rng: &mut SmallRng) -> Self::Output;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl RangeSample for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
    )*};
}

int_range!(u32, u64, usize);

impl RangeSample for Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut SmallRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.gen_f64() * (self.end - self.start)
    }
}

impl RangeSample for RangeInclusive<f64> {
    type Output = f64;
    fn sample(self, rng: &mut SmallRng) -> f64 {
        let (a, b) = (*self.start(), *self.end());
        assert!(a <= b, "empty range");
        a + rng.gen_f64() * (b - a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(42);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(42);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c = SmallRng::seed_from_u64(43).next_u64();
        assert_ne!(a[0], c);
    }

    #[test]
    fn known_answer_pins_the_stream() {
        // Guards against accidental algorithm changes: the whole workspace
        // depends on this exact stream for reproducible experiments.
        let mut r = SmallRng::seed_from_u64(0);
        let first: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                5987356902031041503,
                7051070477665621255,
                6633766593972829180
            ]
        );
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut r = SmallRng::seed_from_u64(1);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn int_ranges_cover_and_respect_bounds() {
        let mut r = SmallRng::seed_from_u64(2);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            let v = r.gen_range(0..8u32);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values hit: {seen:?}");
        for _ in 0..1_000 {
            let v = r.gen_range(5..7usize);
            assert!((5..7).contains(&v));
        }
    }

    #[test]
    fn bool_probability_tracks_p() {
        let mut r = SmallRng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        let f = hits as f64 / 100_000.0;
        assert!((f - 0.3).abs() < 0.01, "p=0.3 observed {f}");
        assert!(!SmallRng::seed_from_u64(4).gen_bool(0.0));
        assert!(SmallRng::seed_from_u64(4).gen_bool(1.0));
    }

    #[test]
    fn f64_range_sampling() {
        let mut r = SmallRng::seed_from_u64(5);
        for _ in 0..1_000 {
            let v = r.gen_range(2.0..4.0);
            assert!((2.0..4.0).contains(&v));
            let w = r.gen_range(0.0..=1.5);
            assert!((0.0..=1.5).contains(&w));
        }
        // Degenerate inclusive range is allowed.
        assert_eq!(r.gen_range(3.0..=3.0), 3.0);
    }
}
