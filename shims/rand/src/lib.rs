//! Offline shim for the `rand` crate.
//!
//! Provides the subset of the rand 0.10-era API the workspace uses:
//! [`rngs::SmallRng`] (xoshiro256++), [`SeedableRng::seed_from_u64`],
//! the core [`Rng`] source trait and the [`RngExt`] convenience extension
//! (`random`, `random_range`).

#![deny(unsafe_code)]

/// A source of randomness: the core trait, object-safe.
pub trait Rng {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable construction.
pub trait SeedableRng: Sized {
    /// Deterministically constructs the generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types producible uniformly at random from an RNG (the shim analogue of
/// sampling the `StandardUniform` distribution).
pub trait FromRng: Sized {
    /// Draws one uniform value.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl FromRng for u64 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl FromRng for f64 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        // 53 random mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Integers samplable uniformly from a half-open range.
pub trait SampleUniform: Copy {
    /// Uniform draw from `[low, high)`.
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low < high, "cannot sample empty range");
                let span = (high as i128 - low as i128) as u128;
                // Multiply-shift bounded sampling; the tiny modulo bias is
                // irrelevant for workload generation.
                let draw = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (low as i128 + draw) as $t
            }
        }
    )*};
}
impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Convenience sampling methods, blanket-implemented for every [`Rng`].
pub trait RngExt: Rng {
    /// A uniform value of `T`.
    fn random<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// A uniform value in `range` (half-open).
    fn random_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Concrete generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// A small, fast, non-cryptographic generator (xoshiro256++).
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SmallRng {
        fn splitmix(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> SmallRng {
            let mut state = seed;
            let s = [
                Self::splitmix(&mut state),
                Self::splitmix(&mut state),
                Self::splitmix(&mut state),
                Self::splitmix(&mut state),
            ];
            SmallRng { s }
        }
    }

    impl Rng for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{RngExt, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let mut c = SmallRng::seed_from_u64(8);
        let (va, vb, vc): (u64, u64, u64) = (a.random(), b.random(), c.random());
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v: f64 = r.random();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn range_respected_and_covered() {
        let mut r = SmallRng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.random_range(3u64..13);
            assert!((3..13).contains(&v));
            seen[(v - 3) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in range reachable");
    }
}
