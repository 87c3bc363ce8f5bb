//! Deterministic key and value generation (`db_bench` conventions).

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// A fixed key space of `count` keys, formatted like `db_bench`'s 16-byte
/// zero-padded decimal keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeySpace {
    count: u64,
}

impl KeySpace {
    /// A key space of `count` keys.
    pub fn new(count: u64) -> KeySpace {
        assert!(count > 0, "key space must be non-empty");
        KeySpace { count }
    }

    /// Number of keys.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The canonical 16-byte encoding of key `index`: its decimal digits,
    /// zero-padded to 16 (`format!("{index:016}")`), written into one
    /// vector of exactly that size.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the key space.
    pub fn key(&self, index: u64) -> Vec<u8> {
        assert!(index < self.count, "key index out of range");
        let digits = index.checked_ilog10().map_or(1, |d| d as usize + 1);
        let mut key = vec![b'0'; digits.max(16)];
        let mut rest = index;
        for b in key.iter_mut().rev() {
            *b += (rest % 10) as u8;
            rest /= 10;
        }
        key
    }

    /// A uniformly random key index.
    pub fn uniform(&self, rng: &mut SmallRng) -> u64 {
        rng.random_range(0..self.count)
    }
}

/// Zipfian index distribution (YCSB-style, most-popular-first), for the
/// skewed-workload extension experiments.
#[derive(Clone, Debug)]
pub struct Zipfian {
    count: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipfian {
    /// Builds a zipfian over `count` items with skew `theta` (YCSB default
    /// 0.99).
    pub fn new(count: u64, theta: f64) -> Zipfian {
        assert!(count > 0 && theta > 0.0 && theta < 1.0);
        let zetan: f64 = (1..=count).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2: f64 = (1..=2u64.min(count))
            .map(|i| 1.0 / (i as f64).powf(theta))
            .sum();
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / count as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            count,
            theta,
            zetan,
            alpha,
            eta,
        }
    }

    /// Samples an index in `[0, count)`.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.random();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let idx = (self.count as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        idx.min(self.count - 1)
    }
}

/// Generates pseudo-random values of a fixed size, seeded per key so a
/// value is reproducible and verifiable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValueGenerator {
    size: usize,
}

impl ValueGenerator {
    /// Values of `size` bytes.
    pub fn new(size: usize) -> ValueGenerator {
        ValueGenerator { size }
    }

    /// Value size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The canonical value for `key_index`.
    pub fn value(&self, key_index: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size);
        let mut state = key_index.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        while out.len() < self.size {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            out.extend_from_slice(&state.to_le_bytes());
        }
        out.truncate(self.size);
        out
    }
}

/// A deterministic per-thread RNG.
pub fn thread_rng(seed: u64, thread: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ thread)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_fixed_width_and_sorted() {
        let ks = KeySpace::new(1000);
        let a = ks.key(5);
        let b = ks.key(999);
        assert_eq!(a.len(), 16);
        assert_eq!(b.len(), 16);
        assert!(a < b);
    }

    #[test]
    fn keys_match_zero_padded_format() {
        let count = u64::MAX;
        let ks = KeySpace::new(count);
        for i in [
            0,
            9,
            10,
            10u64.pow(15) - 1,
            10u64.pow(15),
            10u64.pow(16),
            count - 1,
        ] {
            let key = ks.key(i);
            assert_eq!(key, format!("{i:016}").into_bytes(), "{i}");
            assert_eq!(key.capacity(), key.len(), "{i}: one exact-size vector");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn key_out_of_range_panics() {
        KeySpace::new(10).key(10);
    }

    #[test]
    fn uniform_covers_space() {
        let ks = KeySpace::new(16);
        let mut rng = thread_rng(42, 0);
        let mut seen = [false; 16];
        for _ in 0..1000 {
            seen[ks.uniform(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn values_are_deterministic_and_sized() {
        let vg = ValueGenerator::new(1024);
        let v1 = vg.value(7);
        let v2 = vg.value(7);
        let v3 = vg.value(8);
        assert_eq!(v1.len(), 1024);
        assert_eq!(v1, v2);
        assert_ne!(v1, v3);
    }

    #[test]
    fn zipfian_is_skewed() {
        let z = Zipfian::new(10_000, 0.99);
        let mut rng = thread_rng(1, 2);
        let mut head = 0;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        // With theta=0.99 the hottest 1% of keys draw a large share.
        assert!(
            head as f64 / n as f64 > 0.3,
            "zipfian head share too small: {head}/{n}"
        );
    }

    #[test]
    fn thread_rngs_differ() {
        let mut a = thread_rng(9, 0);
        let mut b = thread_rng(9, 1);
        let va: u64 = a.random();
        let vb: u64 = b.random();
        assert_ne!(va, vb);
    }
}
