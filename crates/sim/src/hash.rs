//! One deterministic hasher for the integer-keyed maps on the hot path.
//!
//! `std`'s default `RandomState` is SipHash-1-3 under a per-process random
//! key: a defence against hash flooding that no simulated workload needs,
//! paid on every page-cache, block-cache and table-cache probe. [`FxHasher`]
//! is the Fx shape instead (one multiply per word, no key, no state beyond
//! one `u64`), with the multiply *folded*: each word is mixed in by taking
//! the high and the low half of a 64 × 64 → 128-bit product and xoring
//! them. Plain Fx keeps the low bits of its product a function of the low
//! bits of its input alone, so keys that share their low bits — block
//! offsets, page indices of one file — would share a bucket; the fold
//! spreads every input bit over the whole hash.
//!
//! The hash of a key is the same in every process. Nothing may depend on a
//! map's iteration order all the same: it still changes with the insertion
//! history and with every resize (DESIGN.md §4).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` under [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` under [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Builds [`FxHasher`]s; every one starts from the same state.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The multiplier: 2^64 / φ, odd, with its bits spread evenly.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// The deterministic hasher of this module (see the module documentation).
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        let product = u128::from(self.hash ^ word) * u128::from(K);
        self.hash = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // The length keeps "ab" and "ab\0" apart.
            self.add(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash<T: std::hash::Hash>(value: T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_the_hash_is_fixed() {
        assert_eq!(hash((7u64, 4096u64)), hash((7u64, 4096u64)));
        assert_ne!(hash((7u64, 4096u64)), hash((4096u64, 7u64)));
        assert_ne!(hash(&b"ab"[..]), hash(&b"ab\0"[..]));
        // No per-process key: the literal holds in every process.
        assert_eq!(hash(1u64), 0x9E37_79B9_7F4A_7C15);
    }

    /// The fold's point: keys that differ only above their low twelve bits
    /// (one file's page-aligned offsets) still spread over the low bits a
    /// table indexes its buckets by.
    #[test]
    fn aligned_keys_spread_over_the_low_bits() {
        let buckets: HashSet<u64> = (0..1024u64).map(|i| hash((3u64, i << 12)) & 1023).collect();
        assert!(
            buckets.len() > 600,
            "{} of 1024 buckets used",
            buckets.len()
        );
    }

    #[test]
    fn maps_and_sets_work_as_usual() {
        let mut map: FxHashMap<u64, &str> = FxHashMap::default();
        map.insert(1, "a");
        map.insert(2, "b");
        assert_eq!(map.get(&2), Some(&"b"));
        let set: FxHashSet<(u64, u64)> = [(1, 2), (1, 2), (2, 1)].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
