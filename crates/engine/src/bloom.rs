//! Bloom filters (LevelDB-compatible double hashing).
//!
//! Note: per `db_bench` defaults (`--bloom_bits=-1`), the paper's experiments
//! run **without** bloom filters — which is precisely why the Level-0 file
//! count hurts read latency so much (Finding #2). The filters here exist for
//! the ablation benches (`readpath`) and downstream users:
//!
//! - [`BloomFilter`] / [`BloomBuilder`]: the serialized SST filter-block
//!   format. The builder is incremental — it retains one 32-bit hash per
//!   key instead of the key bytes, so a flush or compaction no longer holds
//!   every user key in memory until `finish()`.
//! - [`ConcurrentBloom`]: an atomic-bit-array whole-key filter for the
//!   memtable, safe to populate from the concurrent insert path.
//!
//! Sizing always counts **distinct** hashes: the same user key re-added
//! across blocks or overwrites must not inflate the bit array (it would
//! skew the false-positive-rate math that picks `k`).

use std::sync::atomic::{AtomicU64, Ordering};

/// Queries a serialized filter block ([`BloomBuilder`] writes them).
#[derive(Clone, Copy, Debug)]
pub struct BloomFilter;

fn bloom_hash(key: &[u8]) -> u32 {
    // LevelDB's Hash() with fixed seed.
    const SEED: u32 = 0xbc9f_1d34;
    const M: u32 = 0xc6a4_a793;
    let mut h = SEED ^ (key.len() as u32).wrapping_mul(M);
    let mut chunks = key.chunks_exact(4);
    for c in &mut chunks {
        let w = u32::from_le_bytes(c.try_into().unwrap());
        h = h.wrapping_add(w).wrapping_mul(M);
        h ^= h >> 16;
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut w = 0u32;
        for (i, &b) in rest.iter().enumerate() {
            w |= (b as u32) << (8 * i);
        }
        h = h.wrapping_add(w).wrapping_mul(M);
        h ^= h >> 24;
    }
    h
}

fn probes_for(bits_per_key: usize) -> usize {
    // k = bits_per_key * ln2, clamped like LevelDB.
    (((bits_per_key as f64) * 0.69) as usize).clamp(1, 30)
}

/// Serializes a filter sized by the number of **distinct** hashes.
/// `hashes` is deduplicated in place; bit-setting is order-independent, so
/// the bytes depend only on the key set.
fn build_from_hashes(bits_per_key: usize, k: usize, hashes: &mut Vec<u32>) -> Vec<u8> {
    hashes.sort_unstable();
    hashes.dedup();
    let bits = (hashes.len() * bits_per_key).max(64);
    let bytes = bits.div_ceil(8);
    let bits = bytes * 8;
    let mut array = vec![0u8; bytes + 1];
    array[bytes] = k as u8;
    for &hash in hashes.iter() {
        let mut h = hash;
        let delta = h.rotate_right(17);
        for _ in 0..k {
            let bitpos = (h as usize) % bits;
            array[bitpos / 8] |= 1 << (bitpos % 8);
            h = h.wrapping_add(delta);
        }
    }
    array
}

impl BloomFilter {
    /// Tests membership against a serialized filter block.
    pub fn may_contain(filter: &[u8], key: &[u8]) -> bool {
        if filter.len() < 2 {
            return true; // degenerate filter matches everything
        }
        let bytes = filter.len() - 1;
        let bits = bytes * 8;
        let k = filter[bytes] as usize;
        if k > 30 {
            return true; // reserved for future encodings
        }
        let mut h = bloom_hash(key);
        let delta = h.rotate_right(17);
        for _ in 0..k {
            let bitpos = (h as usize) % bits;
            if filter[bitpos / 8] & (1 << (bitpos % 8)) == 0 {
                return false;
            }
            h = h.wrapping_add(delta);
        }
        true
    }
}

/// Incremental filter construction: feed keys as they stream past (SST
/// builds see them in sorted order) and serialize at the end. Holds a
/// 4-byte hash per key — not the key bytes — so builder memory is O(keys)
/// small constants rather than a second copy of the input.
#[derive(Debug, Default)]
pub struct BloomBuilder {
    bits_per_key: usize,
    k: usize,
    hashes: Vec<u32>,
    last: Option<Vec<u8>>,
}

impl BloomBuilder {
    /// Creates an incremental builder with `bits_per_key` (10 is the
    /// common choice, ~1 % false positives).
    pub fn new(bits_per_key: usize) -> BloomBuilder {
        BloomBuilder {
            bits_per_key,
            k: probes_for(bits_per_key),
            hashes: Vec::new(),
            last: None,
        }
    }

    /// Adds one key. Consecutive duplicates are skipped eagerly (sorted
    /// input makes duplicates adjacent); any stragglers are collapsed at
    /// [`BloomBuilder::finish`].
    pub fn add_key(&mut self, key: &[u8]) {
        if self.last.as_deref() == Some(key) {
            return;
        }
        self.hashes.push(bloom_hash(key));
        match &mut self.last {
            Some(buf) => {
                buf.clear();
                buf.extend_from_slice(key);
            }
            None => self.last = Some(key.to_vec()),
        }
    }

    /// Bytes of heap the builder currently retains for filter state.
    pub fn memory_bytes(&self) -> usize {
        self.hashes.capacity() * std::mem::size_of::<u32>()
            + self.last.as_ref().map_or(0, |k| k.capacity())
    }

    /// Serializes the filter block (duplicates are collapsed before sizing
    /// the bit array).
    pub fn finish(mut self) -> Vec<u8> {
        build_from_hashes(self.bits_per_key, self.k, &mut self.hashes)
    }
}

/// A fixed-size whole-key bloom over an atomic bit array, for the memtable.
///
/// Bits are ORed in with a load and a store: only the run-token holder
/// inserts, so no other insert lands between them and no bit is lost. Once
/// [`ConcurrentBloom::insert`] returns, every probe of that key, from any
/// sim thread, observes all `k` bits set (no false negatives); the words
/// are atomics so that readers see whole values. The array is sized once
/// at construction from the expected entry count — memtables have a byte
/// budget, so the bound is known up front; overshooting the estimate only
/// raises the false-positive rate, never correctness.
#[derive(Debug)]
pub struct ConcurrentBloom {
    words: Box<[AtomicU64]>,
    nbits: usize,
    k: usize,
}

impl ConcurrentBloom {
    /// A filter sized for `expected_keys` at `bits_per_key`.
    pub fn new(bits_per_key: usize, expected_keys: usize) -> ConcurrentBloom {
        let nbits = (expected_keys * bits_per_key).max(64).next_multiple_of(64);
        let words = (0..nbits / 64).map(|_| AtomicU64::new(0)).collect();
        ConcurrentBloom {
            words,
            nbits,
            k: probes_for(bits_per_key),
        }
    }

    /// Marks `key` present. Call from a sim thread: it relies on the run
    /// token for exclusion.
    pub fn insert(&self, key: &[u8]) {
        let mut h = bloom_hash(key);
        let delta = h.rotate_right(17);
        for _ in 0..self.k {
            let bitpos = (h as usize) % self.nbits;
            let word = &self.words[bitpos / 64];
            word.store(
                word.load(Ordering::Relaxed) | 1 << (bitpos % 64),
                Ordering::Relaxed,
            );
            h = h.wrapping_add(delta);
        }
    }

    /// Tests membership (no false negatives for inserted keys).
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let mut h = bloom_hash(key);
        let delta = h.rotate_right(17);
        for _ in 0..self.k {
            let bitpos = (h as usize) % self.nbits;
            if self.words[bitpos / 64].load(Ordering::Relaxed) & (1 << (bitpos % 64)) == 0 {
                return false;
            }
            h = h.wrapping_add(delta);
        }
        true
    }

    /// Bytes of the bit array (for memtable memory accounting).
    pub fn memory_bytes(&self) -> usize {
        self.nbits / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-shot construction the incremental builder is checked
    /// against: hash every key, then size and fill.
    fn build(keys: &[&[u8]]) -> Vec<u8> {
        let mut hashes = keys.iter().map(|k| bloom_hash(k)).collect();
        build_from_hashes(10, probes_for(10), &mut hashes)
    }

    #[test]
    fn empty_filter_rejects_everything() {
        // A filter over zero keys correctly reports nothing as present.
        let f = build(&[]);
        assert!(!BloomFilter::may_contain(&f, b"anything"));
        // But a degenerate (too-short) filter blob is permissive.
        assert!(BloomFilter::may_contain(&[], b"anything"));
    }

    #[test]
    fn no_false_negatives() {
        let keys: Vec<Vec<u8>> = (0..500u32)
            .map(|i| format!("key{i:05}").into_bytes())
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let f = build(&refs);
        for k in &keys {
            assert!(BloomFilter::may_contain(&f, k), "false negative for {k:?}");
        }
    }

    #[test]
    fn false_positive_rate_reasonable() {
        let keys: Vec<Vec<u8>> = (0..2000u32)
            .map(|i| format!("in{i:06}").into_bytes())
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let f = build(&refs);
        let mut fp = 0;
        let probes = 10_000;
        for i in 0..probes {
            if BloomFilter::may_contain(&f, format!("out{i:06}").as_bytes()) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        assert!(rate < 0.03, "false positive rate too high: {rate}");
    }

    #[test]
    fn duplicate_keys_do_not_inflate_filter() {
        // Regression: sizing by raw key count let duplicates balloon the
        // bit array. 200 distinct keys, each added 20 times, must produce
        // exactly the filter of the 200 distinct keys.
        let distinct: Vec<Vec<u8>> = (0..200u32)
            .map(|i| format!("k{i:04}").into_bytes())
            .collect();
        let mut dup_refs: Vec<&[u8]> = Vec::new();
        for k in &distinct {
            for _ in 0..20 {
                dup_refs.push(k.as_slice());
            }
        }
        let refs: Vec<&[u8]> = distinct.iter().map(|k| k.as_slice()).collect();
        let from_dups = build(&dup_refs);
        let from_distinct = build(&refs);
        assert_eq!(
            from_dups, from_distinct,
            "duplicate-heavy input must size and fill like the distinct set"
        );
        // Sanity: sized by ~200 keys (251 bytes incl. k byte), not ~4000.
        assert!(
            from_dups.len() < 400,
            "filter inflated: {}",
            from_dups.len()
        );
    }

    #[test]
    fn incremental_builder_matches_one_shot() {
        let keys: Vec<Vec<u8>> = (0..300u32)
            .map(|i| format!("key{:04}", i / 3).into_bytes()) // heavy adjacent dups
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let one_shot = build(&refs);
        let mut b = BloomBuilder::new(10);
        for k in &keys {
            b.add_key(k);
        }
        assert_eq!(b.hashes.len(), 100, "adjacent duplicates skipped");
        assert_eq!(b.finish(), one_shot);
    }

    #[test]
    fn builder_memory_is_hash_sized() {
        let mut b = BloomBuilder::new(10);
        let mut total_key_bytes = 0usize;
        for i in 0..10_000u32 {
            let k = format!("user-key-with-some-length-{i:08}").into_bytes();
            total_key_bytes += k.len();
            b.add_key(&k);
        }
        // 4 bytes per key (plus the single last-key scratch buffer), far
        // below retaining the keys themselves.
        assert!(
            b.memory_bytes() < total_key_bytes / 4,
            "builder retains too much: {} vs {} key bytes",
            b.memory_bytes(),
            total_key_bytes
        );
    }

    #[test]
    fn concurrent_bloom_no_false_negatives_and_filters_misses() {
        let f = ConcurrentBloom::new(10, 2000);
        for i in 0..2000u32 {
            f.insert(format!("in{i:06}").as_bytes());
        }
        for i in 0..2000u32 {
            assert!(f.may_contain(format!("in{i:06}").as_bytes()));
        }
        let mut fp = 0;
        for i in 0..10_000u32 {
            if f.may_contain(format!("out{i:06}").as_bytes()) {
                fp += 1;
            }
        }
        assert!(fp < 300, "false positive rate too high: {fp}/10000");
    }

    proptest! {
        #[test]
        fn membership_holds_for_arbitrary_keys(
            keys in prop::collection::hash_set(prop::collection::vec(any::<u8>(), 0..40), 1..200)
        ) {
            let keys: Vec<Vec<u8>> = keys.into_iter().collect();
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let f = build(&refs);
            for k in &keys {
                prop_assert!(BloomFilter::may_contain(&f, k));
            }
        }

        #[test]
        fn builder_equals_one_shot_for_arbitrary_sorted_keys(
            keys in prop::collection::btree_set(prop::collection::vec(any::<u8>(), 0..24), 0..120),
            repeat in 1usize..4,
        ) {
            // Feed each key `repeat` times in sorted order (as SST builds do).
            let keys: Vec<Vec<u8>> = keys.into_iter().collect();
            let mut b = BloomBuilder::new(10);
            let mut refs: Vec<&[u8]> = Vec::new();
            for k in &keys {
                for _ in 0..repeat {
                    b.add_key(k);
                    refs.push(k.as_slice());
                }
            }
            prop_assert_eq!(b.finish(), build(&refs));
        }
    }
}
