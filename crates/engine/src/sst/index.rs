//! The index block: one entry per data block — the block's last internal
//! key and the offset and size of its frame — encoded by an
//! [`IndexBuilder`] as the table's blocks are written and held by an open
//! reader as one [`FlatIndex`].

use crate::coding::*;
use crate::error::{DbError, DbResult};
use crate::types::{self, compare_internal};
use std::cmp::Ordering;

/// The index block under construction: each entry encoded into one buffer
/// as its data block is written, so a block's key is copied, not kept.
#[derive(Debug, Default)]
pub(super) struct IndexBuilder {
    entries: Vec<u8>,
    count: u64,
}

impl IndexBuilder {
    /// Adds the entry of a data block: its last internal key, and the
    /// offset and size of its frame.
    pub(super) fn add(&mut self, last_key: &[u8], off: u64, size: u64) {
        put_length_prefixed(&mut self.entries, last_key);
        put_varint64(&mut self.entries, off);
        put_varint64(&mut self.entries, size);
        self.count += 1;
    }

    /// The encoded index block: the entry count, then the entries.
    pub(super) fn finish(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(10 + self.entries.len());
        put_varint64(&mut out, self.count);
        out.extend_from_slice(&self.entries);
        out
    }
}

/// An open table's index in flat memory: every entry's key back to back
/// in one buffer, where each key ends, and each data block's frame. A probe's binary
/// search compares keys inside one buffer instead of following one heap
/// pointer per entry it visits.
#[derive(Debug)]
pub(super) struct FlatIndex {
    keys: Vec<u8>,
    /// Entry `i`'s key is `keys[key_ends[i - 1]..key_ends[i]]` (from 0 for
    /// the first).
    key_ends: Vec<u32>,
    /// Entry `i`'s data block frame, `(offset, size)`.
    frames: Vec<(u64, u64)>,
}

impl FlatIndex {
    /// Decodes an index block of a file `file_len` bytes long; every frame
    /// it holds lies inside the file, and every key is long enough to be an
    /// internal key.
    pub(super) fn decode(raw: &[u8], file_len: u64) -> DbResult<FlatIndex> {
        let bad = |what: &str| DbError::corruption(format!("bad index {what}"));
        let mut off = 0usize;
        let n = get_varint64(raw, &mut off).ok_or_else(|| bad("count"))?;
        // An entry takes at least three bytes, so a count from a hostile file
        // cannot make this reserve more than the block is long.
        let n_max = (n as usize).min(raw.len());
        let mut index = FlatIndex {
            keys: Vec::with_capacity(raw.len()),
            key_ends: Vec::with_capacity(n_max),
            frames: Vec::with_capacity(n_max),
        };
        for _ in 0..n {
            let key = get_length_prefixed(raw, &mut off).ok_or_else(|| bad("key"))?;
            let boff = get_varint64(raw, &mut off).ok_or_else(|| bad("offset"))?;
            let bsize = get_varint64(raw, &mut off).ok_or_else(|| bad("size"))?;
            if key.len() < 8 {
                return Err(bad("key: shorter than an internal key"));
            }
            if boff.checked_add(bsize).is_none_or(|end| end > file_len) {
                return Err(bad("entry: block past the end of the file"));
            }
            index.keys.extend_from_slice(key);
            let end = u32::try_from(index.keys.len()).map_err(|_| bad("size"))?;
            index.key_ends.push(end);
            index.frames.push((boff, bsize));
        }
        Ok(index)
    }

    /// Number of data blocks.
    pub(super) fn len(&self) -> usize {
        self.frames.len()
    }

    /// The last internal key of block `i`.
    fn key(&self, i: usize) -> &[u8] {
        let start = i.checked_sub(1).map_or(0, |p| self.key_ends[p]);
        &self.keys[start as usize..self.key_ends[i] as usize]
    }

    /// Block `i`'s frame, `(offset, size)`.
    pub(super) fn frame(&self, i: usize) -> (u64, u64) {
        self.frames[i]
    }

    /// Every block's frame, in file order.
    pub(super) fn frames(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.frames.iter().copied()
    }

    /// Index of the first block whose last key is not less than `ikey`
    /// (`len()` when there is none): the only block that can hold `ikey`.
    pub(super) fn partition_point(&self, ikey: &[u8]) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if compare_internal(self.key(mid), ikey) == Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The user key of every block's last entry, in ascending order.
    pub(super) fn block_boundary_user_keys(&self) -> impl Iterator<Item = &[u8]> + '_ {
        (0..self.len()).map(|i| types::user_key(self.key(i)))
    }
}

/// One index entry as the tests spell it: a data block's last internal
/// key, and the offset and size of its frame.
#[cfg(test)]
pub(super) type IndexEntry = (Vec<u8>, u64, u64);

/// The index block of `index`.
#[cfg(test)]
pub(super) fn encode_index(index: &[IndexEntry]) -> Vec<u8> {
    let mut b = IndexBuilder::default();
    for (key, off, size) in index {
        b.add(key, *off, *size);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{lookup_key, make_internal_key, ValueType};
    use proptest::prelude::*;

    /// The form the reader held before the flat index: one heap key per
    /// entry, searched by `slice::partition_point`.
    fn reference_point(index: &[IndexEntry], ikey: &[u8]) -> usize {
        index.partition_point(|(last, _, _)| compare_internal(last, ikey) == Ordering::Less)
    }

    /// Sorted, distinct internal keys over a small alphabet behind one
    /// shared prefix, so one user key often comes in several versions
    /// (newest first) and neighbours differ only late in the key.
    fn sorted_keys(prefix: &[u8], raw: Vec<(Vec<u8>, u64, bool)>) -> Vec<Vec<u8>> {
        let mut keys: Vec<Vec<u8>> = raw
            .into_iter()
            .map(|(suffix, seq, del)| {
                let t = if del {
                    ValueType::Deletion
                } else {
                    ValueType::Value
                };
                make_internal_key(&[prefix, &suffix].concat(), seq, t)
            })
            .collect();
        keys.sort_by(|a, b| compare_internal(a, b));
        keys.dedup();
        keys
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Block boundaries drawn from random sorted internal keys, encoded
        /// as the builder writes them and decoded flat: every lookup — each
        /// boundary key itself, every version of every user key, keys that
        /// stop inside the shared prefix or leave it, keys before the first
        /// and past the last entry — lands in the block the per-entry form
        /// picks, and the boundaries and frames agree. The empty index is
        /// among the cases.
        #[test]
        fn flat_index_matches_the_per_entry_form(
            prefix in prop::collection::vec(b'a'..b'd', 0..12),
            raw in prop::collection::vec(
                (prop::collection::vec(b'a'..b'e', 0..11), 0u64..6, any::<bool>()),
                0..60,
            ),
            every in 1usize..4,
            probes in prop::collection::vec(
                (any::<usize>(), prop::collection::vec(b'a'..b'f', 0..11), 0u64..8),
                0..40,
            ),
        ) {
            let keys = sorted_keys(&prefix, raw);
            let entries: Vec<IndexEntry> = keys
                .iter()
                .skip(every - 1)
                .step_by(every)
                .enumerate()
                .map(|(i, k)| (k.clone(), 100 * i as u64, 40 + i as u64))
                .collect();
            let flat = FlatIndex::decode(&encode_index(&entries), 1 << 20).unwrap();
            prop_assert_eq!(flat.len(), entries.len());
            prop_assert_eq!(
                flat.frames().collect::<Vec<_>>(),
                entries.iter().map(|&(_, off, size)| (off, size)).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                flat.block_boundary_user_keys().collect::<Vec<_>>(),
                entries.iter().map(|(k, _, _)| types::user_key(k)).collect::<Vec<_>>()
            );
            let before_first = lookup_key(b"", types::MAX_SEQUENCE).to_vec();
            let past_last = make_internal_key(b"zzz", 0, ValueType::Deletion);
            let lookups = keys
                .iter()
                .cloned()
                .chain(probes.iter().map(|(cut, suffix, seq)| {
                    let kept = &prefix[..cut % (prefix.len() + 1)];
                    lookup_key(&[kept, suffix].concat(), *seq).to_vec()
                }))
                .chain([before_first, past_last]);
            for ikey in lookups {
                prop_assert_eq!(flat.partition_point(&ikey), reference_point(&entries, &ikey));
            }
        }
    }

    /// A key too short to carry a sequence number is refused when the
    /// index is decoded, not when a probe first compares against it.
    #[test]
    fn a_short_index_key_is_corruption() {
        let index = encode_index(&[(b"short".to_vec(), 0, 8)]);
        assert!(FlatIndex::decode(&index, 1 << 20)
            .unwrap_err()
            .is_corruption());
    }
}
