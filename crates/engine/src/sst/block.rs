//! Data blocks and the checksummed frame every block of a table travels in.
//!
//! A frame is `body ++ masked crc32c(body)`. A data block's body is a
//! one-byte compression tag followed by the (possibly compressed) block; a
//! meta block's body is its bare payload. [`seal_frame`] and [`check_frame`]
//! are the only code that knows where the CRC sits.
//!
//! A block's bytes are copied once into the file and never out of it: the
//! builder writes entries straight into the frame it appends, and a
//! [`Block`] is the frame the file read returned (a block read's, or
//! compaction's readahead window), validated by one walk over its entries
//! that counts them and allocates nothing. Readers parse the entries in
//! place.

use crate::cache::Block;
use crate::coding::*;
use crate::compress::{self, CompressionType};
use crate::costs;
use crate::crc32c;
use crate::error::{DbError, DbResult};
use crate::stats::{DbStats, Ticker};
use std::ops::Range;
use xlsm_sim::Class;
use xlsm_simfs::FileBytes;

/// Restart-point spacing within a data block.
pub const RESTART_INTERVAL: usize = 16;

/// Room reserved past `block_size` in a block's buffer: the entry that
/// crosses the target size, the restart array and the frame's CRC.
const BLOCK_SLACK: usize = 2048;

/// Builds one data block inside its frame and is reused for the next:
/// `buf[0]` is the compression tag, the entries follow, and [`finish`]
/// appends the restart array and the CRC in place.
///
/// [`finish`]: BlockBuilder::finish
#[derive(Debug)]
pub(super) struct BlockBuilder {
    /// The frame under construction.
    buf: Vec<u8>,
    /// The compressed frame, when compression wins.
    packed: Vec<u8>,
    restarts: Vec<u32>,
    count_since_restart: usize,
    last_key: Vec<u8>,
    entries: usize,
}

impl BlockBuilder {
    pub(super) fn new(block_size: usize) -> BlockBuilder {
        let mut buf = Vec::with_capacity(block_size + BLOCK_SLACK);
        buf.push(CompressionType::None.tag());
        BlockBuilder {
            buf,
            packed: Vec::new(),
            restarts: Vec::new(),
            count_since_restart: 0,
            last_key: Vec::new(),
            entries: 0,
        }
    }

    /// Bytes of block written so far (the tag is not the block's).
    fn block_len(&self) -> usize {
        self.buf.len() - 1
    }

    pub(super) fn add(&mut self, key: &[u8], value: &[u8]) {
        let mut shared = 0usize;
        if self.count_since_restart < RESTART_INTERVAL && !self.last_key.is_empty() {
            let max = self.last_key.len().min(key.len());
            while shared < max && self.last_key[shared] == key[shared] {
                shared += 1;
            }
        } else {
            self.restarts.push(self.block_len() as u32);
            self.count_since_restart = 0;
        }
        put_varint64(&mut self.buf, shared as u64);
        put_varint64(&mut self.buf, (key.len() - shared) as u64);
        put_varint64(&mut self.buf, value.len() as u64);
        self.buf.extend_from_slice(&key[shared..]);
        self.buf.extend_from_slice(value);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.count_since_restart += 1;
        self.entries += 1;
    }

    /// Closes the block and returns its sealed frame, compressed with
    /// `codec` when that makes it smaller. [`reset`](Self::reset) before
    /// the next [`add`](Self::add).
    pub(super) fn finish(&mut self, codec: CompressionType) -> &[u8] {
        if self.restarts.is_empty() {
            self.restarts.push(0);
        }
        for r in &self.restarts {
            put_fixed32(&mut self.buf, *r);
        }
        put_fixed32(&mut self.buf, self.restarts.len() as u32);
        let frame = if compress::compress_block(codec, &self.buf[1..], &mut self.packed) {
            &mut self.packed
        } else {
            &mut self.buf
        };
        seal_frame(frame);
        frame
    }

    /// The last key added to the block.
    pub(super) fn last_key(&self) -> &[u8] {
        &self.last_key
    }

    /// Empties the builder for the next block, keeping its buffers.
    pub(super) fn reset(&mut self) {
        self.buf.truncate(1);
        self.restarts.clear();
        self.last_key.clear();
        self.count_since_restart = 0;
        self.entries = 0;
    }

    pub(super) fn size_estimate(&self) -> usize {
        self.block_len() + self.restarts.len() * 4 + 8
    }

    pub(super) fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

/// Appends the frame trailer: a masked CRC32-C over everything in `body`.
pub(super) fn seal_frame(body: &mut Vec<u8>) {
    let crc = crc32c::crc32c(body);
    put_fixed32(body, crc32c::masked(crc));
}

/// Checks a frame's trailing CRC and returns its body; the error says what
/// is wrong, for the caller to attribute to a file and offset.
pub(super) fn check_frame(framed: &[u8]) -> Result<&[u8], &'static str> {
    let Some(body_len) = framed.len().checked_sub(4) else {
        return Err("block truncated");
    };
    let (body, crc_raw) = framed.split_at(body_len);
    if crc32c::unmask(get_fixed32(crc_raw, 0)) != crc32c::crc32c(body) {
        return Err("block crc mismatch");
    }
    Ok(body)
}

/// Verifies the trailing CRC of the framed data block `bytes`,
/// decompresses it if its tag says so (charging the decompression CPU and,
/// when `stats` is given, the `BlockDecompressions`/`Block*Bytes` tickers),
/// and validates its entries. An uncompressed block keeps `bytes` — what a
/// block read returned (often the file's own memory, shared), or the
/// readahead window the frame sits in — and its entries are read there.
///
/// # Errors
///
/// [`DbError::Corruption`] on checksum or structural failures, naming no
/// file: the caller knows which one, and where in it the frame sits.
pub fn decode_framed(bytes: FileBytes, stats: Option<&DbStats>) -> DbResult<Block> {
    let body_len = check_frame(&bytes).map_err(DbError::corruption)?.len();
    if body_len == 0 {
        return Err(DbError::corruption("block truncated"));
    }
    let tag = bytes[0];
    let payload = 1..body_len;
    if tag == CompressionType::None.tag() {
        xlsm_sim::charge(Class::BlockDecode, costs::block_decode_ns(payload.len()));
        return decode(bytes, payload);
    }
    if tag == CompressionType::Rle.tag() {
        xlsm_sim::charge(
            Class::BlockDecompress,
            costs::block_decompress_ns(payload.len()),
        );
        let raw = compress::rle_decompress(&bytes[payload.clone()])?;
        if let Some(s) = stats {
            s.bump(Ticker::BlockDecompressions);
            s.add(Ticker::BlockCompressedBytes, payload.len() as u64);
            s.add(Ticker::BlockUncompressedBytes, raw.len() as u64);
        }
        xlsm_sim::charge(Class::BlockDecode, costs::block_decode_ns(raw.len()));
        let all = 0..raw.len();
        return decode(FileBytes::from(raw), all);
    }
    Err(DbError::corruption(format!(
        "unknown block compression tag {tag}"
    )))
}

/// Validates a serialized data block.
///
/// # Errors
///
/// [`DbError::Corruption`] on any structural violation.
pub fn decode_block(data: &[u8]) -> DbResult<Block> {
    decode(FileBytes::from(data.to_vec()), 0..data.len())
}

/// Validates the block that is `bytes[block]`, keeping `bytes`: one walk
/// over the entry headers checks that every entry lies inside the entries
/// and shares no more of a key than the entry before it had, and counts
/// them. The restart array is checked for size only; nothing reads it.
fn decode(bytes: FileBytes, block: Range<usize>) -> DbResult<Block> {
    let data = &bytes[block.clone()];
    if data.len() < 8 {
        return Err(DbError::Corruption("block too small".into()));
    }
    let n_restarts = get_fixed32(data, data.len() - 4) as usize;
    let restarts_off = data
        .len()
        .checked_sub(4 + n_restarts * 4)
        .ok_or_else(|| DbError::Corruption("bad restart count".into()))?;
    let (mut off, mut count, mut key_len) = (0usize, 0usize, 0usize);
    while off < restarts_off {
        let mut len = |what| {
            get_varint64(data, &mut off)
                .map(|v| v as usize)
                .ok_or_else(|| DbError::corruption(format!("bad {what} len")))
        };
        let (shared, non_shared, vlen) = (len("shared")?, len("non-shared")?, len("value")?);
        // The lengths come off the disk: a sum that overflows is out of
        // bounds like any other.
        let end = off
            .checked_add(non_shared)
            .and_then(|value_off| value_off.checked_add(vlen))
            .filter(|end| *end <= restarts_off);
        let (Some(end), true) = (end, shared <= key_len) else {
            return Err(DbError::Corruption("block entry out of bounds".into()));
        };
        key_len = shared + non_shared;
        count += 1;
        off = end;
    }
    let raw_size = data.len();
    let at = block.start..block.start + restarts_off;
    Ok(Block::new(bytes, at, count, raw_size))
}

#[cfg(test)]
mod tests {
    use super::super::reader::search_block;
    use super::super::TableEntry;
    use super::*;
    use crate::types::{self, compare_internal, lookup_key, make_internal_key, KeyBuf, ValueType};
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use std::collections::BTreeSet;

    /// Builds a block of `entries` and returns its bytes without the tag
    /// and the frame's CRC.
    fn build(entries: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
        let mut b = BlockBuilder::new(4096);
        for (k, v) in entries {
            b.add(k, v);
        }
        let frame = b.finish(CompressionType::None);
        frame[1..frame.len() - 4].to_vec()
    }

    /// The entry-list decoder every build used before blocks were flat: one
    /// `(key, value)` pair of vectors per entry. The reference the flat
    /// [`Block`] must agree with.
    fn decode_entries(data: &[u8]) -> DbResult<Vec<(Vec<u8>, Vec<u8>)>> {
        if data.len() < 8 {
            return Err(DbError::Corruption("block too small".into()));
        }
        let n_restarts = get_fixed32(data, data.len() - 4) as usize;
        let restarts_off = data
            .len()
            .checked_sub(4 + n_restarts * 4)
            .ok_or_else(|| DbError::Corruption("bad restart count".into()))?;
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut off = 0usize;
        while off < restarts_off {
            let mut len = |what| {
                get_varint64(data, &mut off)
                    .map(|v| v as usize)
                    .ok_or_else(|| DbError::corruption(format!("bad {what} len")))
            };
            let (shared, non_shared, vlen) = (len("shared")?, len("non-shared")?, len("value")?);
            let bounds = off
                .checked_add(non_shared)
                .and_then(|value_off| Some((value_off, value_off.checked_add(vlen)?)))
                .filter(|(_, end)| *end <= restarts_off);
            let prev = entries.last().map_or(&[][..], |(k, _)| k);
            let (Some((value_off, end)), Some(prefix)) = (bounds, prev.get(..shared)) else {
                return Err(DbError::Corruption("block entry out of bounds".into()));
            };
            let mut key = Vec::with_capacity(shared + non_shared);
            key.extend_from_slice(prefix);
            key.extend_from_slice(&data[off..value_off]);
            entries.push((key, data[value_off..end].to_vec()));
            off = end;
        }
        Ok(entries)
    }

    /// A block's entries, parsed in place one after the other.
    fn pairs(block: &Block) -> Vec<(Vec<u8>, Vec<u8>)> {
        let (mut key, mut at, mut out) = (KeyBuf::default(), 0, Vec::new());
        while let Some(entry) = block.entry(at, &mut key) {
            out.push((key.to_vec(), block.value(&entry).to_vec()));
            at = entry.next;
        }
        assert_eq!(out.len(), block.len(), "the walk counted every entry");
        out
    }

    #[test]
    fn block_roundtrip_with_restarts() {
        // Pure block-level test: shared-prefix encoding round-trips.
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..50)
            .map(|i| {
                let k = format!("prefix/common/{i:04}");
                (
                    make_internal_key(k.as_bytes(), 1, ValueType::Value),
                    b"val".to_vec(),
                )
            })
            .collect();
        let block = decode_block(&build(&entries)).unwrap();
        assert_eq!(block.len(), 50);
        assert_eq!(pairs(&block), entries);
    }

    #[test]
    fn a_reset_builder_builds_the_same_block_again() {
        let mut b = BlockBuilder::new(64);
        let mut frames = Vec::new();
        for codec in [CompressionType::None, CompressionType::Rle] {
            for _ in 0..2 {
                for i in 0..40u32 {
                    let k = make_internal_key(format!("k{i:03}").as_bytes(), 1, ValueType::Value);
                    b.add(&k, &[b'v'; 100]);
                }
                frames.push(b.finish(codec).to_vec());
                assert_eq!(types::user_key(b.last_key()), b"k039");
                b.reset();
            }
        }
        assert_eq!(frames[0], frames[1]);
        assert_eq!(frames[2], frames[3]);
        assert_eq!(frames[0][0], CompressionType::None.tag());
        assert_eq!(frames[2][0], CompressionType::Rle.tag());
        for frame in frames {
            let block = xlsm_sim::Runtime::new()
                .run(|| decode_framed(FileBytes::from(frame), None))
                .unwrap();
            assert_eq!(block.len(), 40);
            assert_eq!(pairs(&block)[39].1, [b'v'; 100]);
        }
    }

    /// A block's entries from arbitrary sorted user keys and values.
    fn entries_of(keys: BTreeSet<Vec<u8>>, values: &[Vec<u8>]) -> Vec<(Vec<u8>, Vec<u8>)> {
        keys.into_iter()
            .enumerate()
            .map(|(i, k)| {
                let ik = make_internal_key(&k, i as u64 + 1, ValueType::Value);
                (ik, values[i % values.len()].clone())
            })
            .collect()
    }

    /// What the entry list answered for a point lookup: the first entry at
    /// or after `lookup`, if it is a version of `user_key`.
    fn search_entries(
        entries: &[(Vec<u8>, Vec<u8>)],
        lookup: &[u8],
        user_key: &[u8],
    ) -> Option<TableEntry> {
        let pos = entries.partition_point(|(k, _)| compare_internal(k, lookup) == Ordering::Less);
        let (k, v) = entries.get(pos)?;
        let (uk, seq, t) = types::parse_internal_key(k);
        (uk == user_key).then(|| (seq, t, v.clone()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The flat block answers like the entry list: the same `Ok`/`Err`
        /// on the built bytes and on a truncation and a corruption of them,
        /// the same entries in a walk, the same `search_block` answer at
        /// every entry's own key, at the newest and the oldest snapshot of
        /// its user key and just past that user key, and the same entries
        /// again through a framed (and maybe compressed) block that sits
        /// inside a larger buffer.
        #[test]
        fn flat_block_matches_the_entry_list(
            keys in prop::collection::btree_set(prop::collection::vec(any::<u8>(), 0..24), 1..60),
            values in prop::collection::vec(prop::collection::vec(0u8..4, 0..300), 1..8),
            cut in any::<u64>(),
            flip_at in any::<u64>(),
            flip in 1u16..256,
        ) {
            let entries = entries_of(keys, &values);
            let data = build(&entries);
            let mut flipped = data.clone();
            let at = (flip_at % data.len() as u64) as usize;
            flipped[at] ^= flip as u8;
            let cut = (cut % data.len() as u64) as usize;
            for bytes in [&data[..], &data[..cut], &flipped[..]] {
                let want = decode_entries(bytes);
                let got = decode_block(bytes);
                prop_assert_eq!(got.is_ok(), want.is_ok(), "{:?} / {:?}", got.as_ref().err(), want.as_ref().err());
                let (Ok(got), Ok(want)) = (got, want) else { continue };
                prop_assert_eq!(got.raw_size, bytes.len());
                prop_assert_eq!(pairs(&got), want.clone());
                xlsm_sim::Runtime::new().run(|| {
                    for (k, _) in &want {
                        let uk = types::user_key(k);
                        let past = [uk, b"\0"].concat();
                        for (lookup, user_key) in [
                            (k.clone(), uk),
                            (lookup_key(uk, u64::MAX >> 8).to_vec(), uk),
                            (lookup_key(uk, 0).to_vec(), uk),
                            (lookup_key(&past, u64::MAX >> 8).to_vec(), &past[..]),
                        ] {
                            assert_eq!(
                                search_block(&got, &lookup, user_key),
                                search_entries(&want, &lookup, user_key)
                            );
                        }
                    }
                });
            }
            for codec in [CompressionType::None, CompressionType::Rle] {
                let mut b = BlockBuilder::new(4096);
                for (k, v) in &entries {
                    b.add(k, v);
                }
                // Shared out of a file, between other bytes, as a block
                // read or a readahead window returns it.
                let frame = b.finish(codec);
                let window = [&[7; 5][..], frame, &[9; 3]].concat();
                let at = 5..5 + frame.len() as u64;
                let block = xlsm_sim::Runtime::new().run(|| {
                    let file = super::super::test_fs().create("w.sst").unwrap();
                    file.append(&window).unwrap();
                    let span = file.read_shared(0, window.len()).unwrap();
                    decode_framed(span.get(at), None)
                }).unwrap();
                prop_assert_eq!(pairs(&block), entries.clone());
            }
        }
    }
}
