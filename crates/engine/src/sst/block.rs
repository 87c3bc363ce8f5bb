//! Data blocks and the checksummed frame every block of a table travels in.
//!
//! A frame is `body ++ masked crc32c(body)`. A data block's body is a
//! one-byte compression tag followed by the (possibly compressed) block; a
//! meta block's body is its bare payload. [`seal_frame`] and [`check_frame`]
//! are the only code that knows where the CRC sits.

use crate::cache::Block;
use crate::coding::*;
use crate::compress::{self, CompressionType};
use crate::costs;
use crate::crc32c;
use crate::error::{DbError, DbResult};
use crate::stats::{DbStats, Ticker};

/// Restart-point spacing within a data block.
pub const RESTART_INTERVAL: usize = 16;

#[derive(Debug, Default)]
pub(super) struct BlockBuilder {
    buf: Vec<u8>,
    restarts: Vec<u32>,
    count_since_restart: usize,
    last_key: Vec<u8>,
    entries: usize,
}

impl BlockBuilder {
    pub(super) fn add(&mut self, key: &[u8], value: &[u8]) {
        let mut shared = 0usize;
        if self.count_since_restart < RESTART_INTERVAL && !self.last_key.is_empty() {
            let max = self.last_key.len().min(key.len());
            while shared < max && self.last_key[shared] == key[shared] {
                shared += 1;
            }
        } else {
            self.restarts.push(self.buf.len() as u32);
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

    /// Serializes the block, returning it with the last key added.
    pub(super) fn finish(mut self) -> (Vec<u8>, Vec<u8>) {
        if self.restarts.is_empty() {
            self.restarts.push(0);
        }
        for r in &self.restarts {
            put_fixed32(&mut self.buf, *r);
        }
        put_fixed32(&mut self.buf, self.restarts.len() as u32);
        (self.buf, self.last_key)
    }

    pub(super) fn size_estimate(&self) -> usize {
        self.buf.len() + self.restarts.len() * 4 + 8
    }

    pub(super) fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

/// Appends the frame trailer: a masked CRC32-C over everything in `body`.
pub(super) fn seal_frame(body: &mut Vec<u8>) {
    let crc = crc32c::masked(crc32c::crc32c(body));
    put_fixed32(body, crc);
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

/// Verifies the trailing CRC of a framed data block, decompresses it if its
/// tag says so (charging the decompression CPU and, when `stats` is given,
/// the `BlockDecompressions`/`Block*Bytes` tickers), and decodes it.
///
/// # Errors
///
/// [`DbError::Corruption`] on checksum or structural failures, naming no
/// file: the caller knows which one, and where in it the frame sits.
pub fn decode_framed(framed: &[u8], stats: Option<&DbStats>) -> DbResult<Block> {
    let body = check_frame(framed).map_err(DbError::corruption)?;
    let Some((&tag, payload)) = body.split_first() else {
        return Err(DbError::corruption("block truncated"));
    };
    if tag == CompressionType::None.tag() {
        xlsm_sim::sleep_nanos(costs::block_decode_ns(payload.len()));
        return decode_block(payload);
    }
    if tag == CompressionType::Rle.tag() {
        xlsm_sim::sleep_nanos(costs::block_decompress_ns(payload.len()));
        let raw = compress::rle_decompress(payload)?;
        if let Some(s) = stats {
            s.bump(Ticker::BlockDecompressions);
            s.add(Ticker::BlockCompressedBytes, payload.len() as u64);
            s.add(Ticker::BlockUncompressedBytes, raw.len() as u64);
        }
        xlsm_sim::sleep_nanos(costs::block_decode_ns(raw.len()));
        return decode_block(&raw);
    }
    Err(DbError::corruption(format!(
        "unknown block compression tag {tag}"
    )))
}

/// Decodes a serialized data block into its entry list.
///
/// # Errors
///
/// [`DbError::Corruption`] on any structural violation.
pub fn decode_block(data: &[u8]) -> DbResult<Block> {
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
        // The lengths come off the disk: a sum that overflows is out of
        // bounds like any other.
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
    Ok(Block {
        entries,
        raw_size: data.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{make_internal_key, ValueType};

    #[test]
    fn block_roundtrip_with_restarts() {
        // Pure block-level test: shared-prefix encoding round-trips.
        let mut b = BlockBuilder::default();
        let keys: Vec<Vec<u8>> = (0..50)
            .map(|i| {
                make_internal_key(
                    format!("prefix/common/{i:04}").as_bytes(),
                    1,
                    ValueType::Value,
                )
            })
            .collect();
        for k in &keys {
            b.add(k, b"val");
        }
        let (data, _) = b.finish();
        let block = decode_block(&data).unwrap();
        assert_eq!(block.entries.len(), 50);
        for (i, (k, v)) in block.entries.iter().enumerate() {
            assert_eq!(k, &keys[i]);
            assert_eq!(v, b"val");
        }
    }
}
