//! Block compression codecs.
//!
//! The engine models compression the way the paper's cost analysis needs
//! it: what matters is that the *on-disk block size shrinks* (changing the
//! simulated device I/O cost) while a *CPU decompression cost* appears on
//! the read path. A cheap byte-run RLE codec gives both deterministically —
//! real ratios on run-structured values, guaranteed no expansion (a block
//! that does not shrink is stored raw), and an exactly invertible
//! transform so reads stay byte-identical to the uncompressed
//! configuration.
//!
//! Framing: every stored block carries a one-byte header tag
//! ([`CompressionType::tag`]) ahead of the payload; the CRC covers tag +
//! payload. [`crate::sst::decode_framed`] dispatches on the tag, so a
//! database opened with a different `compression` option still reads every
//! existing block correctly.

use crate::error::{DbError, DbResult};

/// Per-block compression applied by the SST builder (RocksDB
/// `CompressionType` analogue, reduced to the two points the study needs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CompressionType {
    /// Store blocks raw (the `db_bench --compression_type=none`
    /// configuration the paper's raw-speed runs use).
    #[default]
    None,
    /// Byte-run RLE: cheap, deterministic, and strictly size-capped (a
    /// block that does not shrink stays raw).
    Rle,
}

impl CompressionType {
    /// The per-block header tag for this codec.
    pub fn tag(self) -> u8 {
        match self {
            CompressionType::None => 0,
            CompressionType::Rle => 1,
        }
    }

    /// Short name for reports and docs.
    pub fn name(self) -> &'static str {
        match self {
            CompressionType::None => "none",
            CompressionType::Rle => "rle",
        }
    }
}

/// Compresses `data` with byte-run RLE: `(run_len - 1, byte)` pairs.
///
/// Worst case (no runs) the output is `2 * data.len()`; callers must gate
/// on the result being smaller (see [`compress_block`]).
pub fn rle_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2);
    let mut i = 0usize;
    while i < data.len() {
        let b = data[i];
        let mut run = 1usize;
        while run < 256 && i + run < data.len() && data[i + run] == b {
            run += 1;
        }
        out.push((run - 1) as u8);
        out.push(b);
        i += run;
    }
    out
}

/// Inverts [`rle_compress`].
///
/// # Errors
///
/// [`DbError::Corruption`] on a truncated pair.
pub fn rle_decompress(data: &[u8]) -> DbResult<Vec<u8>> {
    if !data.len().is_multiple_of(2) {
        return Err(DbError::Corruption("truncated RLE pair".into()));
    }
    let mut out = Vec::with_capacity(data.len());
    for pair in data.chunks_exact(2) {
        let run = pair[0] as usize + 1;
        out.extend(std::iter::repeat_n(pair[1], run));
    }
    Ok(out)
}

/// Applies `codec` to one finished block: writes the frame body — the
/// codec's tag, then the compressed block — into `out` and returns `true`
/// when the compressed block is strictly smaller than `block`. Returns
/// `false` otherwise (`out` is then scratch), and the caller stores the
/// block raw, so compression never inflates a block.
pub fn compress_block(codec: CompressionType, block: &[u8], out: &mut Vec<u8>) -> bool {
    match codec {
        CompressionType::None => false,
        CompressionType::Rle => {
            out.clear();
            out.push(CompressionType::Rle.tag());
            out.extend_from_slice(&rle_compress(block));
            out.len() - 1 < block.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rle_roundtrip_runs() {
        let data: Vec<u8> = std::iter::repeat_n(7u8, 500)
            .chain(std::iter::repeat_n(9u8, 300))
            .collect();
        let c = rle_compress(&data);
        assert!(c.len() < data.len() / 50, "runs must collapse: {}", c.len());
        assert_eq!(rle_decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_blocks_stay_raw() {
        let data: Vec<u8> = (0..=255u8).collect();
        assert!(!compress_block(
            CompressionType::Rle,
            &data,
            &mut Vec::new()
        ));
    }

    #[test]
    fn none_codec_is_identity() {
        assert!(!compress_block(
            CompressionType::None,
            b"aaaa",
            &mut Vec::new()
        ));
    }

    #[test]
    fn truncated_pair_is_corruption() {
        assert!(rle_decompress(&[3]).is_err());
    }

    proptest! {
        #[test]
        fn rle_roundtrips_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..2000)) {
            let c = rle_compress(&data);
            prop_assert_eq!(rle_decompress(&c).unwrap(), data.clone());
            // And the builder-side gate never inflates the stored payload.
            let mut body = Vec::new();
            if compress_block(CompressionType::Rle, &data, &mut body) {
                prop_assert!(body.len() <= data.len());
                prop_assert_eq!(body[0], CompressionType::Rle.tag());
                prop_assert_eq!(rle_decompress(&body[1..]).unwrap(), data);
            } else {
                prop_assert!(c.len() >= data.len());
            }
        }
    }
}
