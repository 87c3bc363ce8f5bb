//! Sorted String Table: block format, builder and reader.
//!
//! Layout (LevelDB-flavored):
//!
//! ```text
//! [tag][data block 0][crc32] [tag][data block 1][crc32] …
//! [filter block][crc32]        (optional: whole-key bloom + prefix bloom)
//! [index block][crc32]         (last-key, offset, size per data block)
//! [properties block][crc32]    (entry count, smallest/largest internal key)
//! [footer: 6×u64 + crc32 + magic u64]
//! ```
//!
//! Every region of the file is covered by a CRC32-C: data blocks carry one
//! over tag + payload, the meta blocks (filter, index, properties) each
//! carry a trailing CRC over their payload, and the footer checksums its own
//! offset table, so a flipped byte anywhere in the file is detectable. The
//! builder additionally folds every appended byte (footer included) into a
//! whole-file CRC, recorded in the MANIFEST and re-checkable without
//! parsing the file at all ([`verify_table_file`], the scrubber, and
//! `paranoid_file_checks`).
//!
//! Data blocks use shared-prefix encoding with restart points every
//! [`RESTART_INTERVAL`] entries. Each block is framed with a one-byte
//! compression tag ([`crate::compress::CompressionType::tag`]) and a CRC
//! over tag + payload; the *compressed* size is what the index records and
//! what the device transfers, so compression directly changes simulated I/O
//! cost. Readers go through the decoded-block cache; a miss charges the
//! block read (filesystem + device), the decompression CPU (if compressed)
//! and the decode CPU.
//!
//! The filter block carries a whole-key bloom and, when the table was built
//! with a `prefix_extractor`, a second bloom over the fixed-length key
//! prefixes (both sized by distinct keys; see [`crate::bloom`]). Filters
//! are built *incrementally* as entries stream in — the builder retains one
//! 32-bit hash per key, never the key bytes.

mod block;
mod builder;
mod index;
mod reader;

pub use block::{decode_block, decode_framed, RESTART_INTERVAL};
pub use builder::{TableBuilder, TableOptions, TableProperties};
pub use reader::{
    verify_table_file, TableEntry, TableHit, TableIterator, TableProbe, TableReader,
    READAHEAD_BYTES,
};

pub use crate::filenames::sst_file_name;

use crate::coding::*;
use crate::error::{DbError, DbResult};
use crate::filenames::sst_label;
use index::{FlatIndex, IndexBuilder};
use xlsm_simfs::FileHandle;

const FOOTER_SIZE: usize = 6 * 8 + 4 + 8; // offsets + crc32 + magic
const MAGIC: u64 = 0x584c_534d_5353_5431; // "XLSMSST1"

/// Where a meta block sits: `(offset, payload length)`. Its frame is four
/// bytes longer (the trailing CRC).
type MetaHandle = (u64, u64);

/// The fixed-size tail of a table file: the handles of the three meta
/// blocks, a masked CRC over them, then the magic — so a damaged footer is
/// distinguishable from a wrong-format file.
#[derive(Debug)]
struct Footer {
    /// Zero length when the table carries no filters.
    filter: MetaHandle,
    index: MetaHandle,
    props: MetaHandle,
}

impl Footer {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FOOTER_SIZE);
        for (off, len) in [self.filter, self.index, self.props] {
            put_fixed64(&mut out, off);
            put_fixed64(&mut out, len);
        }
        block::seal_frame(&mut out);
        put_fixed64(&mut out, MAGIC);
        out
    }

    /// Reads and checks the footer of `file`, telling `pacer` how many
    /// bytes the read took. Every handle it returns lies inside the file.
    fn read(file: &FileHandle, file_number: u64, pacer: &mut dyn FnMut(u64)) -> DbResult<Footer> {
        let name = || sst_label(file_number);
        let Some(footer_off) = file.len().checked_sub(FOOTER_SIZE as u64) else {
            return Err(DbError::corruption_in(name(), "file smaller than footer"));
        };
        let raw = file.read_at(footer_off, FOOTER_SIZE)?;
        pacer(FOOTER_SIZE as u64);
        let (framed, magic) = raw.split_at(FOOTER_SIZE - 8);
        if get_fixed64(magic, 0) != MAGIC {
            return Err(DbError::corruption_in(name(), "bad magic"));
        }
        let handles = block::check_frame(framed)
            .map_err(|_| DbError::corruption_at(name(), footer_off, "footer checksum mismatch"))?;
        let handle = |i: usize| {
            let (off, len) = (
                get_fixed64(handles, 16 * i),
                get_fixed64(handles, 16 * i + 8),
            );
            let frame_end = off.checked_add(len).and_then(|end| end.checked_add(4));
            if frame_end.is_some_and(|end| end <= footer_off) {
                Ok((off, len))
            } else {
                Err(DbError::corruption_at(
                    name(),
                    footer_off,
                    "meta block handle out of range",
                ))
            }
        };
        Ok(Footer {
            filter: handle(0)?,
            index: handle(1)?,
            props: handle(2)?,
        })
    }
}

#[cfg(test)]
pub(crate) fn test_fs() -> std::sync::Arc<xlsm_simfs::SimFs> {
    xlsm_simfs::SimFs::new(
        xlsm_device::SimDevice::shared(xlsm_device::profiles::optane_900p()),
        xlsm_simfs::FsOptions::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::index::encode_index;
    use super::*;

    /// A footer or an index with a valid CRC may still point anywhere: a
    /// handle past the end of the file is refused where it is decoded,
    /// before any read is sized by it.
    #[test]
    fn handles_past_the_file_are_corruption() {
        xlsm_sim::Runtime::new().run(|| {
            let fs = test_fs();
            let footer = Footer {
                filter: (0, 0),
                index: (u64::MAX - 2, 8),
                props: (0, 1),
            };
            let bytes = [vec![0; 64], footer.encode()].concat();
            fs.create("h.sst").unwrap().append(&bytes).unwrap();
            let err = Footer::read(&fs.open("h.sst").unwrap(), 1, &mut |_| {}).unwrap_err();
            assert!(err.is_corruption(), "{err}");
        });
        let index = encode_index(&[(b"k".to_vec(), u64::MAX, 2)]);
        assert!(FlatIndex::decode(&index, 1 << 20)
            .unwrap_err()
            .is_corruption());
        // A count no block this short could hold must not size a buffer.
        let mut count = Vec::new();
        put_varint64(&mut count, u64::MAX);
        assert!(FlatIndex::decode(&count, 1 << 20)
            .unwrap_err()
            .is_corruption());
    }
}
