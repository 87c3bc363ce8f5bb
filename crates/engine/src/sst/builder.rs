//! The write side of a table: [`TableBuilder`] streams sorted entries into
//! framed data blocks, then the filter, index and properties blocks and the
//! footer.

use super::block::{seal_frame, BlockBuilder};
use super::{Footer, IndexBuilder, MetaHandle};
use crate::bloom::BloomBuilder;
use crate::coding::*;
use crate::compress::CompressionType;
use crate::crc32c;
use crate::error::{DbError, DbResult};
use crate::types::{self, compare_internal};
use std::cmp::Ordering;
use xlsm_simfs::FileHandle;

/// Summary of a finished table, destined for the version manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableProperties {
    /// File size in bytes.
    pub file_size: u64,
    /// Number of entries.
    pub num_entries: u64,
    /// Smallest internal key.
    pub smallest: Vec<u8>,
    /// Largest internal key.
    pub largest: Vec<u8>,
    /// CRC32-C over the entire file as written by the builder (recorded in
    /// the MANIFEST). `0` when unknown — e.g. properties parsed back by a
    /// reader, which does not re-read the whole file to compute it.
    pub file_crc: u32,
}

/// Build-time knobs for one SST, extracted from [`crate::DbOptions`] so the
/// builder's call sites (flush, compaction, recovery, repair) plumb one
/// value instead of a growing argument list.
#[derive(Clone, Debug)]
pub struct TableOptions {
    /// Target uncompressed data-block size (bytes).
    pub block_size: usize,
    /// Bloom bits per key; `0` disables the filter block entirely.
    pub bloom_bits_per_key: usize,
    /// Per-block compression codec.
    pub compression: CompressionType,
    /// Fixed prefix length for the prefix bloom; needs
    /// `bloom_bits_per_key > 0` to take effect.
    pub prefix_extractor: Option<usize>,
}

impl Default for TableOptions {
    fn default() -> TableOptions {
        TableOptions {
            block_size: 4096,
            bloom_bits_per_key: 0,
            compression: CompressionType::None,
            prefix_extractor: None,
        }
    }
}

impl From<&crate::options::DbOptions> for TableOptions {
    fn from(opts: &crate::options::DbOptions) -> TableOptions {
        TableOptions {
            block_size: opts.block_size,
            bloom_bits_per_key: opts.bloom_bits_per_key,
            compression: opts.compression,
            prefix_extractor: opts.prefix_extractor,
        }
    }
}

/// The file a table is written to, with the running count and checksum of
/// what it holds.
#[derive(Debug)]
struct TableFile {
    file: FileHandle,
    /// Bytes appended so far.
    offset: u64,
    /// Running CRC over every byte appended so far (the whole-file
    /// checksum recorded in the manifest).
    crc: crc32c::Hasher,
}

impl TableFile {
    /// Appends `data` to the file, folding it into the whole-file CRC.
    fn append(&mut self, data: &[u8]) -> DbResult<()> {
        self.crc.update(data);
        self.file.append(data)?;
        self.offset += data.len() as u64;
        Ok(())
    }
}

/// Streams sorted internal entries into an SST file.
#[derive(Debug)]
pub struct TableBuilder {
    out: TableFile,
    opts: TableOptions,
    block: BlockBuilder,
    index: IndexBuilder,
    whole_bloom: Option<BloomBuilder>,
    prefix_bloom: Option<BloomBuilder>,
    num_entries: u64,
    smallest: Vec<u8>,
    largest: Vec<u8>,
}

impl TableBuilder {
    /// Starts building into `file`.
    pub fn new(file: FileHandle, opts: TableOptions) -> TableBuilder {
        let whole_bloom =
            (opts.bloom_bits_per_key > 0).then(|| BloomBuilder::new(opts.bloom_bits_per_key));
        let prefix_bloom = (opts.bloom_bits_per_key > 0 && opts.prefix_extractor.is_some())
            .then(|| BloomBuilder::new(opts.bloom_bits_per_key));
        TableBuilder {
            out: TableFile {
                file,
                offset: 0,
                crc: crc32c::Hasher::new(),
            },
            block: BlockBuilder::new(opts.block_size),
            opts,
            index: IndexBuilder::default(),
            whole_bloom,
            prefix_bloom,
            num_entries: 0,
            smallest: Vec::new(),
            largest: Vec::new(),
        }
    }

    /// Appends a meta block as a frame around `payload`, returning the
    /// handle the footer records.
    fn append_meta_block(&mut self, mut payload: Vec<u8>) -> DbResult<MetaHandle> {
        let handle = (self.out.offset, payload.len() as u64);
        seal_frame(&mut payload);
        self.out.append(&payload)?;
        Ok(handle)
    }

    /// Adds an entry; keys must arrive in strictly increasing internal-key
    /// order.
    ///
    /// # Errors
    ///
    /// Filesystem errors from flushing a filled block.
    pub fn add(&mut self, ikey: &[u8], value: &[u8]) -> DbResult<()> {
        debug_assert!(
            self.largest.is_empty() || compare_internal(&self.largest, ikey) == Ordering::Less,
            "keys must be added in order"
        );
        if self.smallest.is_empty() {
            self.smallest = ikey.to_vec();
        }
        self.largest.clear();
        self.largest.extend_from_slice(ikey);
        let uk = types::user_key(ikey);
        if let Some(b) = &mut self.whole_bloom {
            b.add_key(uk);
        }
        if let (Some(b), Some(len)) = (&mut self.prefix_bloom, self.opts.prefix_extractor) {
            if uk.len() >= len {
                b.add_key(&uk[..len]);
            }
        }
        self.block.add(ikey, value);
        self.num_entries += 1;
        if self.block.size_estimate() >= self.opts.block_size {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> DbResult<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let off = self.out.offset;
        let frame = self.block.finish(self.opts.compression);
        let appended = self.out.append(frame);
        if appended.is_ok() {
            let size = self.out.offset - off;
            self.index.add(self.block.last_key(), off, size);
        }
        self.block.reset();
        appended?;
        Ok(())
    }

    /// Bytes written so far (flushed blocks).
    pub fn file_size(&self) -> u64 {
        self.out.offset
    }

    /// Finishes the table: writes filter/index/properties/footer and syncs.
    ///
    /// # Errors
    ///
    /// Filesystem errors; building an empty table is an
    /// [`DbError::InvalidArgument`].
    pub fn finish(mut self) -> DbResult<TableProperties> {
        if self.num_entries == 0 {
            return Err(DbError::InvalidArgument("empty table".into()));
        }
        self.flush_block()?;

        // Filter block: length-prefixed whole-key filter, then the prefix
        // length the prefix filter was built with (0 = none), then the
        // length-prefixed prefix filter.
        let whole = self.whole_bloom.take().map(BloomBuilder::finish);
        let prefix = self.prefix_bloom.take().map(BloomBuilder::finish);
        let filter = if whole.is_some() || prefix.is_some() {
            let mut buf = Vec::new();
            put_length_prefixed(&mut buf, whole.as_deref().unwrap_or(&[]));
            match (&prefix, self.opts.prefix_extractor) {
                (Some(pf), Some(len)) => {
                    put_varint64(&mut buf, len as u64);
                    put_length_prefixed(&mut buf, pf);
                }
                _ => put_varint64(&mut buf, 0),
            }
            self.append_meta_block(buf)?
        } else {
            (self.out.offset, 0)
        };

        let index = self.append_meta_block(self.index.finish())?;

        // Properties block.
        let mut props = Vec::new();
        put_varint64(&mut props, self.num_entries);
        put_length_prefixed(&mut props, &self.smallest);
        put_length_prefixed(&mut props, &self.largest);
        let props = self.append_meta_block(props)?;

        let footer = Footer {
            filter,
            index,
            props,
        };
        self.out.append(&footer.encode())?;

        self.out.file.sync()?;
        // A finished table is never appended to again: give back the rest of
        // its last extent.
        self.out.file.seal()?;
        Ok(TableProperties {
            file_size: self.out.offset,
            num_entries: self.num_entries,
            smallest: self.smallest,
            largest: self.largest,
            file_crc: self.out.crc.finish(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_fs as fs;
    use super::*;
    use crate::types::{make_internal_key, ValueType};
    use xlsm_sim::Runtime;

    #[test]
    fn builder_retains_hashes_not_keys() {
        // Regression: the builder used to buffer every user key until
        // finish() (`user_keys: Vec<Vec<u8>>`), doubling flush/compaction
        // memory. It must now hold only per-key hashes: 4 bytes per key
        // (plus one scratch key), a small fraction of the streamed bytes.
        Runtime::new().run(|| {
            let fs = fs();
            let f = fs.create("m.sst").unwrap();
            let mut b = TableBuilder::new(
                f,
                TableOptions {
                    bloom_bits_per_key: 10,
                    prefix_extractor: Some(8),
                    ..TableOptions::default()
                },
            );
            let mut key_bytes = 0usize;
            for i in 0..20_000u32 {
                let uk = format!("a-fairly-long-user-key-{i:012}");
                key_bytes += uk.len();
                let k = make_internal_key(uk.as_bytes(), 1, ValueType::Value);
                b.add(&k, b"v").unwrap();
            }
            // One 32-bit hash per distinct key — never the user keys
            // themselves (the old `user_keys: Vec<Vec<u8>>` buffer doubled
            // flush memory).
            let held: usize = [&b.whole_bloom, &b.prefix_bloom]
                .into_iter()
                .flatten()
                .map(BloomBuilder::memory_bytes)
                .sum();
            assert!(
                held < key_bytes / 4,
                "filter state holds {held} bytes for {key_bytes} bytes of keys — keys are being retained"
            );
            b.finish().unwrap();
        });
    }

    #[test]
    fn whole_file_crc_matches_on_disk_bytes() {
        Runtime::new().run(|| {
            let fs = fs();
            let f = fs.create("c.sst").unwrap();
            let mut b = TableBuilder::new(
                f,
                TableOptions {
                    bloom_bits_per_key: 10,
                    ..TableOptions::default()
                },
            );
            for i in 0..200u32 {
                let k = make_internal_key(format!("key{i:06}").as_bytes(), 1, ValueType::Value);
                b.add(&k, b"v").unwrap();
            }
            let props = b.finish().unwrap();
            let f = fs.open("c.sst").unwrap();
            let bytes = f.read_at(0, f.len() as usize).unwrap();
            assert_eq!(props.file_crc, crc32c::crc32c(&bytes));
            assert_eq!(props.file_size, bytes.len() as u64);
        });
    }

    #[test]
    fn empty_table_rejected() {
        Runtime::new().run(|| {
            let fs = fs();
            let f = fs.create("e.sst").unwrap();
            let b = TableBuilder::new(f, TableOptions::default());
            assert!(matches!(b.finish(), Err(DbError::InvalidArgument(_))));
        });
    }
}
