//! The read side of a table: [`TableReader`] (open, point lookups, the
//! prefix filter), its cursor [`TableIterator`], and [`verify_table_file`],
//! the CRC-only pass the scrubber makes.

use super::block::{check_frame, decode_framed};
use super::{FlatIndex, Footer, MetaHandle, TableProperties};
use crate::bloom::BloomFilter;
use crate::cache::{Block, BlockCache, Entry};
use crate::coding::*;
use crate::costs;
use crate::error::{DbError, DbResult};
use crate::filenames::sst_label;
use crate::iterator::InternalIterator;
use crate::stats::{DbStats, Ticker};
use crate::types::{self, KeyBuf, SequenceNumber, ValueType};
use std::sync::Arc;
use xlsm_sim::Class;
use xlsm_simfs::{FileBytes, FileHandle, FileSpan};

/// One key of a [`TableReader::get_many`] batch.
#[derive(Clone, Debug)]
pub struct TableProbe {
    /// Caller-side index of the key this probe answers (opaque to the
    /// reader; echoed back with any hit).
    pub slot: usize,
    /// Internal lookup key (`types::lookup_key(user_key, snapshot)`).
    pub lookup: KeyBuf,
    /// The bare user key (bloom check + hit validation).
    pub user_key: Vec<u8>,
}

/// The entry that answers a point lookup: the sequence number and type from
/// its internal key, and its value.
pub type TableEntry = (SequenceNumber, ValueType, Vec<u8>);

/// One [`TableReader::get_many`] hit: the probe's slot plus the entry.
pub type TableHit = (usize, TableEntry);

/// Open handle to one SST: parsed index + filters, block access via cache.
pub struct TableReader {
    file: FileHandle,
    file_number: u64,
    cache: Arc<BlockCache>,
    index: FlatIndex,
    bloom: Option<Vec<u8>>,
    prefix_bloom: Option<Vec<u8>>,
    prefix_len: Option<usize>,
    props: TableProperties,
}

/// Re-attributes a bare corruption error to `file` at `offset` (errors that
/// already name a file pass through).
fn attribute(file: String, offset: u64, e: DbError) -> DbError {
    match e {
        DbError::Corruption(d) if d.file.is_none() => {
            DbError::corruption_at(file, offset, d.message)
        }
        other => other,
    }
}

/// Reads the meta block at `handle` and returns its payload once the
/// frame's CRC checks out, telling `pacer` how many bytes the read took.
fn read_meta_block(
    file: &FileHandle,
    file_number: u64,
    (off, len): MetaHandle,
    pacer: &mut dyn FnMut(u64),
) -> DbResult<Vec<u8>> {
    let mut framed = file.read_at(off, len as usize + 4)?;
    let payload_len = check_frame(&framed)
        .map_err(|why| DbError::corruption_at(sst_label(file_number), off, format!("meta {why}")))?
        .len();
    framed.truncate(payload_len);
    pacer(len + 4);
    Ok(framed)
}

/// Everything in a table file that is not a data block, CRC-checked.
struct Meta {
    index: FlatIndex,
    /// The filter block's payload; `None` when the table carries no filters.
    filter: Option<Vec<u8>>,
    props: Vec<u8>,
}

/// Reads the footer, then the index, filter and properties blocks it points
/// at — the one walk over a table's meta region, shared by
/// [`TableReader::open`] and [`verify_table_file`].
fn read_meta(file: &FileHandle, file_number: u64, pacer: &mut dyn FnMut(u64)) -> DbResult<Meta> {
    let footer = Footer::read(file, file_number, pacer)?;
    let index_raw = read_meta_block(file, file_number, footer.index, pacer)?;
    let index = FlatIndex::decode(&index_raw, file.len())
        .map_err(|e| attribute(sst_label(file_number), footer.index.0, e))?;
    let filter = if footer.filter.1 > 0 {
        Some(read_meta_block(file, file_number, footer.filter, pacer)?)
    } else {
        None
    };
    let props = read_meta_block(file, file_number, footer.props, pacer)?;
    Ok(Meta {
        index,
        filter,
        props,
    })
}

/// Verifies every checksummed region of a finished table — footer, meta
/// blocks, and each data block frame — without decoding entries or touching
/// the block cache. This is the scrubber's (and [`verify_checksums`]'s) read
/// path: CRC-only, so a pass over a cold file costs reads plus checksum
/// arithmetic.
///
/// `pacer` is called with the byte count after every device read, letting
/// the caller charge I/O cost or enforce a scrub-rate budget.
///
/// Returns the total bytes verified (the file size on success).
///
/// [`verify_checksums`]: crate::db::Db::verify_checksums
///
/// # Errors
///
/// [`DbError::Corruption`] naming the file and offset of the first bad
/// region; filesystem errors pass through.
pub fn verify_table_file(
    file: &FileHandle,
    file_number: u64,
    pacer: &mut dyn FnMut(u64),
) -> DbResult<u64> {
    let meta = read_meta(file, file_number, pacer)?;
    for (off, size) in meta.index.frames() {
        let framed = file.read_at(off, size as usize)?;
        pacer(size);
        check_frame(&framed)
            .map_err(|why| DbError::corruption_at(sst_label(file_number), off, why))?;
    }
    Ok(file.len())
}

/// `(whole-key filter, prefix filter, prefix length)` as read from a
/// serialized filter block.
type ParsedFilters = (Option<Vec<u8>>, Option<Vec<u8>>, Option<usize>);

/// Parses a serialized filter block.
fn parse_filter_block(raw: &[u8]) -> DbResult<ParsedFilters> {
    let bad = |what: &str| DbError::corruption(format!("bad {what}"));
    let mut off = 0usize;
    let whole = get_length_prefixed(raw, &mut off).ok_or_else(|| bad("whole-key filter"))?;
    let whole = (!whole.is_empty()).then(|| whole.to_vec());
    let prefix_len = get_varint64(raw, &mut off).ok_or_else(|| bad("prefix filter length"))?;
    if prefix_len == 0 {
        return Ok((whole, None, None));
    }
    let prefix = get_length_prefixed(raw, &mut off).ok_or_else(|| bad("prefix filter"))?;
    Ok((whole, Some(prefix.to_vec()), Some(prefix_len as usize)))
}

impl std::fmt::Debug for TableReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableReader")
            .field("file_number", &self.file_number)
            .field("entries", &self.props.num_entries)
            .field("blocks", &self.index.len())
            .finish()
    }
}

impl TableReader {
    /// Opens a finished table, reading footer, properties, index and bloom.
    ///
    /// # Errors
    ///
    /// [`DbError::Corruption`] on format violations; filesystem errors pass
    /// through.
    pub fn open(
        file: FileHandle,
        file_number: u64,
        cache: Arc<BlockCache>,
    ) -> DbResult<TableReader> {
        let meta = read_meta(&file, file_number, &mut |_| {})?;
        let (bloom, prefix_bloom, prefix_len) = match &meta.filter {
            Some(raw) => parse_filter_block(raw)?,
            None => (None, None, None),
        };
        let bad = |what: &str| DbError::corruption(format!("bad {what}"));
        let mut poff = 0usize;
        let props = TableProperties {
            file_size: file.len(),
            num_entries: get_varint64(&meta.props, &mut poff).ok_or_else(|| bad("props"))?,
            smallest: get_length_prefixed(&meta.props, &mut poff)
                .ok_or_else(|| bad("smallest"))?
                .to_vec(),
            largest: get_length_prefixed(&meta.props, &mut poff)
                .ok_or_else(|| bad("largest"))?
                .to_vec(),
            file_crc: 0,
        };
        Ok(TableReader {
            file,
            file_number,
            cache,
            index: meta.index,
            bloom,
            prefix_bloom,
            prefix_len,
            props,
        })
    }

    /// Table properties (entry count, key range).
    pub fn properties(&self) -> &TableProperties {
        &self.props
    }

    /// Number of data blocks.
    #[cfg(test)]
    fn num_blocks(&self) -> usize {
        self.index.len()
    }

    /// User keys on each data-block boundary (the last key of every block),
    /// in ascending order — the candidate cut points for range-partitioned
    /// subcompactions. Served from the already-parsed index: no I/O.
    pub fn block_boundary_user_keys(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.index.block_boundary_user_keys()
    }

    /// Checks and decodes the frame of the data block at `off`, naming this
    /// file and that offset in any corruption error.
    fn decode_at(&self, bytes: FileBytes, off: u64, stats: &DbStats) -> DbResult<Block> {
        decode_framed(bytes, Some(stats))
            .map_err(|e| attribute(sst_label(self.file_number), off, e))
    }

    /// Loads block `i` through the cache, charging read + decode costs.
    fn block(&self, i: usize, stats: &DbStats) -> DbResult<Arc<Block>> {
        let (off, size) = self.index.frame(i);
        let key = (self.file_number, off);
        if let Some(b) = self.cache.get(&key) {
            stats.bump(Ticker::BlockCacheHit);
            return Ok(b);
        }
        stats.bump(Ticker::BlockCacheMiss);
        let framed = self.file.read_frame(off, size as usize)?;
        let block = Arc::new(self.decode_at(framed, off, stats)?);
        self.cache.insert(key, Arc::clone(&block));
        Ok(block)
    }

    /// Whether the table *may* contain any key starting with `prefix`.
    /// Only decisive when the table carries a prefix filter built with
    /// exactly `prefix.len()` — any other configuration answers `true`
    /// (conservative).
    pub fn may_contain_prefix(&self, prefix: &[u8]) -> bool {
        match (&self.prefix_bloom, self.prefix_len) {
            (Some(pf), Some(len)) if len == prefix.len() => BloomFilter::may_contain(pf, prefix),
            _ => true,
        }
    }

    /// Checks the prefix filter for a point lookup of `user_key` (charging
    /// the filter-probe cost). `false` means no key with `user_key`'s
    /// prefix exists in the table, so the lookup itself cannot hit: a key
    /// starting with the extractor's `len`-byte prefix is at least `len`
    /// bytes long and therefore always in the transform's domain. Keys
    /// shorter than the prefix bypass the filter (`true`).
    fn prefix_may_match(&self, user_key: &[u8], stats: &DbStats) -> bool {
        let (Some(pf), Some(len)) = (&self.prefix_bloom, self.prefix_len) else {
            return true;
        };
        if user_key.len() < len {
            return true;
        }
        xlsm_sim::charge(Class::Bloom, costs::BLOOM_CHECK_NS);
        if BloomFilter::may_contain(pf, &user_key[..len]) {
            true
        } else {
            stats.bump(Ticker::PrefixBloomUseful);
            false
        }
    }

    /// Whether a point lookup of `user_key` gets past the whole-key and
    /// prefix filters. The filter blocks are resident with the open reader,
    /// so a rejection answers before the per-table index setup is ever paid
    /// — that skip is the whole value of the filters on a deep Level-0.
    fn filters_may_match(&self, user_key: &[u8], stats: &DbStats) -> bool {
        if let Some(bloom) = &self.bloom {
            xlsm_sim::charge(Class::Bloom, costs::BLOOM_CHECK_NS);
            if !BloomFilter::may_contain(bloom, user_key) {
                stats.bump(Ticker::BloomUseful);
                return false;
            }
        }
        self.prefix_may_match(user_key, stats)
    }

    /// Index of the first block whose last key is ≥ `ikey`, or None.
    fn block_for(&self, ikey: &[u8]) -> Option<usize> {
        xlsm_sim::charge(
            Class::Search,
            costs::binary_search_ns(self.index.len() as u64),
        );
        let idx = self.index.partition_point(ikey);
        (idx < self.index.len()).then_some(idx)
    }

    /// Point lookup: returns the first entry with internal key ≥ `lookup`
    /// whose user key equals `user_key`.
    ///
    /// # Errors
    ///
    /// Corruption or filesystem errors.
    pub fn get(
        &self,
        lookup: &[u8],
        user_key: &[u8],
        stats: &DbStats,
    ) -> DbResult<Option<TableEntry>> {
        if !self.filters_may_match(user_key, stats) {
            return Ok(None);
        }
        xlsm_sim::charge(Class::TableLookup, costs::TABLE_LOOKUP_BASE_NS);
        let Some(bi) = self.block_for(lookup) else {
            return Ok(None);
        };
        let block = self.block(bi, stats)?;
        Ok(search_block(&block, lookup, user_key))
    }

    /// Batched point lookup: answers every probe in one pass over the
    /// table, paying the fixed per-table cost once and decoding each
    /// distinct data block at most once (probes are grouped per block).
    /// Returns `(slot, entry)` for each probe that hit; misses are simply
    /// absent.
    ///
    /// # Errors
    ///
    /// Corruption or filesystem errors.
    pub fn get_many(&self, probes: &[TableProbe], stats: &DbStats) -> DbResult<Vec<TableHit>> {
        // Resolve each probe to its block first so block loads can be
        // shared; `by_block` is sorted so one block is decoded exactly once.
        // The per-table index setup is paid once, and only if at least one
        // probe survives the resident filter blocks.
        let mut charged_base = false;
        let mut by_block: Vec<(usize, usize)> = Vec::new(); // (block, probe idx)
        for (i, p) in probes.iter().enumerate() {
            if !self.filters_may_match(&p.user_key, stats) {
                continue;
            }
            if !charged_base {
                xlsm_sim::charge(Class::TableLookup, costs::TABLE_LOOKUP_BASE_NS);
                charged_base = true;
            }
            if let Some(bi) = self.block_for(&p.lookup) {
                by_block.push((bi, i));
            }
        }
        by_block.sort_unstable();
        let mut hits = Vec::new();
        let mut cur: Option<(usize, Arc<Block>)> = None;
        for (bi, i) in by_block {
            if cur.as_ref().is_none_or(|(loaded, _)| *loaded != bi) {
                cur = Some((bi, self.block(bi, stats)?));
            }
            let (_, block) = cur.as_ref().expect("loaded above");
            let p = &probes[i];
            if let Some(entry) = search_block(block, &p.lookup, &p.user_key) {
                hits.push((p.slot, entry));
            }
        }
        Ok(hits)
    }

    /// Iterator over the whole table. With `readahead` (compaction-style
    /// access), before decoding a block past the prefetch watermark the next
    /// [`READAHEAD_BYTES`] of the file are pulled in with one coalesced
    /// device read.
    pub fn iter(self: &Arc<Self>, stats: Arc<DbStats>, readahead: bool) -> TableIterator {
        TableIterator {
            table: Arc::clone(self),
            stats,
            block_idx: 0,
            block: None,
            entry: None,
            key: KeyBuf::default(),
            readahead,
            ra_buf: None,
        }
    }
}

/// The in-block half of a point lookup (charging a binary search over the
/// block's entries, as RocksDB's restart-array search costs): the first
/// entry of `block` with internal key ≥ `lookup`, if it is a version of
/// `user_key`. The entries are parsed in place into a key buffer on the
/// stack; the value is the one allocation.
pub(super) fn search_block(block: &Block, lookup: &[u8], user_key: &[u8]) -> Option<TableEntry> {
    xlsm_sim::charge(Class::Search, costs::binary_search_ns(block.len() as u64));
    let mut key = KeyBuf::default();
    let entry = block.seek(lookup, &mut key)?;
    let (uk, seq, t) = types::parse_internal_key(&key);
    (uk == user_key).then(|| (seq, t, block.value(&entry).to_vec()))
}

/// Sequential readahead window for compaction-style iteration (RocksDB's
/// `compaction_readahead_size` default is 2 MB on disks; scaled here).
pub const READAHEAD_BYTES: usize = 256 << 10;

/// Sequential/seekable iterator over a table's entries, parsed in place
/// into one reused key buffer.
pub struct TableIterator {
    table: Arc<TableReader>,
    stats: Arc<DbStats>,
    block_idx: usize,
    block: Option<Arc<Block>>,
    /// The current entry of `block`, its key in `key`; `None` past the
    /// last.
    entry: Option<Entry>,
    key: KeyBuf,
    readahead: bool,
    /// Private readahead window: compaction reads large sequential spans
    /// once and decodes blocks from them, independent of page-cache pressure
    /// (and without polluting the block cache). The window shares the
    /// file's memory, and so do the blocks decoded from it.
    ra_buf: Option<FileSpan>,
}

impl std::fmt::Debug for TableIterator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableIterator")
            .field("file", &self.table.file_number)
            .field("block_idx", &self.block_idx)
            .finish()
    }
}

impl TableIterator {
    /// Loads block `i` (none: the end of the table) and stands on its first
    /// entry. Returns whether there is one.
    fn load_block(&mut self, i: usize) -> DbResult<bool> {
        self.entry = None;
        if i >= self.table.index.len() {
            self.block = None;
            return Ok(false);
        }
        self.block_idx = i;
        if self.readahead {
            let (off, size) = self.table.index.frame(i);
            let in_buf = (self.ra_buf.as_ref())
                .is_some_and(|span| off >= span.start() && off + size <= span.end());
            if !in_buf {
                let want = (size as usize).max(READAHEAD_BYTES);
                let avail = (self.table.file.len() - off) as usize;
                let len = want.min(avail);
                self.ra_buf = Some(self.table.file.read_shared(off, len)?);
            }
            let frame = (self.ra_buf.as_ref().expect("filled above")).get(off..off + size);
            let block = self.table.decode_at(frame, off, &self.stats)?;
            // A block only this iterator holds takes the next in place.
            match self.block.as_mut().and_then(Arc::get_mut) {
                Some(held) => *held = block,
                None => self.block = Some(Arc::new(block)),
            }
        } else {
            self.block = Some(self.table.block(i, &self.stats)?);
        }
        let block = self.block.as_ref().expect("loaded above");
        self.entry = block.entry(0, &mut self.key);
        Ok(self.entry.is_some())
    }
}

impl InternalIterator for TableIterator {
    fn seek_to_first(&mut self) -> DbResult<bool> {
        self.load_block(0)
    }

    fn seek(&mut self, ikey: &[u8]) -> DbResult<bool> {
        let Some(bi) = self.table.block_for(ikey) else {
            self.block = None;
            self.entry = None;
            return Ok(false);
        };
        if !self.load_block(bi)? {
            return Ok(false);
        }
        let block = self.block.as_ref().expect("loaded above");
        self.entry = block.seek(ikey, &mut self.key);
        if self.entry.is_none() {
            // Key is past this block's last entry: move on.
            return self.load_block(bi + 1);
        }
        Ok(true)
    }

    fn next(&mut self) -> DbResult<bool> {
        let (Some(block), Some(entry)) = (&self.block, &self.entry) else {
            return Ok(false);
        };
        self.entry = block.entry(entry.next, &mut self.key);
        if self.entry.is_some() {
            return Ok(true);
        }
        self.load_block(self.block_idx + 1)
    }

    fn valid(&self) -> bool {
        self.entry.is_some()
    }

    fn key(&self) -> &[u8] {
        assert!(self.valid(), "valid iterator");
        &self.key
    }

    fn value(&self) -> &[u8] {
        let (Some(block), Some(entry)) = (&self.block, &self.entry) else {
            panic!("valid iterator");
        };
        block.value(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_fs as fs;
    use super::super::{TableBuilder, TableOptions, FOOTER_SIZE};
    use super::*;
    use crate::compress::CompressionType;
    use crate::types::{compare_internal, lookup_key, make_internal_key};
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use xlsm_sim::Runtime;
    use xlsm_simfs::SimFs;

    fn build_table(
        fs: &Arc<SimFs>,
        name: &str,
        n: u32,
        bloom: usize,
    ) -> (Arc<TableReader>, Arc<BlockCache>) {
        let f = fs.create(name).unwrap();
        let mut b = TableBuilder::new(
            f,
            TableOptions {
                bloom_bits_per_key: bloom,
                ..TableOptions::default()
            },
        );
        for i in 0..n {
            let k = make_internal_key(format!("key{i:06}").as_bytes(), 1, ValueType::Value);
            b.add(&k, format!("value-{i}").as_bytes()).unwrap();
        }
        let props = b.finish().unwrap();
        assert_eq!(props.num_entries, n as u64);
        let cache = BlockCache::new(1 << 20);
        let reader = TableReader::open(fs.open(name).unwrap(), 1, Arc::clone(&cache)).unwrap();
        (Arc::new(reader), cache)
    }

    #[test]
    fn build_and_get_all_keys() {
        Runtime::new().run(|| {
            let fs = fs();
            let (t, _) = build_table(&fs, "t.sst", 500, 0);
            let stats = DbStats::new();
            for i in (0..500).step_by(7) {
                let uk = format!("key{i:06}");
                let lookup = lookup_key(uk.as_bytes(), u64::MAX >> 8);
                let r = t.get(&lookup, uk.as_bytes(), &stats).unwrap();
                let (_, _, v) = r.expect("key must be found");
                assert_eq!(v, format!("value-{i}").into_bytes());
            }
            // Absent keys.
            let lookup = lookup_key(b"zzz", u64::MAX >> 8);
            assert!(t.get(&lookup, b"zzz", &stats).unwrap().is_none());
            let lookup = lookup_key(b"key000500", u64::MAX >> 8);
            assert!(t.get(&lookup, b"key000500", &stats).unwrap().is_none());
        });
    }

    #[test]
    fn properties_record_range() {
        Runtime::new().run(|| {
            let fs = fs();
            let (t, _) = build_table(&fs, "t.sst", 500, 0);
            let p = t.properties();
            assert_eq!(types::user_key(&p.smallest), b"key000000");
            assert_eq!(types::user_key(&p.largest), b"key000499");
            assert!(t.num_blocks() > 1, "500*~20B entries should span blocks");
        });
    }

    #[test]
    fn bloom_skips_absent_keys() {
        Runtime::new().run(|| {
            let fs = fs();
            let (t, _) = build_table(&fs, "t.sst", 300, 10);
            let stats = DbStats::new();
            for i in 0..200 {
                let uk = format!("nope{i:06}");
                let lookup = lookup_key(uk.as_bytes(), u64::MAX >> 8);
                assert!(t.get(&lookup, uk.as_bytes(), &stats).unwrap().is_none());
            }
            assert!(
                stats.ticker(Ticker::BloomUseful) > 150,
                "bloom should reject most absent probes: {}",
                stats.ticker(Ticker::BloomUseful)
            );
        });
    }

    #[test]
    fn cache_hit_on_second_read() {
        Runtime::new().run(|| {
            let fs = fs();
            let (t, _) = build_table(&fs, "t.sst", 200, 0);
            let stats = DbStats::new();
            let uk = b"key000050";
            let lookup = lookup_key(uk, u64::MAX >> 8);
            t.get(&lookup, uk, &stats).unwrap();
            let counters = || {
                let tick = |which| stats.ticker(which);
                (tick(Ticker::BlockCacheHit), tick(Ticker::BlockCacheMiss))
            };
            let (h0, m0) = counters();
            t.get(&lookup, uk, &stats).unwrap();
            let (h1, m1) = counters();
            assert_eq!(m1, m0, "second read must not miss");
            assert_eq!(h1, h0 + 1);
        });
    }

    #[test]
    fn iterator_scans_in_order() {
        Runtime::new().run(|| {
            let fs = fs();
            let (t, _) = build_table(&fs, "t.sst", 300, 0);
            let stats = DbStats::shared();
            let mut it = t.iter(stats, false);
            assert!(it.seek_to_first().unwrap());
            let mut count = 0;
            let mut last: Option<Vec<u8>> = None;
            while it.valid() {
                let k = it.key().to_vec();
                if let Some(l) = &last {
                    assert_eq!(compare_internal(l, &k), Ordering::Less);
                }
                last = Some(k);
                count += 1;
                it.next().unwrap();
            }
            assert_eq!(count, 300);
        });
    }

    #[test]
    fn iterator_seek_lands_correctly() {
        Runtime::new().run(|| {
            let fs = fs();
            let (t, _) = build_table(&fs, "t.sst", 300, 0);
            let stats = DbStats::shared();
            let mut it = t.iter(stats, false);
            let target = lookup_key(b"key000123", u64::MAX >> 8);
            assert!(it.seek(&target).unwrap());
            assert_eq!(types::user_key(it.key()), b"key000123");
            // Seek between keys lands on the next one.
            let target = lookup_key(b"key000123x", u64::MAX >> 8);
            assert!(it.seek(&target).unwrap());
            assert_eq!(types::user_key(it.key()), b"key000124");
            // Seek past the end invalidates.
            let target = lookup_key(b"zzz", u64::MAX >> 8);
            assert!(!it.seek(&target).unwrap());
            assert!(!it.valid());
        });
    }

    #[test]
    fn compressed_table_roundtrips_and_shrinks_io() {
        Runtime::new().run(|| {
            let fs = fs();
            let value = vec![b'x'; 256]; // run-structured: RLE collapses it
            let mut sizes = [0u64; 2];
            for (slot, codec) in [CompressionType::None, CompressionType::Rle]
                .into_iter()
                .enumerate()
            {
                let name = format!("c{slot}.sst");
                let f = fs.create(&name).unwrap();
                let mut b = TableBuilder::new(
                    f,
                    TableOptions {
                        compression: codec,
                        ..TableOptions::default()
                    },
                );
                for i in 0..400u32 {
                    let k = make_internal_key(format!("key{i:06}").as_bytes(), 1, ValueType::Value);
                    b.add(&k, &value).unwrap();
                }
                let props = b.finish().unwrap();
                sizes[slot] = props.file_size;
                let cache = BlockCache::new(1 << 20);
                let t = TableReader::open(fs.open(&name).unwrap(), slot as u64 + 1, cache).unwrap();
                let stats = DbStats::new();
                for i in (0..400).step_by(13) {
                    let uk = format!("key{i:06}");
                    let lookup = lookup_key(uk.as_bytes(), u64::MAX >> 8);
                    let (_, _, v) = t.get(&lookup, uk.as_bytes(), &stats).unwrap().unwrap();
                    assert_eq!(v, value, "codec {codec:?} must round-trip");
                }
                if codec == CompressionType::Rle {
                    assert!(stats.ticker(Ticker::BlockDecompressions) > 0);
                    assert!(
                        stats.ticker(Ticker::BlockCompressedBytes)
                            < stats.ticker(Ticker::BlockUncompressedBytes) / 4
                    );
                } else {
                    assert_eq!(stats.ticker(Ticker::BlockDecompressions), 0);
                }
            }
            assert!(
                sizes[1] < sizes[0] / 4,
                "RLE file should be much smaller: {} vs {}",
                sizes[1],
                sizes[0]
            );
        });
    }

    #[test]
    fn prefix_bloom_rejects_absent_prefixes() {
        Runtime::new().run(|| {
            let fs = fs();
            let f = fs.create("p.sst").unwrap();
            let mut b = TableBuilder::new(
                f,
                TableOptions {
                    bloom_bits_per_key: 10,
                    prefix_extractor: Some(4),
                    ..TableOptions::default()
                },
            );
            // 30 distinct 4-byte prefixes `pf00`..`pf29`, keys in order.
            for p in 0..30u32 {
                for i in 0..10u32 {
                    let k = make_internal_key(
                        format!("pf{p:02}-{i:06}").as_bytes(),
                        1,
                        ValueType::Value,
                    );
                    b.add(&k, b"v").unwrap();
                }
            }
            b.finish().unwrap();
            let cache = BlockCache::new(1 << 20);
            let t = TableReader::open(fs.open("p.sst").unwrap(), 1, cache).unwrap();
            for i in 0..30 {
                assert!(t.may_contain_prefix(format!("pf{i:02}").as_bytes()));
            }
            let mut rejected = 0;
            for i in 0..100 {
                if !t.may_contain_prefix(format!("zz{i:02}").as_bytes()) {
                    rejected += 1;
                }
            }
            assert!(rejected > 90, "prefix bloom too permissive: {rejected}");
            // Wrong query length → conservative true.
            assert!(t.may_contain_prefix(b"zzzzz"));
            assert!(t.may_contain_prefix(b"zz"));

            // A point lookup whose prefix is absent is rejected by the
            // prefix filter even when the whole-key bloom false-positives
            // (forced here by probing with the whole-key filter text of a
            // present key's prefix — use the ticker to observe the path).
            let stats = DbStats::new();
            let uk = b"zz99-suffix-not-present";
            let lookup = lookup_key(uk, u64::MAX >> 8);
            assert!(t.get(&lookup, uk, &stats).unwrap().is_none());
            assert_eq!(
                stats.ticker(Ticker::BloomUseful) + stats.ticker(Ticker::PrefixBloomUseful),
                1,
                "one of the two filters must have cut the probe"
            );
        });
    }

    #[test]
    fn corruption_detected() {
        Runtime::new().run(|| {
            let fs = fs();
            let f = fs.create("bad.sst").unwrap();
            f.append(b"garbage that is long enough to hold a footer maybe..............")
                .unwrap();
            let cache = BlockCache::new(1 << 20);
            let r = TableReader::open(fs.open("bad.sst").unwrap(), 9, cache);
            assert!(matches!(r, Err(DbError::Corruption(_))));
        });
    }

    /// Rewrites `name` with the byte at `off` flipped. SimFs has no
    /// write-at-offset, so at-rest corruption is planted by rewriting the
    /// whole file. Returns the original bytes for restoration.
    fn flip_byte(fs: &Arc<SimFs>, name: &str, off: u64) -> Vec<u8> {
        let f = fs.open(name).unwrap();
        let orig = f.read_at(0, f.len() as usize).unwrap();
        let mut bytes = orig.clone();
        bytes[off as usize] ^= 0x40;
        drop(f);
        fs.delete(name).unwrap();
        fs.create(name).unwrap().append(&bytes).unwrap();
        orig
    }

    fn restore(fs: &Arc<SimFs>, name: &str, orig: &[u8]) {
        fs.delete(name).unwrap();
        fs.create(name).unwrap().append(orig).unwrap();
    }

    /// Satellite: every region of the file — data, filter, index,
    /// properties, footer — is covered by a CRC, so a single flipped byte
    /// anywhere is detected (never silently wrong). One case per block
    /// kind.
    #[test]
    fn single_byte_flip_detected_in_every_block_kind() {
        Runtime::new().run(|| {
            let fs = fs();
            let f = fs.create("flip.sst").unwrap();
            let mut b = TableBuilder::new(
                f,
                TableOptions {
                    bloom_bits_per_key: 10,
                    ..TableOptions::default()
                },
            );
            for i in 0..400u32 {
                let k = make_internal_key(format!("key{i:06}").as_bytes(), 1, ValueType::Value);
                b.add(&k, format!("value-{i}").as_bytes()).unwrap();
            }
            let props = b.finish().unwrap();

            // Recover the region layout from the footer.
            let f = fs.open("flip.sst").unwrap();
            let size = f.len();
            let footer = Footer::read(&f, 7, &mut |_| {}).unwrap();
            let (bloom_off, index_off, props_off) =
                (footer.filter.0, footer.index.0, footer.props.0);
            drop(f);
            assert!(bloom_off > 0, "table must span multiple data blocks");

            let cases = [
                ("data block", bloom_off / 2),
                ("filter block", bloom_off + 3),
                ("index block", index_off + 3),
                ("properties block", props_off + 1),
                ("footer", size - FOOTER_SIZE as u64 + 2),
            ];
            for (kind, off) in cases {
                let orig = flip_byte(&fs, "flip.sst", off);

                // verify_table_file sees every region.
                let mut paced = 0u64;
                let err = verify_table_file(&fs.open("flip.sst").unwrap(), 7, &mut |b| paced += b)
                    .expect_err(kind);
                let DbError::Corruption(detail) = &err else {
                    panic!("{kind}: expected corruption, got {err:?}");
                };
                assert_eq!(detail.file.as_deref(), Some("000007.sst"), "{kind}");

                // The normal read path may not detect it either at open or
                // at first read, but must never return wrong data.
                let cache = BlockCache::new(1 << 20);
                match TableReader::open(fs.open("flip.sst").unwrap(), 7, cache) {
                    Err(DbError::Corruption(_)) => {}
                    Err(e) => panic!("{kind}: unexpected error {e:?}"),
                    Ok(t) => {
                        let stats = DbStats::new();
                        for i in 0..400 {
                            let uk = format!("key{i:06}");
                            let lookup = lookup_key(uk.as_bytes(), u64::MAX >> 8);
                            match t.get(&lookup, uk.as_bytes(), &stats) {
                                Ok(Some((_, _, v))) => {
                                    assert_eq!(
                                        v,
                                        format!("value-{i}").into_bytes(),
                                        "{kind}: silent wrong read"
                                    );
                                }
                                // Bloom may reject (filter flip) — a miss is
                                // harmless for this invariant.
                                Ok(None) => {}
                                Err(DbError::Corruption(_)) => break,
                                Err(e) => panic!("{kind}: unexpected error {e:?}"),
                            }
                        }
                    }
                }
                restore(&fs, "flip.sst", &orig);
            }

            // Clean file passes and pacer sees the whole file.
            let mut paced = 0u64;
            let verified =
                verify_table_file(&fs.open("flip.sst").unwrap(), 7, &mut |b| paced += b).unwrap();
            assert_eq!(verified, props.file_size);
            assert!(paced >= props.file_size, "pacer must see every read");
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Arbitrary (sorted, deduped) user keys and values round-trip
        /// through build → open → get / full scan, with and without blooms.
        #[test]
        fn table_roundtrip_arbitrary_keys(
            keys in prop::collection::btree_set(prop::collection::vec(any::<u8>(), 1..24), 1..120),
            bloom in prop::bool::ANY,
            compress in prop::bool::ANY,
            prefix in prop::option::of(1usize..6),
        ) {
            let keys: Vec<Vec<u8>> = keys.into_iter().collect();
            Runtime::new().run(move || {
                let fs = fs();
                let file = fs.create("p.sst").unwrap();
                let mut b = TableBuilder::new(file, TableOptions {
                    block_size: 512,
                    bloom_bits_per_key: if bloom { 10 } else { 0 },
                    compression: if compress { CompressionType::Rle } else { CompressionType::None },
                    prefix_extractor: prefix,
                });
                for (i, k) in keys.iter().enumerate() {
                    let ik = make_internal_key(k, i as u64 + 1, ValueType::Value);
                    b.add(&ik, format!("v{i}").as_bytes()).unwrap();
                }
                let props = b.finish().unwrap();
                assert_eq!(props.num_entries, keys.len() as u64);
                let cache = crate::cache::BlockCache::new(1 << 20);
                let t = std::sync::Arc::new(
                    TableReader::open(fs.open("p.sst").unwrap(), 1, cache).unwrap(),
                );
                let stats = DbStats::new();
                // Every key is found with its value.
                for (i, k) in keys.iter().enumerate() {
                    let lookup = lookup_key(k, u64::MAX >> 8);
                    let got = t.get(&lookup, k, &stats).unwrap();
                    let (_, _, v) = got.unwrap_or_else(|| panic!("key {i} missing"));
                    assert_eq!(v, format!("v{i}").into_bytes());
                }
                // Full scan yields exactly the inserted entries in order.
                let mut it = t.iter(DbStats::shared(), false);
                let mut n = 0usize;
                let mut ok = it.seek_to_first().unwrap();
                while ok {
                    assert_eq!(types::user_key(it.key()), &keys[n][..]);
                    n += 1;
                    ok = it.next().unwrap();
                }
                assert_eq!(n, keys.len());
            });
        }
    }
}
