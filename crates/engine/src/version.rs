//! Versions: the immutable picture of which SSTs form each level, plus the
//! manifest machinery that persists version changes.
//!
//! Level 0 files may overlap and are ordered newest-first (file number
//! descending); levels 1+ hold disjoint key ranges sorted by smallest key.

use crate::coding::*;
use crate::error::{DbError, DbResult};
use crate::filenames;
use crate::options::DbOptions;
use crate::sst::TableProperties;
use crate::types::{compare_internal, user_key};
use crate::wal;
use std::cmp::Ordering as CmpOrdering;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use xlsm_simfs::{FileHandle, SimFs};

/// Number of LSM levels (RocksDB `num_levels`, at its default).
pub const NUM_LEVELS: usize = 7;

/// Immutable metadata for one SST file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileMetaData {
    /// File number (names the file on disk).
    pub number: u64,
    /// Size in bytes.
    pub file_size: u64,
    /// Smallest internal key.
    pub smallest: Vec<u8>,
    /// Largest internal key.
    pub largest: Vec<u8>,
    /// Entry count.
    pub num_entries: u64,
    /// CRC32-C over the whole file as written, recorded in the manifest.
    /// `None` for files installed before whole-file checksums existed.
    pub file_crc: Option<u32>,
}

impl FileMetaData {
    /// Metadata for table `number` as its builder reported it.
    pub fn from_props(number: u64, props: TableProperties) -> FileMetaData {
        FileMetaData {
            number,
            file_size: props.file_size,
            smallest: props.smallest,
            largest: props.largest,
            num_entries: props.num_entries,
            file_crc: Some(props.file_crc),
        }
    }

    /// Whether this file's user-key range may contain `key`.
    pub fn may_contain_user_key(&self, key: &[u8]) -> bool {
        user_key(&self.smallest) <= key && key <= user_key(&self.largest)
    }

    /// Whether the user-key ranges `[a_lo, a_hi]` overlap this file.
    pub fn overlaps_user_range(&self, lo: &[u8], hi: &[u8]) -> bool {
        user_key(&self.smallest) <= hi && lo <= user_key(&self.largest)
    }
}

/// An immutable snapshot of the LSM file layout.
#[derive(Debug)]
pub struct Version {
    /// `levels[0]` newest-first; `levels[1..]` sorted by smallest key.
    pub levels: Vec<Vec<Arc<FileMetaData>>>,
}

impl Version {
    /// An empty version with `n` levels.
    pub fn empty(n: usize) -> Version {
        Version {
            levels: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Level-0 file count (the paper's central stall signal).
    pub fn num_l0_files(&self) -> usize {
        self.levels[0].len()
    }

    /// Total bytes at `level`.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels[level].iter().map(|f| f.file_size).sum()
    }

    /// Total bytes across levels.
    pub fn total_bytes(&self) -> u64 {
        (0..self.levels.len()).map(|l| self.level_bytes(l)).sum()
    }

    /// Files at `level` overlapping the user-key range `[lo, hi]`.
    pub fn overlapping(&self, level: usize, lo: &[u8], hi: &[u8]) -> Vec<Arc<FileMetaData>> {
        self.levels[level]
            .iter()
            .filter(|f| f.overlaps_user_range(lo, hi))
            .cloned()
            .collect()
    }

    /// For levels ≥ 1: the single file that may contain `key`, found by
    /// binary search over the disjoint ranges.
    pub fn file_for_key(&self, level: usize, key: &[u8]) -> Option<&Arc<FileMetaData>> {
        debug_assert!(level >= 1);
        let files = &self.levels[level];
        let idx = files.partition_point(|f| user_key(&f.largest) < key);
        files.get(idx).filter(|f| f.may_contain_user_key(key))
    }

    /// The Level-0 files whose user-key range may contain `key`, newest
    /// first.
    pub fn l0_covering<'a>(&'a self, key: &'a [u8]) -> impl Iterator<Item = &'a Arc<FileMetaData>> {
        self.levels[0]
            .iter()
            .filter(move |f| f.may_contain_user_key(key))
    }

    /// Groups point-lookup keys by the SST files that may hold them — the
    /// unit of work [`crate::Db::multi_get`] fans out across probe threads.
    /// Each `(slot, key)` pair carries the caller's result index. Groups
    /// come back in deterministic order: every covering Level-0 file
    /// (newest first), then for each deeper level the single candidate file
    /// per key, grouped so one file is probed once per batch.
    pub fn probe_groups(
        &self,
        keys: &[(usize, &[u8])],
    ) -> Vec<(usize, Arc<FileMetaData>, Vec<usize>)> {
        let mut groups = Vec::new();
        for f in &self.levels[0] {
            let slots: Vec<usize> = keys
                .iter()
                .filter(|(_, k)| f.may_contain_user_key(k))
                .map(|(slot, _)| *slot)
                .collect();
            if !slots.is_empty() {
                groups.push((0, Arc::clone(f), slots));
            }
        }
        for level in 1..self.levels.len() {
            if self.levels[level].is_empty() {
                continue;
            }
            // `(file position in level) -> slots`, iterated in file order.
            let mut per_file: std::collections::BTreeMap<usize, Vec<usize>> =
                std::collections::BTreeMap::new();
            for (slot, key) in keys {
                let files = &self.levels[level];
                let idx = files.partition_point(|f| user_key(&f.largest) < *key);
                if files.get(idx).is_some_and(|f| f.may_contain_user_key(key)) {
                    per_file.entry(idx).or_default().push(*slot);
                }
            }
            for (idx, slots) in per_file {
                groups.push((level, Arc::clone(&self.levels[level][idx]), slots));
            }
        }
        groups
    }

    /// Compaction score per level, RocksDB's leveled policy: L0 by file
    /// count vs. trigger, deeper levels by size vs. target. The last level
    /// has no target (it only receives) so its score is always 0. This is
    /// the input a [`LevelPicker`](crate::scheduler::LevelPicker) picks
    /// from; a score ≥ 1.0 warrants compaction. `l0_trigger` is the
    /// Level-0 compaction trigger in effect (it can change at runtime).
    pub fn level_scores(&self, opts: &DbOptions, l0_trigger: usize) -> Vec<f64> {
        let mut scores = vec![0.0f64; self.levels.len()];
        scores[0] = self.num_l0_files() as f64 / l0_trigger as f64;
        let deepest = self.levels.len() - 1;
        for (level, score) in scores.iter_mut().enumerate().take(deepest).skip(1) {
            *score = self.level_bytes(level) as f64 / opts.max_bytes_for_level(level) as f64;
        }
        scores
    }

    /// Returns `(level, score)` of the neediest level, ties toward the
    /// shallower level — the greedy summary of [`Self::level_scores`].
    pub fn compaction_score(&self, opts: &DbOptions, l0_trigger: usize) -> (usize, f64) {
        let mut best = (0usize, 0.0f64);
        for (level, &score) in self.level_scores(opts, l0_trigger).iter().enumerate() {
            if score > best.1 {
                best = (level, score);
            }
        }
        best
    }

    /// Estimated bytes awaiting compaction — feeds the write controller's
    /// rate adaptation (Algorithm 1's `Prev/Esti` comparison).
    pub fn pending_compaction_bytes(&self, opts: &DbOptions, l0_trigger: usize) -> u64 {
        let mut pending = 0u64;
        if self.num_l0_files() > l0_trigger {
            let extra = self.num_l0_files() - l0_trigger;
            let avg = self.level_bytes(0) / self.num_l0_files().max(1) as u64;
            pending += extra as u64 * avg;
        }
        for level in 1..self.levels.len() - 1 {
            pending += self
                .level_bytes(level)
                .saturating_sub(opts.max_bytes_for_level(level));
        }
        pending
    }
}

/// A delta between versions, persisted to the manifest.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VersionEdit {
    /// New WAL low-watermark: logs below this number are obsolete.
    pub log_number: Option<u64>,
    /// File-number counter floor (recovery resumes from here).
    pub next_file_number: Option<u64>,
    /// Last sequence number at edit time.
    pub last_sequence: Option<u64>,
    /// Files added: `(level, meta)`.
    pub added: Vec<(usize, FileMetaData)>,
    /// Files removed: `(level, file number)`.
    pub deleted: Vec<(usize, u64)>,
    /// Whole-file CRCs of WAL segments sealed by this edit:
    /// `(log number, crc)`. Recovery verifies a sealed log against its
    /// recorded CRC before trusting per-record scans.
    pub wal_crcs: Vec<(u64, u32)>,
}

const TAG_LOG_NUMBER: u64 = 1;
const TAG_NEXT_FILE: u64 = 2;
const TAG_LAST_SEQ: u64 = 3;
const TAG_ADD: u64 = 4;
const TAG_DELETE: u64 = 5;
/// `(file number, crc)` — whole-file CRC of an added SST. A separate tag
/// (rather than a new ADD field) keeps old manifests decodable: files
/// recorded before this tag existed simply have no CRC.
const TAG_FILE_CRC: u64 = 6;
/// `(log number, crc)` — whole-file CRC of a sealed WAL segment.
const TAG_WAL_CRC: u64 = 7;

impl VersionEdit {
    /// Serializes to the manifest payload format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        if let Some(v) = self.log_number {
            put_varint64(&mut out, TAG_LOG_NUMBER);
            put_varint64(&mut out, v);
        }
        if let Some(v) = self.next_file_number {
            put_varint64(&mut out, TAG_NEXT_FILE);
            put_varint64(&mut out, v);
        }
        if let Some(v) = self.last_sequence {
            put_varint64(&mut out, TAG_LAST_SEQ);
            put_varint64(&mut out, v);
        }
        for (level, f) in &self.added {
            put_varint64(&mut out, TAG_ADD);
            put_varint64(&mut out, *level as u64);
            put_varint64(&mut out, f.number);
            put_varint64(&mut out, f.file_size);
            put_varint64(&mut out, f.num_entries);
            put_length_prefixed(&mut out, &f.smallest);
            put_length_prefixed(&mut out, &f.largest);
            if let Some(crc) = f.file_crc {
                put_varint64(&mut out, TAG_FILE_CRC);
                put_varint64(&mut out, f.number);
                put_varint64(&mut out, u64::from(crc));
            }
        }
        for (level, number) in &self.deleted {
            put_varint64(&mut out, TAG_DELETE);
            put_varint64(&mut out, *level as u64);
            put_varint64(&mut out, *number);
        }
        for (number, crc) in &self.wal_crcs {
            put_varint64(&mut out, TAG_WAL_CRC);
            put_varint64(&mut out, *number);
            put_varint64(&mut out, u64::from(*crc));
        }
        out
    }

    /// Parses a manifest payload.
    ///
    /// # Errors
    ///
    /// [`DbError::Corruption`] on malformed input.
    pub fn decode(data: &[u8]) -> DbResult<VersionEdit> {
        let corrupt = || DbError::Corruption("bad version edit".into());
        let mut edit = VersionEdit::default();
        let mut off = 0usize;
        while off < data.len() {
            let tag = get_varint64(data, &mut off).ok_or_else(corrupt)?;
            match tag {
                TAG_LOG_NUMBER => {
                    edit.log_number = Some(get_varint64(data, &mut off).ok_or_else(corrupt)?)
                }
                TAG_NEXT_FILE => {
                    edit.next_file_number = Some(get_varint64(data, &mut off).ok_or_else(corrupt)?)
                }
                TAG_LAST_SEQ => {
                    edit.last_sequence = Some(get_varint64(data, &mut off).ok_or_else(corrupt)?)
                }
                TAG_ADD => {
                    let level = get_varint64(data, &mut off).ok_or_else(corrupt)? as usize;
                    let number = get_varint64(data, &mut off).ok_or_else(corrupt)?;
                    let file_size = get_varint64(data, &mut off).ok_or_else(corrupt)?;
                    let num_entries = get_varint64(data, &mut off).ok_or_else(corrupt)?;
                    let smallest = get_length_prefixed(data, &mut off)
                        .ok_or_else(corrupt)?
                        .to_vec();
                    let largest = get_length_prefixed(data, &mut off)
                        .ok_or_else(corrupt)?
                        .to_vec();
                    edit.added.push((
                        level,
                        FileMetaData {
                            number,
                            file_size,
                            smallest,
                            largest,
                            num_entries,
                            file_crc: None,
                        },
                    ));
                }
                TAG_DELETE => {
                    let level = get_varint64(data, &mut off).ok_or_else(corrupt)? as usize;
                    let number = get_varint64(data, &mut off).ok_or_else(corrupt)?;
                    edit.deleted.push((level, number));
                }
                TAG_FILE_CRC => {
                    let number = get_varint64(data, &mut off).ok_or_else(corrupt)?;
                    let crc = get_varint64(data, &mut off).ok_or_else(corrupt)?;
                    let crc = u32::try_from(crc).map_err(|_| corrupt())?;
                    for (_, f) in &mut edit.added {
                        if f.number == number {
                            f.file_crc = Some(crc);
                        }
                    }
                }
                TAG_WAL_CRC => {
                    let number = get_varint64(data, &mut off).ok_or_else(corrupt)?;
                    let crc = get_varint64(data, &mut off).ok_or_else(corrupt)?;
                    edit.wal_crcs
                        .push((number, u32::try_from(crc).map_err(|_| corrupt())?));
                }
                _ => return Err(corrupt()),
            }
        }
        Ok(edit)
    }
}

/// Applies `edit` to `base`, producing the next version.
pub fn apply_edit(base: &Version, edit: &VersionEdit) -> Version {
    let mut levels: Vec<Vec<Arc<FileMetaData>>> = base.levels.clone();
    for (level, number) in &edit.deleted {
        levels[*level].retain(|f| f.number != *number);
    }
    for (level, meta) in &edit.added {
        levels[*level].push(Arc::new(meta.clone()));
    }
    // Restore level ordering invariants.
    levels[0].sort_by_key(|f| std::cmp::Reverse(f.number)); // newest first
    for level in levels.iter_mut().skip(1) {
        level.sort_by(|a, b| compare_internal(&a.smallest, &b.smallest));
        debug_assert!(
            level
                .windows(2)
                .all(|w| compare_internal(&w[0].largest, &w[1].smallest) == CmpOrdering::Less),
            "level files must be disjoint"
        );
    }
    Version { levels }
}

/// Owns the current [`Version`], the manifest log, and the id/sequence
/// counters.
pub struct VersionSet {
    fs: Arc<SimFs>,
    db_path: String,
    current: parking_lot::Mutex<Arc<Version>>,
    live: parking_lot::Mutex<Vec<Weak<Version>>>,
    manifest: parking_lot::Mutex<FileHandle>,
    next_file: AtomicU64,
    /// Highest sequence number *visible to readers*. Trails
    /// `next_sequence` while a write group is between reserving its range
    /// and the end of its memtable stage.
    last_sequence: AtomicU64,
    /// Sequence allocator (highest sequence ever handed out).
    next_sequence: AtomicU64,
    log_number: AtomicU64,
    /// Whole-file CRCs of sealed WAL segments still at or above the WAL
    /// low-watermark, keyed by log number. Pruned as `log_number` advances.
    wal_crcs: parking_lot::Mutex<std::collections::BTreeMap<u64, u32>>,
}

impl fmt::Debug for VersionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VersionSet")
            .field("next_file", &self.next_file.load(Ordering::Relaxed))
            .field("last_sequence", &self.last_sequence.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl VersionSet {
    /// Creates a fresh database layout (empty manifest + CURRENT).
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn create_new(fs: Arc<SimFs>, db_path: &str) -> DbResult<VersionSet> {
        let manifest = fs.create(&filenames::manifest_file_name(db_path))?;
        filenames::write_current(&fs, db_path)?;
        let vs = VersionSet {
            fs,
            db_path: db_path.to_owned(),
            current: parking_lot::Mutex::new(Arc::new(Version::empty(NUM_LEVELS))),
            live: parking_lot::Mutex::new(Vec::new()),
            manifest: parking_lot::Mutex::new(manifest),
            next_file: AtomicU64::new(1),
            last_sequence: AtomicU64::new(0),
            next_sequence: AtomicU64::new(0),
            log_number: AtomicU64::new(0),
            wal_crcs: parking_lot::Mutex::new(std::collections::BTreeMap::new()),
        };
        Ok(vs)
    }

    /// Recovers the version state from an existing manifest.
    ///
    /// # Errors
    ///
    /// [`DbError::Corruption`] if the manifest is malformed, filesystem
    /// errors otherwise.
    pub fn recover(fs: Arc<SimFs>, db_path: &str) -> DbResult<VersionSet> {
        let mpath = filenames::read_current(&fs, db_path)?;
        let records = wal::read_wal(&fs, &mpath)?;
        let mut version = Version::empty(NUM_LEVELS);
        let mut next_file = 1u64;
        let mut last_seq = 0u64;
        let mut log_number = 0u64;
        let mut wal_crcs = std::collections::BTreeMap::new();
        for rec in records {
            let edit = VersionEdit::decode(&rec)?;
            if let Some(v) = edit.next_file_number {
                next_file = next_file.max(v);
            }
            if let Some(v) = edit.last_sequence {
                last_seq = last_seq.max(v);
            }
            if let Some(v) = edit.log_number {
                log_number = log_number.max(v);
            }
            wal_crcs.extend(edit.wal_crcs.iter().copied());
            version = apply_edit(&version, &edit);
        }
        wal_crcs.retain(|n, _| *n >= log_number);
        let manifest = fs.open(&mpath)?;
        Ok(VersionSet {
            fs,
            db_path: db_path.to_owned(),
            current: parking_lot::Mutex::new(Arc::new(version)),
            live: parking_lot::Mutex::new(Vec::new()),
            manifest: parking_lot::Mutex::new(manifest),
            next_file: AtomicU64::new(next_file),
            last_sequence: AtomicU64::new(last_seq),
            next_sequence: AtomicU64::new(last_seq),
            log_number: AtomicU64::new(log_number),
            wal_crcs: parking_lot::Mutex::new(wal_crcs),
        })
    }

    /// The current version (cheap Arc clone).
    pub fn current(&self) -> Arc<Version> {
        Arc::clone(&self.current.lock())
    }

    /// Allocates a fresh file number.
    pub fn new_file_number(&self) -> u64 {
        let number = self.next_file.load(Ordering::Relaxed);
        xlsm_sim::sync::add(&self.next_file, 1);
        number
    }

    /// Advances the allocator past `number`. A crash can leave files on
    /// disk whose numbers the recovered MANIFEST never durably claimed
    /// (the output of an uninstalled flush, a WAL whose counter edit died
    /// with the power); open re-claims every number it sees so fresh
    /// allocations cannot collide with the leftovers.
    pub fn mark_file_number_used(&self, number: u64) {
        xlsm_sim::sync::max(&self.next_file, number + 1);
    }

    /// Last *published* (reader-visible) sequence number.
    pub fn last_sequence(&self) -> u64 {
        self.last_sequence.load(Ordering::Relaxed)
    }

    /// Advances the sequence allocator by `n` *without* publishing,
    /// returning the first sequence of the range. The caller publishes via
    /// [`VersionSet::publish_sequence`] once the whole group is applied, so
    /// readers never snapshot into a half-applied write group.
    pub fn reserve_sequences(&self, n: u64) -> u64 {
        let first = self.next_sequence.load(Ordering::Relaxed) + 1;
        xlsm_sim::sync::add(&self.next_sequence, n);
        first
    }

    /// Makes every sequence up to `seq` visible to readers (monotonic).
    pub fn publish_sequence(&self, seq: u64) {
        xlsm_sim::sync::max(&self.last_sequence, seq);
    }

    /// WAL low-watermark.
    pub fn log_number(&self) -> u64 {
        self.log_number.load(Ordering::Relaxed)
    }

    /// Recorded whole-file CRC for sealed WAL `number`, if any. The active
    /// (still-appending) WAL never has one.
    pub fn wal_crc(&self, number: u64) -> Option<u32> {
        self.wal_crcs.lock().get(&number).copied()
    }

    /// All recorded `(log number, crc)` pairs, ascending.
    pub fn recorded_wal_crcs(&self) -> Vec<(u64, u32)> {
        self.wal_crcs.lock().iter().map(|(n, c)| (*n, *c)).collect()
    }

    /// Database path.
    pub fn db_path(&self) -> &str {
        &self.db_path
    }

    /// Persists `edit` to the manifest (durably — appended and fsynced, as
    /// RocksDB does by default for version edits) and installs the
    /// resulting version as current. Returns the new version.
    ///
    /// The sync is what makes the crash contract hold: a flush syncs its
    /// SST, then this records it durably, and only then may the covered
    /// WAL be deleted — so a power cut can never lose an acknowledged,
    /// synced write.
    ///
    /// # Errors
    ///
    /// Filesystem errors while appending or syncing the manifest record.
    /// After an error the on-disk manifest state is unknown; callers must
    /// treat the failure as non-retryable.
    pub fn log_and_apply(&self, mut edit: VersionEdit) -> DbResult<Arc<Version>> {
        edit.next_file_number = Some(self.next_file.load(Ordering::Relaxed));
        edit.last_sequence = Some(self.last_sequence());
        if let Some(v) = edit.log_number {
            xlsm_sim::sync::max(&self.log_number, v);
        }
        let payload = edit.encode();
        // Clone the handle out of the lock: append/sync block in sim time,
        // and callers are already serialized by the install lock.
        let manifest = self.manifest.lock().clone();
        let rec = wal::frame_record(&payload);
        manifest.append(&rec)?;
        manifest.sync()?;
        let new_version = {
            let mut cur = self.current.lock();
            let next = Arc::new(apply_edit(&cur, &edit));
            *cur = Arc::clone(&next);
            next
        };
        {
            let mut crcs = self.wal_crcs.lock();
            crcs.extend(edit.wal_crcs.iter().copied());
            let floor = self.log_number.load(Ordering::Relaxed);
            crcs.retain(|n, _| *n >= floor);
        }
        self.live.lock().push(Arc::downgrade(&new_version));
        Ok(new_version)
    }

    /// File numbers referenced by any still-alive version (pinned by
    /// iterators or the current pointer).
    pub fn live_files(&self) -> HashSet<u64> {
        let mut live = HashSet::new();
        let collect = |v: &Version, set: &mut HashSet<u64>| {
            for level in &v.levels {
                for f in level {
                    set.insert(f.number);
                }
            }
        };
        collect(&self.current(), &mut live);
        let mut weaks = self.live.lock();
        weaks.retain(|w| {
            if let Some(v) = w.upgrade() {
                collect(&v, &mut live);
                true
            } else {
                false
            }
        });
        live
    }

    /// The filesystem this version set lives on.
    pub fn fs(&self) -> &Arc<SimFs> {
        &self.fs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{make_internal_key, ValueType};
    use xlsm_device::{profiles, SimDevice};
    use xlsm_sim::Runtime;
    use xlsm_simfs::FsOptions;

    fn meta(number: u64, lo: &[u8], hi: &[u8]) -> FileMetaData {
        FileMetaData {
            number,
            file_size: 1000,
            smallest: make_internal_key(lo, 1, ValueType::Value),
            largest: make_internal_key(hi, 1, ValueType::Value),
            num_entries: 10,
            file_crc: Some(0xdead_beef ^ number as u32),
        }
    }

    #[test]
    fn edit_encode_decode_roundtrip() {
        let edit = VersionEdit {
            log_number: Some(5),
            next_file_number: Some(17),
            last_sequence: Some(12345),
            added: vec![(0, meta(7, b"a", b"m")), (2, meta(8, b"n", b"z"))],
            deleted: vec![(1, 3)],
            wal_crcs: vec![(4, 0x1234_5678), (6, 42)],
        };
        let decoded = VersionEdit::decode(&edit.encode()).unwrap();
        assert_eq!(decoded, edit);
    }

    #[test]
    fn edit_without_crcs_roundtrips_as_none() {
        // Old-manifest compatibility: an ADD with no TAG_FILE_CRC decodes
        // with `file_crc: None`.
        let mut m = meta(7, b"a", b"m");
        m.file_crc = None;
        let edit = VersionEdit {
            added: vec![(0, m)],
            ..VersionEdit::default()
        };
        let decoded = VersionEdit::decode(&edit.encode()).unwrap();
        assert_eq!(decoded, edit);
        assert_eq!(decoded.added[0].1.file_crc, None);
    }

    #[test]
    fn decode_garbage_fails() {
        assert!(VersionEdit::decode(&[200, 200, 200]).is_err());
        // An add-file record whose `smallest` claims to be u64::MAX long.
        let mut huge = vec![TAG_ADD as u8, 0, 1, 1, 1];
        put_varint64(&mut huge, u64::MAX);
        assert!(VersionEdit::decode(&huge).is_err());
    }

    #[test]
    fn apply_edit_maintains_order() {
        let v0 = Version::empty(7);
        let mut e = VersionEdit::default();
        e.added.push((0, meta(3, b"a", b"z")));
        e.added.push((0, meta(5, b"a", b"z")));
        e.added.push((1, meta(10, b"m", b"p")));
        e.added.push((1, meta(9, b"a", b"c")));
        let v1 = apply_edit(&v0, &e);
        // L0 newest first.
        assert_eq!(v1.levels[0][0].number, 5);
        assert_eq!(v1.levels[0][1].number, 3);
        // L1 sorted by smallest.
        assert_eq!(v1.levels[1][0].number, 9);
        assert_eq!(v1.levels[1][1].number, 10);
        // Delete.
        let mut e2 = VersionEdit::default();
        e2.deleted.push((0, 3));
        let v2 = apply_edit(&v1, &e2);
        assert_eq!(v2.num_l0_files(), 1);
    }

    #[test]
    fn overlap_and_lookup_queries() {
        let v0 = Version::empty(7);
        let mut e = VersionEdit::default();
        e.added.push((1, meta(1, b"a", b"c")));
        e.added.push((1, meta(2, b"f", b"h")));
        e.added.push((1, meta(3, b"m", b"p")));
        let v = apply_edit(&v0, &e);
        assert_eq!(v.overlapping(1, b"b", b"g").len(), 2);
        assert_eq!(v.overlapping(1, b"i", b"l").len(), 0);
        assert_eq!(v.file_for_key(1, b"g").unwrap().number, 2);
        assert!(v.file_for_key(1, b"z").is_none());
        assert!(v.file_for_key(1, b"e").is_none());
    }

    #[test]
    fn compaction_score_prioritizes() {
        let opts = DbOptions::default();
        let v0 = Version::empty(7);
        // 8 L0 files → score 2.0 with trigger 4.
        let mut e = VersionEdit::default();
        for i in 0..8 {
            e.added.push((0, meta(i + 1, b"a", b"z")));
        }
        let v = apply_edit(&v0, &e);
        let trigger = opts.level0_file_num_compaction_trigger;
        let (level, score) = v.compaction_score(&opts, trigger);
        assert_eq!(level, 0);
        assert!((score - 2.0).abs() < 1e-9);
        assert!(v.pending_compaction_bytes(&opts, trigger) > 0);
    }

    #[test]
    fn version_set_persist_and_recover() {
        Runtime::new().run(|| {
            let fs = SimFs::new(
                SimDevice::shared(profiles::optane_900p()),
                FsOptions::default(),
            );
            let vs = VersionSet::create_new(Arc::clone(&fs), "db").unwrap();
            let n1 = vs.new_file_number();
            let mut e = VersionEdit::default();
            e.added.push((0, meta(n1, b"a", b"k")));
            e.log_number = Some(9);
            // One sealed-WAL CRC below the new low-watermark (pruned) and
            // one above it (kept).
            e.wal_crcs = vec![(5, 111), (9, 222)];
            vs.log_and_apply(e).unwrap();
            vs.reserve_sequences(500);
            vs.publish_sequence(500);
            let mut e2 = VersionEdit::default();
            e2.added.push((1, meta(vs.new_file_number(), b"l", b"z")));
            vs.log_and_apply(e2).unwrap();

            let vs2 = VersionSet::recover(Arc::clone(&fs), "db").unwrap();
            let v = vs2.current();
            assert_eq!(v.num_l0_files(), 1);
            assert_eq!(v.levels[1].len(), 1);
            assert_eq!(vs2.log_number(), 9);
            assert!(vs2.next_file.load(Ordering::Relaxed) >= 3);
            // Sequence survives through the second edit's stamp.
            assert_eq!(vs2.last_sequence(), 500);
            // File CRCs survive the manifest roundtrip on the metadata.
            assert_eq!(v.levels[0][0].file_crc, meta(n1, b"a", b"k").file_crc);
            // WAL CRCs below the low-watermark are pruned on recovery.
            assert_eq!(vs2.wal_crc(9), Some(222));
            assert_eq!(vs2.wal_crc(5), None);
            assert_eq!(vs2.recorded_wal_crcs(), vec![(9, 222)]);
        });
    }

    #[test]
    fn live_files_tracks_pinned_versions() {
        Runtime::new().run(|| {
            let fs = SimFs::new(
                SimDevice::shared(profiles::optane_900p()),
                FsOptions::default(),
            );
            let vs = VersionSet::create_new(fs, "db").unwrap();
            let mut e = VersionEdit::default();
            e.added.push((0, meta(1, b"a", b"z")));
            vs.log_and_apply(e).unwrap();
            let pinned = vs.current(); // hold the version containing file 1
            let mut e2 = VersionEdit::default();
            e2.deleted.push((0, 1));
            e2.added.push((1, meta(2, b"a", b"z")));
            vs.log_and_apply(e2).unwrap();
            let live = vs.live_files();
            assert!(live.contains(&1), "pinned version keeps file 1 live");
            assert!(live.contains(&2));
            drop(pinned);
            let live2 = vs.live_files();
            assert!(!live2.contains(&1), "unpinned file 1 becomes obsolete");
        });
    }

    /// The one file at a disjoint `level` that may hold `key`, by a scan of
    /// every file.
    fn file_for_key_by_scan(v: &Version, level: usize, key: &[u8]) -> Option<u64> {
        let mut files = v.levels[level].iter();
        files
            .find(|f| f.may_contain_user_key(key))
            .map(|f| f.number)
    }

    /// `probe_groups`, with every deeper level scanned file by file.
    fn probe_groups_by_scan(v: &Version, keys: &[(usize, &[u8])]) -> Vec<(usize, u64, Vec<usize>)> {
        let mut groups = Vec::new();
        for f in &v.levels[0] {
            let slots: Vec<usize> = keys
                .iter()
                .filter(|(_, k)| f.may_contain_user_key(k))
                .map(|(slot, _)| *slot)
                .collect();
            if !slots.is_empty() {
                groups.push((0, f.number, slots));
            }
        }
        for level in 1..v.levels.len() {
            for f in &v.levels[level] {
                let slots: Vec<usize> = keys
                    .iter()
                    .filter(|(_, k)| f.may_contain_user_key(k))
                    .map(|(slot, _)| *slot)
                    .collect();
                if !slots.is_empty() {
                    groups.push((level, f.number, slots));
                }
            }
        }
        groups
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The binary searches answer like a scan of every file:
        /// `file_for_key` on every deeper level and `probe_groups`, over
        /// random disjoint levels (bounds drawn from one sorted key set, so a
        /// file may be a single key) and overlapping Level-0 files, at every
        /// bound, in every gap, and past both ends.
        #[test]
        fn level_lookups_answer_like_a_scan_of_every_file(
            cuts in proptest::prelude::prop::collection::btree_set(proptest::prelude::prop::collection::vec(1u8..6, 1..4), 2..40),
            spans in proptest::prelude::prop::collection::vec((0usize..3, 1usize..3), 1..12),
            l0 in proptest::prelude::prop::collection::vec((0usize..40, 0usize..40), 0..5),
        ) {
            let cuts: Vec<Vec<u8>> = cuts.into_iter().collect();
            let mut edit = VersionEdit::default();
            let mut number = 1;
            // Levels 1..: consecutive files over disjoint runs of `cuts`.
            let (mut at, mut level) = (0usize, 1usize);
            for (gap, len) in spans {
                let lo = at + gap;
                let hi = lo + len - 1;
                if hi >= cuts.len() {
                    level += 1;
                    at = 0;
                    continue;
                }
                edit.added.push((level.min(NUM_LEVELS - 1), meta(number, &cuts[lo], &cuts[hi])));
                number += 1;
                at = hi + 1;
            }
            for (a, b) in l0 {
                let (lo, hi) = (a.min(b) % cuts.len(), a.max(b) % cuts.len());
                edit.added.push((0, meta(number, &cuts[lo.min(hi)], &cuts[hi])));
                number += 1;
            }
            // Restarting a level at the front could overlap its earlier
            // files; keep only levels whose files are disjoint.
            edit.added.sort_by_key(|(level, f)| (*level, f.smallest.clone()));
            let mut kept: Vec<(usize, FileMetaData)> = Vec::new();
            for (level, f) in edit.added.drain(..) {
                let overlaps = kept.last().is_some_and(|(l, last)| {
                    level > 0 && *l == level && user_key(&last.largest) >= user_key(&f.smallest)
                });
                if !overlaps {
                    kept.push((level, f));
                }
            }
            edit.added = kept;
            let v = apply_edit(&Version::empty(NUM_LEVELS), &edit);
            // Every bound, a key in each gap, and keys before and past all.
            let mut probes: Vec<Vec<u8>> = vec![Vec::new(), vec![0], vec![9; 5]];
            for c in &cuts {
                probes.push(c.clone());
                probes.push([&c[..], &[0]].concat());
                probes.push([&c[..], &[9]].concat());
            }
            for key in &probes {
                for level in 1..NUM_LEVELS {
                    proptest::prop_assert_eq!(
                        v.file_for_key(level, key).map(|f| f.number),
                        file_for_key_by_scan(&v, level, key)
                    );
                }
            }
            let keys: Vec<(usize, &[u8])> = probes.iter().map(|k| &k[..]).enumerate().collect();
            let groups: Vec<(usize, u64, Vec<usize>)> = v
                .probe_groups(&keys)
                .into_iter()
                .map(|(level, f, slots)| (level, f.number, slots))
                .collect();
            proptest::prop_assert_eq!(groups, probe_groups_by_scan(&v, &keys));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// MANIFEST mirror of the WAL torn-tail contract: a manifest
        /// truncated at ANY byte offset recovers exactly the version edits
        /// that fit wholly before the cut, and recovery never errors.
        #[test]
        fn manifest_torn_tail_recovers_intact_prefix(
            n_edits in 1usize..12,
            cut_frac in 0u64..10_001u64,
        ) {
            Runtime::new().run(move || {
                let fs = SimFs::new(
                    SimDevice::shared(profiles::optane_900p()),
                    FsOptions::default(),
                );
                let vs = VersionSet::create_new(Arc::clone(&fs), "db").unwrap();
                let mfile = fs.open("db/MANIFEST").unwrap();
                let mut ends = Vec::new(); // manifest size after each edit
                for i in 0..n_edits {
                    let mut e = VersionEdit::default();
                    let key = format!("k{i:03}");
                    e.added.push((0, meta(vs.new_file_number(), key.as_bytes(), b"z")));
                    vs.log_and_apply(e).unwrap();
                    ends.push(mfile.len());
                }
                let total = mfile.len();
                let cut = total * cut_frac / 10_000;
                let prefix = mfile.read_at(0, cut as usize).unwrap();
                let torn = fs.create("db2/MANIFEST").unwrap();
                if !prefix.is_empty() {
                    torn.append(&prefix).unwrap();
                }
                let cur2 = fs.create("db2/CURRENT").unwrap();
                cur2.append(b"MANIFEST").unwrap();
                let vs2 = VersionSet::recover(Arc::clone(&fs), "db2")
                    .expect("a torn manifest tail must never fail recovery");
                let intact = ends.iter().filter(|e| **e <= cut).count();
                assert_eq!(
                    vs2.current().num_l0_files(),
                    intact,
                    "cut={cut} of {total} must keep exactly {intact} edits"
                );
                fs.delete("db2/MANIFEST").unwrap();
                fs.delete("db2/CURRENT").unwrap();
                fs.delete("db/MANIFEST").unwrap();
                fs.delete("db/CURRENT").unwrap();
            });
        }
    }
}
