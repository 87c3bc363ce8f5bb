//! Internal iterators: the merging machinery behind scans and compaction.

use crate::error::DbResult;
use crate::sst::TableIterator;
use crate::stats::DbStats;
use crate::table_cache::TableCache;
use crate::types::{self, compare_internal, SequenceNumber, ValueType};
use crate::version::{FileMetaData, Version};
use std::cmp::Ordering;
use std::sync::Arc;

/// A cursor over internal `(key, value)` entries in internal-key order — the
/// one cursor API: memtables, tables, levels and merges all implement it and
/// nothing else.
///
/// All movement methods return whether the iterator is positioned on a valid
/// entry afterwards; I/O-backed implementations surface read errors. The
/// cursor lends its entry: a key or value borrowed from a cursor is valid
/// until the cursor moves, so a caller that needs it longer copies it.
pub trait InternalIterator: Send {
    /// Positions at the first entry.
    ///
    /// # Errors
    ///
    /// Underlying read failures.
    fn seek_to_first(&mut self) -> DbResult<bool>;
    /// Positions at the first entry with internal key ≥ `ikey`.
    ///
    /// # Errors
    ///
    /// Underlying read failures.
    fn seek(&mut self, ikey: &[u8]) -> DbResult<bool>;
    /// Advances one entry.
    ///
    /// # Errors
    ///
    /// Underlying read failures.
    fn next(&mut self) -> DbResult<bool>;
    /// Whether positioned on an entry.
    fn valid(&self) -> bool;
    /// Current internal key (only when valid).
    fn key(&self) -> &[u8];
    /// Current value (only when valid).
    fn value(&self) -> &[u8];
}

/// Concatenating iterator over the disjoint, sorted files of one level ≥ 1.
pub struct LevelIterator {
    files: Vec<Arc<FileMetaData>>,
    cache: Arc<TableCache>,
    stats: Arc<DbStats>,
    file_idx: usize,
    cur: Option<TableIterator>,
    readahead: bool,
}

impl std::fmt::Debug for LevelIterator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LevelIterator")
            .field("files", &self.files.len())
            .field("file_idx", &self.file_idx)
            .finish()
    }
}

impl LevelIterator {
    /// Creates an iterator over `files` (must be sorted and disjoint);
    /// `readahead` asks for sequential readahead on each file (the
    /// compaction access pattern).
    pub fn new(
        files: Vec<Arc<FileMetaData>>,
        cache: Arc<TableCache>,
        stats: Arc<DbStats>,
        readahead: bool,
    ) -> LevelIterator {
        LevelIterator {
            files,
            cache,
            stats,
            file_idx: 0,
            cur: None,
            readahead,
        }
    }

    /// Makes file `idx` the current one and positions its iterator with
    /// `position`; past the last file the level is exhausted.
    fn open_file(
        &mut self,
        idx: usize,
        position: impl FnOnce(&mut TableIterator) -> DbResult<bool>,
    ) -> DbResult<bool> {
        self.cur = None;
        let Some(file) = self.files.get(idx) else {
            return Ok(false);
        };
        self.file_idx = idx;
        let mut it = self
            .cache
            .reader(file)?
            .iter(Arc::clone(&self.stats), self.readahead);
        let ok = position(&mut it)?;
        self.cur = Some(it);
        Ok(ok)
    }
}

impl InternalIterator for LevelIterator {
    fn seek_to_first(&mut self) -> DbResult<bool> {
        self.open_file(0, TableIterator::seek_to_first)
    }

    fn seek(&mut self, ikey: &[u8]) -> DbResult<bool> {
        // Find the first file whose largest ≥ ikey.
        let idx = self
            .files
            .partition_point(|f| compare_internal(&f.largest, ikey) == Ordering::Less);
        if self.open_file(idx, |it| it.seek(ikey))? {
            return Ok(true);
        }
        // ikey is past this file (between files): start of the next one.
        self.open_file(idx + 1, TableIterator::seek_to_first)
    }

    fn next(&mut self) -> DbResult<bool> {
        let Some(cur) = &mut self.cur else {
            return Ok(false);
        };
        if cur.next()? {
            return Ok(true);
        }
        self.open_file(self.file_idx + 1, TableIterator::seek_to_first)
    }

    fn valid(&self) -> bool {
        self.cur.as_ref().is_some_and(|c| c.valid())
    }

    fn key(&self) -> &[u8] {
        self.cur.as_ref().unwrap().key()
    }

    fn value(&self) -> &[u8] {
        self.cur.as_ref().unwrap().value()
    }
}

/// K-way merge over child iterators.
///
/// Children should be ordered newest-first; on exact internal-key ties the
/// lower-index child wins (ties cannot happen for distinct sequence
/// numbers, so this is a safety property, not a correctness crutch).
pub struct MergingIterator {
    children: Vec<Box<dyn InternalIterator>>,
    current: Option<usize>,
}

impl std::fmt::Debug for MergingIterator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MergingIterator")
            .field("children", &self.children.len())
            .field("current", &self.current)
            .finish()
    }
}

impl MergingIterator {
    /// Merges `children`.
    pub fn new(children: Vec<Box<dyn InternalIterator>>) -> MergingIterator {
        MergingIterator {
            children,
            current: None,
        }
    }

    fn pick_smallest(&mut self) {
        let mut best: Option<(usize, &[u8])> = None;
        for (i, c) in self.children.iter().enumerate() {
            if c.valid()
                && best.is_none_or(|(_, bk)| compare_internal(c.key(), bk) == Ordering::Less)
            {
                best = Some((i, c.key()));
            }
        }
        self.current = best.map(|(i, _)| i);
    }
}

impl InternalIterator for MergingIterator {
    fn seek_to_first(&mut self) -> DbResult<bool> {
        for c in &mut self.children {
            c.seek_to_first()?;
        }
        self.pick_smallest();
        Ok(self.valid())
    }

    fn seek(&mut self, ikey: &[u8]) -> DbResult<bool> {
        for c in &mut self.children {
            c.seek(ikey)?;
        }
        self.pick_smallest();
        Ok(self.valid())
    }

    fn next(&mut self) -> DbResult<bool> {
        if let Some(i) = self.current {
            self.children[i].next()?;
            self.pick_smallest();
        }
        Ok(self.valid())
    }

    fn valid(&self) -> bool {
        self.current.is_some()
    }

    fn key(&self) -> &[u8] {
        self.children[self.current.unwrap()].key()
    }

    fn value(&self) -> &[u8] {
        self.children[self.current.unwrap()].value()
    }
}

/// User-facing scan cursor, returned by [`crate::Db::scan`] and
/// [`crate::Db::scan_prefix`]: resolves versions and tombstones at a
/// snapshot.
pub struct DbScanner {
    inner: MergingIterator,
    snapshot: SequenceNumber,
    /// Current user-visible entry.
    entry: Option<(Vec<u8>, Vec<u8>)>,
    /// The version the table children read from, held alive so compaction
    /// cannot delete the files underneath the cursor.
    pub(crate) version: Option<Arc<Version>>,
    /// Exclusive user-key upper bound (`None` = unbounded); set by
    /// [`crate::Db::scan_prefix`] so the cursor ends exactly where the
    /// prefix does.
    pub(crate) upper_bound: Option<Vec<u8>>,
}

impl std::fmt::Debug for DbScanner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbScanner")
            .field("snapshot", &self.snapshot)
            .field("valid", &self.valid())
            .finish()
    }
}

impl DbScanner {
    /// Wraps a merged internal iterator at `snapshot`, unbounded and
    /// pinning no version.
    pub fn new(inner: MergingIterator, snapshot: SequenceNumber) -> DbScanner {
        DbScanner {
            inner,
            snapshot,
            entry: None,
            version: None,
            upper_bound: None,
        }
    }

    /// Finds the next visible user entry at/after the inner position,
    /// skipping newer-than-snapshot versions, older duplicates and
    /// tombstones.
    fn resolve_forward(&mut self, mut skip_user_key: Option<Vec<u8>>) -> DbResult<()> {
        self.entry = None;
        while self.inner.valid() {
            let (uk, seq, t) = types::parse_internal_key(self.inner.key());
            if skip_user_key.as_deref() != Some(uk) && seq <= self.snapshot {
                match t {
                    ValueType::Deletion => skip_user_key = Some(uk.to_vec()),
                    ValueType::Value => {
                        self.entry = Some((uk.to_vec(), self.inner.value().to_vec()));
                        return Ok(());
                    }
                }
            }
            self.inner.next()?;
        }
        Ok(())
    }

    /// Positions at the first visible entry.
    ///
    /// # Errors
    ///
    /// Underlying read failures.
    pub fn seek_to_first(&mut self) -> DbResult<bool> {
        self.inner.seek_to_first()?;
        self.resolve_forward(None)?;
        Ok(self.valid())
    }

    /// Positions at the first visible entry with user key ≥ `key`.
    ///
    /// # Errors
    ///
    /// Underlying read failures.
    pub fn seek(&mut self, key: &[u8]) -> DbResult<bool> {
        let lookup = types::lookup_key(key, self.snapshot);
        self.inner.seek(&lookup)?;
        self.resolve_forward(None)?;
        Ok(self.valid())
    }

    /// Advances to the next visible user key.
    ///
    /// # Errors
    ///
    /// Underlying read failures.
    #[allow(clippy::should_implement_trait)] // fallible cursor, not an Iterator
    pub fn next(&mut self) -> DbResult<bool> {
        if let Some((uk, _)) = self.entry.take() {
            self.resolve_forward(Some(uk))?;
        }
        Ok(self.valid())
    }

    /// Whether positioned on a visible entry (inside the upper bound, if
    /// any).
    pub fn valid(&self) -> bool {
        self.entry.as_ref().is_some_and(|(key, _)| {
            self.upper_bound
                .as_deref()
                .is_none_or(|upper| key.as_slice() < upper)
        })
    }

    /// Current user key.
    pub fn key(&self) -> &[u8] {
        &self.entry.as_ref().unwrap().0
    }

    /// Current value.
    pub fn value(&self) -> &[u8] {
        &self.entry.as_ref().unwrap().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::MemTable;
    use crate::types::make_internal_key;

    fn mem_iter(entries: &[(&[u8], u64, ValueType, &[u8])]) -> Box<dyn InternalIterator> {
        let m = MemTable::new(0);
        for (k, seq, t, v) in entries {
            m.add(*seq, *t, k, v);
        }
        Box::new(m.iter())
    }

    #[test]
    fn merge_two_sources_in_order() {
        let a = mem_iter(&[
            (b"a", 1, ValueType::Value, b"1"),
            (b"c", 3, ValueType::Value, b"3"),
        ]);
        let b = mem_iter(&[
            (b"b", 2, ValueType::Value, b"2"),
            (b"d", 4, ValueType::Value, b"4"),
        ]);
        let mut m = MergingIterator::new(vec![a, b]);
        assert!(m.seek_to_first().unwrap());
        let mut keys = Vec::new();
        while m.valid() {
            keys.push(types::user_key(m.key()).to_vec());
            m.next().unwrap();
        }
        assert_eq!(
            keys,
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]
        );
    }

    #[test]
    fn merge_interleaves_versions_newest_first() {
        let newer = mem_iter(&[(b"k", 9, ValueType::Value, b"new")]);
        let older = mem_iter(&[(b"k", 3, ValueType::Value, b"old")]);
        let mut m = MergingIterator::new(vec![newer, older]);
        assert!(m.seek_to_first().unwrap());
        let (_, seq, _) = types::parse_internal_key(m.key());
        assert_eq!(seq, 9);
        assert!(m.next().unwrap());
        let (_, seq2, _) = types::parse_internal_key(m.key());
        assert_eq!(seq2, 3);
    }

    #[test]
    fn merge_seek() {
        let a = mem_iter(&[
            (b"a", 1, ValueType::Value, b""),
            (b"e", 2, ValueType::Value, b""),
        ]);
        let b = mem_iter(&[(b"c", 3, ValueType::Value, b"")]);
        let mut m = MergingIterator::new(vec![a, b]);
        assert!(m
            .seek(&make_internal_key(b"b", u64::MAX >> 8, ValueType::Value))
            .unwrap());
        assert_eq!(types::user_key(m.key()), b"c");
    }

    #[test]
    fn db_iterator_resolves_versions_and_tombstones() {
        let src = mem_iter(&[
            (b"a", 1, ValueType::Value, b"a1"),
            (b"a", 5, ValueType::Value, b"a5"),
            (b"b", 2, ValueType::Value, b"b2"),
            (b"b", 6, ValueType::Deletion, b""),
            (b"c", 3, ValueType::Value, b"c3"),
        ]);
        let mut it = DbScanner::new(MergingIterator::new(vec![src]), 100);
        assert!(it.seek_to_first().unwrap());
        assert_eq!((it.key(), it.value()), (&b"a"[..], &b"a5"[..]));
        assert!(it.next().unwrap());
        assert_eq!((it.key(), it.value()), (&b"c"[..], &b"c3"[..]));
        assert!(!it.next().unwrap());
    }

    #[test]
    fn db_iterator_respects_snapshot() {
        let src = mem_iter(&[
            (b"a", 1, ValueType::Value, b"a1"),
            (b"a", 5, ValueType::Value, b"a5"),
            (b"b", 6, ValueType::Value, b"b6"),
        ]);
        let mut it = DbScanner::new(MergingIterator::new(vec![src]), 4);
        assert!(it.seek_to_first().unwrap());
        assert_eq!((it.key(), it.value()), (&b"a"[..], &b"a1"[..]));
        assert!(!it.next().unwrap(), "b@6 is invisible at snapshot 4");
    }

    #[test]
    fn db_iterator_seek_skips_deleted() {
        let src = mem_iter(&[
            (b"a", 1, ValueType::Value, b""),
            (b"b", 2, ValueType::Deletion, b""),
            (b"c", 3, ValueType::Value, b"cv"),
        ]);
        let mut it = DbScanner::new(MergingIterator::new(vec![src]), 100);
        assert!(it.seek(b"b").unwrap());
        assert_eq!(it.key(), b"c");
    }

    #[test]
    fn empty_merge_is_invalid() {
        let mut m = MergingIterator::new(vec![]);
        assert!(!m.seek_to_first().unwrap());
        assert!(!m.valid());
    }
}
