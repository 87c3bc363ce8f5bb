//! The table cache: open [`TableReader`]s kept in one LRU, plus the shared
//! decoded-block cache they read through.

use crate::cache::{BlockCache, Lru};
use crate::costs;
use crate::error::DbResult;
use crate::filenames::sst_file_name;
use crate::integrity;
use crate::sst::TableReader;
use crate::version::FileMetaData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xlsm_sim::Class;
use xlsm_simfs::SimFs;

/// Caches open [`TableReader`]s (bounded by `max_open_files`, LRU) and owns
/// the shared block cache. Every lookup charges
/// [`costs::TABLE_CACHE_FIND_NS`] of CPU and none waits for another: a
/// modelled lock around 350 ns next to a ~25 µs table probe measured
/// 1.000–1.013× (EXPERIMENTS.md, "read-path raw speed").
pub struct TableCache {
    fs: Arc<SimFs>,
    db_path: String,
    block_cache: Arc<BlockCache>,
    readers: parking_lot::Mutex<Lru<u64, Arc<TableReader>>>,
    /// Maximum cached readers (`0` = unbounded).
    max_open_files: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Verify the whole-file CRC recorded in the manifest on every
    /// cache-miss open (`DbOptions::paranoid_file_checks`).
    paranoid_file_checks: bool,
}

impl std::fmt::Debug for TableCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableCache")
            .field("open_tables", &self.open_readers())
            .finish_non_exhaustive()
    }
}

impl TableCache {
    /// Creates a table cache over `fs` with a block cache of
    /// `block_cache_capacity` bytes, keeping at most `max_open_files`
    /// readers open (`0` = unbounded). With `paranoid_file_checks`, every
    /// cache-miss open re-reads the whole file and verifies it against the
    /// manifest-recorded CRC.
    pub fn new(
        fs: Arc<SimFs>,
        db_path: &str,
        block_cache_capacity: usize,
        max_open_files: usize,
        paranoid_file_checks: bool,
    ) -> Arc<TableCache> {
        Arc::new(TableCache {
            fs,
            db_path: db_path.to_owned(),
            block_cache: BlockCache::new(block_cache_capacity),
            readers: parking_lot::Mutex::new(Lru::new()),
            max_open_files,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            paranoid_file_checks,
        })
    }

    /// Runs `f` on the reader map, charging one lookup of CPU first.
    fn lookup<T>(&self, f: impl FnOnce(&mut Lru<u64, Arc<TableReader>>) -> T) -> T {
        xlsm_sim::charge(Class::TableCacheFind, costs::TABLE_CACHE_FIND_NS);
        f(&mut self.readers.lock())
    }

    /// Opens (or returns the cached) reader for `meta`.
    ///
    /// # Errors
    ///
    /// Filesystem or corruption errors from opening the table.
    pub fn reader(&self, meta: &Arc<FileMetaData>) -> DbResult<Arc<TableReader>> {
        if let Some(r) = self.lookup(|lru| lru.touch(&meta.number)) {
            xlsm_sim::sync::add(&self.hits, 1);
            return Ok(r);
        }
        xlsm_sim::sync::add(&self.misses, 1);
        let path = sst_file_name(&self.db_path, meta.number);
        let file = self.fs.open(&path)?;
        if let Some(expected) = meta.file_crc.filter(|_| self.paranoid_file_checks) {
            let actual = integrity::file_crc32c(&file, &mut |_| {})?;
            if actual != expected {
                return Err(integrity::file_crc_mismatch(path, expected, actual));
            }
        }
        let reader = Arc::new(TableReader::open(
            file,
            meta.number,
            Arc::clone(&self.block_cache),
        )?);
        Ok(self.lookup(|lru| {
            // A racing open may have beaten us here; keep the first reader,
            // but refresh its recency either way.
            let out = lru.touch(&meta.number).unwrap_or_else(|| {
                lru.insert(meta.number, Arc::clone(&reader));
                reader
            });
            while self.max_open_files > 0 && lru.len() > self.max_open_files {
                if lru.pop_lru().is_none() {
                    break;
                }
            }
            out
        }))
    }

    /// Currently cached open readers.
    pub fn open_readers(&self) -> usize {
        self.readers.lock().len()
    }

    /// Lifetime `(hits, misses)` of reader lookups.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Drops cached state for a deleted file.
    pub fn evict(&self, number: u64) {
        self.readers.lock().remove(&number);
        self.block_cache.remove_file(number);
    }
}

#[cfg(test)]
mod tests {
    use crate::db::tests::{open_db, small_opts};
    use crate::DbOptions;
    use xlsm_sim::Runtime;

    #[test]
    fn table_cache_bounded_by_max_open_files() {
        Runtime::new().run(|| {
            let opts = DbOptions {
                max_open_files: 16,
                ..small_opts()
            };
            let (db, _fs) = open_db(opts);
            let value = vec![b'v'; 512];
            for i in 0..4000u32 {
                db.put(format!("key{i:06}").as_bytes(), &value).unwrap();
            }
            db.flush().unwrap();
            db.wait_for_compactions();
            assert!(
                db.shape().files_per_level.iter().sum::<usize>() > 16,
                "need more live SSTs than the cap for the test to bite"
            );
            // Touch every file's key range; the cache must stay at the cap.
            for i in (0..4000u32).step_by(7) {
                assert_eq!(
                    db.get(format!("key{i:06}").as_bytes()).unwrap(),
                    Some(value.clone())
                );
            }
            assert!(
                db.open_table_readers() <= 16,
                "table cache holds {} readers, cap is 16",
                db.open_table_readers()
            );
            db.close();
        });
    }
}
