//! The table cache: open [`TableReader`]s kept in a sharded LRU, plus the
//! shared decoded-block cache they read through.

use crate::cache::{BlockCache, Lru};
use crate::costs;
use crate::error::{DbError, DbResult};
use crate::integrity;
use crate::sst::{sst_file_name, TableReader};
use crate::version::FileMetaData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xlsm_sim::sync::Semaphore;
use xlsm_simfs::SimFs;

/// The open readers of one shard, least recently used first out.
struct ReaderMap {
    lru: Lru<u64, Arc<TableReader>>,
    /// Maximum cached readers (`0` = unbounded).
    cap: usize,
}

impl ReaderMap {
    fn touch(&mut self, number: u64) -> Option<Arc<TableReader>> {
        self.lru.touch(&number)
    }

    fn insert(&mut self, number: u64, reader: Arc<TableReader>) -> Arc<TableReader> {
        // A racing open may have beaten us here; keep the first reader, but
        // refresh its recency either way.
        let out = self.lru.touch(&number).unwrap_or_else(|| {
            self.lru.insert(number, Arc::clone(&reader));
            reader
        });
        while self.cap > 0 && self.lru.len() > self.cap {
            if self.lru.pop_lru().is_none() {
                break;
            }
        }
        out
    }
}

/// One table-cache shard: its own LRU reader map plus a simulated critical
/// section. Under the cooperative virtual clock a `parking_lot` lock never
/// shows contention, so the serialized lookup cost the paper observes is
/// modeled explicitly: every lookup holds the shard's `gate` semaphore while
/// charging [`costs::TABLE_CACHE_FIND_NS`].
struct TableCacheShard {
    gate: Semaphore,
    readers: parking_lot::Mutex<ReaderMap>,
}

impl TableCacheShard {
    /// Runs `f` on the reader map inside the shard's simulated critical
    /// section, charging one lookup of CPU while the gate is held.
    fn locked<T>(&self, f: impl FnOnce(&mut ReaderMap) -> T) -> T {
        self.gate.acquire(1);
        xlsm_sim::sleep_nanos(costs::TABLE_CACHE_FIND_NS);
        let out = f(&mut self.readers.lock());
        self.gate.release(1);
        out
    }
}

/// Caches open [`TableReader`]s (bounded by `max_open_files`, LRU) and owns
/// the shared block cache. Sharded by file number so concurrent
/// `multi_get` probes do not serialize on a single lookup lock.
pub struct TableCache {
    fs: Arc<SimFs>,
    db_path: String,
    block_cache: Arc<BlockCache>,
    shards: Vec<TableCacheShard>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Verify the whole-file CRC recorded in the manifest on every
    /// cache-miss open (`DbOptions::paranoid_file_checks`).
    paranoid_file_checks: bool,
}

impl std::fmt::Debug for TableCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableCache")
            .field("shards", &self.shards.len())
            .field("open_tables", &self.open_readers())
            .finish_non_exhaustive()
    }
}

impl TableCache {
    /// Creates a table cache over `fs` with a block cache of
    /// `block_cache_capacity` bytes, keeping at most `max_open_files`
    /// readers open (`0` = unbounded) across `shards` independent shards.
    /// With `paranoid_file_checks`, every cache-miss open re-reads the
    /// whole file and verifies it against the manifest-recorded CRC.
    pub fn new(
        fs: Arc<SimFs>,
        db_path: &str,
        block_cache_capacity: usize,
        max_open_files: usize,
        shards: usize,
        paranoid_file_checks: bool,
    ) -> Arc<TableCache> {
        let shards = shards.max(1);
        // Split the open-file budget evenly; each shard keeps at least one
        // reader so a tiny budget never thrashes to zero.
        let per_shard_cap = if max_open_files == 0 {
            0
        } else {
            (max_open_files / shards).max(1)
        };
        Arc::new(TableCache {
            fs,
            db_path: db_path.to_owned(),
            block_cache: BlockCache::new(block_cache_capacity),
            shards: (0..shards)
                .map(|_| TableCacheShard {
                    gate: Semaphore::new("table-cache-shard", 1),
                    readers: parking_lot::Mutex::new(ReaderMap {
                        lru: Lru::new(),
                        cap: per_shard_cap,
                    }),
                })
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            paranoid_file_checks,
        })
    }

    fn shard_of(&self, number: u64) -> &TableCacheShard {
        // Fibonacci multiplicative hash: file numbers are sequential, so a
        // plain modulus would put consecutive L0 files in adjacent shards
        // but stripe badly once levels skip numbers.
        let mixed = number.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> 32) as usize % self.shards.len()]
    }

    /// Opens (or returns the cached) reader for `meta`.
    ///
    /// # Errors
    ///
    /// Filesystem or corruption errors from opening the table.
    pub fn reader(&self, meta: &Arc<FileMetaData>) -> DbResult<Arc<TableReader>> {
        let shard = self.shard_of(meta.number);
        if let Some(r) = shard.locked(|m| m.touch(meta.number)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(r);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Open outside the shard gate (it performs reads).
        let file = self.fs.open(&sst_file_name(&self.db_path, meta.number))?;
        if self.paranoid_file_checks {
            if let Some(expected) = meta.file_crc {
                let actual = integrity::file_crc32c(&file, &mut |_| {})?;
                if actual != expected {
                    return Err(DbError::corruption_in(
                        sst_file_name(&self.db_path, meta.number),
                        format!(
                            "whole-file checksum mismatch at open: \
                             manifest {expected:#010x}, disk {actual:#010x}"
                        ),
                    ));
                }
            }
        }
        let reader = Arc::new(TableReader::open(
            file,
            meta.number,
            Arc::clone(&self.block_cache),
        )?);
        Ok(shard.locked(|m| m.insert(meta.number, reader)))
    }

    /// Currently cached open readers.
    pub fn open_readers(&self) -> usize {
        self.shards.iter().map(|s| s.readers.lock().lru.len()).sum()
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
        self.shard_of(number).readers.lock().lru.remove(&number);
        self.block_cache.remove_file(number);
    }

    /// The shared decoded-block cache.
    pub fn block_cache(&self) -> &Arc<BlockCache> {
        &self.block_cache
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

    #[test]
    fn sharded_table_cache_speeds_up_multi_get_fanout() {
        // Identical workloads, 1 shard vs 8: results must match and the
        // sharded run must spend less virtual time in the fan-out phase.
        let run = |shards: usize| {
            let mut elapsed = 0u64;
            let mut results = Vec::new();
            let mut counters = (0, 0);
            Runtime::new().run(|| {
                let opts = DbOptions {
                    table_cache_shards: shards,
                    multi_get_parallelism: 8,
                    ..small_opts()
                };
                let (db, _fs) = open_db(opts);
                let value = vec![b'v'; 256];
                for i in 0..3000u32 {
                    db.put(format!("key{i:06}").as_bytes(), &value).unwrap();
                }
                db.flush().unwrap();
                db.wait_for_compactions();
                let t0 = xlsm_sim::now_nanos();
                for batch in 0..20u32 {
                    let keys: Vec<String> = (0..32u32)
                        .map(|i| format!("key{:06}", (batch * 151 + i * 89) % 3000))
                        .collect();
                    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
                    results.push(db.multi_get(&refs).unwrap());
                }
                elapsed = xlsm_sim::now_nanos() - t0;
                counters = db.table_cache_counters();
                db.close();
            });
            (elapsed, results, counters)
        };
        let (t1, r1, _) = run(1);
        let (t8, r8, c8) = run(8);
        assert_eq!(r1, r8, "sharding must not change read results");
        assert!(c8.0 + c8.1 > 0, "table cache counters should move");
        assert!(
            t8 < t1,
            "8 shards ({t8} ns) should beat 1 shard ({t1} ns) at fan-out 8"
        );
    }
}
