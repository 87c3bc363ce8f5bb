//! Database repair: rebuild a usable MANIFEST from surviving files alone
//! (RocksDB's `RepairDB`).
//!
//! Repair assumes nothing about the manifest — it may be torn, deleted, or
//! pointing at files that no longer exist. The rebuild works from what is
//! actually on disk:
//!
//! 1. every readable `.sst` in the database directory is scanned end to
//!    end to recover its key range, entry count, and maximum sequence
//!    number; unreadable tables are archived under `<db>/lost/`;
//! 2. every surviving `.log` is salvaged under the most tolerant lens
//!    ([`WalRecoveryMode::SkipAnyCorruptedRecords`]), its decodable
//!    batches dumped into a fresh table, and the log file archived — so a
//!    sequence gap in one log can never block data recovery behind it;
//! 3. the recovered tables are re-leveled by overlap: any table whose user
//!    key range intersects another's goes to level 0 (where overlap is
//!    legal), the disjoint remainder forms level 1;
//! 4. a fresh MANIFEST containing one edit with the full file set, the
//!    next file number, and the maximum recovered sequence is written to a
//!    temporary name, synced, and swapped in atomically; CURRENT is
//!    rewritten last.
//!
//! After repair, [`crate::Db::open`] proceeds as if the database had been
//! cleanly flushed: there are no logs left to replay, and every surviving
//! key — including keys that only ever lived in the WAL — is readable.

use crate::background::write_memtable_table;
use crate::batch::WriteBatch;
use crate::cache::BlockCache;
use crate::error::{DbError, DbResult};
use crate::filenames::{self, numbered_files, LOG, TABLE};
use crate::iterator::InternalIterator;
use crate::memtable::MemTable;
use crate::options::{DbOptions, WalRecoveryMode};
use crate::sst::TableReader;
use crate::stats::DbStats;
use crate::types::parse_internal_key;
use crate::version::{FileMetaData, VersionEdit};
use crate::wal::{frame_record, scan_wal};
use std::sync::Arc;
use xlsm_simfs::SimFs;

/// What one [`repair_db`] run salvaged and discarded.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Surviving tables re-referenced by the rebuilt manifest.
    pub ssts_recovered: usize,
    /// Unreadable tables archived to `<db>/lost/`.
    pub ssts_discarded: usize,
    /// Log files whose salvaged records were converted into new tables.
    pub logs_converted: usize,
    /// Log files archived to `<db>/lost/` (every scanned log, replayable
    /// or not — its surviving contents now live in a table).
    pub logs_archived: usize,
    /// WAL records salvaged into converted tables.
    pub wal_records_salvaged: u64,
    /// Highest sequence number found anywhere; the rebuilt manifest's
    /// sequence floor.
    pub max_sequence: u64,
    /// Tables placed at level 0 (overlapping someone).
    pub level0_files: usize,
    /// Tables placed at level 1 (mutually disjoint).
    pub level1_files: usize,
}

impl RepairReport {
    /// Total tables referenced by the rebuilt manifest.
    pub fn tables(&self) -> usize {
        self.level0_files + self.level1_files
    }
}

/// Moves `path` to `dest`, its name under `<db>/lost/`, replacing any
/// previous archive of the same name; falls back to deletion so a failed
/// rename can never leave the file where recovery would trip over it again.
fn archive_file(fs: &Arc<SimFs>, path: &str, dest: &str) {
    if fs.exists(dest) {
        let _ = fs.delete(dest);
    }
    if fs.rename(path, dest).is_err() {
        let _ = fs.delete(path);
    }
}

/// Rebuilds the MANIFEST of the database at `opts.db_path` from surviving
/// files. See the [module docs](self) for the full contract.
///
/// # Errors
///
/// Filesystem errors while scanning or while writing the fresh manifest.
/// Damaged tables and logs are salvaged or archived, never an error.
pub fn repair_db(fs: Arc<SimFs>, opts: &DbOptions) -> DbResult<RepairReport> {
    opts.validate().map_err(DbError::InvalidArgument)?;
    let db_path = &opts.db_path;
    let wal_fs = opts.wal_fs.clone().unwrap_or_else(|| Arc::clone(&fs));
    let cache = BlockCache::new(opts.block_cache_capacity);
    let scratch_stats = DbStats::shared();
    let mut report = RepairReport::default();
    let mut metas: Vec<FileMetaData> = Vec::new();
    let mut max_number = 0u64;

    // 1. Salvage surviving tables.
    for (number, path) in numbered_files(&fs, db_path, TABLE) {
        max_number = max_number.max(number);
        match read_table_meta(&fs, &path, number, &cache, &scratch_stats) {
            Ok((meta, file_max_seq)) => {
                report.max_sequence = report.max_sequence.max(file_max_seq);
                report.ssts_recovered += 1;
                metas.push(meta);
            }
            Err(e) if e.is_retryable() => return Err(e),
            Err(_) => {
                report.ssts_discarded += 1;
                let lost = filenames::lost_file_name(db_path, number, TABLE);
                archive_file(&fs, &path, &lost);
            }
        }
    }

    // 2. Salvage surviving logs into fresh tables.
    let logs = numbered_files(&wal_fs, db_path, LOG);
    for (number, _) in &logs {
        max_number = max_number.max(*number);
    }
    let mut next_file = max_number + 1;
    for (number, path) in &logs {
        let scan = scan_wal(&wal_fs, path, WalRecoveryMode::SkipAnyCorruptedRecords)?;
        let mem = MemTable::new(0);
        let mut salvaged = 0u64;
        for payload in &scan.records {
            let Ok(batch) = WriteBatch::from_data(payload) else {
                continue; // undecodable despite an intact checksum
            };
            if batch.apply_to(&mem).is_err() {
                continue;
            }
            salvaged += 1;
            report.max_sequence = report
                .max_sequence
                .max(batch.sequence() + batch.count() as u64 - 1);
        }
        if !mem.is_empty() {
            let table = next_file;
            next_file += 1;
            let table_path = filenames::sst_file_name(db_path, table);
            let props = write_memtable_table(&fs, &table_path, opts, &mem, 0)?;
            metas.push(FileMetaData::from_props(table, props));
            report.logs_converted += 1;
            report.wal_records_salvaged += salvaged;
        }
        let lost = filenames::lost_file_name(db_path, *number, LOG);
        archive_file(&wal_fs, path, &lost);
        report.logs_archived += 1;
    }

    // 3. Re-level by overlap: sort by smallest key, mark every table whose
    //    user-key range touches a neighbor's (after sorting, any overlap
    //    is with an adjacent table), and send the marked ones to L0.
    metas.sort_by(|a, b| crate::types::compare_internal(&a.smallest, &b.smallest));
    let overlaps = |a: &FileMetaData, b: &FileMetaData| {
        crate::types::user_key(&a.smallest) <= crate::types::user_key(&b.largest)
            && crate::types::user_key(&b.smallest) <= crate::types::user_key(&a.largest)
    };
    let mut edit = VersionEdit {
        next_file_number: Some(next_file),
        last_sequence: Some(report.max_sequence),
        // No logs remain to replay: everything salvageable now lives in a
        // table, so the watermark excludes every possible log number.
        log_number: Some(next_file),
        ..VersionEdit::default()
    };
    for (i, meta) in metas.iter().enumerate() {
        let clashes = (i > 0 && overlaps(&metas[i - 1], meta))
            || (i + 1 < metas.len() && overlaps(meta, &metas[i + 1]));
        let level = usize::from(!clashes);
        if clashes {
            report.level0_files += 1;
        } else {
            report.level1_files += 1;
        }
        edit.added.push((level, meta.clone()));
    }

    // 4. Write the fresh manifest to a scratch name, sync, swap, then
    //    point CURRENT at it.
    let scratch = filenames::repair_manifest_file_name(db_path);
    if fs.exists(&scratch) {
        fs.delete(&scratch)?;
    }
    let manifest = fs.create(&scratch)?;
    manifest.append(&frame_record(&edit.encode()))?;
    manifest.sync()?;
    let live = filenames::manifest_file_name(db_path);
    if fs.exists(&live) {
        fs.delete(&live)?;
    }
    fs.rename(&scratch, &live)?;
    filenames::write_current(&fs, db_path)?;
    Ok(report)
}

/// Scans one table end to end, returning its manifest metadata and the
/// highest sequence number stored in it.
fn read_table_meta(
    fs: &Arc<SimFs>,
    path: &str,
    number: u64,
    cache: &Arc<BlockCache>,
    stats: &Arc<DbStats>,
) -> DbResult<(FileMetaData, u64)> {
    let file = fs.open(path)?;
    // The old manifest — and with it the recorded whole-file CRC — is the
    // thing being repaired, so there is nothing to compare against; the
    // recomputed CRC re-seeds the rebuilt manifest's checksum record
    // instead. Damage detection comes from the block CRCs: open verifies
    // filter/index/props/footer, the full scan below every data block, so
    // a flip anywhere fails like a torn footer and archives the table.
    let file_crc = crate::integrity::file_crc32c(&file, &mut |_| {})?;
    let reader = Arc::new(TableReader::open(file, number, Arc::clone(cache))?);
    let props = reader.properties().clone();
    // The footer's smallest/largest bound the key range but not the
    // sequence range; only a full scan proves every block is readable and
    // finds the true maximum sequence.
    let mut max_seq = 0u64;
    let mut iter = reader.iter(Arc::clone(stats), false);
    let mut ok = iter.seek_to_first()?;
    while ok {
        let (_, seq, _) = parse_internal_key(iter.key());
        max_seq = max_seq.max(seq);
        ok = iter.next()?;
    }
    Ok((
        FileMetaData {
            file_crc: Some(file_crc),
            ..FileMetaData::from_props(number, props)
        },
        max_seq,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Db;
    use xlsm_device::{profiles, SimDevice};
    use xlsm_sim::Runtime;
    use xlsm_simfs::FsOptions;

    fn fs() -> Arc<SimFs> {
        SimFs::new(
            SimDevice::shared(profiles::optane_900p()),
            FsOptions::default(),
        )
    }

    fn small_opts() -> DbOptions {
        DbOptions {
            write_buffer_size: 64 << 10,
            wal_sync: true,
            ..DbOptions::default()
        }
    }

    #[test]
    fn repair_rebuilds_manifest_from_ssts_and_logs() {
        Runtime::new().run(|| {
            let fs = fs();
            let opts = small_opts();
            let db = Db::open(Arc::clone(&fs), opts.clone()).unwrap();
            for i in 0..400u32 {
                db.put(format!("key{i:05}").as_bytes(), &[b'v'; 128])
                    .unwrap();
            }
            db.delete(b"key00007").unwrap();
            db.flush().unwrap();
            for i in 400..500u32 {
                // These stay WAL-only (no flush before the "crash").
                db.put(format!("key{i:05}").as_bytes(), &[b'w'; 64])
                    .unwrap();
            }
            db.close();

            // The manifest is the casualty. (Re-opening instead of
            // repairing would silently start a fresh database — the
            // engine always creates-if-missing — and the orphan sweep
            // would then reap every surviving table, so repair is the
            // only route that keeps the data.)
            fs.delete("db/MANIFEST").unwrap();
            fs.delete("db/CURRENT").unwrap();

            let report = repair_db(Arc::clone(&fs), &opts).unwrap();
            assert!(report.tables() >= 1);
            assert!(report.logs_archived >= 1);
            assert!(report.logs_converted >= 1, "WAL-only keys need a table");
            assert!(report.max_sequence > 0);

            let db2 = Db::open(Arc::clone(&fs), opts).unwrap();
            for i in 0..500u32 {
                let key = format!("key{i:05}");
                let got = db2.get(key.as_bytes()).unwrap();
                if i == 7 {
                    assert_eq!(got, None, "tombstone must survive repair");
                } else {
                    assert!(got.is_some(), "{key} lost by repair");
                }
            }
            db2.close();
        });
    }

    #[test]
    fn repair_archives_unreadable_tables() {
        Runtime::new().run(|| {
            let fs = fs();
            let opts = small_opts();
            let db = Db::open(Arc::clone(&fs), opts.clone()).unwrap();
            for i in 0..200u32 {
                db.put(format!("k{i:04}").as_bytes(), b"value").unwrap();
            }
            db.flush().unwrap();
            db.close();
            // A table torn mid-write: footer missing.
            let bogus = fs.create("db/999999.sst").unwrap();
            bogus.append(b"partial table with no footer").unwrap();
            fs.delete("db/MANIFEST").unwrap();

            let report = repair_db(Arc::clone(&fs), &opts).unwrap();
            assert_eq!(report.ssts_discarded, 1);
            assert!(!fs.exists("db/999999.sst"), "archived out of the db dir");
            assert!(fs.exists("db/lost/999999.sst"));

            let db2 = Db::open(Arc::clone(&fs), opts).unwrap();
            assert_eq!(db2.get(b"k0000").unwrap(), Some(b"value".to_vec()));
            db2.close();
        });
    }

    #[test]
    fn repair_archives_table_with_mid_file_flip() {
        Runtime::new().run(|| {
            let fs = fs();
            let opts = small_opts();
            let db = Db::open(Arc::clone(&fs), opts.clone()).unwrap();
            for i in 0..200u32 {
                db.put(format!("k{i:04}").as_bytes(), &[b'v'; 100]).unwrap();
            }
            db.flush().unwrap();
            db.close();

            // Plant one flipped bit in the middle of the first table — deep
            // inside a data block, far from the footer. (SimFs has no
            // write-at-offset, so at-rest damage = rewrite the file.)
            let victim = numbered_files(&fs, "db", TABLE)[0].1.clone();
            let handle = fs.open(&victim).unwrap();
            let len = handle.len();
            let mut bytes = handle.read_at(0, len as usize).unwrap();
            bytes[len as usize / 2] ^= 0x40;
            fs.delete(&victim).unwrap();
            fs.create(&victim).unwrap().append(&bytes).unwrap();
            fs.delete("db/MANIFEST").unwrap();

            let report = repair_db(Arc::clone(&fs), &opts).unwrap();
            assert_eq!(
                report.ssts_discarded, 1,
                "a mid-file flip must be treated like a torn footer"
            );
            assert!(!fs.exists(&victim), "archived out of the db dir");
            let name = victim.rsplit('/').next().unwrap();
            assert!(fs.exists(&format!("db/lost/{name}")));

            // The rebuilt database opens; the damaged table's keys are gone
            // (archived, not silently wrong).
            let db2 = Db::open(Arc::clone(&fs), opts).unwrap();
            for i in 0..200u32 {
                let _ = db2.get(format!("k{i:04}").as_bytes()).unwrap();
            }
            db2.close();
        });
    }

    #[test]
    fn repair_relevels_disjoint_tables_to_l1() {
        Runtime::new().run(|| {
            let fs = fs();
            let opts = small_opts();
            let db = Db::open(Arc::clone(&fs), opts.clone()).unwrap();
            // Two flushes over disjoint key ranges -> two disjoint L0
            // tables; repair should promote both to L1.
            for i in 0..50u32 {
                db.put(format!("a{i:04}").as_bytes(), b"1").unwrap();
            }
            db.flush().unwrap();
            for i in 0..50u32 {
                db.put(format!("b{i:04}").as_bytes(), b"2").unwrap();
            }
            db.flush().unwrap();
            db.close();
            fs.delete("db/MANIFEST").unwrap();

            let report = repair_db(Arc::clone(&fs), &opts).unwrap();
            assert_eq!(report.level1_files, report.tables());
            assert_eq!(report.level0_files, 0);

            let db2 = Db::open(Arc::clone(&fs), opts).unwrap();
            assert_eq!(db2.get(b"a0001").unwrap(), Some(b"1".to_vec()));
            assert_eq!(db2.get(b"b0049").unwrap(), Some(b"2".to_vec()));
            db2.close();
        });
    }

    #[test]
    fn repair_on_empty_dir_yields_openable_db() {
        Runtime::new().run(|| {
            let fs = fs();
            let opts = DbOptions::default();
            let report = repair_db(Arc::clone(&fs), &opts).unwrap();
            assert_eq!(report.tables(), 0);
            let db = Db::open(Arc::clone(&fs), opts).unwrap();
            db.put(b"k", b"v").unwrap();
            assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
            db.close();
        });
    }
}
