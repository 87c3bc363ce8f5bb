//! Recovery: the steps [`Db::open`](crate::Db::open) runs on an existing
//! database before it accepts traffic — file-number reclaim, WAL replay
//! under the four [`WalRecoveryMode`]s, the recovery flush, and the trash
//! and orphan sweeps.

use crate::background::write_memtable_table;
use crate::batch::WriteBatch;
use crate::db::DbInner;
use crate::error::{DbError, DbResult};
use crate::filenames::{self, numbered_files, sst_file_name, LOG, TABLE};
use crate::integrity;
use crate::memtable::MemTable;
use crate::options::{DbOptions, WalRecoveryMode};
use crate::stats::{DbStats, Ticker};
use crate::version::{FileMetaData, VersionEdit, VersionSet};
use crate::wal::scan_wal;
use std::sync::Arc;
use xlsm_simfs::SimFs;

/// A power cut between a file's creation and the durable MANIFEST record of
/// its number leaves the file on disk with the recovered counter still
/// pointing at (or below) it; re-claim every number found so the recovery
/// flush and fresh WAL never collide with a leftover the orphan sweep has
/// yet to collect.
pub(crate) fn reclaim_file_numbers(fs: &SimFs, wal_fs: &SimFs, versions: &VersionSet) {
    let db_path = versions.db_path();
    let tables = numbered_files(fs, db_path, TABLE);
    let logs = numbered_files(wal_fs, db_path, LOG);
    for (n, _) in tables.into_iter().chain(logs) {
        versions.mark_file_number_used(n);
    }
}

/// Replays every log at or above the manifest's WAL watermark into a fresh
/// memtable, as tolerantly as `opts.wal_recovery_mode` allows, and moves
/// the sequence allocator past the newest replayed entry.
///
/// # Errors
///
/// Filesystem errors, and — under
/// [`WalRecoveryMode::AbsoluteConsistency`] only — corruption.
pub(crate) fn replay_wals(
    wal_fs: &Arc<SimFs>,
    versions: &VersionSet,
    opts: &DbOptions,
    stats: &DbStats,
) -> DbResult<Arc<MemTable>> {
    let mut recovered = numbered_files(wal_fs, versions.db_path(), LOG);
    recovered.retain(|(n, _)| *n >= versions.log_number());
    let mode = opts.wal_recovery_mode;
    let recovery_mem = MemTable::with_options(0, 0, 1, opts.protection_bytes_per_key > 0);
    let mut max_seq = versions.last_sequence();
    // Sequence the next replayed batch must start at: logs concatenate
    // into one contiguous sequence stream, so a jump means a record
    // between two intact ones was lost.
    let mut expected_next: Option<u64> = None;
    // Point-in-time stop: once set, every remaining record and log is
    // beyond the recovered point in time and is discarded wholesale.
    let mut replay_stopped = false;
    'logs: for (number, path) in &recovered {
        if replay_stopped {
            let remaining = match wal_fs.open(path) {
                Ok(f) => f.len(),
                Err(_) => 0,
            };
            stats.add(Ticker::WalDroppedTailBytes, remaining);
            continue;
        }
        // A sealed log carries a whole-file CRC in the manifest. Under
        // AbsoluteConsistency a mismatch fails recovery outright; the
        // lenient modes fall through to the per-record scan, whose own
        // CRCs then decide what survives.
        if let Some(expected) = versions.wal_crc(*number) {
            let file = wal_fs.open(path)?;
            let actual = integrity::file_crc32c(&file, &mut |_| {})?;
            if actual != expected && mode == WalRecoveryMode::AbsoluteConsistency {
                return Err(integrity::file_crc_mismatch(path.clone(), expected, actual));
            }
        }
        let scan = scan_wal(wal_fs, path, mode)?;
        stats.add(Ticker::WalDroppedTailBytes, scan.dropped_tail_bytes);
        stats.add(
            Ticker::WalSkippedCorruptRecords,
            scan.skipped_corrupt_records,
        );
        for (i, payload) in scan.records.iter().enumerate() {
            let corrupt =
                |what: &str| DbError::corruption_in(path.clone(), format!("{what} (record {i})"));
            // Count the records a point-in-time stop abandons, so the
            // drop is surfaced instead of silent.
            let stop_here = || {
                let dropped: u64 = scan.records[i..].iter().map(|r| 8 + r.len() as u64).sum();
                stats.add(Ticker::WalDroppedTailBytes, dropped);
            };
            let batch = match WriteBatch::from_data(payload) {
                // The record CRC vouched for these bytes; re-enabling
                // protection recomputes the per-entry sidecar so the
                // memtable insert below verifies and stores checksums.
                Ok(mut b) => {
                    b.enable_protection(opts.protection_bytes_per_key);
                    b
                }
                Err(_) => match mode {
                    WalRecoveryMode::AbsoluteConsistency => {
                        return Err(corrupt("undecodable write batch"));
                    }
                    WalRecoveryMode::PointInTimeRecovery => {
                        stop_here();
                        replay_stopped = true;
                        continue 'logs;
                    }
                    WalRecoveryMode::TolerateCorruptedTailRecords => {
                        // Treat like a corrupt tail of this log.
                        stop_here();
                        continue 'logs;
                    }
                    WalRecoveryMode::SkipAnyCorruptedRecords => {
                        stats.bump(Ticker::WalSkippedCorruptRecords);
                        continue;
                    }
                },
            };
            let seq = batch.sequence();
            if let Some(expected) = expected_next {
                if seq != expected && mode != WalRecoveryMode::TolerateCorruptedTailRecords {
                    match mode {
                        WalRecoveryMode::AbsoluteConsistency => {
                            return Err(DbError::corruption_in(
                                path.clone(),
                                format!("sequence gap: expected {expected}, found {seq}"),
                            ));
                        }
                        WalRecoveryMode::PointInTimeRecovery => {
                            // The prefix before the gap is the
                            // recovered point in time.
                            stop_here();
                            replay_stopped = true;
                            continue 'logs;
                        }
                        WalRecoveryMode::SkipAnyCorruptedRecords => {
                            // The lost records are counted; this one
                            // still applies.
                            stats.bump(Ticker::WalSkippedCorruptRecords);
                        }
                        WalRecoveryMode::TolerateCorruptedTailRecords => unreachable!(),
                    }
                }
            }
            batch.apply_to(&recovery_mem)?;
            stats.bump(Ticker::WalRecoveredRecords);
            max_seq = max_seq.max(seq + batch.count() as u64 - 1);
            expected_next = Some(seq + batch.count() as u64);
        }
        if mode == WalRecoveryMode::PointInTimeRecovery && !scan.is_clean() {
            // This log lost its tail: anything in later logs is past
            // the recovered point in time.
            replay_stopped = true;
        }
    }
    versions.reserve_sequences(max_seq - versions.last_sequence());
    versions.publish_sequence(max_seq);
    Ok(recovery_mem)
}

/// Flushes the replayed entries straight to Level 0 and records the table
/// in the manifest (nothing to do after a clean shutdown with empty logs).
///
/// # Errors
///
/// Filesystem errors, or a protection-checksum mismatch on an entry.
pub(crate) fn flush_recovered(
    fs: &Arc<SimFs>,
    versions: &VersionSet,
    opts: &DbOptions,
    mem: &Arc<MemTable>,
) -> DbResult<()> {
    if mem.is_empty() {
        return Ok(());
    }
    let number = versions.new_file_number();
    let path = sst_file_name(versions.db_path(), number);
    let props = write_memtable_table(fs, &path, opts, mem, 0)?;
    let mut edit = VersionEdit::default();
    edit.added
        .push((0, FileMetaData::from_props(number, props)));
    versions.log_and_apply(edit)?;
    Ok(())
}

/// Files renamed into `trash/` before a crash were already dropped from the
/// live set (the rename is atomic and survives power cuts), but their
/// extents are still allocated. Re-queue each for the paced reaper — or
/// delete them inline when the reaper is disabled — so every trashed file
/// is reclaimed exactly once and never resurrected.
pub(crate) fn sweep_trash(inner: &DbInner) {
    let trash = filenames::trash_dir(&inner.opts.db_path);
    for (_, path) in numbered_files(&inner.fs, &trash, TABLE) {
        let bytes = match inner.fs.open(&path) {
            Ok(f) => f.len(),
            Err(_) => 0,
        };
        if inner.trash.enabled() {
            inner.stats.add(Ticker::TrashQueueBytes, bytes);
        }
        inner.trash.schedule(path, bytes);
    }
    inner.reap_trash_inline();
}

/// A crash between a flush/compaction output being written and its
/// manifest install strands `.sst` files no version references (old logs
/// are the WAL purge's job). Queue every unreferenced table through the
/// ordinary obsolete purge so cache eviction and error handling are shared
/// with the steady state.
pub(crate) fn sweep_orphans(inner: &DbInner) {
    let live = inner.versions.live_files();
    let orphans: Vec<u64> = numbered_files(&inner.fs, &inner.opts.db_path, TABLE)
        .into_iter()
        .map(|(n, _)| n)
        .filter(|n| !live.contains(n))
        .collect();
    if !orphans.is_empty() {
        inner.obsolete.lock().extend(orphans.iter().copied());
        inner.purge_obsolete();
        let deleted = orphans
            .iter()
            .filter(|n| !inner.fs.exists(&sst_file_name(&inner.opts.db_path, **n)))
            .count() as u64;
        inner.stats.add(Ticker::OrphanFilesDeleted, deleted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::{open_db, small_opts};
    use crate::wal::WalWriter;
    use crate::Db;
    use xlsm_sim::Runtime;

    #[test]
    fn reopen_recovers_from_wal() {
        Runtime::new().run(|| {
            let (db, fs) = open_db(small_opts());
            db.put(b"durable", b"yes").unwrap();
            db.put(b"another", b"val").unwrap();
            // No flush: data only in memtable + WAL.
            db.close();
            let db2 = Db::open(Arc::clone(&fs), small_opts()).unwrap();
            assert_eq!(db2.get(b"durable").unwrap(), Some(b"yes".to_vec()));
            assert_eq!(db2.get(b"another").unwrap(), Some(b"val".to_vec()));
            // New writes still work and sequences did not regress.
            db2.put(b"post", b"recovery").unwrap();
            assert_eq!(db2.get(b"post").unwrap(), Some(b"recovery".to_vec()));
            db2.close();
        });
    }

    #[test]
    fn reopen_recovers_ssts_and_wal_together() {
        Runtime::new().run(|| {
            let (db, fs) = open_db(small_opts());
            for i in 0..200u32 {
                db.put(format!("sst{i:04}").as_bytes(), b"on-disk").unwrap();
            }
            db.flush().unwrap();
            db.put(b"wal-only", b"in-log").unwrap();
            db.close();
            let db2 = Db::open(Arc::clone(&fs), small_opts()).unwrap();
            assert_eq!(db2.get(b"sst0100").unwrap(), Some(b"on-disk".to_vec()));
            assert_eq!(db2.get(b"wal-only").unwrap(), Some(b"in-log".to_vec()));
            db2.close();
        });
    }

    #[test]
    fn orphan_sst_is_swept_on_reopen() {
        Runtime::new().run(|| {
            let (db, fs) = open_db(small_opts());
            for i in 0..100u32 {
                db.put(format!("key{i:04}").as_bytes(), b"live").unwrap();
            }
            db.flush().unwrap();
            db.close();
            // Strand an SST the way a crash between table build and
            // MANIFEST install would: on disk, never referenced.
            let stray = sst_file_name("db", 900_000);
            let f = fs.create(&stray).unwrap();
            f.append(b"half-built table").unwrap();
            f.sync().unwrap();
            drop(f);
            let db2 = Db::open(Arc::clone(&fs), small_opts()).unwrap();
            assert!(!fs.exists(&stray), "orphan sst must be swept at open");
            assert!(db2.stats().ticker(Ticker::OrphanFilesDeleted) >= 1);
            // The sweep only reaps what the recovered version does not own.
            assert_eq!(db2.get(b"key0042").unwrap(), Some(b"live".to_vec()));
            db2.close();
        });
    }

    #[test]
    fn leftover_sst_numbers_are_reclaimed_before_recovery_allocates() {
        Runtime::new().run(|| {
            let (db, fs) = open_db(small_opts());
            for i in 0..10u32 {
                db.put(format!("key{i:02}").as_bytes(), b"walv").unwrap();
            }
            db.close(); // keys live only in the WAL: reopen must flush them
                        // Strand SSTs at the numbers recovery would allocate next, the
                        // way a power cut between a flush output's creation and its
                        // durable MANIFEST install leaves them.
            let max = fs
                .list("db/")
                .into_iter()
                .filter_map(|p| {
                    filenames::parse_file_number(&p, TABLE)
                        .or_else(|| filenames::parse_file_number(&p, LOG))
                })
                .max()
                .unwrap();
            for n in max + 1..max + 12 {
                let f = fs.create(&sst_file_name("db", n)).unwrap();
                f.append(b"half-built flush output").unwrap();
                f.sync().unwrap();
            }
            let db2 = Db::open(Arc::clone(&fs), small_opts())
                .expect("reopen must not collide with leftover file numbers");
            for i in 0..10u32 {
                assert_eq!(
                    db2.get(format!("key{i:02}").as_bytes()).unwrap(),
                    Some(b"walv".to_vec())
                );
            }
            db2.close();
        });
    }

    /// Replay lists the top level of the database directory only: a valid
    /// log archived under `lost/`, numbered above the watermark and
    /// continuing the live log's sequence, is not replayed.
    #[test]
    fn a_log_under_lost_is_not_replayed() {
        Runtime::new().run(|| {
            let (db, fs) = open_db(small_opts());
            db.put(b"live", b"1").unwrap(); // sequence 1, in the live log
            db.close();
            let lost = filenames::lost_file_name("db", 900_000, LOG);
            let archive = lost.rsplit_once('/').unwrap().0;
            let w = WalWriter::create(&fs, archive, 900_000, 0).unwrap();
            let mut batch = WriteBatch::new();
            batch.put(b"ghost", b"2");
            batch.set_sequence(2);
            w.append(batch.data(), true).unwrap();
            w.seal().unwrap();
            drop(w);
            let db2 = Db::open(Arc::clone(&fs), small_opts()).unwrap();
            assert_eq!(db2.get(b"live").unwrap(), Some(b"1".to_vec()));
            assert_eq!(db2.get(b"ghost").unwrap(), None, "replayed {lost}");
            assert_eq!(db2.stats().ticker(Ticker::WalRecoveredRecords), 1);
            assert!(fs.exists(&lost), "the archive is left where repair put it");
            db2.close();
        });
    }

    #[test]
    fn torn_wal_tail_fails_absolute_but_not_point_in_time() {
        Runtime::new().run(|| {
            let (db, fs) = open_db(small_opts());
            db.put(b"k1", b"v1").unwrap();
            db.put(b"k2", b"v2").unwrap();
            db.close();
            // Append a torn frame to the live WAL: a header promising 255
            // payload bytes that never made it to disk.
            let log = fs
                .list("db/")
                .into_iter()
                .filter(|p| p.ends_with(".log"))
                .max()
                .unwrap();
            let f = fs.open(&log).unwrap();
            f.append(&[0xde, 0xad, 0xbe, 0xef, 0xff, 0x00, 0x00, 0x00])
                .unwrap();
            drop(f);
            let abs = DbOptions {
                wal_recovery_mode: WalRecoveryMode::AbsoluteConsistency,
                ..small_opts()
            };
            let err = Db::open(Arc::clone(&fs), abs).unwrap_err();
            assert!(err.is_corruption(), "got {err:?}");
            // Default point-in-time recovery drops the tail and keeps the
            // committed prefix.
            let db2 = Db::open(Arc::clone(&fs), small_opts()).unwrap();
            assert_eq!(db2.get(b"k1").unwrap(), Some(b"v1".to_vec()));
            assert_eq!(db2.get(b"k2").unwrap(), Some(b"v2".to_vec()));
            assert!(db2.stats().ticker(Ticker::WalDroppedTailBytes) >= 8);
            assert!(db2.stats().ticker(Ticker::WalRecoveredRecords) >= 2);
            db2.close();
        });
    }

    /// Builds a db whose only WAL holds puts `a`, `b`, `c` — then rewrites
    /// the log without the middle record, so every frame is CRC-valid but
    /// the sequence stream has an interior hole.
    fn fs_with_gapped_wal() -> Arc<SimFs> {
        let (db, fs) = open_db(small_opts());
        db.put(b"a", b"1").unwrap();
        db.put(b"b", b"2").unwrap();
        db.put(b"c", b"3").unwrap();
        db.close();
        let log = fs
            .list("db/")
            .into_iter()
            .filter(|p| p.ends_with(".log"))
            .max()
            .unwrap();
        let records = scan_wal(&fs, &log, WalRecoveryMode::TolerateCorruptedTailRecords)
            .unwrap()
            .records;
        assert_eq!(records.len(), 3, "one record per serial put");
        let number = filenames::parse_file_number(&log, LOG).unwrap();
        fs.delete(&log).unwrap();
        let w = WalWriter::create(&fs, "db", number, 0).unwrap();
        for (i, rec) in records.iter().enumerate() {
            if i != 1 {
                w.append(rec, true).unwrap();
            }
        }
        fs
    }

    #[test]
    fn sequence_gap_fails_absolute_consistency_open() {
        Runtime::new().run(|| {
            let fs = fs_with_gapped_wal();
            let abs = DbOptions {
                wal_recovery_mode: WalRecoveryMode::AbsoluteConsistency,
                ..small_opts()
            };
            let err = Db::open(Arc::clone(&fs), abs).unwrap_err();
            assert!(err.is_corruption(), "got {err:?}");
            assert!(format!("{err}").contains("sequence gap"), "{err}");
        });
    }

    #[test]
    fn sequence_gap_stops_point_in_time_recovery() {
        Runtime::new().run(|| {
            let fs = fs_with_gapped_wal();
            let db = Db::open(Arc::clone(&fs), small_opts()).unwrap();
            // The consistent prefix ends before the hole: only `a` is
            // recovered; the record *after* the gap must not be replayed
            // even though its checksum is fine.
            assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
            assert_eq!(db.get(b"b").unwrap(), None);
            assert_eq!(db.get(b"c").unwrap(), None);
            assert_eq!(db.stats().ticker(Ticker::WalRecoveredRecords), 1);
            assert!(db.stats().ticker(Ticker::WalDroppedTailBytes) > 0);
            db.close();
        });
    }

    #[test]
    fn sequence_gap_is_counted_but_replayed_under_skip_any() {
        Runtime::new().run(|| {
            let fs = fs_with_gapped_wal();
            let opts = DbOptions {
                wal_recovery_mode: WalRecoveryMode::SkipAnyCorruptedRecords,
                ..small_opts()
            };
            let db = Db::open(Arc::clone(&fs), opts).unwrap();
            // Salvage-everything mode: both surviving records apply, and
            // the hole is surfaced through the skip ticker.
            assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
            assert_eq!(db.get(b"b").unwrap(), None);
            assert_eq!(db.get(b"c").unwrap(), Some(b"3".to_vec()));
            assert!(db.stats().ticker(Ticker::WalSkippedCorruptRecords) >= 1);
            db.close();
        });
    }

    #[test]
    fn sequence_gap_is_invisible_to_tolerate_mode() {
        Runtime::new().run(|| {
            let fs = fs_with_gapped_wal();
            let opts = DbOptions {
                wal_recovery_mode: WalRecoveryMode::TolerateCorruptedTailRecords,
                ..small_opts()
            };
            // The legacy mode has no sequence checks at all: both records
            // replay and nothing is reported.
            let db = Db::open(Arc::clone(&fs), opts).unwrap();
            assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
            assert_eq!(db.get(b"c").unwrap(), Some(b"3".to_vec()));
            assert_eq!(db.stats().ticker(Ticker::WalSkippedCorruptRecords), 0);
            db.close();
        });
    }

    #[test]
    fn wal_disabled_loses_unflushed_data_on_reopen() {
        Runtime::new().run(|| {
            let opts = DbOptions {
                enable_wal: false,
                ..small_opts()
            };
            let (db, fs) = open_db(opts.clone());
            db.put(b"volatile", b"gone").unwrap();
            db.close();
            let db2 = Db::open(Arc::clone(&fs), opts).unwrap();
            assert_eq!(db2.get(b"volatile").unwrap(), None);
            db2.close();
        });
    }
}
