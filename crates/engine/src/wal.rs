//! Write-ahead log.
//!
//! Record framing: `[masked crc32c u32][len u32][payload]`. Appends are
//! buffered in the filesystem's page cache (the cheap path the paper
//! describes); durability comes from either per-commit `sync` (off by
//! default, as in `db_bench`) or periodic `wal_bytes_per_sync`-style
//! background pushes.

use crate::coding::get_fixed32;
use crate::costs;
use crate::crc32c;
use crate::error::{DbError, DbResult};
pub use crate::filenames::wal_file_name;
use crate::options::WalRecoveryMode;
use std::sync::atomic::{AtomicU64, Ordering};
use xlsm_sim::Class;
use xlsm_simfs::{FileHandle, FsError, SimFs};

/// Appends records to one WAL file.
#[derive(Debug)]
pub struct WalWriter {
    file: FileHandle,
    number: u64,
    bytes_since_flush: AtomicU64,
    bytes_per_sync: u64,
    /// Running CRC over every byte appended (headers included) — the
    /// whole-file checksum recorded in the MANIFEST when this log is
    /// rotated out, so recovery can tell a clean closed log from one
    /// damaged at rest.
    file_crc: parking_lot::Mutex<crc32c::Hasher>,
    /// The buffer records are framed in, kept between appends and taken
    /// out of its lock while an append runs.
    frame: parking_lot::Mutex<Vec<u8>>,
}

impl WalWriter {
    /// Creates a new WAL file in `fs`.
    ///
    /// # Errors
    ///
    /// Filesystem errors (e.g. the file already exists).
    pub fn create(
        fs: &std::sync::Arc<SimFs>,
        db_path: &str,
        number: u64,
        bytes_per_sync: usize,
    ) -> DbResult<WalWriter> {
        let file = fs.create(&wal_file_name(db_path, number))?;
        Ok(WalWriter {
            file,
            number,
            bytes_since_flush: AtomicU64::new(0),
            bytes_per_sync: bytes_per_sync as u64,
            file_crc: parking_lot::Mutex::new(crc32c::Hasher::new()),
            frame: parking_lot::Mutex::new(Vec::new()),
        })
    }

    /// This WAL's file number.
    pub fn number(&self) -> u64 {
        self.number
    }

    /// Appends one record (a serialized write batch).
    ///
    /// If `sync` is true the record is forced through to the device
    /// (fsync); otherwise it stays in the page cache, with a background
    /// `sync_file_range`-style push every `bytes_per_sync` bytes.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn append(&self, payload: &[u8], sync: bool) -> DbResult<u64> {
        xlsm_sim::charge(Class::WalEncode, costs::wal_encode_ns(payload.len()));
        let mut rec = std::mem::take(&mut *self.frame.lock());
        frame_into(&mut rec, payload);
        let written = rec.len() as u64;
        let appended = self.file.append(&rec);
        // Only what reached the file: a refused append (device full) leaves
        // both the file and its checksum as they were.
        if appended.is_ok() {
            self.file_crc.lock().update(&rec);
        }
        *self.frame.lock() = rec;
        appended?;
        if sync {
            self.file.sync()?;
        } else if self.bytes_per_sync > 0 {
            xlsm_sim::sync::add(&self.bytes_since_flush, written);
            if self.bytes_since_flush.load(Ordering::Relaxed) >= self.bytes_per_sync {
                self.bytes_since_flush.store(0, Ordering::Relaxed);
                self.file.flush_data()?;
            }
        }
        Ok(written)
    }

    /// Bytes in the log so far.
    pub fn size(&self) -> u64 {
        self.file.len()
    }

    /// Gives back the pages past the log's last byte once it is rotated out
    /// and no group can append to it any more (see [`FileHandle::seal`]).
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn seal(&self) -> DbResult<()> {
        Ok(self.file.seal()?)
    }

    /// CRC32-C over every byte appended so far. Captured at rotation time
    /// (no appends can race it: the memtable — and its WAL — switch at the
    /// write queue's head, where no group is appending; `Db::resume` is the
    /// exception, see there).
    pub fn file_crc(&self) -> u32 {
        self.file_crc.lock().finish()
    }
}

/// Frames one payload as `[masked crc32c][len][payload]`: the record format
/// of the WAL and of the MANIFEST, which is why [`scan_wal`] replays both.
pub(crate) fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::new();
    frame_into(&mut rec, payload);
    rec
}

/// [`frame_record`] into `rec`, which it empties first.
fn frame_into(rec: &mut Vec<u8>, payload: &[u8]) {
    let crc = crc32c::crc32c(payload);
    rec.clear();
    rec.reserve(8 + payload.len());
    rec.extend_from_slice(&crc32c::masked(crc).to_le_bytes());
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(payload);
}

/// Outcome of scanning one WAL (or manifest) file under a
/// [`WalRecoveryMode`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalScan {
    /// Payloads of the records the mode accepted, in file order.
    pub records: Vec<Vec<u8>>,
    /// Bytes from the first unreadable point to end-of-file that the scan
    /// abandoned (torn tail, or unresyncable framing damage).
    pub dropped_tail_bytes: u64,
    /// Interior records skipped over because their checksum failed while
    /// the length framing stayed intact
    /// ([`WalRecoveryMode::SkipAnyCorruptedRecords`] only).
    pub skipped_corrupt_records: u64,
}

impl WalScan {
    /// Whether the scan consumed the file cleanly (no drops, no skips).
    pub fn is_clean(&self) -> bool {
        self.dropped_tail_bytes == 0 && self.skipped_corrupt_records == 0
    }
}

/// Scans the records of one WAL file under `mode`.
///
/// A missing file scans as empty (recovery lists may race deletion). The
/// scan walks `[masked crc32c][len][payload]` frames; what happens at the
/// first damaged frame depends on the mode:
///
/// * [`WalRecoveryMode::AbsoluteConsistency`] — any torn or corrupt record
///   is a [`DbError::Corruption`].
/// * [`WalRecoveryMode::PointInTimeRecovery`] /
///   [`WalRecoveryMode::TolerateCorruptedTailRecords`] — stop, reporting
///   the remainder as [`WalScan::dropped_tail_bytes`] (how the caller
///   treats *later* log files differs between the two; see `Db::open`).
/// * [`WalRecoveryMode::SkipAnyCorruptedRecords`] — a checksum-corrupt
///   record whose length framing still lands on a valid next frame is
///   skipped and counted; framing damage (length running past EOF) cannot
///   be resynced and drops the tail.
///
/// # Errors
///
/// Filesystem errors always propagate; corruption errors only under
/// [`WalRecoveryMode::AbsoluteConsistency`].
pub fn scan_wal(
    fs: &std::sync::Arc<SimFs>,
    path: &str,
    mode: WalRecoveryMode,
) -> DbResult<WalScan> {
    let file = match fs.open(path) {
        Ok(f) => f,
        Err(FsError::NotFound(_)) => return Ok(WalScan::default()),
        Err(e) => return Err(DbError::from(e)),
    };
    let size = file.len();
    let mut scan = WalScan::default();
    let mut off = 0u64;
    while off < size {
        if off + 8 > size {
            // Torn mid-header: nothing left to frame.
            return finish_tail(mode, path, scan, size - off);
        }
        let header = file.read_at(off, 8)?;
        let stored_crc = crc32c::unmask(get_fixed32(&header, 0));
        let len = get_fixed32(&header, 4) as u64;
        if off + 8 + len > size {
            // Torn mid-payload (or garbage length): unresyncable.
            return finish_tail(mode, path, scan, size - off);
        }
        let payload = file.read_at(off + 8, len as usize)?;
        if crc32c::crc32c(&payload) != stored_crc {
            match mode {
                WalRecoveryMode::AbsoluteConsistency => {
                    return Err(DbError::corruption_at(
                        path,
                        off,
                        "record checksum mismatch",
                    ));
                }
                WalRecoveryMode::PointInTimeRecovery
                | WalRecoveryMode::TolerateCorruptedTailRecords => {
                    scan.dropped_tail_bytes = size - off;
                    return Ok(scan);
                }
                WalRecoveryMode::SkipAnyCorruptedRecords => {
                    // The frame is self-consistent (length fits), so the
                    // next frame boundary is trustworthy: skip and resync.
                    scan.skipped_corrupt_records += 1;
                    off += 8 + len;
                    continue;
                }
            }
        }
        scan.records.push(payload);
        off += 8 + len;
    }
    Ok(scan)
}

fn finish_tail(
    mode: WalRecoveryMode,
    path: &str,
    mut scan: WalScan,
    torn_bytes: u64,
) -> DbResult<WalScan> {
    if mode == WalRecoveryMode::AbsoluteConsistency {
        return Err(DbError::corruption_in(
            path,
            format!("torn record at tail ({torn_bytes} trailing bytes)"),
        ));
    }
    scan.dropped_tail_bytes = torn_bytes;
    Ok(scan)
}

/// Replays the records of a WAL file.
///
/// Returns the payloads of all intact records, stopping silently at the
/// first truncated or corrupt record — the tolerant legacy contract, kept
/// for manifest recovery and callers that do their own accounting. New code
/// on the WAL-replay path should prefer [`scan_wal`].
///
/// # Errors
///
/// Only filesystem-level errors; corruption terminates the scan instead.
pub fn read_wal(fs: &std::sync::Arc<SimFs>, path: &str) -> DbResult<Vec<Vec<u8>>> {
    Ok(scan_wal(fs, path, WalRecoveryMode::TolerateCorruptedTailRecords)?.records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xlsm_device::{profiles, SimDevice};
    use xlsm_sim::Runtime;
    use xlsm_simfs::FsOptions;

    fn fs() -> Arc<SimFs> {
        SimFs::new(
            SimDevice::shared(profiles::optane_900p()),
            FsOptions::default(),
        )
    }

    #[test]
    fn append_and_replay() {
        Runtime::new().run(|| {
            let fs = fs();
            let w = WalWriter::create(&fs, "db", 3, 0).unwrap();
            w.append(b"first", false).unwrap();
            w.append(b"second", false).unwrap();
            w.append(b"third", true).unwrap();
            let recs = read_wal(&fs, &wal_file_name("db", 3)).unwrap();
            assert_eq!(
                recs,
                vec![b"first".to_vec(), b"second".to_vec(), b"third".to_vec()]
            );
        });
    }

    #[test]
    fn refused_append_leaves_file_and_checksum_unchanged() {
        Runtime::new().run(|| {
            let fs = fs();
            let w = WalWriter::create(&fs, "db", 3, 0).unwrap();
            fs.set_fault_plan(xlsm_simfs::FaultPlan {
                fail_nth_alloc: Some(1),
                ..xlsm_simfs::FaultPlan::default()
            });
            assert!(matches!(
                w.append(b"refused", false),
                Err(DbError::Fs(FsError::DeviceFull))
            ));
            assert_eq!(w.size(), 0);
            w.append(b"kept", false).unwrap();
            let path = wal_file_name("db", 3);
            assert_eq!(read_wal(&fs, &path).unwrap(), vec![b"kept".to_vec()]);
            let on_disk =
                crate::integrity::file_crc32c(&fs.open(&path).unwrap(), &mut |_| {}).unwrap();
            assert_eq!(w.file_crc(), on_disk);
        });
    }

    #[test]
    fn missing_wal_is_empty() {
        Runtime::new().run(|| {
            let fs = fs();
            assert!(read_wal(&fs, "db/000001.log").unwrap().is_empty());
        });
    }

    #[test]
    fn truncated_tail_is_dropped() {
        Runtime::new().run(|| {
            let fs = fs();
            let w = WalWriter::create(&fs, "db", 1, 0).unwrap();
            w.append(b"keep-me", false).unwrap();
            // Manually append a half-record.
            let f = fs.open(&wal_file_name("db", 1)).unwrap();
            f.append(&[0x12, 0x34, 0x56, 0x78, 200, 0, 0, 0, b'x'])
                .unwrap();
            let recs = read_wal(&fs, &wal_file_name("db", 1)).unwrap();
            assert_eq!(recs, vec![b"keep-me".to_vec()]);
        });
    }

    #[test]
    fn corrupt_crc_stops_scan() {
        Runtime::new().run(|| {
            let fs = fs();
            let w = WalWriter::create(&fs, "db", 1, 0).unwrap();
            w.append(b"good", false).unwrap();
            // A record with valid length but wrong CRC.
            let f = fs.open(&wal_file_name("db", 1)).unwrap();
            let mut bad = Vec::new();
            bad.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
            bad.extend_from_slice(&4u32.to_le_bytes());
            bad.extend_from_slice(b"evil");
            f.append(&bad).unwrap();
            let w2 = WalWriter::create(&fs, "db", 2, 0).unwrap();
            let _ = w2;
            let recs = read_wal(&fs, &wal_file_name("db", 1)).unwrap();
            assert_eq!(recs, vec![b"good".to_vec()]);
        });
    }

    /// Writes a WAL with records `good`, then a CRC-corrupt record with
    /// intact framing, then `after`, returning its path.
    fn wal_with_interior_corruption(fs: &Arc<SimFs>) -> String {
        let w = WalWriter::create(fs, "db", 9, 0).unwrap();
        w.append(b"good", false).unwrap();
        let f = fs.open(&wal_file_name("db", 9)).unwrap();
        let mut bad = Vec::new();
        bad.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        bad.extend_from_slice(&4u32.to_le_bytes());
        bad.extend_from_slice(b"evil");
        f.append(&bad).unwrap();
        w.append(b"after", false).unwrap();
        wal_file_name("db", 9)
    }

    #[test]
    fn absolute_consistency_fails_on_torn_tail() {
        Runtime::new().run(|| {
            let fs = fs();
            let w = WalWriter::create(&fs, "db", 1, 0).unwrap();
            w.append(b"whole", false).unwrap();
            let f = fs.open(&wal_file_name("db", 1)).unwrap();
            f.append(&[0xAA, 0xBB, 0xCC]).unwrap();
            let err = scan_wal(
                &fs,
                &wal_file_name("db", 1),
                WalRecoveryMode::AbsoluteConsistency,
            )
            .unwrap_err();
            assert!(matches!(err, DbError::Corruption(_)), "got {err:?}");
            // A clean log passes.
            let w2 = WalWriter::create(&fs, "db", 2, 0).unwrap();
            w2.append(b"fine", false).unwrap();
            let scan = scan_wal(
                &fs,
                &wal_file_name("db", 2),
                WalRecoveryMode::AbsoluteConsistency,
            )
            .unwrap();
            assert_eq!(scan.records, vec![b"fine".to_vec()]);
            assert!(scan.is_clean());
        });
    }

    #[test]
    fn point_in_time_stops_at_interior_corruption() {
        Runtime::new().run(|| {
            let fs = fs();
            let path = wal_with_interior_corruption(&fs);
            let scan = scan_wal(&fs, &path, WalRecoveryMode::PointInTimeRecovery).unwrap();
            assert_eq!(scan.records, vec![b"good".to_vec()]);
            assert_eq!(scan.skipped_corrupt_records, 0);
            // Dropped: the corrupt record and the intact one behind it.
            assert_eq!(scan.dropped_tail_bytes, (8 + 4) + (8 + 5));
        });
    }

    #[test]
    fn skip_any_resyncs_past_interior_corruption() {
        Runtime::new().run(|| {
            let fs = fs();
            let path = wal_with_interior_corruption(&fs);
            let scan = scan_wal(&fs, &path, WalRecoveryMode::SkipAnyCorruptedRecords).unwrap();
            assert_eq!(scan.records, vec![b"good".to_vec(), b"after".to_vec()]);
            assert_eq!(scan.skipped_corrupt_records, 1);
            assert_eq!(scan.dropped_tail_bytes, 0);
        });
    }

    #[test]
    fn skip_any_cannot_resync_framing_damage() {
        Runtime::new().run(|| {
            let fs = fs();
            let w = WalWriter::create(&fs, "db", 1, 0).unwrap();
            w.append(b"keep", false).unwrap();
            // Length field claims more bytes than the file holds: the
            // frame boundary is untrustworthy, so the tail is dropped even
            // under the most tolerant mode.
            let f = fs.open(&wal_file_name("db", 1)).unwrap();
            let mut bad = Vec::new();
            bad.extend_from_slice(&0u32.to_le_bytes());
            bad.extend_from_slice(&10_000u32.to_le_bytes());
            bad.extend_from_slice(b"short");
            f.append(&bad).unwrap();
            let scan = scan_wal(
                &fs,
                &wal_file_name("db", 1),
                WalRecoveryMode::SkipAnyCorruptedRecords,
            )
            .unwrap();
            assert_eq!(scan.records, vec![b"keep".to_vec()]);
            assert_eq!(scan.dropped_tail_bytes, 13);
        });
    }

    #[test]
    fn tolerate_mode_reports_dropped_tail_bytes() {
        Runtime::new().run(|| {
            let fs = fs();
            let w = WalWriter::create(&fs, "db", 1, 0).unwrap();
            w.append(b"keep-me", false).unwrap();
            let f = fs.open(&wal_file_name("db", 1)).unwrap();
            f.append(&[0x12, 0x34, 0x56, 0x78, 200, 0, 0, 0, b'x'])
                .unwrap();
            let scan = scan_wal(
                &fs,
                &wal_file_name("db", 1),
                WalRecoveryMode::TolerateCorruptedTailRecords,
            )
            .unwrap();
            assert_eq!(scan.records, vec![b"keep-me".to_vec()]);
            assert_eq!(scan.dropped_tail_bytes, 9);
        });
    }

    #[test]
    fn writer_file_crc_matches_on_disk_bytes() {
        Runtime::new().run(|| {
            let fs = fs();
            let w = WalWriter::create(&fs, "db", 5, 0).unwrap();
            w.append(b"one", false).unwrap();
            w.append(b"two", true).unwrap();
            let f = fs.open(&wal_file_name("db", 5)).unwrap();
            let all = f.read_at(0, f.len() as usize).unwrap();
            assert_eq!(w.file_crc(), crc32c::crc32c(&all));
        });
    }

    #[test]
    fn sync_reaches_device() {
        Runtime::new().run(|| {
            let dev = SimDevice::shared(profiles::intel_530_sata());
            let fs = SimFs::new(Arc::clone(&dev) as _, FsOptions::default());
            let w = WalWriter::create(&fs, "db", 1, 0).unwrap();
            w.append(b"payload", false).unwrap();
            assert_eq!(xlsm_device::Device::stats(&*dev).writes, 0);
            w.append(b"payload", true).unwrap();
            assert!(xlsm_device::Device::stats(&*dev).writes > 0);
        });
    }

    #[test]
    fn torn_tail_midheader_is_dropped() {
        Runtime::new().run(|| {
            let fs = fs();
            let w = WalWriter::create(&fs, "db", 1, 0).unwrap();
            w.append(b"whole", false).unwrap();
            // Truncation inside the next record's header (only 3 bytes).
            let f = fs.open(&wal_file_name("db", 1)).unwrap();
            f.append(&[0xAA, 0xBB, 0xCC]).unwrap();
            let recs = read_wal(&fs, &wal_file_name("db", 1)).unwrap();
            assert_eq!(recs, vec![b"whole".to_vec()]);
        });
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Crash-recovery contract: a WAL truncated at ANY byte offset
        /// replays exactly the records that fit wholly before the cut and
        /// never errors on the torn final record.
        #[test]
        fn torn_tail_recovery_returns_complete_prefix(
            lens in proptest::strategies::collection::vec(0usize..300, 1..10),
            cut_frac in 0u64..10_001u64,
        ) {
            Runtime::new().run(move || {
                let fs = fs();
                let w = WalWriter::create(&fs, "db", 1, 0).unwrap();
                let mut payloads = Vec::new();
                let mut ends = Vec::new(); // record end offsets
                let mut off = 0u64;
                for (i, len) in lens.iter().enumerate() {
                    let payload: Vec<u8> =
                        (0..*len).map(|j| (i * 31 + j) as u8).collect();
                    off += w.append(&payload, false).unwrap();
                    payloads.push(payload);
                    ends.push(off);
                }
                let total = w.size();
                assert_eq!(off, total);
                // Cut at an arbitrary offset (scaled so every boundary and
                // interior byte is reachable), simulating a torn write.
                let cut = total * cut_frac / 10_000;
                let prefix = fs
                    .open(&wal_file_name("db", 1))
                    .unwrap()
                    .read_at(0, cut as usize)
                    .unwrap();
                let torn = fs.create("db2/000001.log").unwrap();
                if !prefix.is_empty() {
                    torn.append(&prefix).unwrap();
                }
                drop(torn);
                let recs = read_wal(&fs, "db2/000001.log")
                    .expect("torn tail must never be an error");
                let intact = ends.iter().filter(|e| **e <= cut).count();
                assert_eq!(
                    recs,
                    payloads[..intact].to_vec(),
                    "cut={cut} of {total} must keep exactly {intact} records"
                );
                fs.delete("db2/000001.log").unwrap();
                fs.delete(&wal_file_name("db", 1)).unwrap();
            });
        }
    }

    #[test]
    fn bytes_per_sync_pushes_periodically() {
        Runtime::new().run(|| {
            let dev = SimDevice::shared(profiles::optane_900p());
            let fs = SimFs::new(Arc::clone(&dev) as _, FsOptions::default());
            let w = WalWriter::create(&fs, "db", 1, 8 << 10).unwrap();
            for _ in 0..20 {
                w.append(&vec![7u8; 1024], false).unwrap();
            }
            let s = xlsm_device::Device::stats(&*dev);
            assert!(
                s.pages_written > 0,
                "bytes_per_sync should have pushed dirty pages"
            );
        });
    }
}
