//! End-to-end integrity primitives: per-key-value protection info,
//! whole-file checksum helpers, and the foreground
//! [`Db::verify_checksums`] sweep built on them.
//!
//! The per-entry checksum is the RocksDB `protection_bytes_per_key` analogue:
//! a CRC computed over an entry's *content* (value type, user key, value) at
//! [`crate::batch::WriteBatch`] build time, carried alongside the batch
//! through every handoff — group-commit merge, WAL encode, memtable insert —
//! and re-verified at each one, so a corrupted entry is caught at the layer
//! that corrupted it rather than served back to a client.
//!
//! The checksum is deliberately *sequence-independent*: group commit stamps
//! sequences after batches are built and merged, and recomputing protection
//! on every restamp would both cost CPU and launder any corruption that
//! happened in between.

use crate::crc32c;
use crate::db::Db;
use crate::error::{DbError, DbResult};
use crate::filenames::{manifest_file_name, sst_file_name, wal_file_name};
use crate::sst::verify_table_file;
use crate::types::ValueType;
use crate::version::FileMetaData;
use crate::wal::read_wal;
use xlsm_simfs::{FileHandle, FsError};

/// Protection widths accepted by
/// [`crate::options::DbOptions::protection_bytes_per_key`].
pub const VALID_PROTECTION_WIDTHS: [usize; 5] = [0, 1, 2, 4, 8];

/// Salt prepended when deriving the upper 32 bits of the 8-byte protection
/// value, so the two halves never collide for the same entry bytes.
const WIDE_SALT: [u8; 1] = [0xa5];

/// The full 8-byte protection value for one entry. The low 32 bits are the
/// CRC32-C of the framed entry; the high 32 bits a salted CRC over the same
/// bytes (only consulted at widths > 4).
pub fn entry_protection(t: ValueType, key: &[u8], value: &[u8]) -> u64 {
    let mut lo = crc32c::Hasher::new();
    feed_entry(&mut lo, t, key, value);
    let mut hi = crc32c::Hasher::new();
    hi.update(&WIDE_SALT);
    feed_entry(&mut hi, t, key, value);
    (lo.finish() as u64) | ((hi.finish() as u64) << 32)
}

/// The 32-bit entry checksum (the low half of [`entry_protection`]) — what
/// the memtable stores per node to protect entries at rest.
pub fn entry_checksum(t: ValueType, key: &[u8], value: &[u8]) -> u32 {
    let mut h = crc32c::Hasher::new();
    feed_entry(&mut h, t, key, value);
    h.finish()
}

fn feed_entry(h: &mut crc32c::Hasher, t: ValueType, key: &[u8], value: &[u8]) {
    // Length framing keeps ("ab", "c") and ("a", "bc") distinct.
    h.update(&[t as u8]);
    h.update(&(key.len() as u32).to_le_bytes());
    h.update(key);
    h.update(&(value.len() as u32).to_le_bytes());
    h.update(value);
}

/// Truncates an 8-byte protection value to `width` bytes (little-endian
/// prefix). `width` must be one of [`VALID_PROTECTION_WIDTHS`].
pub fn truncate_protection(full: u64, width: usize) -> u64 {
    if width >= 8 {
        full
    } else {
        full & ((1u64 << (width * 8)) - 1)
    }
}

/// Verifies one entry against its stored (truncated) protection value.
///
/// # Errors
///
/// [`DbError::Corruption`] naming `layer` (the handoff that caught the
/// mismatch) and the entry index within its batch.
pub fn verify_entry(
    stored: u64,
    width: usize,
    t: ValueType,
    key: &[u8],
    value: &[u8],
    layer: &str,
    index: usize,
) -> DbResult<()> {
    let expect = truncate_protection(entry_protection(t, key, value), width);
    if stored != expect {
        return Err(DbError::corruption(format!(
            "per-key protection mismatch at {layer} (entry {index}): \
             stored {stored:#x} != computed {expect:#x}"
        )));
    }
    Ok(())
}

/// Chunk size for whole-file CRC reads: large enough to amortize per-request
/// device overhead, small enough that scrub pacing stays smooth.
pub const FILE_CRC_CHUNK: usize = 64 << 10;

/// CRC32-C over an entire file, read in [`FILE_CRC_CHUNK`] pieces. `pacer`
/// is invoked after every chunk with the bytes just read — the scrubber uses
/// it to sleep off its rate budget; verification passes a no-op.
///
/// # Errors
///
/// Filesystem errors from the underlying reads.
pub fn file_crc32c(file: &FileHandle, pacer: &mut dyn FnMut(u64)) -> DbResult<u32> {
    let len = file.len();
    let mut h = crc32c::Hasher::new();
    let mut off = 0u64;
    while off < len {
        let n = FILE_CRC_CHUNK.min((len - off) as usize);
        let chunk = file.read_at(off, n)?;
        h.update(&chunk);
        off += chunk.len() as u64;
        pacer(chunk.len() as u64);
    }
    Ok(h.finish())
}

/// The error for a file whose recomputed whole-file CRC disagrees with the
/// one the manifest recorded.
pub(crate) fn file_crc_mismatch(path: String, expected: u32, actual: u32) -> DbError {
    DbError::corruption_in(
        path,
        format!("whole-file checksum mismatch: manifest {expected:#010x}, disk {actual:#010x}"),
    )
}

/// Checks table `file` against the whole-file CRC the manifest recorded for
/// it: `Ok(true)` when one is recorded and matches, `Ok(false)` when none is
/// recorded.
///
/// # Errors
///
/// Corruption on a mismatch. A block-level walk usually pins the corrupt
/// offset; if every block passes (the flip is in a spot the whole-file CRC
/// alone covers), the file-level mismatch is reported.
pub(crate) fn verify_file_crc(
    file: &FileHandle,
    meta: &FileMetaData,
    path: &str,
    pacer: &mut dyn FnMut(u64),
) -> DbResult<bool> {
    let Some(expected) = meta.file_crc else {
        return Ok(false);
    };
    let actual = file_crc32c(file, pacer)?;
    if actual != expected {
        verify_table_file(file, meta.number, pacer)?;
        return Err(file_crc_mismatch(path.to_owned(), expected, actual));
    }
    Ok(true)
}

/// What [`Db::verify_checksums`] covered, for experiments and reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IntegrityReport {
    /// Live SSTs verified block-by-block.
    pub sst_files: u64,
    /// Total SST bytes read and checksummed.
    pub sst_bytes: u64,
    /// Sealed WALs verified against their manifest-recorded CRCs.
    pub wal_files: u64,
    /// Total WAL bytes read and checksummed.
    pub wal_bytes: u64,
    /// MANIFEST records whose framing CRCs were verified.
    pub manifest_records: u64,
}

impl Db {
    /// Verifies every live file in the foreground — the
    /// `DB::VerifyChecksums()` analogue, and the exhaustive counterpart of
    /// the paced background scrubber.
    ///
    /// Checks, in order: every live SST (whole-file CRC against the
    /// manifest record when one exists, then every block's CRC), every
    /// sealed WAL with a recorded CRC that is still on disk, and the
    /// MANIFEST's own record framing.
    ///
    /// # Errors
    ///
    /// The first corruption or I/O failure found; the error names the file
    /// (and block offset where known). Unlike the background scrubber this
    /// does **not** transition the database to read-only — the caller
    /// decides what to do.
    pub fn verify_checksums(&self) -> DbResult<IntegrityReport> {
        let inner = &self.inner;
        let mut report = IntegrityReport::default();
        let mut no_pace = |_: u64| {};
        let version = inner.versions.current();
        let mut seen = std::collections::HashSet::new();
        for meta in version.levels.iter().flatten() {
            if !seen.insert(meta.number) {
                continue;
            }
            let path = sst_file_name(&inner.opts.db_path, meta.number);
            let file = inner.fs.open(&path)?;
            verify_file_crc(&file, meta, &path, &mut no_pace)?;
            report.sst_bytes += verify_table_file(&file, meta.number, &mut no_pace)?;
            report.sst_files += 1;
        }
        for (number, expected) in inner.versions.recorded_wal_crcs() {
            let path = wal_file_name(&inner.opts.db_path, number);
            let file = match inner.wal_fs.open(&path) {
                Ok(f) => f,
                // Already reaped by the WAL purge; its data lives in L0.
                Err(FsError::NotFound(_)) => continue,
                Err(e) => return Err(e.into()),
            };
            let actual = file_crc32c(&file, &mut no_pace)?;
            if actual != expected {
                return Err(file_crc_mismatch(path, expected, actual));
            }
            report.wal_bytes += file.len();
            report.wal_files += 1;
        }
        // The MANIFEST is itself a log; reading it verifies every record's
        // framing CRC.
        let manifest = manifest_file_name(&inner.opts.db_path);
        report.manifest_records = read_wal(&inner.fs, &manifest)?.len() as u64;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protection_is_sequence_independent_and_framed() {
        let a = entry_protection(ValueType::Value, b"ab", b"c");
        let b = entry_protection(ValueType::Value, b"a", b"bc");
        assert_ne!(a, b, "length framing must separate key/value boundaries");
        let del = entry_protection(ValueType::Deletion, b"ab", b"c");
        assert_ne!(a, del, "value type must be covered");
        // Deterministic.
        assert_eq!(a, entry_protection(ValueType::Value, b"ab", b"c"));
    }

    #[test]
    fn truncation_widths() {
        let full = 0x1122_3344_5566_7788u64;
        assert_eq!(truncate_protection(full, 1), 0x88);
        assert_eq!(truncate_protection(full, 2), 0x7788);
        assert_eq!(truncate_protection(full, 4), 0x5566_7788);
        assert_eq!(truncate_protection(full, 8), full);
    }

    #[test]
    fn verify_entry_detects_flip() {
        let t = ValueType::Value;
        let stored = truncate_protection(entry_protection(t, b"k", b"v"), 8);
        assert!(verify_entry(stored, 8, t, b"k", b"v", "test", 0).is_ok());
        let e = verify_entry(stored, 8, t, b"k", b"w", "memtable insert", 3).unwrap_err();
        assert!(e.is_corruption());
        let msg = e.to_string();
        assert!(msg.contains("memtable insert"), "layer missing: {msg}");
        assert!(msg.contains("entry 3"), "index missing: {msg}");
    }

    #[test]
    fn narrow_widths_still_catch_most_flips() {
        // A 1-byte checksum misses 1-in-256 flips; make sure the plumbing
        // truncates consistently rather than zeroing out.
        let t = ValueType::Value;
        let stored = truncate_protection(entry_protection(t, b"key", b"value"), 1);
        assert!(verify_entry(stored, 1, t, b"key", b"value", "t", 0).is_ok());
        let mismatches = (0u8..=255)
            .filter(|b| verify_entry(stored, 1, t, b"key", &[*b], "t", 0).is_err())
            .count();
        assert!(
            mismatches >= 250,
            "1-byte protection too weak: {mismatches}"
        );
    }
}
