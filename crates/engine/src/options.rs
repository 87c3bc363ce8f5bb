//! Database configuration (the RocksDB 5.17 option surface the paper
//! exercises, at scaled-down defaults).
//!
//! [`DbOptions`] is plain data: it derives `Clone` and `Debug`, the two
//! policy axes ([`ThrottlePolicy`], [`CompactionScheduler`]) are `Copy`
//! enums, and nothing in it changes after construction — what a policy
//! remembers between decisions lives in the [`crate::Db`] opened with it.
//! The one handle is `wal_fs`, the filesystem of a separate log device.

use crate::compress::CompressionType;
use crate::controller::ThrottlePolicy;
use crate::scheduler::CompactionScheduler;
use std::sync::Arc;
use xlsm_simfs::SimFs;

/// How aggressively WAL replay trusts the log contents at recovery time —
/// RocksDB's `WALRecoveryMode`, in increasing order of tolerance.
///
/// The mode governs two things: what happens when the scan meets a torn or
/// checksum-corrupt record, and what happens when the replayed batches skip
/// sequence numbers (a *gap* — evidence that a record between two intact
/// ones was lost).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WalRecoveryMode {
    /// The log must be perfect (clean-shutdown contract): any torn record,
    /// checksum failure, or sequence gap fails the open with
    /// [`crate::DbError::Corruption`].
    AbsoluteConsistency,
    /// Replay the longest consistent prefix: stop at the first torn or
    /// corrupt record *and at the first sequence gap*, discarding
    /// everything after the stop point (including later WAL files), so the
    /// recovered state is always a prefix of commit order. The RocksDB and
    /// engine default.
    #[default]
    PointInTimeRecovery,
    /// Drop a corrupt tail in *each* log but keep replaying subsequent
    /// logs, without sequence-gap checks — the legacy LevelDB contract.
    /// May recover a non-prefix state after a cross-log tail loss.
    TolerateCorruptedTailRecords,
    /// Salvage everything salvageable: skip interior records whose
    /// checksum fails (when the length framing is still intact), keep
    /// scanning, and count sequence gaps instead of failing. Prefix
    /// consistency is explicitly abandoned.
    SkipAnyCorruptedRecords,
}

impl WalRecoveryMode {
    /// Short name used in reports and docs.
    pub fn name(self) -> &'static str {
        match self {
            WalRecoveryMode::AbsoluteConsistency => "absolute-consistency",
            WalRecoveryMode::PointInTimeRecovery => "point-in-time",
            WalRecoveryMode::TolerateCorruptedTailRecords => "tolerate-corrupted-tail",
            WalRecoveryMode::SkipAnyCorruptedRecords => "skip-any-corrupted",
        }
    }

    /// All four modes, in increasing order of tolerance (test matrices).
    pub const ALL: [WalRecoveryMode; 4] = [
        WalRecoveryMode::AbsoluteConsistency,
        WalRecoveryMode::PointInTimeRecovery,
        WalRecoveryMode::TolerateCorruptedTailRecords,
        WalRecoveryMode::SkipAnyCorruptedRecords,
    ];
}

/// Tuning knobs for a [`crate::Db`].
///
/// Defaults follow RocksDB 5.17 / `db_bench` defaults, geometrically scaled
/// ~32× down (see `DESIGN.md`): a 64 MB memtable becomes 2 MB, etc. The
/// *thresholds that drive behavior* — Level-0 slowdown/stop triggers, write
/// buffer count, level size multiplier — are kept at their paper values.
#[derive(Clone, Debug)]
pub struct DbOptions {
    /// Memtable size before it is switched to immutable (bytes).
    pub write_buffer_size: usize,
    /// Max memtables (mutable + immutable) before writes stop.
    pub max_write_buffer_number: usize,
    /// Number of L0 files that triggers a compaction.
    pub level0_file_num_compaction_trigger: usize,
    /// Number of L0 files that triggers write slowdown (paper: default 20).
    pub level0_slowdown_writes_trigger: usize,
    /// Number of L0 files that stops writes (paper: "36 by default").
    pub level0_stop_writes_trigger: usize,
    /// Target size of L1 (bytes).
    pub max_bytes_for_level_base: u64,
    /// Target SST size for compaction outputs (bytes).
    pub target_file_size_base: u64,
    /// Maximum key-range partitions one compaction may fan out across
    /// (RocksDB `max_subcompactions`). `1` keeps the merge serial; higher
    /// values split the input key space at SST block boundaries and run one
    /// merge thread per range, draining compaction debt at device speed on
    /// devices with internal parallelism.
    pub max_subcompactions: usize,
    /// Maximum cached open [`crate::sst::TableReader`]s in the table cache
    /// (RocksDB `max_open_files`). `0` means unbounded; otherwise the
    /// least-recently-used reader handle is closed when over the cap
    /// (decoded blocks stay in the block cache).
    pub max_open_files: usize,
    /// Bloom bits per key; `0` disables blooms (the `db_bench` default the
    /// paper runs with, which is why L0 file count hurts reads).
    pub bloom_bits_per_key: usize,
    /// Fixed-length prefix extractor (RocksDB `prefix_extractor` with a
    /// `capped:<n>`-style transform, simplified to a fixed byte length).
    /// When set together with `bloom_bits_per_key > 0`, every SST also
    /// carries a bloom over the first `n` bytes of each key, letting point
    /// lookups and [`crate::Db::scan_prefix`] skip tables that contain no
    /// key with the queried prefix. Keys shorter than `n` are out of the
    /// transform's domain and bypass the prefix filter (never filtered).
    pub prefix_extractor: Option<usize>,
    /// Whole-key bloom bits per key on the **memtable** (RocksDB
    /// `memtable_prefix_bloom` family), built incrementally at insert so it
    /// coexists with `allow_concurrent_memtable_write`. `0` disables. A
    /// point miss then skips the skiplist search entirely — on fast devices
    /// the memtable walk is a measurable slice of a read.
    pub memtable_bloom_bits: usize,
    /// Block compression codec applied per data block at SST build time.
    /// Compressed blocks shrink the simulated device transfer (the device
    /// reads fewer bytes) in exchange for a per-block decompression CPU
    /// charge on reads — the paper's raw-device-speed trade-off.
    pub compression: CompressionType,
    /// SST block size (bytes).
    pub block_size: usize,
    /// Block cache capacity (bytes); decoded-block cache.
    pub block_cache_capacity: usize,
    /// Concurrent memtable writes: group members insert their own
    /// sub-batches into the memtable in parallel (RocksDB's
    /// `allow_concurrent_memtable_write`) instead of the leader serially
    /// applying the merged group; groups of one stay on the serial apply.
    /// Either way the group's last sequence is published only once its
    /// memtable stage is done, so readers never observe a half-applied
    /// group. This is the software-side fix for the paper's
    /// Finding #3: on 3D XPoint the serial memtable stage — not the device
    /// — dominates write tail latency.
    pub allow_concurrent_memtable_write: bool,
    /// Write a WAL record for each batch.
    pub enable_wal: bool,
    /// fsync the WAL on every commit (paper and db_bench default: off).
    pub wal_sync: bool,
    /// How WAL replay treats torn/corrupt records and sequence gaps at
    /// recovery time (RocksDB `wal_recovery_mode`).
    pub wal_recovery_mode: WalRecoveryMode,
    /// Background-flush the WAL's dirty pages every this many bytes
    /// (`wal_bytes_per_sync` analogue; 0 disables).
    pub wal_bytes_per_sync: usize,
    /// Initial user-defined `delayed_write_rate` (bytes/s) — Algorithm 1.
    pub delayed_write_rate: u64,
    /// Throttling policy (Algorithm 1 by default; case study V-A is
    /// [`ThrottlePolicy::TwoStage`]).
    pub throttle_policy: ThrottlePolicy,
    /// Which level the next compaction services (RocksDB `CompactionPri`
    /// family, lifted from files to levels): greedy max-score by default,
    /// round-robin or fair/deficit.
    pub compaction_scheduler: CompactionScheduler,
    /// Shared background-I/O budget in bytes per (virtual) second drawn by
    /// flushes and compactions together, with flush priority — RocksDB's
    /// `rate_limiter`. `0` disables throttling. The budget auto-tunes with
    /// measured compaction debt:
    /// `rate = base × (1 + min(debt / (4 × max_bytes_for_level_base), 3))`,
    /// re-evaluated on every write-controller update.
    pub bg_io_rate_bytes_per_sec: u64,
    /// Per-key-value protection width in bytes (RocksDB
    /// `protection_bytes_per_key`): 0 disables; otherwise each entry in a
    /// [`crate::WriteBatch`] carries a checksum of this many bytes over
    /// (type, key, value), verified at every handoff — group-commit merge,
    /// WAL encode, WAL replay, memtable insert — and the memtable re-checks
    /// entries at read and flush time. Valid widths: 0, 1, 2, 4, 8.
    pub protection_bytes_per_key: usize,
    /// Verify the whole-file checksum recorded in the MANIFEST when an SST
    /// is opened through the table cache (RocksDB `paranoid_file_checks`
    /// analogue). Off by default: it reads the entire file per first open,
    /// which would distort the paper-reproduction latency figures.
    pub paranoid_file_checks: bool,
    /// Background scrub rate budget in bytes/second; `0` disables the
    /// scrubber. When set, a dedicated low-rate worker continuously
    /// re-reads live SSTs block-by-block, verifying whole-file and
    /// per-block checksums, and routes any mismatch through the
    /// background-error machinery (hard error → read-only).
    pub scrub_rate_bytes_per_sec: u64,
    /// Soft cap on the bytes this database may occupy: live SSTs, pending
    /// `trash/` deletions, and in-flight flush/compaction output
    /// reservations (the `SstFileManager::SetMaxAllowedSpaceUsage`
    /// analogue). When set, flushes pre-reserve their estimated output
    /// before writing a byte and a compaction whose estimated output would
    /// not fit never starts — the scheduler skips it and falls back to
    /// smaller eligible work. `0` disables the cap.
    pub max_allowed_space_bytes: u64,
    /// Rate at which the background reaper deletes obsolete SSTs,
    /// bytes/second (the `DeleteScheduler` analogue). When > 0, obsolete
    /// SSTs are renamed into a `trash/` directory and reclaimed by a paced
    /// background worker, so mass deletions after a big compaction never
    /// saturate the device under foreground reads. `0` deletes obsolete
    /// files inline (legacy behavior).
    pub sst_delete_rate_bytes_per_sec: u64,
    /// Poll interval of the `SpaceWatcher`, nanoseconds. When > 0,
    /// `DeviceFull` during a flush or compaction becomes a *soft*
    /// background error: writers stall through the write controller
    /// instead of failing, and the watcher auto-resumes the database
    /// within one poll interval after headroom returns. `0` disables the
    /// watcher, preserving the legacy contract (`DeviceFull` is a hard
    /// error: the database goes permanently read-only).
    pub space_poll_interval_ns: u64,
    /// Optional separate filesystem (device) for the WAL — the NVM-logging
    /// case study (Section V-C).
    pub wal_fs: Option<Arc<SimFs>>,
    /// Root directory for this database inside the filesystem.
    pub db_path: String,
}

impl Default for DbOptions {
    fn default() -> DbOptions {
        DbOptions {
            write_buffer_size: 1 << 20, // 1 MiB (paper: 64 MB, scaled)
            max_write_buffer_number: 2,
            level0_file_num_compaction_trigger: 4,
            level0_slowdown_writes_trigger: 20,
            level0_stop_writes_trigger: 36,
            max_bytes_for_level_base: 4 << 20, // 4 MiB (paper: 256 MB, scaled; keeps the 1:4 memtable:L1 ratio)
            target_file_size_base: 1 << 20,
            max_subcompactions: 1, // RocksDB 5.17 default: serial compaction
            max_open_files: 256,
            bloom_bits_per_key: 0,
            prefix_extractor: None,
            memtable_bloom_bits: 0,
            compression: CompressionType::None,
            block_size: 4096,
            block_cache_capacity: 2 << 20,
            allow_concurrent_memtable_write: false, // RocksDB 5.17 db_bench default
            enable_wal: true,
            wal_sync: false,
            wal_recovery_mode: WalRecoveryMode::PointInTimeRecovery,
            wal_bytes_per_sync: 16 << 10, // 512 KB / 32 (scaled, like the rest of the geometry)
            delayed_write_rate: 16 << 20, // 16 MB/s
            protection_bytes_per_key: 0,
            paranoid_file_checks: false,
            scrub_rate_bytes_per_sec: 0,
            max_allowed_space_bytes: 0,
            sst_delete_rate_bytes_per_sec: 0,
            space_poll_interval_ns: 0,
            throttle_policy: ThrottlePolicy::Original,
            compaction_scheduler: CompactionScheduler::Greedy,
            bg_io_rate_bytes_per_sec: 0,
            wal_fs: None,
            db_path: "db".to_owned(),
        }
    }
}

/// Growth factor between levels (RocksDB `max_bytes_for_level_multiplier`).
const MAX_BYTES_FOR_LEVEL_MULTIPLIER: f64 = 10.0;

impl DbOptions {
    /// Target size in bytes for level `n` (1-based; L0 is file-count based).
    pub fn max_bytes_for_level(&self, level: usize) -> u64 {
        debug_assert!(level >= 1);
        let mut size = self.max_bytes_for_level_base as f64;
        for _ in 1..level {
            size *= MAX_BYTES_FOR_LEVEL_MULTIPLIER;
        }
        size as u64
    }

    /// Validates cross-field invariants.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.write_buffer_size < 64 << 10 {
            return Err("write_buffer_size must be at least 64 KiB".into());
        }
        if self.max_write_buffer_number < 2 {
            return Err("max_write_buffer_number must be >= 2".into());
        }
        if self.level0_slowdown_writes_trigger < self.level0_file_num_compaction_trigger {
            return Err("slowdown trigger must be >= compaction trigger".into());
        }
        if self.level0_stop_writes_trigger < self.level0_slowdown_writes_trigger {
            return Err("stop trigger must be >= slowdown trigger".into());
        }
        if self.block_size < 256 {
            return Err("block_size must be >= 256".into());
        }
        if self.max_subcompactions == 0 {
            return Err("max_subcompactions must be >= 1".into());
        }
        if self.max_open_files != 0 && self.max_open_files < 16 {
            return Err("max_open_files must be 0 (unbounded) or >= 16".into());
        }
        if self.prefix_extractor == Some(0) {
            return Err("prefix_extractor length must be >= 1".into());
        }
        if !crate::integrity::VALID_PROTECTION_WIDTHS.contains(&self.protection_bytes_per_key) {
            return Err("protection_bytes_per_key must be 0, 1, 2, 4, or 8".into());
        }
        if self.bg_io_rate_bytes_per_sec != 0 && self.bg_io_rate_bytes_per_sec < 64 << 10 {
            return Err("bg_io_rate_bytes_per_sec must be 0 (off) or >= 64 KiB/s".into());
        }
        if self.sst_delete_rate_bytes_per_sec != 0 && self.sst_delete_rate_bytes_per_sec < 64 << 10
        {
            return Err("sst_delete_rate_bytes_per_sec must be 0 (off) or >= 64 KiB/s".into());
        }
        if self.max_allowed_space_bytes != 0
            && self.max_allowed_space_bytes < 2 * self.write_buffer_size as u64
        {
            return Err(
                "max_allowed_space_bytes must be 0 (off) or >= 2x write_buffer_size".into(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_match_paper_triggers() {
        let o = DbOptions::default();
        o.validate().unwrap();
        assert_eq!(o.level0_slowdown_writes_trigger, 20);
        assert_eq!(o.level0_stop_writes_trigger, 36);
        assert_eq!(o.max_write_buffer_number, 2);
        assert_eq!(o.bloom_bits_per_key, 0, "db_bench default: no bloom");
        assert_eq!(o.wal_recovery_mode, WalRecoveryMode::PointInTimeRecovery);
    }

    #[test]
    fn recovery_modes_enumerate_in_tolerance_order() {
        assert_eq!(WalRecoveryMode::ALL.len(), 4);
        assert_eq!(WalRecoveryMode::ALL[0].name(), "absolute-consistency");
        assert_eq!(WalRecoveryMode::default().name(), "point-in-time");
    }

    #[test]
    fn level_targets_multiply() {
        let o = DbOptions::default();
        assert_eq!(o.max_bytes_for_level(1), 4 << 20);
        assert_eq!(o.max_bytes_for_level(2), 40 << 20);
        assert_eq!(o.max_bytes_for_level(3), 400 << 20);
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let o = DbOptions {
            level0_stop_writes_trigger: 3,
            ..DbOptions::default()
        };
        assert!(o.validate().is_err());
        let o2 = DbOptions {
            write_buffer_size: 1024,
            ..DbOptions::default()
        };
        assert!(o2.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_parallelism() {
        for bad in [
            DbOptions {
                max_subcompactions: 0,
                ..DbOptions::default()
            },
            DbOptions {
                max_open_files: 4,
                ..DbOptions::default()
            },
        ] {
            assert!(bad.validate().is_err());
        }
        let unbounded = DbOptions {
            max_open_files: 0,
            ..DbOptions::default()
        };
        unbounded.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_read_path_options() {
        let bad = DbOptions {
            prefix_extractor: Some(0),
            ..DbOptions::default()
        };
        assert!(bad.validate().is_err());
        let ok = DbOptions {
            prefix_extractor: Some(8),
            memtable_bloom_bits: 10,
            compression: CompressionType::Rle,
            ..DbOptions::default()
        };
        ok.validate().unwrap();
    }

    #[test]
    fn validation_enforces_bg_io_budget_invariants() {
        let bad_rate = DbOptions {
            bg_io_rate_bytes_per_sec: 1024,
            ..DbOptions::default()
        };
        assert!(bad_rate.validate().is_err());
        let ok = DbOptions {
            bg_io_rate_bytes_per_sec: 64 << 20,
            compaction_scheduler: CompactionScheduler::Fair,
            ..DbOptions::default()
        };
        ok.validate().unwrap();
    }

    #[test]
    fn validation_enforces_space_management_invariants() {
        let bad_rate = DbOptions {
            sst_delete_rate_bytes_per_sec: 1024,
            ..DbOptions::default()
        };
        assert!(bad_rate.validate().is_err());
        let cap_below_two_memtables = DbOptions {
            max_allowed_space_bytes: 1 << 20,
            ..DbOptions::default()
        };
        assert!(cap_below_two_memtables.validate().is_err());
        let ok = DbOptions {
            max_allowed_space_bytes: 64 << 20,
            sst_delete_rate_bytes_per_sec: 4 << 20,
            space_poll_interval_ns: 10_000_000,
            ..DbOptions::default()
        };
        ok.validate().unwrap();
    }

    #[test]
    fn validation_enforces_protection_widths() {
        for bad in [3usize, 5, 6, 7, 9, 16] {
            let o = DbOptions {
                protection_bytes_per_key: bad,
                ..DbOptions::default()
            };
            assert!(o.validate().is_err(), "width {bad} must be rejected");
        }
        for good in [0usize, 1, 2, 4, 8] {
            let o = DbOptions {
                protection_bytes_per_key: good,
                paranoid_file_checks: true,
                scrub_rate_bytes_per_sec: 1 << 20,
                ..DbOptions::default()
            };
            o.validate().unwrap();
        }
    }
}
