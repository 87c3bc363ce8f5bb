//! Engine-wide counters, gauges and latency histograms.

use crate::controller::ControllerSnapshot;
use crate::histogram::{Histogram, HistogramSummary};
use crate::stall::{StallAccounting, StallEvent, StallTotals};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xlsm_device::DeviceSnapshot;
use xlsm_sim::{Charges, Nanos};

/// Monotonic event counters (RocksDB "tickers").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
#[allow(missing_docs)]
pub enum Ticker {
    Puts,
    Deletes,
    Gets,
    GetHitMemtable,
    GetHitImmutable,
    GetHitL0,
    GetHitLn,
    GetMiss,
    L0FilesSearched,
    BloomUseful,
    BlockCacheHit,
    BlockCacheMiss,
    WalBytes,
    FlushCount,
    FlushBytes,
    CompactionCount,
    CompactReadBytes,
    CompactWriteBytes,
    TrivialMoves,
    StallDelayedWrites,
    StallStoppedWrites,
    StallMicros,
    WriteGroupsLed,
    WritesJoinedGroup,
    BackgroundErrors,
    BackgroundErrorRetries,
    BackgroundAutoResumes,
    ReadOnlyTransitions,
    CorruptionDetected,
    SubcompactionsLaunched,
    SubcompactionFallbacks,
    MultiGetBatches,
    MultiGetKeys,
    /// Write-group member batches applied to the memtable *concurrently*
    /// (on the member's own thread, `allow_concurrent_memtable_write`).
    ConcurrentMemtableApplies,
    /// WAL records replayed into the recovery memtable at `Db::open`.
    WalRecoveredRecords,
    /// Bytes of torn/corrupt WAL tail abandoned during recovery (includes
    /// everything discarded past a point-in-time stop).
    WalDroppedTailBytes,
    /// Corrupt or sequence-gapped WAL records skipped over under
    /// `WalRecoveryMode::SkipAnyCorruptedRecords`.
    WalSkippedCorruptRecords,
    /// Unreferenced `.sst`/`.log` files deleted by the orphan sweep at
    /// `Db::open` (outputs stranded by a crash before their manifest
    /// install).
    OrphanFilesDeleted,
    /// Compressed data blocks decompressed on the read path.
    BlockDecompressions,
    /// On-disk (compressed) bytes of those blocks; together with
    /// `BlockUncompressedBytes` this yields the realized compression ratio.
    BlockCompressedBytes,
    /// In-memory (decompressed) bytes of those blocks.
    BlockUncompressedBytes,
    /// SST probes skipped because the table's prefix bloom rejected the
    /// query prefix.
    PrefixBloomUseful,
    /// Memtable searches skipped because the memtable's whole-key bloom
    /// rejected the key.
    MemtableBloomUseful,
    /// Bytes re-read and CRC-verified by the background scrubber.
    ScrubBytesVerified,
    /// Checksum mismatches the background scrubber found in live files.
    ScrubCorruptionsFound,
    /// Virtual nanoseconds background jobs spent waiting on the shared
    /// background-I/O budget (`bg_io_rate_bytes_per_sec`).
    BgIoThrottledNs,
    /// Soft ENOSPC stalls entered: a flush or compaction hit `DeviceFull`
    /// (or the `max_allowed_space_bytes` cap) and parked writers instead of
    /// failing, awaiting the `SpaceWatcher`.
    EnospcStalls,
    /// Bytes of obsolete SSTs actually deleted from `trash/` by the paced
    /// background reaper.
    SpaceReclaimedBytes,
    /// Cumulative bytes of obsolete SSTs moved into `trash/` awaiting
    /// rate-limited deletion (monotonic; the *current* backlog is the
    /// `trash_queue_bytes` gauge in `Metrics`).
    TrashQueueBytes,
    /// Obsolete-WAL deletions that failed and were left for a later purge
    /// pass to retry (previously swallowed silently).
    WalPurgeFailures,
    /// Compactions not started because their estimated output did not fit
    /// under `max_allowed_space_bytes`; the scheduler fell back to smaller
    /// eligible work.
    SpaceCompactionsDeferred,
    TickerCount, // sentinel
}

const TICKER_COUNT: usize = Ticker::TickerCount as usize;

/// Where the recorded ops of one kind spent their virtual time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpTotals {
    /// Ops recorded.
    pub ops: u64,
    /// Their summed end-to-end latency.
    pub total_ns: u64,
    /// Their summed charges per class; they add up to `total_ns` when every
    /// wait on an op's thread is charged.
    pub parts: Charges,
}

/// The one record of an op kind: where its ops spent their virtual time and
/// how long each took. The op's exit writes both with one
/// [`OpRecord::record`] call, so every client op is timed once, by the engine.
#[derive(Debug, Default)]
pub struct OpRecord {
    totals: Mutex<OpTotals>,
    latency: Histogram,
}

impl OpRecord {
    /// Adds the op the calling thread began at `t0`, having been charged
    /// `c0` by then: its latency and what it has been charged since.
    pub(crate) fn record(&self, t0: Nanos, c0: Charges) {
        let ns = xlsm_sim::now_nanos() - t0;
        let mut totals = self.totals.lock();
        totals.ops += 1;
        totals.total_ns += ns;
        totals.parts = totals.parts + (xlsm_sim::charges() - c0);
        self.latency.record(ns);
    }

    /// The summed parts of the ops recorded in this window.
    pub fn totals(&self) -> OpTotals {
        *self.totals.lock()
    }

    /// The latency of each op recorded in this window.
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }
}

/// Shared statistics sink for one database instance.
#[derive(Debug)]
pub struct DbStats {
    tickers: [AtomicU64; TICKER_COUNT],
    /// WAL append durations.
    pub wal_append: Histogram,
    /// Flush job durations.
    pub flush_duration: Histogram,
    /// Compaction job durations.
    pub compaction_duration: Histogram,
    /// Batches per committed write group (group-commit effectiveness; a
    /// deep queue on a fast device shows up as large groups here).
    pub write_group_batches: Histogram,
    /// Duration of each completed scrub pass over the live file set. Not
    /// reset with the warm-up window: passes are long-lived and a reset
    /// mid-pass would discard the only samples.
    pub scrub_pass: Histogram,
    /// Duration of each soft ENOSPC stall episode (ns), recorded when the
    /// `SpaceWatcher` auto-resumes the database. Like the other background
    /// histograms, not reset with the warm-up window.
    pub enospc_stall: Histogram,
    /// Every get.
    pub gets: OpRecord,
    /// Every `multi_get` batch.
    pub multi_gets: OpRecord,
    /// Every committed write (batch commit); a failed write is not recorded.
    pub writes: OpRecord,
    /// The controller-transition event log.
    pub stall: Arc<StallAccounting>,
    /// Currently-waiting writer threads (gauge).
    waiting_writers: AtomicU64,
    /// Accumulated samples of the waiting-writers gauge (sum, n) — sampled
    /// at each batch commit, reproducing the paper's Fig. 16 metric.
    waiting_sum: AtomicU64,
    waiting_samples: AtomicU64,
}

impl Default for DbStats {
    fn default() -> Self {
        Self::new()
    }
}

impl DbStats {
    /// Creates a zeroed sink.
    pub fn new() -> DbStats {
        DbStats {
            tickers: std::array::from_fn(|_| AtomicU64::new(0)),
            wal_append: Histogram::new(),
            flush_duration: Histogram::new(),
            compaction_duration: Histogram::new(),
            write_group_batches: Histogram::new(),
            scrub_pass: Histogram::new(),
            enospc_stall: Histogram::new(),
            gets: OpRecord::default(),
            multi_gets: OpRecord::default(),
            writes: OpRecord::default(),
            stall: Arc::new(StallAccounting::default()),
            waiting_writers: AtomicU64::new(0),
            waiting_sum: AtomicU64::new(0),
            waiting_samples: AtomicU64::new(0),
        }
    }

    /// Shared handle.
    pub fn shared() -> Arc<DbStats> {
        Arc::new(DbStats::new())
    }

    /// Increments `t` by `n`.
    pub fn add(&self, t: Ticker, n: u64) {
        self.tickers[t as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Increments `t` by one.
    pub fn bump(&self, t: Ticker) {
        self.add(t, 1);
    }

    /// Current value of `t`.
    pub fn ticker(&self, t: Ticker) -> u64 {
        self.tickers[t as usize].load(Ordering::Relaxed)
    }

    /// A writer entered the queue.
    pub fn writer_waiting_inc(&self) {
        self.waiting_writers.fetch_add(1, Ordering::Relaxed);
    }

    /// A writer left the queue.
    pub fn writer_waiting_dec(&self) {
        self.waiting_writers.fetch_sub(1, Ordering::Relaxed);
    }

    /// Samples the waiting-writers gauge (called at each group commit).
    pub fn sample_waiting_writers(&self) {
        let cur = self.waiting_writers.load(Ordering::Relaxed);
        self.waiting_sum.fetch_add(cur, Ordering::Relaxed);
        self.waiting_samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Average number of waiting writer threads over all samples (Fig. 16).
    pub fn avg_waiting_writers(&self) -> f64 {
        let n = self.waiting_samples.load(Ordering::Relaxed);
        if n == 0 {
            0.0
        } else {
            self.waiting_sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Resets the op records, the WAL and write-group histograms and the
    /// waiting-writer samples (tickers are monotonic and left untouched) —
    /// used to discard warm-up effects.
    pub fn reset_window(&self) {
        self.wal_append.reset();
        self.write_group_batches.reset();
        for op in [&self.gets, &self.multi_gets, &self.writes] {
            *op.totals.lock() = OpTotals::default();
            op.latency.reset();
        }
        self.waiting_sum.store(0, Ordering::Relaxed);
        self.waiting_samples.store(0, Ordering::Relaxed);
    }

    /// Copies every ticker at once.
    pub fn ticker_snapshot(&self) -> TickerSnapshot {
        TickerSnapshot(std::array::from_fn(|i| {
            self.tickers[i].load(Ordering::Relaxed)
        }))
    }
}

/// Point-in-time copy of all tickers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TickerSnapshot([u64; TICKER_COUNT]);

impl TickerSnapshot {
    /// Value of `t` at snapshot time.
    pub fn get(&self, t: Ticker) -> u64 {
        self.0[t as usize]
    }
}

/// One cheap cross-layer snapshot answering "where did write time go":
/// engine tickers and histograms, the stall breakdown totals with the
/// drained controller-transition log, and device-side service/queue/GC
/// accounting. Produced by `Db::metrics()`.
#[derive(Clone, Debug)]
pub struct Metrics {
    /// All engine tickers.
    pub tickers: TickerSnapshot,
    /// Client-visible get latency, from `gets`' record.
    pub get_latency: HistogramSummary,
    /// Client-visible write (batch commit) latency, from `writes`' record.
    pub write_latency: HistogramSummary,
    /// WAL append durations.
    pub wal_append: HistogramSummary,
    /// Flush job durations.
    pub flush_duration: HistogramSummary,
    /// Compaction job durations.
    pub compaction_duration: HistogramSummary,
    /// Batches per committed write group.
    pub write_group_batches: HistogramSummary,
    /// Completed background scrub passes (duration per full sweep of the
    /// live file set).
    pub scrub_pass: HistogramSummary,
    /// Soft ENOSPC stall episode durations (ns).
    pub enospc_stall: HistogramSummary,
    /// Unallocated bytes remaining on the SST filesystem.
    pub free_space_bytes: u64,
    /// Largest single contiguous free extent on the SST filesystem, bytes.
    /// Far below `free_space_bytes` means the free space is fragmented.
    pub largest_free_extent_bytes: u64,
    /// Bytes of live SSTs across all levels of the current version.
    pub live_sst_bytes: u64,
    /// Bytes of obsolete SSTs currently sitting in `trash/` awaiting
    /// rate-limited deletion.
    pub trash_queue_bytes: u64,
    /// Estimated bytes awaiting compaction right now — the scheduler's
    /// debt input (from `Version::pending_compaction_bytes`).
    pub compaction_debt_bytes: u64,
    /// Average queued writer threads (Fig. 16 metric).
    pub avg_waiting_writers: f64,
    /// Parts of every get.
    pub gets: OpTotals,
    /// Parts of every `multi_get` batch.
    pub multi_gets: OpTotals,
    /// Parts of every committed write; `stall` is their write view.
    pub writes: OpTotals,
    /// The write view of `writes` by mechanism.
    pub stall: StallTotals,
    /// Controller transitions since the previous snapshot (draining: each
    /// event is returned exactly once across successive calls).
    pub stall_events: Vec<StallEvent>,
    /// Current controller level and adaptive rate.
    pub controller: ControllerSnapshot,
    /// Device-side accounting (queueing, GC, write amplification) for the
    /// SST device.
    pub device: DeviceSnapshot,
    /// The active background error, if the engine is in an error state
    /// (being retried, or hard and read-only).
    pub background_error: Option<crate::bgerror::BackgroundError>,
    /// Whether the engine is in read-only mode after a hard background
    /// error.
    pub read_only: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::{open_db, small_opts};
    use xlsm_sim::{Class, Runtime};

    #[test]
    fn tickers_accumulate() {
        let s = DbStats::new();
        s.bump(Ticker::Puts);
        s.add(Ticker::Puts, 4);
        assert_eq!(s.ticker(Ticker::Puts), 5);
        assert_eq!(s.ticker(Ticker::Gets), 0);
    }

    #[test]
    fn waiting_writer_gauge_averages() {
        let s = DbStats::new();
        s.writer_waiting_inc();
        s.writer_waiting_inc();
        s.sample_waiting_writers(); // 2
        s.writer_waiting_dec();
        s.sample_waiting_writers(); // 1
        assert!((s.avg_waiting_writers() - 1.5).abs() < 1e-9);
        s.reset_window();
        assert_eq!(s.avg_waiting_writers(), 0.0);
    }

    #[test]
    fn one_record_call_times_the_op_once() {
        Runtime::new().run(|| {
            let s = DbStats::new();
            let (t0, c0) = (xlsm_sim::now_nanos(), xlsm_sim::charges());
            xlsm_sim::charge(Class::Setup, 700);
            s.gets.record(t0, c0);
            let t = s.gets.totals();
            assert_eq!((t.ops, t.total_ns, t.parts.total()), (1, 700, 700));
            let lat = s.gets.latency();
            assert_eq!((lat.count(), lat.max()), (1, 700));
            s.reset_window();
            assert_eq!(s.gets.totals(), OpTotals::default());
            assert_eq!(s.gets.latency().count(), 0);
        });
    }

    #[test]
    fn every_multi_get_batch_is_one_sample() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            db.put(b"a", b"1").unwrap();
            db.put(b"b", b"2").unwrap();
            db.stats().reset_window();
            for _ in 0..5 {
                db.multi_get(&[b"a".as_slice(), b"b", b"c"]).unwrap();
            }
            let s = db.stats();
            assert_eq!(s.multi_gets.totals().ops, 5);
            assert_eq!(s.multi_gets.latency().count(), 5);
            assert_eq!(s.gets.latency().count(), 0, "a batch is not a get");
            db.close();
        });
    }

    #[test]
    fn a_failed_write_is_recorded_nowhere() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            db.put(b"k", b"v").unwrap();
            db.close();
            assert!(db.put(b"k2", b"v").is_err());
            let s = db.stats();
            assert_eq!(s.writes.totals().ops, 1);
            assert_eq!(s.writes.latency().count(), 1);
        });
    }

    #[test]
    fn reset_window_keeps_tickers() {
        let s = DbStats::new();
        s.bump(Ticker::FlushCount);
        s.wal_append.record(100);
        s.reset_window();
        assert_eq!(s.ticker(Ticker::FlushCount), 1);
        assert_eq!(s.wal_append.count(), 0);
    }
}
