//! The database handle: open and close, the write path's hooks into the
//! engine, memtable switching, metrics and snapshots. Reads live in
//! [`crate::read`], background jobs in `background.rs`, the steps of
//! recovery in `recovery.rs`.

use crate::background;
use crate::batch::WriteBatch;
use crate::bgerror::{BackgroundOp, ErrorHandler};
use crate::controller::{StallSignals, WriteController};
use crate::costs;
use crate::error::{DbError, DbResult};
use crate::filenames;
use crate::memtable::MemTable;
use crate::options::DbOptions;
use crate::recovery;
use crate::scheduler::BgIoLimiter;
use crate::space::{DeleteScheduler, SpaceManager};
use crate::stats::{DbStats, Metrics, Ticker};
use crate::table_cache::TableCache;
use crate::types::SequenceNumber;
use crate::version::{VersionEdit, VersionSet};
use crate::wal::WalWriter;
use crate::write::{WriteBackend, WriteQueue};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use xlsm_sim::sync::{channel, Receiver, Semaphore, Sender};
use xlsm_sim::{Class, JoinHandle};
use xlsm_simfs::SimFs;

// ---------------------------------------------------------------------------
// Memtable state
// ---------------------------------------------------------------------------

/// Builds a memtable configured from `opts`: whole-key memtable bloom bits
/// plus an expected-entry estimate derived from `write_buffer_size` — the
/// size in effect now, which [`Db::set_write_buffer_size`] may have moved
/// away from the configured one.
fn new_memtable(opts: &DbOptions, write_buffer_size: usize, id: u64) -> Arc<MemTable> {
    // ≈ 48 bytes per skiplist entry (key + node overhead) is a deliberately
    // low per-entry estimate: overshooting `expected_entries` only rounds
    // the bloom up, it can never cause a false negative.
    let expected = (write_buffer_size / 48).max(1);
    MemTable::with_options(
        id,
        opts.memtable_bloom_bits,
        expected,
        opts.protection_bytes_per_key > 0,
    )
}

pub(crate) struct MemState {
    pub(crate) mutable: Arc<MemTable>,
    /// WAL backing the mutable memtable (None when WAL disabled).
    wal: Option<Arc<WalWriter>>,
    pub(crate) wal_number: u64,
    /// Immutable memtables with their WAL numbers, oldest first.
    pub(crate) immutables: Vec<(Arc<MemTable>, u64)>,
    next_mem_id: u64,
}

// ---------------------------------------------------------------------------
// Db
// ---------------------------------------------------------------------------

/// Summary of the LSM shape, for experiments and reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LsmShape {
    /// Files per level.
    pub files_per_level: Vec<usize>,
    /// Bytes per level.
    pub bytes_per_level: Vec<u64>,
    /// Immutable memtable count.
    pub immutables: usize,
    /// Mutable memtable fill in bytes.
    pub mutable_bytes: usize,
}

/// The two options that may change after open — the knobs the dynamic
/// Level-0 case study (V-B) turns. Everything else is read from the
/// immutable [`DbOptions`] the database was opened with.
pub(crate) struct DynamicOptions {
    write_buffer_size: AtomicUsize,
    l0_compaction_trigger: AtomicUsize,
}

impl DynamicOptions {
    fn new(opts: &DbOptions) -> DynamicOptions {
        DynamicOptions {
            write_buffer_size: AtomicUsize::new(opts.write_buffer_size),
            l0_compaction_trigger: AtomicUsize::new(opts.level0_file_num_compaction_trigger),
        }
    }

    /// Memtable size before a switch, in effect now.
    pub(crate) fn write_buffer_size(&self) -> usize {
        self.write_buffer_size.load(Ordering::Relaxed)
    }

    /// Level-0 file count that warrants a compaction, in effect now.
    pub(crate) fn l0_compaction_trigger(&self) -> usize {
        self.l0_compaction_trigger.load(Ordering::Relaxed)
    }
}

pub(crate) struct DbInner {
    pub(crate) opts: DbOptions,
    pub(crate) dynamic: DynamicOptions,
    pub(crate) fs: Arc<SimFs>,
    pub(crate) wal_fs: Arc<SimFs>,
    pub(crate) versions: VersionSet,
    pub(crate) mem: parking_lot::Mutex<MemState>,
    pub(crate) table_cache: Arc<TableCache>,
    pub(crate) stats: Arc<DbStats>,
    pub(crate) controller: WriteController,
    /// Shared background-I/O budget flushes and compactions draw from
    /// (`bg_io_rate_bytes_per_sec`; disabled at rate 0).
    pub(crate) io_limiter: BgIoLimiter,
    queue: WriteQueue,
    pub(crate) snapshots: parking_lot::Mutex<Vec<SequenceNumber>>,
    pub(crate) shutdown: AtomicBool,
    install_lock: Semaphore,
    pub(crate) flush_serial: Semaphore,
    pub(crate) flush_tx: Sender<()>,
    pub(crate) compact_tx: Sender<()>,
    /// The compaction daemon's end of `compact_tx`; its length is the
    /// compaction signals not yet taken.
    pub(crate) compact_rx: Receiver<()>,
    /// Set while the compaction daemon runs a compaction, from its headroom
    /// reservation to its install.
    pub(crate) compacting: AtomicBool,
    /// Whether the compaction daemon's latest pick deferred every eligible
    /// compaction under the space cap with nothing left to free headroom.
    /// `Db::wait_for_compactions` clears it to ask for a fresh pick.
    pub(crate) compactions_stuck: AtomicBool,
    pub(crate) obsolete: parking_lot::Mutex<Vec<u64>>,
    /// The database's health: retrying, stalled on ENOSPC or read-only.
    pub(crate) bg: ErrorHandler,
    /// Space cap + background-output reservations
    /// (`max_allowed_space_bytes`).
    pub(crate) space: SpaceManager,
    /// Trash queue + pacing for rate-limited obsolete-SST deletion
    /// (`sst_delete_rate_bytes_per_sec`).
    pub(crate) trash: DeleteScheduler,
}

/// The key-value store handle. Share by reference or wrap in `Arc<Db>`;
/// the struct owns background worker handles and must be [`Db::close`]d
/// before the sim runtime exits.
pub struct Db {
    pub(crate) inner: Arc<DbInner>,
    workers: parking_lot::Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("path", &self.inner.opts.db_path)
            .finish_non_exhaustive()
    }
}

/// Write-path callbacks bound to the database.
struct DbBackend {
    inner: Arc<DbInner>,
}

impl DbInner {
    fn stall_signals(&self) -> StallSignals {
        let version = self.versions.current();
        let (imm, mutable_full) = {
            let mem = self.mem.lock();
            (
                mem.immutables.len(),
                mem.mutable.approximate_bytes() >= self.dynamic.write_buffer_size(),
            )
        };
        StallSignals {
            l0_files: version.num_l0_files(),
            // Memtables counted against the budget: immutables, plus the
            // mutable one once full (switching it would add an immutable).
            // The policy stops at `>= max_write_buffer_number`.
            memtables: imm + usize::from(mutable_full),
            pending_compaction_bytes: version
                .pending_compaction_bytes(&self.opts, self.dynamic.l0_compaction_trigger()),
            compacted_bytes: self.stats.ticker(Ticker::FlushBytes)
                + self.stats.ticker(Ticker::CompactWriteBytes),
        }
    }

    pub(crate) fn update_stall_conditions(&self) {
        let sig = self.stall_signals();
        // Auto-tune the background budget from the debt this update
        // measured.
        self.io_limiter.retune(sig.pending_compaction_bytes);
        self.controller.update(&sig, &self.opts);
    }

    /// Rotates the mutable memtable to immutable, creating a fresh memtable
    /// and WAL. The caller is at the write queue's head (a leader's
    /// `preprocess`, or [`WriteQueue::at_head`]), except [`Db::resume`].
    fn switch_memtable(self: &Arc<Self>) -> DbResult<()> {
        // Create the new WAL outside any lock.
        let (new_wal, new_number) = if self.opts.enable_wal {
            let number = self.versions.new_file_number();
            let wal = WalWriter::create(
                &self.wal_fs,
                &self.opts.db_path,
                number,
                self.opts.wal_bytes_per_sync,
            )?;
            (Some(Arc::new(wal)), number)
        } else {
            (None, self.versions.new_file_number())
        };
        // Hold the memtable-stage permit across the swap, behind the apply of
        // the group ahead; no caller holds it here, so this cannot deadlock.
        self.queue.lock_mem_stage();
        let old_wal = {
            let mut mem = self.mem.lock();
            mem.next_mem_id += 1;
            let new_mem = new_memtable(
                &self.opts,
                self.dynamic.write_buffer_size(),
                mem.next_mem_id,
            );
            let old_mem = std::mem::replace(&mut mem.mutable, new_mem);
            let old_wal_number = mem.wal_number;
            let old_wal = std::mem::replace(&mut mem.wal, new_wal);
            mem.wal_number = new_number;
            mem.immutables.push((old_mem, old_wal_number));
            old_wal.map(|w| (old_wal_number, w))
        };
        self.queue.unlock_mem_stage();
        // The sealed log will never be appended to again (no group appends
        // while the switch holds the queue head; under `Db::resume` the
        // parked leader has not taken a log yet and takes the new one), so
        // it gives back its spare pages and its whole-file CRC is final.
        // Record the CRC in the manifest for recovery to check.
        if let Some((old_number, wal)) = old_wal {
            wal.seal()?;
            let edit = VersionEdit {
                wal_crcs: vec![(old_number, wal.file_crc())],
                ..VersionEdit::default()
            };
            self.install(edit)?;
        }
        self.update_stall_conditions();
        self.schedule_flush();
        Ok(())
    }

    /// Appends `edit` to the MANIFEST and makes the resulting version
    /// current, one install at a time. A failure comes back non-retryable
    /// (see [`harden_install_error`]).
    pub(crate) fn install(&self, edit: VersionEdit) -> DbResult<()> {
        let t0 = xlsm_sim::now_nanos();
        self.install_lock.acquire(1);
        xlsm_sim::waited(Class::Install, xlsm_sim::now_nanos() - t0);
        let installed = self.versions.log_and_apply(edit);
        self.install_lock.release(1);
        installed.map(drop).map_err(harden_install_error)
    }
}

/// Maps a failed MANIFEST install to a non-retryable error: the record may
/// or may not have become durable, so blindly re-running the job could
/// apply the same edit twice.
fn harden_install_error(e: DbError) -> DbError {
    match e {
        DbError::Io { source, .. } => DbError::Io {
            retryable: false,
            source,
        },
        other => other,
    }
}

impl DbBackend {
    /// The memtable writes land in now, with the CPU cost of one skiplist
    /// insert at its current size.
    fn mutable_and_insert_cost(&self) -> (Arc<MemTable>, u64) {
        let mem = Arc::clone(&self.inner.mem.lock().mutable);
        let entries = mem.num_entries();
        let bytes = mem.approximate_bytes() as u64;
        let per_insert = costs::skiplist_insert_ns(entries.max(1), bytes.max(1));
        (mem, per_insert)
    }
}

impl WriteBackend for DbBackend {
    fn preprocess(&self, group_bytes: u64) -> DbResult<()> {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Relaxed) {
            return Err(DbError::ShuttingDown);
        }
        if let Some(e) = inner.bg.read_only_error() {
            return Err(e);
        }
        loop {
            // Stop conditions (Algorithm 1's stop threshold, memtable limit,
            // an ENOSPC stall).
            let stopped_ns = inner.controller.wait_while_stopped(&inner.bg);
            if stopped_ns > 0 {
                inner.stats.bump(Ticker::StallStoppedWrites);
                inner.stats.add(Ticker::StallMicros, stopped_ns / 1_000);
            }
            // A hard background error releases stopped writers; they must
            // fail fast rather than re-enter the stall loop.
            if let Some(e) = inner.bg.read_only_error() {
                return Err(e);
            }
            // Delay (Algorithm 1's DELAYWRITE pacing).
            let delay = inner.controller.delay_for_write(group_bytes);
            if delay > 0 {
                inner.stats.bump(Ticker::StallDelayedWrites);
                inner.stats.add(Ticker::StallMicros, delay / 1_000);
                xlsm_sim::charge(Class::Delay, delay);
            }
            // Room in the mutable memtable.
            let (mutable_full, imm_count) = {
                let mem = inner.mem.lock();
                (
                    mem.mutable.approximate_bytes() >= inner.dynamic.write_buffer_size(),
                    mem.immutables.len(),
                )
            };
            if !mutable_full {
                return Ok(());
            }
            if imm_count + 1 >= inner.opts.max_write_buffer_number {
                // Switching now would exceed the memtable budget: raise the
                // stop condition and wait for a flush (if one finished
                // between our check and the update, the retry sees room).
                inner.update_stall_conditions();
                continue;
            }
            inner.switch_memtable()?;
        }
    }

    fn reserve_seq(&self, count: u64) -> u64 {
        self.inner.versions.reserve_sequences(count)
    }

    fn publish_seq(&self, last: u64) {
        self.inner.versions.publish_sequence(last);
    }

    fn write_wal(&self, group: &WriteBatch) -> DbResult<()> {
        if !self.inner.opts.enable_wal {
            return Ok(());
        }
        let wal = {
            let mem = self.inner.mem.lock();
            mem.wal.clone()
        };
        let Some(wal) = wal else {
            return Ok(());
        };
        let t0 = xlsm_sim::now_nanos();
        // A failed append or sync left the log with a torn record, which
        // stops replay, or with one the client was told had failed: no
        // later write may be acknowledged behind it. The database goes
        // read-only until `Db::resume` retires the log; the writer gets the
        // error.
        let appended = wal.append(group.data(), self.inner.opts.wal_sync);
        let written = appended.inspect_err(|e| {
            self.inner.bg.fail(BackgroundOp::Wal, e.clone(), 0);
        })?;
        self.inner.stats.add(Ticker::WalBytes, written);
        self.inner
            .stats
            .wal_append
            .record(xlsm_sim::now_nanos() - t0);
        Ok(())
    }

    fn write_memtable(&self, group: &WriteBatch) -> DbResult<()> {
        let (mem, per_insert) = self.mutable_and_insert_cost();
        xlsm_sim::charge(Class::MemtableInsert, per_insert * group.count() as u64);
        group.apply_to(&mem)
    }

    fn write_memtable_member(&self, batch: &WriteBatch) -> DbResult<()> {
        let (mem, per_insert) = self.mutable_and_insert_cost();
        for (i, (seq, op)) in (batch.sequence()..).zip(batch.iter()).enumerate() {
            let (t, key, value) = op?;
            batch.verify_entry(i, t, key, value, "concurrent memtable insert")?;
            // Each member charges its own inserts, so the members' costs
            // overlap in virtual time; `add` itself never yields.
            xlsm_sim::charge(Class::MemtableInsert, per_insert);
            mem.add(seq, t, key, value);
        }
        Ok(())
    }
}

/// Maximum bytes gathered into one write batch group (RocksDB
/// `max_write_batch_group_size`).
const MAX_WRITE_BATCH_GROUP_SIZE: usize = 1 << 20;

impl Db {
    /// Opens (creating or recovering) a database on `fs`.
    ///
    /// # Errors
    ///
    /// Option validation, filesystem, or corruption errors.
    pub fn open(fs: Arc<SimFs>, opts: DbOptions) -> DbResult<Db> {
        opts.validate().map_err(DbError::InvalidArgument)?;
        let wal_fs = opts.wal_fs.clone().unwrap_or_else(|| Arc::clone(&fs));
        let db_path = opts.db_path.clone();
        let existing = fs.exists(&filenames::current_file_name(&db_path));
        let versions = if existing {
            VersionSet::recover(Arc::clone(&fs), &db_path)?
        } else {
            VersionSet::create_new(Arc::clone(&fs), &db_path)?
        };
        let table_cache = TableCache::new(
            Arc::clone(&fs),
            &db_path,
            opts.block_cache_capacity,
            opts.max_open_files,
            opts.paranoid_file_checks,
        );
        let stats = DbStats::shared();
        if existing {
            recovery::reclaim_file_numbers(&fs, &wal_fs, &versions);
            let recovered = recovery::replay_wals(&wal_fs, &versions, &opts, &stats)?;
            recovery::flush_recovered(&fs, &versions, &opts, &recovered)?;
        }

        // Fresh WAL + memtable; old WALs are fully represented in L0 now.
        let wal_number = versions.new_file_number();
        let wal = if opts.enable_wal {
            Some(Arc::new(WalWriter::create(
                &wal_fs,
                &db_path,
                wal_number,
                opts.wal_bytes_per_sync,
            )?))
        } else {
            None
        };
        versions.log_and_apply(VersionEdit {
            log_number: Some(wal_number),
            ..VersionEdit::default()
        })?;

        let (flush_tx, flush_rx) = channel::<()>("flush-jobs");
        let (compact_tx, compact_rx) = channel::<()>("compaction-jobs");
        let controller = WriteController::new(&opts);
        controller.attach_accounting(Arc::clone(&stats.stall));
        // Every budget auto-tunes (a rate of 0 is no budget): debt equal to
        // 4× the L1 target doubles it, capped at 4× (`BgIoLimiter::retune`).
        let reference = 4 * opts.max_bytes_for_level_base;
        let io_limiter = BgIoLimiter::new(opts.bg_io_rate_bytes_per_sec, Some(reference));
        let concurrent = opts.allow_concurrent_memtable_write;
        // With the space watcher polling, DeviceFull from a background job
        // is a stall the watcher ends; without it a full disk makes the
        // database read-only until `Db::resume`.
        let soft_enospc = opts.space_poll_interval_ns > 0;
        let bg = ErrorHandler::new(soft_enospc, Arc::clone(&stats), controller.stop_wait());
        let inner = Arc::new(DbInner {
            controller,
            io_limiter,
            queue: WriteQueue::new(MAX_WRITE_BATCH_GROUP_SIZE, concurrent),
            dynamic: DynamicOptions::new(&opts),
            mem: parking_lot::Mutex::new(MemState {
                mutable: new_memtable(&opts, opts.write_buffer_size, 1),
                wal,
                wal_number,
                immutables: Vec::new(),
                next_mem_id: 1,
            }),
            table_cache,
            stats,
            versions,
            snapshots: parking_lot::Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            install_lock: Semaphore::new("manifest-install", 1),
            flush_serial: Semaphore::new("flush-serial", 1),
            flush_tx,
            compact_tx,
            compact_rx,
            compacting: AtomicBool::new(false),
            compactions_stuck: AtomicBool::new(false),
            obsolete: parking_lot::Mutex::new(Vec::new()),
            bg,
            space: SpaceManager::new(opts.max_allowed_space_bytes),
            trash: DeleteScheduler::new(opts.sst_delete_rate_bytes_per_sec),
            wal_fs,
            fs,
            opts,
        });
        inner.purge_old_wals();
        if existing {
            recovery::sweep_trash(&inner);
            recovery::sweep_orphans(&inner);
        }
        let workers = background::spawn_workers(&inner, flush_rx);
        Ok(Db {
            inner,
            workers: parking_lot::Mutex::new(workers),
        })
    }

    /// Writes a batch (group-committed).
    ///
    /// # Errors
    ///
    /// Shutdown or I/O failures.
    pub fn write(&self, mut batch: WriteBatch) -> DbResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let (t0, c0) = (xlsm_sim::now_nanos(), xlsm_sim::charges());
        xlsm_sim::charge(Class::Setup, costs::WRITE_SETUP_NS);
        // Seal every entry with protection info before it enters the write
        // pipeline; the checksums travel with the batch through group merge,
        // the WAL, and the memtable insert. Charged per key, like the WAL
        // CRC, because it hashes the full key+value.
        let width = self.inner.opts.protection_bytes_per_key;
        if width > 0 && batch.protection_width() != width {
            xlsm_sim::charge(
                Class::Protection,
                costs::KV_PROTECTION_NS * batch.count() as u64,
            );
            batch.enable_protection(width);
        }
        self.inner.stats.add(Ticker::Puts, batch.count() as u64);
        let backend = DbBackend {
            inner: Arc::clone(&self.inner),
        };
        let stats = &self.inner.stats;
        let r = self.inner.queue.submit(batch, &backend, stats);
        if r.is_ok() {
            stats.writes.record(t0, c0);
        }
        r
    }

    /// Puts one key-value pair.
    ///
    /// # Errors
    ///
    /// See [`Db::write`].
    pub fn put(&self, key: &[u8], value: &[u8]) -> DbResult<()> {
        self.write(self.inner.queue.batch_for_put(key, value))
    }

    /// Deletes one key.
    ///
    /// # Errors
    ///
    /// See [`Db::write`].
    pub fn delete(&self, key: &[u8]) -> DbResult<()> {
        let mut b = WriteBatch::new();
        b.delete(key);
        self.inner.stats.bump(Ticker::Deletes);
        self.write(b)
    }

    /// Takes a consistent snapshot; reads through [`Db::get_at`] with
    /// [`Snapshot::sequence`] see a frozen view, and compaction preserves
    /// the versions it needs.
    pub fn snapshot(&self) -> Snapshot {
        let seq = self.inner.versions.last_sequence();
        self.inner.snapshots.lock().push(seq);
        Snapshot {
            inner: Arc::clone(&self.inner),
            seq,
        }
    }

    /// Forces a memtable switch + flush and waits until no immutables
    /// remain (test/diagnostic helper). The switch queues behind the writers
    /// already in the write queue and waits for them.
    ///
    /// # Errors
    ///
    /// Background flush failures surface here instead of panicking the
    /// worker: a transient I/O error is retried with exponential backoff
    /// and, once it resolves, this returns `Ok`; a hard error (or an
    /// exhausted retry budget) transitions the database to read-only and
    /// this returns [`DbError::ReadOnly`]. See [`Db::resume`].
    pub fn flush(&self) -> DbResult<()> {
        if let Some(e) = self.inner.bg.read_only_error() {
            return Err(e);
        }
        let mutable_empty = {
            let state = self.inner.mem.lock();
            if state.mutable.is_empty() && state.immutables.is_empty() {
                return Ok(());
            }
            state.mutable.is_empty()
        };
        if mutable_empty {
            self.inner.schedule_flush();
        } else {
            self.inner.queue.at_head(|| self.inner.switch_memtable())?;
        }
        while !{ self.inner.mem.lock().immutables.is_empty() } {
            if let Some(e) = self.inner.bg.read_only_error() {
                return Err(e);
            }
            xlsm_sim::charge(Class::Idle, 100_000);
        }
        Ok(())
    }

    /// Blocks until no compaction is warranted and none is running
    /// (test/diagnostic helper). Reads the compaction daemon's in-flight
    /// flag and its pending signals; one compaction runs at a time.
    ///
    /// Returns early in two states that waiting does not end:
    /// * the database is read-only: no compaction runs until
    ///   [`Db::resume`];
    /// * a pick made after the call began deferred every eligible
    ///   compaction under the space cap, and nothing left can free
    ///   headroom: no compaction in flight, no compaction signal pending,
    ///   no trash backlog for the reaper and no flush output reserved.
    ///   Raising the cap ([`Db::set_max_allowed_space_bytes`]) and waiting
    ///   again compacts.
    pub fn wait_for_compactions(&self) {
        let inner = &self.inner;
        // Only a pick made from here on may end the wait deferred.
        inner.compactions_stuck.store(false, Ordering::Relaxed);
        loop {
            if inner.bg.is_read_only() {
                return;
            }
            // Score against the trigger in effect: with the runtime L0
            // trigger raised (deferred compactions), the scheduler will
            // not pick work the configured trigger would, and waiting on
            // the configured score would spin forever.
            let score = inner
                .versions
                .current()
                .compaction_score(&inner.opts, inner.dynamic.l0_compaction_trigger())
                .1;
            let idle = !inner.compacting.load(Ordering::Relaxed) && inner.compact_rx.is_empty();
            if idle && (score < 1.0 || inner.compactions_stuck.load(Ordering::Relaxed)) {
                return;
            }
            inner.maybe_schedule_compaction();
            xlsm_sim::charge(Class::Idle, 200_000);
        }
    }

    /// Re-runs the failed work and makes the database healthy — the RocksDB
    /// `DB::Resume()` analogue; a healthy database has nothing to resume.
    /// Pending immutable memtables are flushed in the caller's thread; on
    /// success the read-only state or the ENOSPC stall ends, stalled
    /// writers are re-admitted, and compactions reschedule. The mutable
    /// memtable is flushed too, which retires its log: after a failed WAL
    /// write that log may hold a torn record, or one the client was told
    /// had failed, and no later write may land behind it.
    ///
    /// # Errors
    ///
    /// The error hit while re-running the work; the database stays
    /// read-only (or stalled) in that case.
    pub fn resume(&self) -> DbResult<()> {
        if self.inner.bg.current().is_none() {
            return Ok(());
        }
        // Not at the write queue's head: on an ENOSPC stall that is a leader
        // parked before its WAL append until a resume ends the stall.
        self.inner.switch_memtable()?;
        while self.inner.flush_one()? {}
        self.inner.resume_work();
        Ok(())
    }

    /// Statistics sink.
    pub fn stats(&self) -> &Arc<DbStats> {
        &self.inner.stats
    }

    /// Write-controller state (stall level, current delayed write rate).
    pub fn controller_snapshot(&self) -> crate::controller::ControllerSnapshot {
        self.inner.controller.snapshot()
    }

    /// One cheap cross-layer snapshot: tickers, latency histograms, the
    /// write-stall breakdown totals, the controller-transition log since
    /// the previous call (draining), controller state, and device-side
    /// queue/GC accounting.
    pub fn metrics(&self) -> Metrics {
        let stats = &self.inner.stats;
        let fs_stats = self.inner.fs.stats();
        let writes = stats.writes.totals();
        Metrics {
            tickers: stats.ticker_snapshot(),
            get_latency: stats.gets.latency().summary(),
            write_latency: stats.writes.latency().summary(),
            write_group_batches: stats.write_group_batches.summary(),
            scrub_pass: stats.scrub_pass.summary(),
            enospc_stall: stats.enospc_stall.summary(),
            free_space_bytes: fs_stats
                .free_space_pages
                .saturating_mul(xlsm_device::PAGE_SIZE as u64),
            largest_free_extent_bytes: fs_stats
                .largest_free_extent_pages
                .saturating_mul(xlsm_device::PAGE_SIZE as u64),
            live_sst_bytes: self.inner.versions.current().total_bytes(),
            trash_queue_bytes: self.inner.trash.queued_bytes(),
            compaction_debt_bytes: self.inner.versions.current().pending_compaction_bytes(
                &self.inner.opts,
                self.inner.dynamic.l0_compaction_trigger(),
            ),
            wal_append: stats.wal_append.summary(),
            flush_duration: stats.flush_duration.summary(),
            compaction_duration: stats.compaction_duration.summary(),
            avg_waiting_writers: stats.avg_waiting_writers(),
            gets: stats.gets.totals(),
            multi_gets: stats.multi_gets.totals(),
            writes,
            stall: stats.stall.totals(&writes),
            stall_events: stats.stall.drain_events(),
            controller: self.inner.controller.snapshot(),
            device: xlsm_device::Device::stats(&**self.inner.fs.device()),
            background_error: self.inner.bg.current(),
            read_only: self.inner.bg.is_read_only(),
        }
    }

    /// Point-in-time LSM shape.
    pub fn shape(&self) -> LsmShape {
        let version = self.inner.versions.current();
        let mem = self.inner.mem.lock();
        LsmShape {
            files_per_level: version.levels.iter().map(Vec::len).collect(),
            bytes_per_level: (0..version.levels.len())
                .map(|l| version.level_bytes(l))
                .collect(),
            immutables: mem.immutables.len(),
            mutable_bytes: mem.mutable.approximate_bytes(),
        }
    }

    /// Current Level-0 file count.
    pub fn num_l0_files(&self) -> usize {
        self.inner.versions.current().num_l0_files()
    }

    /// Adjusts `max_allowed_space_bytes` at runtime (`0` disables the
    /// cap). Raising the cap frees headroom immediately: a soft-stalled
    /// database auto-resumes at the `SpaceWatcher`'s next poll.
    pub fn set_max_allowed_space_bytes(&self, bytes: u64) {
        self.inner.space.set_max_allowed_space_bytes(bytes);
    }

    /// Bytes of trashed SSTs still awaiting rate-limited deletion.
    pub fn trash_queued_bytes(&self) -> u64 {
        self.inner.trash.queued_bytes()
    }

    /// Adjusts the memtable size at runtime (the dynamic Level-0 case study
    /// V-B uses this to trade L0 file count against file size).
    pub fn set_write_buffer_size(&self, bytes: usize) {
        self.inner
            .dynamic
            .write_buffer_size
            .store(bytes.max(64 << 10), Ordering::Relaxed);
    }

    /// Overrides the Level-0 compaction trigger at runtime (`0` restores
    /// the configured value). Together with
    /// [`Db::set_write_buffer_size`] this trades L0 file count against
    /// file size at constant aggregate volume — case study V-B.
    pub fn set_l0_compaction_trigger(&self, files: usize) {
        let files = match files {
            0 => self.inner.opts.level0_file_num_compaction_trigger,
            n => n,
        };
        self.inner
            .dynamic
            .l0_compaction_trigger
            .store(files, Ordering::Relaxed);
        self.inner.maybe_schedule_compaction();
    }

    /// The currently effective Level-0 compaction trigger.
    pub fn l0_compaction_trigger(&self) -> usize {
        self.inner.dynamic.l0_compaction_trigger()
    }

    /// Currently configured memtable size.
    pub fn write_buffer_size(&self) -> usize {
        self.inner.dynamic.write_buffer_size()
    }

    /// The options this database was opened with.
    pub fn options(&self) -> &DbOptions {
        &self.inner.opts
    }

    /// Block cache counters `(hits, misses)`: the
    /// [`Ticker::BlockCacheHit`] and [`Ticker::BlockCacheMiss`] tickers.
    pub fn block_cache_counters(&self) -> (u64, u64) {
        let t = |ticker| self.inner.stats.ticker(ticker);
        (t(Ticker::BlockCacheHit), t(Ticker::BlockCacheMiss))
    }

    /// Table cache reader-lookup counters `(hits, misses)`.
    pub fn table_cache_counters(&self) -> (u64, u64) {
        self.inner.table_cache.counters()
    }

    /// Currently cached open table readers (bounded by
    /// `DbOptions::max_open_files`).
    pub fn open_table_readers(&self) -> usize {
        self.inner.table_cache.open_readers()
    }

    /// Shuts down: stops background workers and joins them. Unflushed
    /// memtables remain recoverable through the WAL.
    pub fn close(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.inner.flush_tx.close();
        self.inner.compact_tx.close();
        let workers = std::mem::take(&mut *self.workers.lock());
        for w in workers {
            w.join();
        }
    }
}

/// An RAII snapshot handle; dropping it releases the pinned sequence.
pub struct Snapshot {
    inner: Arc<DbInner>,
    seq: SequenceNumber,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot").field("seq", &self.seq).finish()
    }
}

impl Snapshot {
    /// The pinned sequence number, for [`Db::get_at`].
    pub fn sequence(&self) -> SequenceNumber {
        self.seq
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let mut snaps = self.inner.snapshots.lock();
        if let Some(pos) = snaps.iter().position(|s| *s == self.seq) {
            snaps.swap_remove(pos);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::controller::StallLevel;
    use xlsm_device::{profiles, SimDevice};
    use xlsm_sim::Runtime;
    use xlsm_simfs::FsOptions;

    pub(crate) fn small_opts() -> DbOptions {
        DbOptions {
            write_buffer_size: 64 << 10,
            target_file_size_base: 64 << 10,
            max_bytes_for_level_base: 256 << 10,
            block_cache_capacity: 256 << 10,
            ..DbOptions::default()
        }
    }

    pub(crate) fn open_db(opts: DbOptions) -> (Db, Arc<SimFs>) {
        let fs = SimFs::new(
            SimDevice::shared(profiles::optane_900p()),
            FsOptions::default(),
        );
        let db = Db::open(Arc::clone(&fs), opts).unwrap();
        (db, fs)
    }

    /// A database on SATA flash with a very low slowdown trigger and one
    /// compaction worker that cannot keep up: a burst of puts throttles.
    fn open_throttled_db() -> Db {
        let fs = SimFs::new(
            SimDevice::shared(profiles::intel_530_sata()),
            FsOptions::default(),
        );
        let opts = DbOptions {
            write_buffer_size: 64 << 10,
            target_file_size_base: 64 << 10,
            level0_file_num_compaction_trigger: 2,
            level0_slowdown_writes_trigger: 3,
            level0_stop_writes_trigger: 8,
            ..DbOptions::default()
        };
        Db::open(fs, opts).unwrap()
    }

    #[test]
    fn put_get_delete_roundtrip() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            db.put(b"alpha", b"1").unwrap();
            db.put(b"beta", b"2").unwrap();
            assert_eq!(db.get(b"alpha").unwrap(), Some(b"1".to_vec()));
            db.put(b"alpha", b"1b").unwrap();
            assert_eq!(db.get(b"alpha").unwrap(), Some(b"1b".to_vec()));
            db.delete(b"alpha").unwrap();
            assert_eq!(db.get(b"alpha").unwrap(), None);
            assert_eq!(db.get(b"beta").unwrap(), Some(b"2".to_vec()));
            assert_eq!(db.get(b"gamma").unwrap(), None);
            db.close();
        });
    }

    #[test]
    fn snapshot_isolation() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            db.put(b"k", b"v1").unwrap();
            let snap = db.snapshot();
            db.put(b"k", b"v2").unwrap();
            assert_eq!(db.get(b"k").unwrap(), Some(b"v2".to_vec()));
            assert_eq!(
                db.get_at(b"k", snap.sequence()).unwrap(),
                Some(b"v1".to_vec())
            );
            drop(snap);
            db.close();
        });
    }

    #[test]
    fn concurrent_clients() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            let db = Arc::new(db);
            let mut handles = Vec::new();
            for t in 0..8u32 {
                let db = Arc::clone(&db);
                handles.push(xlsm_sim::spawn(&format!("client{t}"), move || {
                    for i in 0..200u32 {
                        let key = format!("t{t}-k{i:04}");
                        db.put(key.as_bytes(), key.as_bytes()).unwrap();
                        if i % 3 == 0 {
                            let read_key = format!("t{t}-k{:04}", i / 2);
                            let v = db.get(read_key.as_bytes()).unwrap();
                            assert_eq!(v, Some(read_key.into_bytes()));
                        }
                    }
                }));
            }
            for h in handles {
                h.join();
            }
            assert_eq!(db.stats().ticker(Ticker::Puts), 8 * 200);
            db.close();
        });
    }

    #[test]
    fn write_stalls_under_memtable_pressure() {
        Runtime::new().run(|| {
            // Tiny memtables, very slow device for flushing: writes must
            // stall on the memtable budget but still complete correctly.
            let fs = SimFs::new(
                SimDevice::shared(profiles::intel_530_sata()),
                FsOptions::default(),
            );
            let opts = DbOptions {
                write_buffer_size: 64 << 10,
                target_file_size_base: 64 << 10,
                max_bytes_for_level_base: 256 << 10,
                ..DbOptions::default()
            };
            let db = Db::open(Arc::clone(&fs), opts).unwrap();
            let value = vec![b'x'; 1024];
            for i in 0..512u32 {
                db.put(format!("k{i:05}").as_bytes(), &value).unwrap();
            }
            assert!(
                db.stats().ticker(Ticker::StallMicros) > 0
                    || db.stats().ticker(Ticker::FlushCount) > 0,
                "expected stall or flush activity"
            );
            db.flush().unwrap();
            db.wait_for_compactions();
            assert_eq!(db.get(b"k00000").unwrap(), Some(value.clone()));
            db.close();
        });
    }

    #[test]
    fn l0_slowdown_throttles_writes() {
        Runtime::new().run(|| {
            let db = open_throttled_db();
            let value = vec![b'z'; 1024];
            for i in 0..1500u32 {
                db.put(format!("k{i:06}").as_bytes(), &value).unwrap();
            }
            assert!(
                db.stats().ticker(Ticker::StallDelayedWrites) > 0,
                "L0 slowdown should have delayed some writes"
            );
            db.flush().unwrap();
            db.wait_for_compactions();
            db.close();
        });
    }

    #[test]
    fn stall_breakdown_reconciles_with_write_latency() {
        // Under a throttle-prone workload the write view's mechanisms
        // (queue wait + WAL + pipeline wait + memtable + delay + stop +
        // setup) must explain the observed end-to-end write latency to
        // within 2%. The unattributed remainder is MANIFEST install waits at
        // memtable switches.
        Runtime::new().run(|| {
            let db = open_throttled_db();
            let value = vec![b'z'; 1024];
            for i in 0..1500u32 {
                db.put(format!("k{i:06}").as_bytes(), &value).unwrap();
            }
            let m = db.metrics();
            assert_eq!(m.stall.ops, 1500);
            assert!(
                m.stall.delay_sleep_ns > 0,
                "workload must actually throttle: {:?}",
                m.stall
            );
            let coverage = m.stall.coverage();
            assert!(
                (coverage - 1.0).abs() <= 0.02,
                "breakdown must reconcile with observed latency within 2%: \
                 coverage={coverage:.4} totals={:?}",
                m.stall
            );
            // The event log saw the controller move.
            assert!(
                m.stall_events.iter().any(|e| e.level != StallLevel::Clear),
                "expected throttling transitions in the event log"
            );
            // Device-side time is threaded into the same snapshot.
            assert!(m.device.writes > 0);
            db.flush().unwrap();
            db.wait_for_compactions();
            db.close();
        });
    }

    #[test]
    fn metrics_drain_stall_events_once() {
        Runtime::new().run(|| {
            let db = open_throttled_db();
            let value = vec![b'q'; 1024];
            for i in 0..600u32 {
                db.put(format!("k{i:06}").as_bytes(), &value).unwrap();
            }
            let first = db.metrics();
            assert!(
                !first.stall_events.is_empty(),
                "throttled run must log events"
            );
            let second = db.metrics();
            assert!(
                second.stall_events.is_empty(),
                "drained events must not repeat"
            );
            assert_eq!(second.stall.events_pushed, first.stall.events_pushed);
            assert_eq!(second.tickers.get(Ticker::Puts), 600);
            db.flush().unwrap();
            db.wait_for_compactions();
            db.close();
        });
    }

    #[test]
    fn batched_writes_are_atomic() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            let mut batch = WriteBatch::new();
            batch.put(b"a", b"1");
            batch.put(b"b", b"2");
            batch.delete(b"a");
            db.write(batch).unwrap();
            assert_eq!(db.get(b"a").unwrap(), None);
            assert_eq!(db.get(b"b").unwrap(), Some(b"2".to_vec()));
            db.close();
        });
    }

    #[test]
    fn shutdown_rejects_new_writes() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            db.put(b"k", b"v").unwrap();
            db.close();
            assert!(matches!(db.put(b"k2", b"v"), Err(DbError::ShuttingDown)));
        });
    }

    #[test]
    fn set_write_buffer_size_changes_l0_geometry() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            assert_eq!(db.write_buffer_size(), 64 << 10);
            db.set_write_buffer_size(256 << 10);
            assert_eq!(db.write_buffer_size(), 256 << 10);
            // Below the floor clamps.
            db.set_write_buffer_size(1);
            assert_eq!(db.write_buffer_size(), 64 << 10);
            // The trigger half of the cell.
            let configured = small_opts().level0_file_num_compaction_trigger;
            assert_eq!(db.l0_compaction_trigger(), configured);
            db.set_l0_compaction_trigger(7);
            assert_eq!(db.l0_compaction_trigger(), 7);
            // Deferred compactions: Level-0 piles up past the configured
            // trigger and waiting still returns, because it scores against
            // the trigger in effect.
            db.set_l0_compaction_trigger(1 << 20);
            for round in 0..=configured as u32 {
                for i in 0..50u32 {
                    db.put(format!("r{round}k{i:03}").as_bytes(), &[b'v'; 64])
                        .unwrap();
                }
                db.flush().unwrap();
            }
            db.wait_for_compactions();
            assert!(db.num_l0_files() > configured);
            // 0 restores the configured value, and the debt drains.
            db.set_l0_compaction_trigger(0);
            assert_eq!(db.l0_compaction_trigger(), configured);
            db.wait_for_compactions();
            assert!(db.num_l0_files() < configured);
            db.close();
        });
    }
}
