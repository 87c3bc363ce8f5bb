//! Background work: flush, compaction, obsolete-file and WAL purge, the
//! trash reaper, the scrubber and the space watcher, all run through one
//! retry / read-only error loop, plus the one daemon loop that drives them.

use crate::bgerror::{BackgroundOp, ErrorSeverity};
use crate::compaction::{pick_compaction, run_compaction, CompactionJob, CompactionPicker};
use crate::costs::{self, EntryCharge};
use crate::db::DbInner;
use crate::error::{DbError, DbResult};
use crate::filenames::{numbered_files, sst_file_name, trash_file_name, LOG};
use crate::integrity::verify_file_crc;
use crate::iterator::InternalIterator;
use crate::memtable::MemTable;
use crate::options::DbOptions;
use crate::scheduler::BgIoPriority;
use crate::sst::{verify_table_file, TableBuilder, TableOptions, TableProperties};
use crate::stats::Ticker;
use crate::version::{FileMetaData, VersionEdit};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use xlsm_sim::sync::Receiver;
use xlsm_sim::{Class, JoinHandle, Nanos};
use xlsm_simfs::{FsError, SimFs};

/// Backoff before the first background-error retry (1 ms); doubles on each
/// subsequent attempt.
const BACKGROUND_ERROR_RETRY_BACKOFF_NS: u64 = 1_000_000;

/// Idle tick of the scrubber and the trash reaper; also their shutdown poll
/// interval.
const IDLE_TICK_NS: u64 = 10_000_000;

/// Compaction signals that may wait for the compaction daemon: one to start
/// the next job and one more for work a running job leaves behind.
const MAX_QUEUED_COMPACTIONS: usize = 2;

/// Deletes `path`, treating "already gone" as success.
fn delete_if_exists(fs: &SimFs, path: &str) -> Result<(), FsError> {
    match fs.delete(path) {
        Ok(()) | Err(FsError::NotFound(_)) => Ok(()),
        Err(e) => Err(e),
    }
}

/// Writes every entry of `mem` to a new table at `path` — what a flush,
/// the recovery flush and repair's log salvage all do. Each entry's
/// protection checksum is verified on the way in (a no-op for an
/// unprotected memtable), and `entry_cpu_ns` of CPU is charged per entry
/// ([`EntryCharge`]).
pub(crate) fn write_memtable_table(
    fs: &Arc<SimFs>,
    path: &str,
    opts: &DbOptions,
    mem: &Arc<MemTable>,
    entry_cpu_ns: u64,
) -> DbResult<TableProperties> {
    let mut builder = TableBuilder::new(fs.create(path)?, TableOptions::from(opts));
    let mut iter = mem.iter();
    let mut ok = iter.seek_to_first()?;
    let mut cpu = EntryCharge::new(Class::Flush, entry_cpu_ns);
    while ok {
        iter.verify_entry()?;
        builder.add(iter.key(), iter.value())?;
        cpu.entry();
        ok = iter.next()?;
    }
    cpu.finish();
    builder.finish()
}

/// The scrubber's cursor: it walks live SSTs in file-number order, wrapping
/// around at the end of each pass.
#[derive(Default)]
struct ScrubState {
    /// Highest file number verified so far in the current pass.
    cursor: u64,
    /// Virtual time the current pass started (0 = not started).
    pass_start_ns: u64,
    /// Files verified in the current pass.
    files_scanned: u64,
}

impl DbInner {
    /// Draws `bytes` from the shared background-I/O budget and attributes
    /// the wait to `BgIoThrottledNs`.
    fn charge_bg_io(&self, bytes: u64, pri: BgIoPriority) {
        if !self.io_limiter.enabled() {
            return;
        }
        let waited = self.io_limiter.acquire(bytes, pri);
        self.stats.add(Ticker::BgIoThrottledNs, waited);
    }

    pub(crate) fn schedule_flush(&self) {
        let _ = self.flush_tx.send(());
    }

    pub(crate) fn maybe_schedule_compaction(&self) {
        if self.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let version = self.versions.current();
        let (_, score) = version.compaction_score(&self.opts, self.dynamic.l0_compaction_trigger());
        if score >= 1.0 && self.compact_rx.len() < MAX_QUEUED_COMPACTIONS {
            let _ = self.compact_tx.send(());
        }
    }

    /// Bytes the database is accountable for under the space cap: live SST
    /// bytes in the current version plus the `trash/` backlog whose extents
    /// are still allocated while they await rate-limited deletion.
    fn accounted_space_bytes(&self) -> u64 {
        let live = self.versions.current().total_bytes();
        live.saturating_add(self.trash.queued_bytes())
    }

    /// Disposes of one obsolete SST. With the delete scheduler enabled the
    /// file is renamed into `trash/` — atomic, crash-durable, and invisible
    /// to the live set from that instant, while its extents stay allocated
    /// until the paced reaper gets to it. Otherwise it is deleted inline
    /// (the legacy path).
    fn dispose_obsolete_sst(&self, number: u64) -> Result<(), FsError> {
        let path = sst_file_name(&self.opts.db_path, number);
        if !self.trash.enabled() {
            return delete_if_exists(&self.fs, &path);
        }
        let bytes = match self.fs.open(&path) {
            Ok(f) => f.len(),
            Err(FsError::NotFound(_)) => return Ok(()), // already gone
            Err(e) => return Err(e),
        };
        let dest = trash_file_name(&self.opts.db_path, number);
        match self.fs.rename(&path, &dest) {
            Ok(()) => {
                self.stats.add(Ticker::TrashQueueBytes, bytes);
                self.trash.schedule(dest, bytes);
                Ok(())
            }
            Err(FsError::NotFound(_)) => Ok(()),
            // A crash between a rename and its obsolete-queue entry being
            // dropped can leave the destination occupied; the trash sweep
            // at open owns that copy, so delete ours directly.
            Err(FsError::AlreadyExists(_)) => delete_if_exists(&self.fs, &path),
            Err(e) => Err(e),
        }
    }

    /// Deletes (or trashes) SSTs queued as obsolete that no live version
    /// references. A failed disposal re-queues the file and records the
    /// error; it is retried at the next purge and never makes data unsafe,
    /// so the database stays writable. A pass without a failure clears the
    /// purge's own error. With the reaper off, the pass first retries the
    /// trash deletes that failed before.
    pub(crate) fn purge_obsolete(&self) {
        self.reap_trash_inline();
        let candidates: Vec<u64> = std::mem::take(&mut *self.obsolete.lock());
        if candidates.is_empty() {
            return;
        }
        let live = self.versions.live_files();
        let mut still_pinned = Vec::new();
        let mut had_error = false;
        for n in candidates {
            if live.contains(&n) {
                still_pinned.push(n);
            } else {
                self.table_cache.evict(n);
                if let Err(e) = self.dispose_obsolete_sst(n) {
                    had_error = true;
                    still_pinned.push(n);
                    self.bg.fail(BackgroundOp::ObsoletePurge, e.into(), 0);
                }
            }
        }
        self.obsolete.lock().extend(still_pinned);
        if !had_error {
            self.bg.succeed(BackgroundOp::ObsoletePurge);
        }
    }

    /// With the reaper off, deletes every file in the trash queue now,
    /// stopping at the first failure (that file stays queued).
    pub(crate) fn reap_trash_inline(&self) {
        while !self.trash.enabled() && self.reap_trash_one() {}
    }

    /// Deletes one file from the trash queue, paced to
    /// `sst_delete_rate_bytes_per_sec` (unpaced at 0), and reports the
    /// result as the reaper's: a success clears its error. Returns `false`
    /// when the queue is empty or the delete failed; a failed delete
    /// re-queues the entry, so the file is disposed of exactly once.
    pub(crate) fn reap_trash_one(&self) -> bool {
        if self.fs.is_powered_off() {
            // A dead device owns its contents; the sweep at reopen will
            // re-queue whatever is still in trash/.
            return false;
        }
        let Some(entry) = self.trash.pop() else {
            return false;
        };
        self.trash.pace(entry.bytes);
        match delete_if_exists(&self.fs, &entry.path) {
            Ok(()) => {
                self.stats.add(Ticker::SpaceReclaimedBytes, entry.bytes);
                self.bg.succeed(BackgroundOp::TrashReap);
                true
            }
            Err(e) => {
                self.trash.schedule(entry.path, entry.bytes);
                self.bg.fail(BackgroundOp::TrashReap, e.into(), 0);
                false
            }
        }
    }

    /// Deletes WAL files with number < the version set's log watermark.
    /// Failures are recorded (`WalPurgeFailures` + the background-error
    /// state) and the file is retried at the next purge pass; they were
    /// previously swallowed silently.
    pub(crate) fn purge_old_wals(&self) {
        let watermark = self.versions.log_number();
        let mut had_error = false;
        for (number, path) in numbered_files(&self.wal_fs, &self.opts.db_path, LOG) {
            if number < watermark {
                if let Err(e) = delete_if_exists(&self.wal_fs, &path) {
                    had_error = true;
                    self.stats.bump(Ticker::WalPurgeFailures);
                    self.bg.fail(BackgroundOp::WalPurge, e.into(), 0);
                }
            }
        }
        if !had_error {
            self.bg.succeed(BackgroundOp::WalPurge);
        }
    }

    // -- space watcher ------------------------------------------------------

    /// One `SpaceWatcher` poll: while the database is stalled on ENOSPC,
    /// check whether headroom has returned (the cap was raised, trash was
    /// reaped, or device space freed) and resume. A power cut observed
    /// mid-stall ends the incarnation instead: the database goes read-only
    /// so parked writers fail fast rather than hang on a dead device.
    fn space_watch_tick(self: &Arc<Self>) {
        if !self.bg.is_stalled() {
            return;
        }
        if self.fs.is_powered_off() {
            self.bg.abandon_stall();
            return;
        }
        // Headroom test: the next flush's estimated output must fit both
        // under the cap and in the device's actual free space.
        let needed = {
            let mem = self.mem.lock();
            mem.immutables
                .first()
                .map(|(m, _)| m.approximate_bytes() as u64)
                .unwrap_or_else(|| mem.mutable.approximate_bytes() as u64)
        };
        let page = xlsm_device::PAGE_SIZE as u64;
        let device_free = self.fs.free_space_pages().saturating_mul(page);
        if self.space.would_fit(needed, self.accounted_space_bytes()) && device_free >= needed {
            self.resume_work();
        }
    }

    /// Makes the database healthy and reschedules the work a stall or a
    /// read-only state held back: the space watcher's auto-resume and
    /// [`crate::Db::resume`] both end here.
    pub(crate) fn resume_work(self: &Arc<Self>) {
        self.bg.resume();
        self.update_stall_conditions();
        self.schedule_flush();
        self.maybe_schedule_compaction();
    }

    // -- scrubbing ---------------------------------------------------------

    /// Verifies one live SST against its recorded checksums and advances the
    /// scrubber's cursor (file-number order, wrapping at the end of a pass).
    ///
    /// Reads are paced to `scrub_rate_bytes_per_sec` so the scrubber's I/O
    /// cost is honest but bounded. Returns `Ok(false)` when scrubbing is
    /// disabled or there is nothing to scan; corruption errors propagate to
    /// [`DbInner::run_background_job`], which counts them and flips the
    /// database read-only.
    fn scrub_one(self: &Arc<Self>, state: &mut ScrubState) -> DbResult<bool> {
        let rate = self.opts.scrub_rate_bytes_per_sec;
        if rate == 0 {
            return Ok(false);
        }
        let version = self.versions.current();
        let mut metas: Vec<Arc<FileMetaData>> = version.levels.iter().flatten().cloned().collect();
        metas.sort_by_key(|m| m.number);
        metas.dedup_by_key(|m| m.number);
        if metas.is_empty() {
            return Ok(false);
        }
        if state.pass_start_ns == 0 {
            state.pass_start_ns = xlsm_sim::now_nanos();
        }
        let meta = match metas.iter().find(|m| m.number > state.cursor) {
            Some(m) => {
                state.files_scanned += 1;
                Arc::clone(m)
            }
            None => {
                // Pass complete: record its duration, wrap around.
                if state.files_scanned > 0 {
                    self.stats
                        .scrub_pass
                        .record(xlsm_sim::now_nanos() - state.pass_start_ns);
                }
                state.pass_start_ns = xlsm_sim::now_nanos();
                state.files_scanned = 1;
                Arc::clone(&metas[0])
            }
        };
        state.cursor = meta.number;
        let path = sst_file_name(&self.opts.db_path, meta.number);
        let file = match self.fs.open(&path) {
            Ok(f) => f,
            // Compacted away between the version snapshot and the open.
            Err(FsError::NotFound(_)) => return Ok(true),
            Err(e) => return Err(e.into()),
        };
        let mut pacer = |bytes: u64| {
            xlsm_sim::charge(Class::Pacing, bytes.saturating_mul(1_000_000_000) / rate);
        };
        let result = (|| {
            if verify_file_crc(&file, &meta, &path, &mut pacer)? {
                Ok(file.len())
            } else {
                verify_table_file(&file, meta.number, &mut pacer)
            }
        })();
        match result {
            Ok(bytes) => {
                self.stats.add(Ticker::ScrubBytesVerified, bytes);
                Ok(true)
            }
            Err(e) => {
                if matches!(e, DbError::Corruption(_)) {
                    self.stats.bump(Ticker::ScrubCorruptionsFound);
                }
                Err(e)
            }
        }
    }

    // -- flush ------------------------------------------------------------

    /// The oldest log still needed once the oldest immutable memtable is
    /// flushed. It cannot move while a flush waits for the install lock:
    /// flushes are serialized, and a memtable switch only appends logs
    /// numbered above every one considered here.
    fn log_watermark(&self) -> u64 {
        let state = self.mem.lock();
        let newer = state.immutables.iter().skip(1).map(|(_, w)| *w);
        newer.fold(state.wal_number, u64::min)
    }

    pub(crate) fn flush_one(self: &Arc<Self>) -> DbResult<bool> {
        // Serialize flush jobs (RocksDB flushes one memtable at a time).
        self.flush_serial.acquire(1);
        let result = self.flush_one_locked();
        self.flush_serial.release(1);
        result
    }

    fn flush_one_locked(self: &Arc<Self>) -> DbResult<bool> {
        let (mem, _wal_number) = {
            let state = self.mem.lock();
            match state.immutables.first() {
                Some((m, w)) => (Arc::clone(m), *w),
                None => return Ok(false),
            }
        };
        if mem.is_empty() {
            // Only `Db::resume` seals an empty memtable: nothing to write,
            // but the log behind it, which a failed write damaged, retires.
            self.install(VersionEdit {
                log_number: Some(self.log_watermark()),
                ..VersionEdit::default()
            })?;
            self.mem.lock().immutables.remove(0);
            self.purge_old_wals();
            return Ok(true);
        }
        let t0 = xlsm_sim::now_nanos();
        // Pre-reserve the flush's estimated output under the space cap
        // before writing a byte: with the cap held below device capacity,
        // the WAL (which shares the device) is never the thing that hits
        // ENOSPC — the flush is, here, before any I/O, and the failure
        // takes the soft stall-and-resume path.
        let Some(reservation) = self
            .space
            .reserve(mem.approximate_bytes() as u64, self.accounted_space_bytes())
        else {
            return Err(DbError::Fs(FsError::DeviceFull));
        };
        let number = self.versions.new_file_number();
        let sst_path = sst_file_name(&self.opts.db_path, number);
        let props = match write_memtable_table(
            &self.fs,
            &sst_path,
            &self.opts,
            &mem,
            costs::FLUSH_ENTRY_NS,
        ) {
            Ok(props) => props,
            Err(e) => {
                // Drop the partial output so a retried flush starts clean;
                // the immutable memtable stays queued for the retry.
                let _ = self.fs.delete(&sst_path);
                drop(reservation);
                return Err(e);
            }
        };
        // Settle the flush's bytes against the shared background budget at
        // flush priority: queued compactions must leave room for it.
        self.charge_bg_io(props.file_size, BgIoPriority::Flush);

        let mut edit = VersionEdit::default();
        let file_size = props.file_size;
        edit.added
            .push((0, FileMetaData::from_props(number, props)));
        edit.log_number = Some(self.log_watermark());
        let install = self.install(edit);
        // Installed (or abandoned) output stops being a reservation — on
        // success it is counted as live bytes from here on.
        drop(reservation);
        // After a failed install the manifest record may or may not be
        // durable — its state is unknown, so the error is never retryable.
        // The built SST stays on disk: if the edit did land, deleting it
        // would leave the manifest pointing at a missing file.
        install?;

        {
            let mut state = self.mem.lock();
            debug_assert!(Arc::ptr_eq(&state.immutables[0].0, &mem));
            state.immutables.remove(0);
        }
        self.stats.bump(Ticker::FlushCount);
        self.stats.add(Ticker::FlushBytes, file_size);
        self.stats.flush_duration.record(xlsm_sim::now_nanos() - t0);
        self.purge_old_wals();
        self.update_stall_conditions();
        self.maybe_schedule_compaction();
        Ok(true)
    }

    // -- compaction --------------------------------------------------------

    fn compact_one(self: &Arc<Self>, picker: &mut CompactionPicker) -> DbResult<bool> {
        // Headroom rule: a compaction whose estimated output (bounded by
        // its input bytes — merging only shrinks) cannot be reserved under
        // the space cap never starts. The picker masks that level and falls
        // back to smaller eligible work instead. A trivial move writes
        // nothing, and nothing always fits.
        let accounted = self.accounted_space_bytes();
        let mut deferred = false;
        let picked = pick_compaction(
            &self.versions.current(),
            &self.opts,
            self.dynamic.l0_compaction_trigger(),
            picker,
            |t| {
                let bytes = if t.is_trivial_move {
                    0
                } else {
                    t.input_bytes()
                };
                let reservation = self.space.reserve(bytes, accounted);
                if reservation.is_none() {
                    self.stats.bump(Ticker::SpaceCompactionsDeferred);
                    deferred = true;
                }
                reservation
            },
        );
        // A pick that deferred every eligible compaction while no trash
        // awaits the reaper and no flush holds a reservation stays deferred
        // until a flush, a compaction signal or a raised cap: what
        // `Db::wait_for_compactions` reads to stop waiting.
        let stuck = picked.is_none()
            && deferred
            && self.trash.queued_bytes() == 0
            && self.space.reserved_bytes() == 0;
        self.compactions_stuck.store(stuck, Ordering::Relaxed);
        let Some((task, reservation)) = picked else {
            return Ok(false);
        };
        self.compacting.store(true, Ordering::Relaxed);
        let t0 = xlsm_sim::now_nanos();
        let min_snapshot = self
            .snapshots
            .lock()
            .iter()
            .min()
            .copied()
            .unwrap_or_else(|| self.versions.last_sequence());
        // A real merge reads every input byte; settle that against the
        // shared budget before touching the device (trivial moves are
        // metadata-only and free). Compaction priority: any flush that has
        // registered bytes overtakes us at the bucket.
        if !task.is_trivial_move {
            self.charge_bg_io(task.input_bytes(), BgIoPriority::Compaction);
        }
        let inner = Arc::clone(self);
        let new_file_number: Arc<dyn Fn() -> u64 + Send + Sync> =
            Arc::new(move || inner.versions.new_file_number());
        let result = run_compaction(&CompactionJob {
            task: &task,
            fs: &self.fs,
            table_cache: &self.table_cache,
            stats: &self.stats,
            opts: &self.opts,
            new_file_number: &new_file_number,
            min_snapshot,
        });
        let edit = match result {
            Ok(edit) => edit,
            Err(e) => {
                self.compacting.store(false, Ordering::Relaxed);
                drop(reservation);
                return Err(e);
            }
        };
        if !task.is_trivial_move {
            // …and the bytes the merge wrote back out.
            let out_bytes: u64 = edit.added.iter().map(|(_, f)| f.file_size).sum();
            self.charge_bg_io(out_bytes, BgIoPriority::Compaction);
        }
        let install = self.install(edit);
        self.compacting.store(false, Ordering::Relaxed);
        // Installed (or abandoned) outputs count as live bytes, not a
        // reservation, from here on.
        drop(reservation);
        // Manifest state is unknown after an install failure: hard error,
        // and the outputs stay on disk in case the edit landed.
        install?;
        if !task.is_trivial_move {
            self.obsolete.lock().extend(task.input_numbers());
            self.purge_obsolete();
        }
        self.stats.bump(Ticker::CompactionCount);
        self.stats
            .compaction_duration
            .record(xlsm_sim::now_nanos() - t0);
        self.update_stall_conditions();
        self.maybe_schedule_compaction();
        Ok(true)
    }

    // -- background-error handling ------------------------------------------

    /// Runs one background job with RocksDB-style error handling: the
    /// handler classifies each failure, a retryable one runs again after an
    /// exponential backoff, and the job's success clears the error it
    /// recorded. A stall leaves the job queued (the immutable memtable stays
    /// in place) for the space watcher to reschedule; a hard error leaves
    /// the database read-only. Daemons never panic.
    fn run_background_job(
        self: &Arc<Self>,
        op: BackgroundOp,
        mut job: impl FnMut(&Arc<Self>) -> DbResult<bool>,
    ) {
        let mut retries = 0u32;
        while !self.shutdown.load(Ordering::Relaxed) && !self.bg.is_read_only() {
            let e = match job(self) {
                Ok(_) => {
                    if self.bg.succeed(op) {
                        self.update_stall_conditions();
                    }
                    return;
                }
                Err(e) => e,
            };
            if self.bg.fail(op, e, retries) != ErrorSeverity::Retryable {
                return;
            }
            self.stats.bump(Ticker::BackgroundErrorRetries);
            let backoff = BACKGROUND_ERROR_RETRY_BACKOFF_NS.saturating_mul(1u64 << retries.min(20));
            retries += 1;
            xlsm_sim::charge(Class::Backoff, backoff.max(1));
        }
    }
}

/// What a daemon waits for before its next step.
enum Wake {
    /// The next signal on its job channel.
    Job,
    /// Nothing: the step already spent its virtual time.
    Now,
    /// That much idle virtual time.
    After(Nanos),
}

/// Spawns one daemon: a thread that runs `step`, which does one unit of
/// work and returns its next wake, until the database shuts down or `jobs`
/// closes. The step owns whatever state no other thread touches. A daemon
/// with a job channel waits for a job before its first step; one without
/// steps at once.
fn spawn_daemon(
    inner: &Arc<DbInner>,
    name: &str,
    jobs: Option<Receiver<()>>,
    mut step: impl FnMut(&Arc<DbInner>) -> Wake + Send + 'static,
) -> JoinHandle<()> {
    let inner = Arc::clone(inner);
    xlsm_sim::spawn(name, move || {
        let mut wake = jobs.as_ref().map_or(Wake::Now, |_| Wake::Job);
        loop {
            match wake {
                Wake::Job => {
                    if jobs.as_ref().is_none_or(|rx| rx.recv().is_none()) {
                        return;
                    }
                }
                Wake::Now => {}
                Wake::After(ns) => xlsm_sim::charge(Class::Idle, ns),
            }
            if inner.shutdown.load(Ordering::Relaxed) {
                return;
            }
            wake = step(&inner);
        }
    })
}

/// Spawns the daemon table `Db::open` hands to the `Db` for joining at
/// close, in table order: flush and compaction, each draining its job
/// channel, then the scrubber, the trash reaper and the space watcher when
/// enabled.
///
/// One flush and one compaction daemon: RocksDB 5.17's
/// `max_background_flushes` and `max_background_compactions` default, which
/// db_bench and the paper run. Flushes are serialized by `flush_serial`, so
/// a second flush daemon would only queue behind it.
pub(crate) fn spawn_workers(inner: &Arc<DbInner>, flush_rx: Receiver<()>) -> Vec<JoinHandle<()>> {
    let opts = &inner.opts;
    let mut picker = CompactionPicker::new(opts.compaction_scheduler);
    let mut scrub = ScrubState::default();
    let compact_rx = Some(inner.compact_rx.clone());
    let daemons = [
        Some(spawn_daemon(inner, "flush-0", Some(flush_rx), |db| {
            db.run_background_job(BackgroundOp::Flush, DbInner::flush_one);
            Wake::Job
        })),
        Some(spawn_daemon(inner, "compact-0", compact_rx, move |db| {
            db.run_background_job(BackgroundOp::Compaction, |db| db.compact_one(&mut picker));
            Wake::Job
        })),
        (opts.scrub_rate_bytes_per_sec > 0).then(|| {
            spawn_daemon(inner, "scrub-0", None, move |db| {
                db.run_background_job(BackgroundOp::Scrub, |db| db.scrub_one(&mut scrub));
                // Idle tick between files; also the only wait while
                // read-only.
                Wake::After(IDLE_TICK_NS)
            })
        }),
        inner.trash.enabled().then(|| {
            // After a delete go straight for the next (the pace() inside
            // already spent the virtual time); idle or back off after an
            // empty queue or a failed, re-queued delete.
            spawn_daemon(inner, "trash-reaper-0", None, |db| {
                if db.reap_trash_one() {
                    Wake::Now
                } else {
                    Wake::After(IDLE_TICK_NS)
                }
            })
        }),
        (opts.space_poll_interval_ns > 0).then(|| {
            spawn_daemon(inner, "space-watcher-0", None, |db| {
                db.space_watch_tick();
                Wake::After(db.opts.space_poll_interval_ns)
            })
        }),
    ];
    daemons.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use crate::db::tests::{open_db, small_opts};
    use crate::{Db, DbOptions, Ticker};
    use xlsm_sim::Runtime;

    /// Puts `count` 512-byte values under keys `key000000`, `key000001`, …
    fn put_keys(db: &Db, count: u32) {
        for i in 0..count {
            db.put(format!("key{i:06}").as_bytes(), &[b'v'; 512])
                .unwrap();
        }
    }

    #[test]
    fn a_compaction_in_flight_holds_the_wait_under_a_raised_trigger() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(DbOptions {
                level0_file_num_compaction_trigger: 2,
                ..small_opts()
            });
            put_keys(&db, 4_000);
            db.flush().unwrap();
            db.wait_for_compactions();
            let compactions = db.stats().ticker(Ticker::CompactionCount);
            for _ in 0..2 {
                put_keys(&db, 110);
                db.flush().unwrap();
            }
            xlsm_sim::sleep_nanos(100_000);
            // The daemon has taken the signal and not installed: its
            // compaction is in flight.
            assert!(db.inner.compact_rx.is_empty());
            assert_eq!(db.num_l0_files(), 2);
            assert_eq!(db.stats().ticker(Ticker::CompactionCount), compactions);
            // The score now reads below 1; only the running compaction
            // holds the wait.
            db.set_l0_compaction_trigger(100);
            db.wait_for_compactions();
            assert_eq!(
                db.num_l0_files(),
                0,
                "the wait returned before the running compaction installed"
            );
            assert!(db.stats().ticker(Ticker::CompactionCount) > compactions);
            db.close();
        });
    }

    #[test]
    fn values_survive_flush_to_l0() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            for i in 0..100u32 {
                db.put(format!("key{i:04}").as_bytes(), &[b'v'; 100])
                    .unwrap();
            }
            db.flush().unwrap();
            assert!(db.num_l0_files() >= 1);
            for i in 0..100u32 {
                assert_eq!(
                    db.get(format!("key{i:04}").as_bytes()).unwrap(),
                    Some(vec![b'v'; 100]),
                    "key{i:04} lost after flush"
                );
            }
            assert!(db.stats().ticker(Ticker::GetHitL0) > 0);
            db.close();
        });
    }

    #[test]
    fn heavy_writes_trigger_compaction_and_stay_readable() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            // ~4 MiB of data through a 64 KiB memtable => many flushes and
            // at least one compaction into L1.
            let value = vec![b'x'; 512];
            for i in 0..8000u32 {
                db.put(format!("key{:06}", i % 2000).as_bytes(), &value)
                    .unwrap();
            }
            db.flush().unwrap();
            db.wait_for_compactions();
            let shape = db.shape();
            assert!(
                shape.files_per_level[1..].iter().any(|&n| n > 0),
                "compaction should have populated deeper levels: {shape:?}"
            );
            assert!(db.stats().ticker(Ticker::CompactionCount) > 0);
            for i in 0..2000u32 {
                assert_eq!(
                    db.get(format!("key{i:06}").as_bytes()).unwrap(),
                    Some(value.clone()),
                    "key{i:06} lost after compaction"
                );
            }
            db.close();
        });
    }
}
