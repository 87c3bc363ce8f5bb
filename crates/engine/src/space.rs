//! Disk-space management: surviving a full disk instead of wedging on it.
//!
//! Two cooperating pieces, modeled on RocksDB's `SstFileManager` +
//! `DeleteScheduler`:
//!
//! * [`SpaceManager`] — enforces `max_allowed_space_bytes` as a soft
//!   engine-level cap on the bytes the database occupies (live SSTs,
//!   pending `trash/` deletions, and in-flight background-output
//!   reservations). Flushes pre-reserve their estimated output before
//!   writing a byte, so the WAL — which shares the device — is never the
//!   thing that hits ENOSPC; a compaction whose estimated output would not
//!   fit is skipped by the scheduler, which falls back to smaller eligible
//!   work. Keeping the cap below the device capacity is the headroom rule
//!   that turns "full disk" from a client-visible error into a writer
//!   stall.
//! * [`DeleteScheduler`] — decouples *obsoleting* an SST from *reclaiming*
//!   its space. Obsolete files are renamed into a `trash/` directory
//!   (atomic, crash-durable) and deleted by a background reaper paced at
//!   `sst_delete_rate_bytes_per_sec` through a [`BgIoLimiter`] token
//!   bucket, so a mass deletion after a large compaction never saturates
//!   the device foreground reads are being served from.
//!
//! The third piece — the `SpaceWatcher` that polls free space and
//! auto-resumes a soft-stalled database — lives in the database itself
//! (`crate::db`), since resuming touches the write controller, the error
//! handler, and job scheduling.

use crate::scheduler::{BgIoLimiter, BgIoPriority};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tracks the bytes a database occupies against `max_allowed_space_bytes`
/// and hands out output reservations to in-flight flushes and compactions.
///
/// The accounted usage passed to [`SpaceManager::reserve`] /
/// [`SpaceManager::would_fit`] is computed by the caller (live SST bytes
/// from the current version plus the trash backlog); the manager itself
/// only owns the cap and the reservation counter, so it has no lock
/// ordering entanglements with version state.
pub struct SpaceManager {
    max_allowed_space_bytes: AtomicU64,
    reserved: AtomicU64,
}

impl fmt::Debug for SpaceManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpaceManager")
            .field("max_allowed_space_bytes", &self.max_allowed_space_bytes)
            .field("reserved", &self.reserved)
            .finish()
    }
}

impl SpaceManager {
    /// A manager enforcing `max_allowed_space_bytes` (`0` = no cap).
    pub fn new(max_allowed_space_bytes: u64) -> SpaceManager {
        SpaceManager {
            max_allowed_space_bytes: AtomicU64::new(max_allowed_space_bytes),
            reserved: AtomicU64::new(0),
        }
    }

    /// Adjusts the cap at runtime (`0` disables it). Raising the cap frees
    /// headroom: the `SpaceWatcher` picks that up on its next poll and
    /// resumes a soft-stalled database.
    pub fn set_max_allowed_space_bytes(&self, bytes: u64) {
        self.max_allowed_space_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Bytes currently pre-reserved by in-flight background jobs.
    pub(crate) fn reserved_bytes(&self) -> u64 {
        self.reserved.load(Ordering::Relaxed)
    }

    /// Whether `bytes` more would still fit under the cap, given
    /// `used_bytes` of accounted usage (live + trash). Always true with the
    /// cap disabled.
    pub fn would_fit(&self, bytes: u64, used_bytes: u64) -> bool {
        let max = self.max_allowed_space_bytes.load(Ordering::Relaxed);
        if max == 0 {
            return true;
        }
        used_bytes
            .saturating_add(self.reserved.load(Ordering::Relaxed))
            .saturating_add(bytes) as u128
            <= max as u128
    }

    /// Reserves `bytes` of output headroom if it fits under the cap given
    /// `used_bytes` of accounted usage, and returns the receipt:
    /// drop it once the output is installed (it then counts as live bytes)
    /// or abandoned. It gives back what it counted, which is nothing while
    /// the cap is off, so turning the cap on under an in-flight job cannot
    /// release another job's headroom. Zero bytes always fit, over the cap
    /// too.
    pub fn reserve(&self, bytes: u64, used_bytes: u64) -> Option<Reservation<'_>> {
        let max = self.max_allowed_space_bytes.load(Ordering::Relaxed);
        if max == 0 || bytes == 0 {
            return Some(Reservation {
                space: self,
                bytes: 0,
            });
        }
        // A load, a check and a store: only the run-token holder runs, so
        // nothing reserves in between.
        let cur = self.reserved.load(Ordering::Relaxed);
        if used_bytes.saturating_add(cur).saturating_add(bytes) as u128 > max as u128 {
            return None;
        }
        self.reserved.store(cur + bytes, Ordering::Relaxed);
        Some(Reservation { space: self, bytes })
    }

    /// Gives back `bytes` of reservation, saturating at zero.
    fn release(&self, bytes: u64) {
        let cur = self.reserved.load(Ordering::Relaxed);
        self.reserved
            .store(cur.saturating_sub(bytes), Ordering::Relaxed);
    }
}

/// Output headroom held by an in-flight job ([`SpaceManager::reserve`]),
/// given back when dropped.
#[must_use = "dropping a reservation releases it"]
#[derive(Debug)]
pub struct Reservation<'a> {
    space: &'a SpaceManager,
    /// What the reservation counted against the cap.
    bytes: u64,
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.space.release(self.bytes);
    }
}

/// One pending trash deletion: the file's current (trash) path and size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrashEntry {
    /// Path of the file inside the `trash/` directory.
    pub path: String,
    /// File size in bytes when it was trashed (what the reaper paces on).
    pub bytes: u64,
}

/// FIFO queue of trashed SSTs awaiting rate-limited deletion, plus the
/// token bucket that paces the reaper.
pub struct DeleteScheduler {
    rate: u64,
    limiter: BgIoLimiter,
    queue: parking_lot::Mutex<Trash>,
}

/// The pending deletions and their byte sum, kept together under one lock.
#[derive(Debug, Default)]
struct Trash {
    entries: VecDeque<TrashEntry>,
    bytes: u64,
}

impl fmt::Debug for DeleteScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let queue = self.queue.lock();
        f.debug_struct("DeleteScheduler")
            .field("rate", &self.rate)
            .field("queued_bytes", &queue.bytes)
            .field("queue_len", &queue.entries.len())
            .finish()
    }
}

impl DeleteScheduler {
    /// A scheduler reclaiming at `rate` bytes per virtual second (`0`
    /// disables rate-limited deletion: obsolete files are deleted inline).
    pub fn new(rate: u64) -> DeleteScheduler {
        DeleteScheduler {
            rate,
            limiter: BgIoLimiter::new(rate, None),
            queue: parking_lot::Mutex::default(),
        }
    }

    /// Whether trash-based deletion is active.
    pub fn enabled(&self) -> bool {
        self.rate > 0
    }

    /// Enqueues a file already renamed into `trash/`.
    pub fn schedule(&self, path: String, bytes: u64) {
        let mut queue = self.queue.lock();
        queue.bytes += bytes;
        queue.entries.push_back(TrashEntry { path, bytes });
    }

    /// Takes the oldest pending deletion, if any. The entry's bytes leave
    /// the backlog gauge immediately; a failed delete must be returned via
    /// [`DeleteScheduler::schedule`].
    pub fn pop(&self) -> Option<TrashEntry> {
        let mut queue = self.queue.lock();
        let entry = queue.entries.pop_front()?;
        queue.bytes -= entry.bytes;
        Some(entry)
    }

    /// Bytes currently sitting in `trash/` awaiting deletion.
    pub fn queued_bytes(&self) -> u64 {
        self.queue.lock().bytes
    }

    /// Blocks the reaper until the token bucket covers `bytes`, returning
    /// the nanoseconds waited. Deletions pace at compaction priority so a
    /// concurrent flush is never starved by reclamation.
    pub fn pace(&self, bytes: u64) -> u64 {
        self.limiter.acquire(bytes, BgIoPriority::Compaction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservations_respect_the_cap() {
        let m = SpaceManager::new(100);
        let first = m.reserve(40, 30).expect("30 used + 40 = 70 <= 100");
        assert_eq!(m.reserved_bytes(), 40);
        assert!(m.reserve(40, 30).is_none(), "30 + 40 + 40 > 100");
        assert!(m.would_fit(30, 30));
        assert!(!m.would_fit(31, 30));
        drop(first);
        assert_eq!(m.reserved_bytes(), 0);
        assert!(m.reserve(70, 30).is_some());
        assert!(
            m.reserve(0, 200).is_some(),
            "zero bytes fit over the cap too"
        );
        assert_eq!(m.reserved_bytes(), 0, "the dropped receipt gave it back");
    }

    #[test]
    fn disabled_cap_always_fits() {
        let m = SpaceManager::new(0);
        let all = m.reserve(u64::MAX, u64::MAX).expect("no cap, always fits");
        assert!(m.would_fit(u64::MAX, u64::MAX));
        assert_eq!(m.reserved_bytes(), 0, "disabled cap never accumulates");
        drop(all);
    }

    #[test]
    fn cap_is_runtime_adjustable() {
        let m = SpaceManager::new(100);
        assert!(m.reserve(200, 0).is_none());
        m.set_max_allowed_space_bytes(1000);
        assert!(m.reserve(200, 0).is_some());
        m.set_max_allowed_space_bytes(0);
        assert!(m.reserve(u64::MAX, 0).is_some(), "no cap once it is 0");
        assert_eq!(m.reserved_bytes(), 0);
    }

    /// A reservation taken while the cap was off counted nothing, so it
    /// gives nothing back once the cap is on.
    #[test]
    fn a_reservation_from_before_the_cap_releases_nothing() {
        let m = SpaceManager::new(0);
        let uncapped = m.reserve(100, 0).expect("no cap, always fits");
        m.set_max_allowed_space_bytes(1_000);
        let capped = m.reserve(600, 0).expect("600 of 1,000");
        drop(uncapped);
        assert!(!m.would_fit(450, 0), "600 + 450 > 1,000");
        drop(capped);
        assert!(m.would_fit(450, 0));
    }

    #[test]
    fn delete_scheduler_is_fifo_and_tracks_backlog() {
        xlsm_sim::Runtime::new().run(|| {
            let d = DeleteScheduler::new(1 << 20);
            assert!(d.enabled());
            assert_eq!(d.pop(), None);
            d.schedule("db/trash/000005.sst".into(), 700);
            d.schedule("db/trash/000009.sst".into(), 300);
            assert_eq!(d.queued_bytes(), 1000);
            let first = d.pop().unwrap();
            assert_eq!(first.path, "db/trash/000005.sst");
            assert_eq!(d.queued_bytes(), 300);
            // A failed delete goes back on the queue.
            d.schedule(first.path.clone(), first.bytes);
            assert_eq!(d.queued_bytes(), 1000);
            assert_eq!(d.pop().unwrap().path, "db/trash/000009.sst");
            assert_eq!(d.pop().unwrap().path, "db/trash/000005.sst");
            assert_eq!(d.queued_bytes(), 0);
        });
    }

    /// The byte count is the sum of the queued entries after every step:
    /// schedule, pop, and a failed delete's re-schedule.
    #[test]
    fn trash_bytes_are_the_sum_of_the_queued_entries() {
        xlsm_sim::Runtime::new().run(|| {
            let d = DeleteScheduler::new(1 << 20);
            let sum = |d: &DeleteScheduler| {
                let queue = d.queue.lock();
                let entries = queue.entries.iter().map(|e| e.bytes).sum::<u64>();
                assert_eq!(queue.bytes, entries);
                queue.bytes
            };
            for (i, bytes) in [4_096u64, 1, 70_000].into_iter().enumerate() {
                d.schedule(format!("db/trash/{i:06}.sst"), bytes);
                sum(&d);
            }
            let failed = d.pop().expect("three queued");
            assert_eq!(sum(&d), 70_001);
            d.schedule(failed.path, failed.bytes);
            assert_eq!(sum(&d), 74_097);
            while d.pop().is_some() {
                sum(&d);
            }
            assert_eq!(d.queued_bytes(), 0);
        });
    }

    #[test]
    fn pacing_spends_virtual_time_at_the_configured_rate() {
        xlsm_sim::Runtime::new().run(|| {
            let d = DeleteScheduler::new(1 << 20); // 1 MiB/s
            let t0 = xlsm_sim::now_nanos();
            d.pace(1 << 20);
            d.pace(1 << 20);
            let elapsed = xlsm_sim::now_nanos() - t0;
            // Two 1-MiB acquisitions at 1 MiB/s must take on the order of
            // a virtual second (the first may ride the initial burst).
            assert!(
                elapsed >= 500_000_000,
                "pacing too fast: {elapsed} ns for 2 MiB at 1 MiB/s"
            );
        });
    }
}
