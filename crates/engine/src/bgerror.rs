//! RocksDB-style background-error handling, and the one owner of the
//! database's health.
//!
//! Background jobs never panic on I/O failure. Each failure is reported to
//! the `ErrorHandler`, which classifies it ([`ErrorSeverity`]) and moves
//! the database's one health state:
//!
//! * **healthy**;
//! * **retrying** — a transient fault: the job backs off and runs again, and
//!   its own next success makes the database healthy. Writes are admitted;
//! * **stalled** — `DeviceFull` while the space watcher polls: writers park,
//!   never fail, until the watcher sees headroom or [`crate::Db::resume`]
//!   runs, and both end the stall through `ErrorHandler::resume`;
//! * **read-only** — corruption, power loss, exhausted retries or a failed
//!   WAL write: writes fail fast with [`DbError::ReadOnly`] while reads keep
//!   serving, until [`crate::Db::resume`].
//!
//! A job's success clears only the retryable error that job recorded; it
//! never ends a stall or a read-only state. Each transition keeps its own
//! books: the tickers, the `enospc_stall` histogram and waking the writers
//! parked in the write controller's stop wait.

use crate::error::DbError;
use crate::stats::{DbStats, Ticker};
use std::sync::Arc;
use xlsm_sim::sync::WaitSet;
use xlsm_simfs::FsError;

/// Retries of a transient background I/O error before it escalates to hard
/// and the database goes read-only.
const MAX_BACKGROUND_ERROR_RETRIES: u32 = 6;

/// Which background job produced an error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackgroundOp {
    /// Memtable flush to an L0 SST.
    Flush,
    /// Level compaction.
    Compaction,
    /// Obsolete-file deletion after a compaction.
    ObsoletePurge,
    /// Obsolete-WAL deletion after a flush advanced the log watermark.
    WalPurge,
    /// Rate-limited deletion of a trashed SST by the background reaper.
    TrashReap,
    /// Background scrub: paced re-read and checksum verification of live
    /// SSTs. A scrub-detected corruption is a hard error like any other.
    Scrub,
    /// A write group's WAL append or sync, on the writer's own thread. It is
    /// always hard: the log may now hold a torn record or one whose write
    /// failed, and [`crate::Db::resume`] retires that log before any later
    /// write is acknowledged.
    Wal,
}

/// How bad a background error is; each severity is one health state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorSeverity {
    /// A retry may succeed: the job runs again after a backoff. A purge or
    /// the trash reaper runs again at its next pass and never goes beyond
    /// this severity: the files it failed to delete are obsolete.
    Retryable,
    /// The condition clears itself once the environment changes —
    /// `DeviceFull` while the space watcher polls. Writers stall (never
    /// fail) and the watcher resumes them once headroom returns.
    Soft,
    /// Permanent for this incarnation: the database goes read-only.
    Hard,
}

/// A recorded background error, surfaced via `Db::metrics()`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackgroundError {
    /// The job that failed.
    pub op: BackgroundOp,
    /// The error itself.
    pub error: DbError,
    /// Its classification.
    pub severity: ErrorSeverity,
    /// Retries already attempted when this was recorded.
    pub retries: u32,
    /// Virtual time of the failure.
    pub at_nanos: u64,
}

/// A failed job as the handler keeps it; its severity is the state it put
/// the database in.
#[derive(Clone)]
struct Failure {
    op: BackgroundOp,
    error: DbError,
    retries: u32,
    at_nanos: u64,
}

/// The database's health: exactly one of these at a time.
enum Health {
    Healthy,
    Retrying(Failure),
    Stalled {
        failure: Failure,
        /// Virtual time the stall began.
        since: u64,
    },
    ReadOnly(Failure),
}

impl Health {
    /// Healthy 0 < retrying 1 < stalled 2 < read-only 3: a failure never
    /// moves the database to a lower rank.
    fn rank(&self) -> u8 {
        match self {
            Health::Healthy => 0,
            Health::Retrying(_) => 1,
            Health::Stalled { .. } => 2,
            Health::ReadOnly(_) => 3,
        }
    }

    /// The recorded failure and the severity this state stands for.
    fn failure(&self) -> Option<(&Failure, ErrorSeverity)> {
        match self {
            Health::Healthy => None,
            Health::Retrying(f) => Some((f, ErrorSeverity::Retryable)),
            Health::Stalled { failure, .. } => Some((failure, ErrorSeverity::Soft)),
            Health::ReadOnly(f) => Some((f, ErrorSeverity::Hard)),
        }
    }

    fn is_healthy(&self) -> bool {
        matches!(self, Health::Healthy)
    }

    fn is_stalled(&self) -> bool {
        matches!(self, Health::Stalled { .. })
    }

    fn is_read_only(&self) -> bool {
        matches!(self, Health::ReadOnly(_))
    }
}

/// The one owner of the database's health (see the module docs).
pub(crate) struct ErrorHandler {
    health: parking_lot::Mutex<Health>,
    /// With the space watcher polling, `DeviceFull` from a background job
    /// stalls writers; without it a full disk makes the database read-only.
    soft_enospc: bool,
    stats: Arc<DbStats>,
    /// The write controller's stop wait.
    writers: Arc<WaitSet>,
}

impl ErrorHandler {
    /// A healthy handler. `writers` is the write controller's stop wait,
    /// woken when a stall ends or writes start failing.
    pub(crate) fn new(soft_enospc: bool, stats: Arc<DbStats>, writers: Arc<WaitSet>) -> Self {
        ErrorHandler {
            health: parking_lot::Mutex::new(Health::Healthy),
            soft_enospc,
            stats,
            writers,
        }
    }

    fn classify(&self, op: BackgroundOp, error: &DbError, retries: u32) -> ErrorSeverity {
        match op {
            BackgroundOp::Wal => ErrorSeverity::Hard,
            BackgroundOp::ObsoletePurge | BackgroundOp::WalPurge | BackgroundOp::TrashReap => {
                ErrorSeverity::Retryable
            }
            _ if self.soft_enospc && *error == DbError::Fs(FsError::DeviceFull) => {
                ErrorSeverity::Soft
            }
            _ if error.is_retryable() && retries < MAX_BACKGROUND_ERROR_RETRIES => {
                ErrorSeverity::Retryable
            }
            _ => ErrorSeverity::Hard,
        }
    }

    /// Reports a failed run of `op`'s job after `retries` retries, and
    /// returns its severity: [`ErrorSeverity::Retryable`] asks a retrying
    /// job to back off and run again. The database moves to the state of
    /// that severity unless it is in a worse one already; a stall that goes
    /// on keeps its start.
    pub(crate) fn fail(&self, op: BackgroundOp, error: DbError, retries: u32) -> ErrorSeverity {
        if matches!(error, DbError::Corruption(_)) {
            self.stats.bump(Ticker::CorruptionDetected);
        }
        self.stats.bump(Ticker::BackgroundErrors);
        let severity = self.classify(op, &error, retries);
        let at_nanos = xlsm_sim::now_nanos();
        let failure = Failure {
            op,
            error,
            retries,
            at_nanos,
        };
        self.transition(|health| {
            let next = match severity {
                ErrorSeverity::Retryable => Health::Retrying(failure),
                ErrorSeverity::Soft => Health::Stalled {
                    failure,
                    since: match health {
                        Health::Stalled { since, .. } => *since,
                        _ => at_nanos,
                    },
                },
                ErrorSeverity::Hard => Health::ReadOnly(failure),
            };
            (next.rank() >= health.rank()).then_some(next)
        });
        severity
    }

    /// `op`'s job ran clean: the retryable error it recorded, if that is
    /// the one recorded, is resolved. Returns whether the database became
    /// healthy.
    pub(crate) fn succeed(&self, op: BackgroundOp) -> bool {
        self.transition(|health| match health {
            Health::Retrying(e) if e.op == op => Some(Health::Healthy),
            _ => None,
        })
    }

    /// The device died during a stall: space will not come back, so the
    /// stall's error turns hard and the parked writers fail fast.
    pub(crate) fn abandon_stall(&self) {
        self.transition(|health| match health {
            Health::Stalled { failure, .. } => Some(Health::ReadOnly(failure.clone())),
            _ => None,
        });
    }

    /// Makes the database healthy whatever its state: the space watcher's
    /// auto-resume and [`crate::Db::resume`] alike.
    pub(crate) fn resume(&self) {
        self.transition(|health| (!health.is_healthy()).then_some(Health::Healthy));
    }

    /// Moves to the state `pick` chooses for the current one (`None`:
    /// stay), then keeps the books. Returns whether the state changed.
    fn transition(&self, pick: impl FnOnce(&Health) -> Option<Health>) -> bool {
        let mut health = self.health.lock();
        let Some(next) = pick(&health) else {
            return false;
        };
        let prev = std::mem::replace(&mut *health, next);
        let healed = !prev.is_healthy() && health.is_healthy();
        let stall_began = !prev.is_stalled() && health.is_stalled();
        let stall_ended = prev.is_stalled() && !health.is_stalled();
        let went_read_only = !prev.is_read_only() && health.is_read_only();
        drop(health);
        if let (true, Health::Stalled { since, .. }) = (stall_ended, prev) {
            let stalled = xlsm_sim::now_nanos().saturating_sub(since);
            self.stats.enospc_stall.record(stalled);
        }
        if healed {
            self.stats.bump(Ticker::BackgroundAutoResumes);
        }
        if stall_began {
            self.stats.bump(Ticker::EnospcStalls);
        }
        if went_read_only {
            self.stats.bump(Ticker::ReadOnlyTransitions);
        }
        // Writers parked by the stall proceed, or fail once read-only; no
        // writer parks while read-only, so leaving it wakes nobody.
        if stall_ended || went_read_only {
            self.writers.notify_all();
        }
        true
    }

    /// The currently recorded error, if any, with the severity of the
    /// state it put the database in.
    pub(crate) fn current(&self) -> Option<BackgroundError> {
        let health = self.health.lock();
        let (f, severity) = health.failure()?;
        Some(BackgroundError {
            op: f.op,
            error: f.error.clone(),
            severity,
            retries: f.retries,
            at_nanos: f.at_nanos,
        })
    }

    /// Whether writes are currently rejected.
    pub(crate) fn is_read_only(&self) -> bool {
        self.health.lock().is_read_only()
    }

    /// Whether the database is stalled on ENOSPC, awaiting the watcher.
    pub(crate) fn is_stalled(&self) -> bool {
        self.health.lock().is_stalled()
    }

    /// Whether a writer waits in the write controller's stop wait: always
    /// while stalled, never once read-only (it fails instead), otherwise
    /// while the stall level says `stopped`.
    pub(crate) fn holds_writers(&self, stopped: bool) -> bool {
        match *self.health.lock() {
            Health::Stalled { .. } => true,
            Health::ReadOnly(_) => false,
            Health::Healthy | Health::Retrying(_) => stopped,
        }
    }

    /// The fail-fast error writers receive while read-only, or `None` if
    /// the database is writable.
    pub(crate) fn read_only_error(&self) -> Option<DbError> {
        match &*self.health.lock() {
            Health::ReadOnly(f) => {
                Some(DbError::ReadOnly(format!("{:?} failed: {}", f.op, f.error)))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retryable_err() -> DbError {
        DbError::from(FsError::Io {
            op: "append",
            path: "f.sst".into(),
            retryable: true,
        })
    }

    fn handler(soft_enospc: bool) -> (ErrorHandler, Arc<DbStats>) {
        let stats = DbStats::shared();
        let writers = Arc::new(WaitSet::new("test-writers"));
        (
            ErrorHandler::new(soft_enospc, Arc::clone(&stats), writers),
            stats,
        )
    }

    #[test]
    fn hard_error_not_clobbered_by_retryable() {
        xlsm_sim::Runtime::new().run(|| {
            let (h, stats) = handler(false);
            assert_eq!(
                h.fail(BackgroundOp::Flush, DbError::corruption("x"), 0),
                ErrorSeverity::Hard
            );
            assert_eq!(
                h.fail(BackgroundOp::Compaction, retryable_err(), 0),
                ErrorSeverity::Retryable
            );
            let cur = h.current().unwrap();
            assert_eq!(cur.severity, ErrorSeverity::Hard);
            assert_eq!(cur.op, BackgroundOp::Flush);
            assert!(!h.succeed(BackgroundOp::Compaction), "read-only stays");
            assert!(h.is_read_only());
            assert_eq!(stats.ticker(Ticker::BackgroundErrors), 2);
            assert_eq!(stats.ticker(Ticker::CorruptionDetected), 1);
            assert_eq!(stats.ticker(Ticker::ReadOnlyTransitions), 1);
        });
    }

    #[test]
    fn device_full_is_soft_only_when_enabled() {
        xlsm_sim::Runtime::new().run(|| {
            let full = || DbError::from(FsError::DeviceFull);
            let (legacy, _) = handler(false);
            assert_eq!(
                legacy.fail(BackgroundOp::Flush, full(), 0),
                ErrorSeverity::Hard
            );
            assert!(legacy.is_read_only());

            let (h, _) = handler(true);
            assert_eq!(h.fail(BackgroundOp::Flush, full(), 0), ErrorSeverity::Soft);
            assert!(h.is_stalled());
            assert!(!h.is_read_only(), "soft errors never force read-only");
            // A soft error is not clobbered by a retryable one...
            h.fail(BackgroundOp::Scrub, retryable_err(), 0);
            assert_eq!(h.current().unwrap().severity, ErrorSeverity::Soft);
            // ...but a hard error replaces it.
            h.fail(BackgroundOp::Compaction, DbError::corruption("x"), 0);
            assert_eq!(h.current().unwrap().severity, ErrorSeverity::Hard);
            assert!(!h.is_stalled());
        });
    }

    #[test]
    fn a_job_clears_only_its_own_retryable_error() {
        xlsm_sim::Runtime::new().run(|| {
            let (h, stats) = handler(true);
            h.fail(BackgroundOp::Compaction, retryable_err(), 0);
            assert!(!h.succeed(BackgroundOp::Scrub), "not the scrub's error");
            assert!(h.succeed(BackgroundOp::Compaction));
            assert!(h.current().is_none());
            assert_eq!(stats.ticker(Ticker::BackgroundAutoResumes), 1);

            // A stall outlives every job's success, the stalled one's too.
            h.fail(BackgroundOp::Flush, DbError::from(FsError::DeviceFull), 0);
            xlsm_sim::sleep_nanos(1_000);
            h.fail(BackgroundOp::Flush, DbError::from(FsError::DeviceFull), 0);
            assert_eq!(
                h.fail(BackgroundOp::Scrub, retryable_err(), 0),
                ErrorSeverity::Retryable
            );
            for op in [BackgroundOp::Scrub, BackgroundOp::Flush] {
                assert!(!h.succeed(op));
            }
            assert!(h.is_stalled());
            assert_eq!(
                stats.ticker(Ticker::EnospcStalls),
                1,
                "one stall, reported twice"
            );
            xlsm_sim::sleep_nanos(2_000);
            h.resume();
            assert!(h.current().is_none());
            assert_eq!(stats.ticker(Ticker::BackgroundAutoResumes), 2);
            let stall = stats.enospc_stall.summary();
            assert_eq!(
                (stall.count, stall.max_ns),
                (1, 3_000),
                "from its first report"
            );
        });
    }

    #[test]
    fn purges_and_the_reaper_never_escalate() {
        xlsm_sim::Runtime::new().run(|| {
            let (h, _) = handler(false);
            let hard = DbError::from(FsError::Io {
                op: "delete",
                path: "db/000001.log".into(),
                retryable: false,
            });
            for op in [BackgroundOp::WalPurge, BackgroundOp::TrashReap] {
                assert_eq!(h.fail(op, hard.clone(), 9), ErrorSeverity::Retryable);
            }
            assert!(!h.is_read_only());
            assert!(!h.succeed(BackgroundOp::WalPurge), "the reaper's error now");
            assert!(h.succeed(BackgroundOp::TrashReap));
        });
    }

    #[test]
    fn read_only_cycle() {
        xlsm_sim::Runtime::new().run(|| {
            let (h, _) = handler(false);
            assert!(h.read_only_error().is_none());
            assert_eq!(
                h.fail(
                    BackgroundOp::Flush,
                    retryable_err(),
                    MAX_BACKGROUND_ERROR_RETRIES
                ),
                ErrorSeverity::Hard,
                "retries exhausted"
            );
            match h.read_only_error() {
                Some(DbError::ReadOnly(msg)) => assert!(msg.contains("Flush")),
                other => panic!("expected ReadOnly, got {other:?}"),
            }
            assert_eq!(h.current().unwrap().severity, ErrorSeverity::Hard);
            h.resume();
            assert!(!h.is_read_only());
            assert!(h.current().is_none());
        });
    }
}
