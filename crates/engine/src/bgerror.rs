//! RocksDB-style background-error handling.
//!
//! Flush and compaction workers never panic on I/O failure. Instead each
//! error is classified ([`ErrorSeverity`]): **retryable** faults (transient
//! injected I/O errors) are retried with bounded exponential backoff and
//! auto-resume on success; **hard** faults (corruption, power loss,
//! exhausted retries) transition the database to read-only mode, where
//! writes fail fast with [`DbError::ReadOnly`] while reads keep serving.
//! [`crate::Db::resume`] re-runs the failed work and clears the state —
//! the `DB::Resume()` analogue.

use crate::error::DbError;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use xlsm_simfs::FsError;

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

/// How bad a background error is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorSeverity {
    /// A retry may succeed; the worker backs off and re-runs the job.
    Retryable,
    /// The condition clears itself once the environment changes —
    /// `DeviceFull` while the space subsystem is enabled. Writers stall
    /// (never fail) and the `SpaceWatcher` auto-resumes once headroom
    /// returns; the database stays writable-in-principle (not read-only).
    Soft,
    /// Permanent for this incarnation: the database goes read-only.
    Hard,
}

impl ErrorSeverity {
    /// Ordering rank for the never-downgrade rule in
    /// [`ErrorHandler::record`].
    fn rank(self) -> u8 {
        match self {
            ErrorSeverity::Retryable => 0,
            ErrorSeverity::Soft => 1,
            ErrorSeverity::Hard => 2,
        }
    }
}

/// Classifies an error: transient I/O faults are retryable, everything
/// else (corruption, structural filesystem errors, power loss) is hard.
pub fn classify(e: &DbError) -> ErrorSeverity {
    if e.is_retryable() {
        ErrorSeverity::Retryable
    } else {
        ErrorSeverity::Hard
    }
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

/// Holds the engine's background-error state: the most relevant recorded
/// error plus the read-only flag.
pub struct ErrorHandler {
    state: parking_lot::Mutex<Option<BackgroundError>>,
    read_only: AtomicBool,
    /// When set (the space subsystem is enabled), `DeviceFull` from a
    /// background job classifies as [`ErrorSeverity::Soft`] instead of
    /// hard: writers stall and the `SpaceWatcher` resumes them.
    soft_device_full: AtomicBool,
}

impl fmt::Debug for ErrorHandler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ErrorHandler")
            .field("state", &*self.state.lock())
            .field("read_only", &self.is_read_only())
            .finish()
    }
}

impl Default for ErrorHandler {
    fn default() -> ErrorHandler {
        ErrorHandler::new()
    }
}

impl ErrorHandler {
    /// A clean handler: no error, writable.
    pub fn new() -> ErrorHandler {
        ErrorHandler {
            state: parking_lot::Mutex::new(None),
            read_only: AtomicBool::new(false),
            soft_device_full: AtomicBool::new(false),
        }
    }

    /// Enables (or disables) the soft classification of `DeviceFull`
    /// background errors. Off by default, preserving the legacy contract
    /// where a full disk flips the database permanently read-only.
    pub fn set_soft_device_full(&self, on: bool) {
        self.soft_device_full.store(on, Ordering::Relaxed);
    }

    /// Records `error` from `op`, returning its severity. A recorded error
    /// is never overwritten by one of strictly lower severity (hard beats
    /// soft beats retryable — severity only escalates).
    pub fn record(&self, op: BackgroundOp, error: DbError, retries: u32) -> ErrorSeverity {
        let mut severity = classify(&error);
        if severity == ErrorSeverity::Hard
            && matches!(error, DbError::Fs(FsError::DeviceFull))
            && self.soft_device_full.load(Ordering::Relaxed)
        {
            severity = ErrorSeverity::Soft;
        }
        let mut state = self.state.lock();
        let keep_existing = matches!(
            &*state,
            Some(b) if b.severity.rank() > severity.rank()
        );
        if !keep_existing {
            *state = Some(BackgroundError {
                op,
                error,
                severity,
                retries,
                at_nanos: xlsm_sim::now_nanos(),
            });
        }
        severity
    }

    /// Escalates the recorded error to hard (retry budget exhausted).
    pub fn escalate(&self) {
        if let Some(b) = self.state.lock().as_mut() {
            b.severity = ErrorSeverity::Hard;
        }
    }

    /// Flips the database to read-only mode.
    pub fn enter_read_only(&self) {
        self.read_only.store(true, Ordering::Relaxed);
    }

    /// Whether writes are currently rejected.
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::Relaxed)
    }

    /// Clears the error state and re-enables writes (auto-resume or
    /// explicit [`crate::Db::resume`]).
    pub fn clear(&self) {
        *self.state.lock() = None;
        self.read_only.store(false, Ordering::Relaxed);
    }

    /// The currently recorded error, if any.
    pub fn current(&self) -> Option<BackgroundError> {
        self.state.lock().clone()
    }

    /// Whether the recorded error (if any) is a soft ENOSPC stall awaiting
    /// the `SpaceWatcher`.
    pub fn is_soft_stalled(&self) -> bool {
        matches!(
            &*self.state.lock(),
            Some(b) if b.severity == ErrorSeverity::Soft
        )
    }

    /// The fail-fast error writers receive while read-only, or `None` if
    /// the database is writable.
    pub fn read_only_error(&self) -> Option<DbError> {
        if !self.is_read_only() {
            return None;
        }
        let reason = self
            .state
            .lock()
            .as_ref()
            .map(|b| format!("{:?} failed: {}", b.op, b.error))
            .unwrap_or_else(|| "background error".to_owned());
        Some(DbError::ReadOnly(reason))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlsm_simfs::FsError;

    fn retryable_err() -> DbError {
        DbError::from(FsError::Io {
            op: "append",
            path: "f.sst".into(),
            retryable: true,
        })
    }

    #[test]
    fn hard_error_not_clobbered_by_retryable() {
        xlsm_sim::Runtime::new().run(|| {
            let h = ErrorHandler::new();
            assert_eq!(
                h.record(BackgroundOp::Flush, DbError::Corruption("x".into()), 0),
                ErrorSeverity::Hard
            );
            assert_eq!(
                h.record(BackgroundOp::ObsoletePurge, retryable_err(), 0),
                ErrorSeverity::Retryable
            );
            let cur = h.current().unwrap();
            assert_eq!(cur.severity, ErrorSeverity::Hard);
            assert_eq!(cur.op, BackgroundOp::Flush);
        });
    }

    #[test]
    fn device_full_is_soft_only_when_enabled() {
        xlsm_sim::Runtime::new().run(|| {
            let h = ErrorHandler::new();
            // Legacy contract: DeviceFull is hard.
            assert_eq!(
                h.record(BackgroundOp::Flush, DbError::from(FsError::DeviceFull), 0),
                ErrorSeverity::Hard
            );
            h.clear();
            h.set_soft_device_full(true);
            assert_eq!(
                h.record(BackgroundOp::Flush, DbError::from(FsError::DeviceFull), 0),
                ErrorSeverity::Soft
            );
            assert!(h.is_soft_stalled());
            assert!(!h.is_read_only(), "soft errors never force read-only");
            // A soft error is not clobbered by a retryable one...
            h.record(BackgroundOp::ObsoletePurge, retryable_err(), 0);
            assert_eq!(h.current().unwrap().severity, ErrorSeverity::Soft);
            // ...but a hard error replaces it.
            h.record(BackgroundOp::Compaction, DbError::Corruption("x".into()), 0);
            assert_eq!(h.current().unwrap().severity, ErrorSeverity::Hard);
            assert!(!h.is_soft_stalled());
        });
    }

    #[test]
    fn read_only_cycle() {
        xlsm_sim::Runtime::new().run(|| {
            let h = ErrorHandler::new();
            assert!(h.read_only_error().is_none());
            h.record(BackgroundOp::Flush, retryable_err(), 3);
            h.escalate();
            h.enter_read_only();
            match h.read_only_error() {
                Some(DbError::ReadOnly(msg)) => assert!(msg.contains("Flush")),
                other => panic!("expected ReadOnly, got {other:?}"),
            }
            assert_eq!(h.current().unwrap().severity, ErrorSeverity::Hard);
            h.clear();
            assert!(!h.is_read_only());
            assert!(h.current().is_none());
        });
    }
}
