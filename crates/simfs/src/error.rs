//! Filesystem error type.

use std::error::Error;
use std::fmt;

/// Result alias for filesystem operations.
pub type FsResult<T> = Result<T, FsError>;

/// Errors returned by [`crate::SimFs`] operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsError {
    /// The named file does not exist.
    NotFound(String),
    /// A file with that name already exists.
    AlreadyExists(String),
    /// Read past the end of a file.
    OutOfRange {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: usize,
        /// Actual file size.
        size: u64,
    },
    /// The underlying device has no free pages left.
    DeviceFull,
    /// The handle refers to a file that was deleted.
    Stale(String),
    /// An I/O failure, either injected by the fault layer
    /// ([`crate::FaultPlan`]) or caused by a simulated power cut.
    Io {
        /// The operation that failed (`"read"`, `"append"`, `"sync"`, ...).
        op: &'static str,
        /// Path of the file the operation targeted.
        path: String,
        /// Whether a retry may succeed (transient fault) or the failure is
        /// permanent for this incarnation of the filesystem (e.g. power
        /// loss).
        retryable: bool,
    },
}

impl FsError {
    /// The one place an [`FsError::Io`] is built.
    pub(crate) fn io(op: &'static str, path: &str, retryable: bool) -> FsError {
        FsError::Io {
            op,
            path: path.to_owned(),
            retryable,
        }
    }
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "file not found: {p}"),
            FsError::AlreadyExists(p) => write!(f, "file already exists: {p}"),
            FsError::OutOfRange { offset, len, size } => write!(
                f,
                "read of {len} bytes at offset {offset} past end of {size}-byte file"
            ),
            FsError::DeviceFull => write!(f, "simulated device is full"),
            FsError::Stale(p) => write!(f, "handle refers to deleted file: {p}"),
            FsError::Io {
                op,
                path,
                retryable,
            } => {
                let kind = if *retryable { "transient" } else { "hard" };
                write!(f, "{kind} i/o error during {op} of {path}")
            }
        }
    }
}

impl Error for FsError {}
