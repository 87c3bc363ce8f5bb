//! # xlsm-engine — an LSM-tree key-value store (RocksDB 5.17 equivalent)
//!
//! The system under test for the ISPASS'20 storage-evolution study. It
//! implements the mechanisms whose interaction with fast storage the paper
//! analyzes:
//!
//! * a skiplist [`MemTable`] with mutable → immutable switching;
//! * a write-ahead log ([`wal`]) with buffered appends and group commit;
//! * SSTables ([`sst`]) with prefix-compressed blocks, optional per-block
//!   compression ([`compress`]), whole-key + prefix bloom filters
//!   ([`bloom`]), and a sharded block [`cache`];
//! * leveled compaction with overlapping Level-0 semantics ([`version`],
//!   [`compaction`]);
//! * the **write controller of Algorithm 1** ([`controller`]), its stall
//!   decision one of [`controller::ThrottlePolicy`] (original, the paper's
//!   two-stage case study V-A, off);
//! * **compaction scheduling** ([`scheduler`]): a greedy / round-robin /
//!   fair (deficit-based) level picker chosen by
//!   [`scheduler::CompactionScheduler`], plus a shared background-I/O
//!   token bucket ([`scheduler::BgIoLimiter`]) with flush priority and
//!   debt-scaled auto-tuning;
//! * the **pipelined write path of Algorithm 2** ([`mod@write`]): one writer
//!   queue, leader-selected batch groups, WAL/memtable pipelining;
//! * **per-op attribution** ([`stats::OpRecord`], [`stall`]): one record
//!   per op kind holds every get, `multi_get` and write's latency and its
//!   parts by `xlsm_sim::Class`; the write view by mechanism and a
//!   controller-transition event log sit beside it, all snapshotted through
//!   [`Db::metrics`](db::Db::metrics);
//! * **background-error handling** ([`bgerror`]): flush/compaction failures
//!   are classified instead of panicking — transient faults retry with
//!   bounded backoff, hard faults flip the database to read-only until
//!   [`Db::resume`](db::Db::resume);
//! * **disk-space management** ([`space`]): a [`space::SpaceManager`]
//!   enforcing `max_allowed_space_bytes` with flush/compaction output
//!   reservations, a trash-based [`space::DeleteScheduler`] reclaiming
//!   obsolete SSTs at a bounded rate, and soft ENOSPC handling — writers
//!   stall instead of failing and a `SpaceWatcher` auto-resumes them once
//!   headroom returns.
//!
//! Everything runs on the [`xlsm_sim`] virtual clock against an
//! [`xlsm_simfs`] filesystem; CPU work is charged from the calibrated
//! [`costs`] model.
//!
//! ```
//! use xlsm_device::{profiles, SimDevice};
//! use xlsm_engine::{Db, DbOptions};
//! use xlsm_simfs::{FsOptions, SimFs};
//!
//! xlsm_sim::Runtime::new().run(|| {
//!     let fs = SimFs::new(SimDevice::shared(profiles::optane_900p()), FsOptions::default());
//!     let db = Db::open(fs, DbOptions::default()).unwrap();
//!     db.put(b"hello", b"world").unwrap();
//!     assert_eq!(db.get(b"hello").unwrap(), Some(b"world".to_vec()));
//!     db.close();
//! });
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod background;
pub mod batch;
pub mod bgerror;
pub mod bloom;
pub mod cache;
pub mod coding;
pub mod compaction;
pub mod compress;
pub mod controller;
pub mod costs;
pub mod crc32c;
pub mod db;
pub mod error;
mod filenames;
pub mod histogram;
pub mod integrity;
pub mod iterator;
pub mod memtable;
pub mod options;
pub mod read;
mod recovery;
pub mod repair;
pub mod scheduler;
pub mod space;
pub mod sst;
pub mod stall;
pub mod stats;
pub mod table_cache;
pub mod types;
pub mod version;
pub mod wal;
pub mod write;

pub use batch::WriteBatch;
pub use bgerror::{BackgroundError, BackgroundOp, ErrorSeverity};
pub use compress::CompressionType;
pub use controller::ThrottlePolicy;
pub use db::Db;
pub use error::{CorruptionDetail, DbError, DbResult};
pub use histogram::{Histogram, HistogramSummary};
pub use memtable::MemTable;
pub use options::{DbOptions, WalRecoveryMode};
pub use repair::{repair_db, RepairReport};
pub use scheduler::{BgIoLimiter, BgIoPriority, CompactionScheduler, LevelPicker};
pub use space::{DeleteScheduler, Reservation, SpaceManager, TrashEntry};
pub use stall::{episode_durations, StallAccounting, StallCause, StallEvent, StallTotals};
pub use stats::{DbStats, Metrics, OpRecord, OpTotals, Ticker, TickerSnapshot};
pub use types::SequenceNumber;
