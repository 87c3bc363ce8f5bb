//! # xlsm-simfs — an in-memory filesystem over simulated devices
//!
//! The engine's file I/O path (WAL appends, SST builds, manifest updates,
//! compaction reads) runs against this layer. Payload bytes live in host
//! memory; *timing* comes from the [`xlsm_device`] device underneath plus an
//! OS page-cache model:
//!
//! * **Appends** are buffered: they memcpy into the file and mark pages dirty
//!   in the page cache — the cheap path the paper describes for WAL updates
//!   ("first written to the write buffer … flushed to disk asynchronously").
//!   When the global dirty-page count exceeds the configured ratio, the
//!   appender synchronously writes back the oldest dirty pages (Linux
//!   dirty-throttling behavior).
//! * **Reads** check the page cache; misses coalesce into ranged device
//!   reads, and inserted pages may evict older ones (clock/second-chance).
//! * **`sync`** writes back a file's dirty pages and issues a device barrier,
//!   which on flash waits for the write-buffer drain.
//!
//! The cache capacity is how experiments reproduce the paper's 8 GB RAM /
//! 100 GB dataset ratio at scale.
//!
//! The layer also hosts deterministic **fault injection** ([`FaultPlan`]):
//! scripted or probabilistic I/O errors, torn writes, read bit-flips, and
//! [`SimFs::power_cut`], which discards everything not durably synced past
//! the device barrier — the substrate for the crash-consistency harness.
//!
//! ```
//! use xlsm_device::{profiles, SimDevice};
//! use xlsm_simfs::{FsOptions, SimFs};
//!
//! xlsm_sim::Runtime::new().run(|| {
//!     let dev = SimDevice::shared(profiles::optane_900p());
//!     let fs = SimFs::new(dev, FsOptions::default());
//!     let f = fs.create("db/000001.log").unwrap();
//!     f.append(b"hello world").unwrap();
//!     f.sync().unwrap();
//!     assert_eq!(&f.read_at(0, 5).unwrap()[..], b"hello");
//! });
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alloc;
mod error;
mod fault;
mod fs;
mod pagecache;

pub use error::{FsError, FsResult};
pub use fault::{FaultOp, FaultPlan};
pub use fs::{FileHandle, FsOptions, FsStats, SimFs};
