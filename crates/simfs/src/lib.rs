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
//!   Once a quarter of the cache is dirty the appender kicks a background
//!   writeback daemon (Linux `dirty_background_ratio`); at half, it writes
//!   the oldest dirty pages back itself before returning (`dirty_ratio`).
//! * **Reads** check the page cache; misses coalesce into one device read
//!   per run of adjacent pages, and inserted pages may evict older ones
//!   (clock/second-chance). `read_at` returns a copy; `read_shared` costs
//!   the same and returns the file's own memory ([`FileSpan`]), and
//!   `read_frame` returns it in one piece ([`FileBytes`]), copied only
//!   where it spans two chunks.
//! * **`flush_data`** pushes a file's dirty pages to the device; **`sync`**
//!   is that plus a device barrier, which on flash waits for the
//!   write-buffer drain.
//!
//! The cache capacity ([`FsOptions::page_cache_pages`], the one tunable) is
//! how experiments reproduce the paper's 8 GB RAM / 100 GB dataset ratio at
//! scale; the host costs, the dirty limits and the extent-growth step are
//! constants in `file.rs`, next to the code that charges them.
//!
//! `fs.rs` is the namespace — which files exist, their extents, the
//! counters, the power state; `file.rs` is what happens inside a file, and
//! `content.rs` what a file holds in host memory (its bytes and its
//! durability ledger). Every file operation starts at one gate (live →
//! powered → fault plan), every miss goes through one page walk, and every
//! page that reaches the device goes through one run coalescer.
//!
//! The layer also hosts deterministic **fault injection** ([`FaultPlan`]):
//! scripted I/O errors, torn writes, scripted or probabilistic read
//! bit-flips, and [`SimFs::power_cut`], which discards everything not
//! durably synced past the device barrier and after which nothing — no file
//! operation, no `create`, `rename` or `delete` — can change the disk until
//! [`SimFs::power_restore`]: the substrate for the engine's fault oracle.
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
mod content;
mod error;
mod fault;
mod file;
mod fs;
mod pagecache;

pub use content::{FileBytes, FileSpan};
pub use error::{FsError, FsResult};
pub use fault::{FaultOp, FaultPlan};
pub use file::FileHandle;
pub use fs::{FsOptions, FsStats, SimFs};
