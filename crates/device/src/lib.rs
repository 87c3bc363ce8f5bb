//! # xlsm-device — simulated storage devices for the storage-evolution study
//!
//! Timing-accurate (virtual-time) models of the three SSD generations from
//! the ISPASS'20 paper plus a byte-addressable NVM:
//!
//! * **SATA flash SSD** (Intel 530-class): slow serial host interface, few
//!   independent flash channels, a DRAM write buffer, and a page-mapped FTL
//!   with greedy garbage collection, so sustained random writes degrade and
//!   the read/write speed disparity of NAND shows through.
//! * **PCIe flash SSD** (Intel 750-class): same NAND behavior behind a much
//!   faster interface and many channels.
//! * **3D XPoint SSD** (Optane 900P-class): ~10 µs reads *and* writes, no
//!   erase, no garbage collection, deep internal parallelism.
//! * **NVM** (DRAM-emulated, for the paper's tmpfs WAL case study):
//!   sub-microsecond, byte-addressable.
//!
//! Devices model **timing and wear mechanics only** — payload bytes live in
//! the layer above (`xlsm-simfs`). All service times are imposed in virtual
//! time on the [`xlsm_sim`] scheduler, so queueing at the channel semaphores
//! and at the write-buffer drain emerges from actual thread interleaving.
//!
//! ```
//! use xlsm_device::{profiles, Device, SimDevice};
//!
//! xlsm_sim::Runtime::new().run(|| {
//!     let dev = SimDevice::new(profiles::optane_900p());
//!     dev.read(0, 1); // one 4-KiB page; blocks in virtual time
//!     assert!(xlsm_sim::now_nanos() > 0);
//!     let s = dev.stats();
//!     assert_eq!(s.reads, 1);
//! });
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod device;
mod ftl;
pub mod profiles;
mod stats;

pub use device::{Device, SimDevice};
pub use ftl::{Ftl, FtlConfig, FtlSnapshot};
pub use profiles::{DeviceKind, DeviceProfile};
pub use stats::DeviceSnapshot;

/// The unit of device addressing: one 4-KiB logical page.
pub const PAGE_SIZE: usize = 4096;
