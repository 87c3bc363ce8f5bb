//! Case study V-C: **NVM-resident logging**.
//!
//! The WAL is small but sits on every write's critical path (Finding #4).
//! The paper emulates a byte-addressable NVM with tmpfs and moves only the
//! WAL there, cutting the p90 write tail by 18.8 % while the dataset stays
//! on the SSD. Here the "tmpfs" is an [`xlsm_device`] NVM profile carrying
//! its own filesystem, [`log_fs`], which an experiment sets as the engine's
//! `wal_fs` option.

use std::sync::Arc;
use xlsm_device::{profiles, SimDevice};
use xlsm_simfs::{FsOptions, SimFs};

/// The NVM log's filesystem. The log area is small, and uncached-in-DRAM is
/// meaningless for byte-addressable memory, so its page cache covers the
/// whole device. Creating it spawns its writeback daemon: call it inside
/// the sim runtime.
pub fn log_fs() -> Arc<SimFs> {
    SimFs::new(
        SimDevice::shared(profiles::nvm_dram()),
        FsOptions {
            page_cache_pages: 64 << 10,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlsm_engine::{Db, DbOptions};
    use xlsm_sim::Runtime;

    #[test]
    fn wal_lands_on_nvm_device() {
        Runtime::new().run(|| {
            let data_fs = SimFs::new(
                SimDevice::shared(profiles::optane_900p()),
                FsOptions::default(),
            );
            let nvm_fs = log_fs();
            let opts = DbOptions {
                wal_sync: true, // force WAL traffic to the device
                wal_fs: Some(Arc::clone(&nvm_fs)),
                ..DbOptions::default()
            };
            let db = Db::open(Arc::clone(&data_fs), opts).unwrap();
            for i in 0..50u32 {
                db.put(format!("k{i}").as_bytes(), b"value").unwrap();
            }
            assert!(
                nvm_fs.device().stats().writes > 0,
                "WAL syncs must hit the NVM device"
            );
            // Data files (none flushed yet) have produced no SSD writes.
            db.flush().unwrap();
            assert!(data_fs.device().stats().writes > 0, "SSTs go to the SSD");
            db.close();
        });
    }
}
