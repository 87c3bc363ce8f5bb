//! Case study V-C: **NVM-resident logging**.
//!
//! The WAL is small but sits on every write's critical path (Finding #4).
//! The paper emulates a byte-addressable NVM with tmpfs and moves only the
//! WAL there, cutting the p90 write tail by 18.8 % while the dataset stays
//! on the SSD. Here the "tmpfs" is an [`xlsm_device`] NVM profile carrying
//! its own filesystem, plugged into [`DbOptions::wal_fs`].

use std::sync::Arc;
use xlsm_device::{profiles, SimDevice};
use xlsm_engine::DbOptions;
use xlsm_simfs::{FsOptions, SimFs};

/// WAL placement for the logging experiments (Figs. 17 and 20).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalPlacement {
    /// WAL on the same device as the data (RocksDB default).
    SameDevice,
    /// WAL on a dedicated byte-addressable NVM device.
    Nvm,
    /// WAL disabled entirely (db_bench `--disable_wal`).
    Disabled,
}

impl WalPlacement {
    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            WalPlacement::SameDevice => "wal-on-ssd",
            WalPlacement::Nvm => "wal-on-nvm",
            WalPlacement::Disabled => "wal-disabled",
        }
    }
}

/// Applies `placement` to `opts`, creating the NVM filesystem when needed.
/// Returns the adjusted options and the NVM filesystem (if any) so callers
/// can inspect its device stats.
pub fn apply_wal_placement(
    mut opts: DbOptions,
    placement: WalPlacement,
) -> (DbOptions, Option<Arc<SimFs>>) {
    match placement {
        WalPlacement::SameDevice => {
            opts.enable_wal = true;
            opts.wal_fs = None;
            (opts, None)
        }
        WalPlacement::Nvm => {
            let nvm = SimFs::new(
                SimDevice::shared(profiles::nvm_dram()),
                FsOptions {
                    // The NVM log area is small and uncached-in-DRAM is
                    // meaningless for byte-addressable memory: give it a
                    // page cache covering the whole device.
                    page_cache_pages: 64 << 10,
                },
            );
            opts.enable_wal = true;
            opts.wal_fs = Some(Arc::clone(&nvm));
            (opts, Some(nvm))
        }
        WalPlacement::Disabled => {
            opts.enable_wal = false;
            opts.wal_fs = None;
            (opts, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlsm_engine::Db;
    use xlsm_sim::Runtime;

    #[test]
    fn placement_adjusts_options() {
        // Creating the NVM filesystem spawns its writeback daemon, so this
        // must run inside a sim runtime.
        Runtime::new().run(|| {
            let base = DbOptions::default();
            let (same, none) = apply_wal_placement(base.clone(), WalPlacement::SameDevice);
            assert!(same.enable_wal && same.wal_fs.is_none() && none.is_none());
            let (nvm, fs) = apply_wal_placement(base.clone(), WalPlacement::Nvm);
            assert!(nvm.enable_wal && nvm.wal_fs.is_some() && fs.is_some());
            let (off, _) = apply_wal_placement(base, WalPlacement::Disabled);
            assert!(!off.enable_wal);
        });
    }

    #[test]
    fn wal_lands_on_nvm_device() {
        Runtime::new().run(|| {
            let data_fs = SimFs::new(
                SimDevice::shared(profiles::optane_900p()),
                FsOptions::default(),
            );
            let (opts, nvm_fs) = apply_wal_placement(
                DbOptions {
                    wal_sync: true, // force WAL traffic to the device
                    ..DbOptions::default()
                },
                WalPlacement::Nvm,
            );
            let nvm_fs = nvm_fs.unwrap();
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

    #[test]
    fn nvm_wal_is_faster_than_sata_wal_when_synced() {
        // With per-commit WAL sync, the device under the log dominates
        // write latency; NVM must beat SATA flash by a wide margin.
        fn p90_write(placement: WalPlacement) -> u64 {
            Runtime::new().run(move || {
                let data_fs = SimFs::new(
                    SimDevice::shared(profiles::intel_530_sata()),
                    FsOptions::default(),
                );
                let (opts, _nvm) = apply_wal_placement(
                    DbOptions {
                        wal_sync: true,
                        ..DbOptions::default()
                    },
                    placement,
                );
                let db = Db::open(data_fs, opts).unwrap();
                for i in 0..200u32 {
                    db.put(format!("key{i:06}").as_bytes(), &[0u8; 256])
                        .unwrap();
                }
                let p90 = db.stats().write_latency.quantile(0.9);
                db.close();
                p90
            })
        }
        let sata = p90_write(WalPlacement::SameDevice);
        let nvm = p90_write(WalPlacement::Nvm);
        assert!(
            nvm * 3 < sata,
            "synced NVM WAL p90 ({nvm} ns) should be far below SATA ({sata} ns)"
        );
    }
}
