//! Testbed assembly: device → filesystem → engine with the study's scaled
//! geometry (see `DESIGN.md` §1, "Scaling substitution").

use std::sync::Arc;
use xlsm_device::{Device, DeviceProfile, SimDevice};
use xlsm_engine::{Db, DbOptions, DbResult};
use xlsm_simfs::{FsOptions, SimFs};

/// Fraction of the dataset the OS page cache covers (paper: 8 GB RAM for a
/// ~100 GB dataset ≈ 8 %).
pub const CACHE_FRACTION: f64 = 0.08;

/// Filesystem options scaled to a dataset size: the page cache covers
/// [`CACHE_FRACTION`] of it, mirroring the paper's memory-to-data ratio.
pub fn scaled_fs_options(dataset_bytes: u64) -> FsOptions {
    let pages = ((dataset_bytes as f64 * CACHE_FRACTION) / 4096.0) as usize;
    FsOptions {
        page_cache_pages: pages.max(1024),
    }
}

/// A complete experiment stack on one simulated device.
pub struct Testbed {
    /// The simulated SSD.
    pub device: Arc<SimDevice>,
    /// The filesystem over it.
    pub fs: Arc<SimFs>,
    /// The database.
    pub db: Arc<Db>,
}

impl std::fmt::Debug for Testbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Testbed")
            .field("device", &self.device.profile().name)
            .finish_non_exhaustive()
    }
}

impl Testbed {
    /// Builds a testbed on `profile` with `opts`, sizing the page cache for
    /// `dataset_bytes`. Must run inside a sim runtime.
    ///
    /// # Errors
    ///
    /// Database open failures.
    pub fn new(profile: DeviceProfile, opts: DbOptions, dataset_bytes: u64) -> DbResult<Testbed> {
        let device = SimDevice::shared(profile);
        let fs = SimFs::new(
            Arc::clone(&device) as Arc<dyn Device>,
            scaled_fs_options(dataset_bytes),
        );
        let db = Arc::new(Db::open(Arc::clone(&fs), opts)?);
        Ok(Testbed { device, fs, db })
    }

    /// Closes the database (joins background workers).
    pub fn close(&self) {
        self.db.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlsm_device::profiles;
    use xlsm_sim::Runtime;

    #[test]
    fn fs_options_scale_with_dataset() {
        let small = scaled_fs_options(64 << 20);
        // 8 % of 64 MiB = 5.24 MiB ≈ 1342 pages.
        assert!((1300..1400).contains(&small.page_cache_pages));
        let big = scaled_fs_options(1 << 30);
        assert!(big.page_cache_pages > small.page_cache_pages);
        // Floor for tiny datasets.
        assert_eq!(scaled_fs_options(1024).page_cache_pages, 1024);
    }

    #[test]
    fn testbed_builds_and_serves() {
        Runtime::new().run(|| {
            let tb = Testbed::new(profiles::optane_900p(), DbOptions::default(), 64 << 20).unwrap();
            tb.db.put(b"k", b"v").unwrap();
            assert_eq!(tb.db.get(b"k").unwrap(), Some(b"v".to_vec()));
            use xlsm_device::Device;
            assert_eq!(tb.device.profile().name, "optane-900p");
            let _ = tb.fs.stats();
            tb.close();
        });
    }
}
