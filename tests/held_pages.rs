//! Space: the files a database keeps hold the device pages they were given.
//!
//! simfs grows a file by 256-page (1 MiB) extents while it is written, and
//! the engine seals each file it finishes (every table, each rotated WAL,
//! CURRENT), which gives back the unused tail of its last extent. With the
//! default 1 MiB memtable and target file, a table just over 1 MiB would
//! otherwise keep two extents. After a load, a settle and an overwrite
//! window, the only files with spare pages are the ones still being
//! appended (the active WAL and the MANIFEST), so the live files hold
//! nearly every page the allocator has handed out.

use std::sync::Arc;
use std::time::Duration;
use xlsm_suite::device::{profiles, DeviceProfile, SimDevice, PAGE_SIZE};
use xlsm_suite::engine::{Db, DbOptions};
use xlsm_suite::sim::Runtime;
use xlsm_suite::simfs::{FsOptions, SimFs};
use xlsm_suite::workload::{fill_db, run_workload, KeyDistribution, WorkloadSpec};

/// Pages the live files' bytes need, over pages the allocator has handed
/// out.
fn held_fraction(fs: &Arc<SimFs>) -> f64 {
    let held: u64 = fs
        .list("")
        .iter()
        .map(|path| fs.open(path).unwrap().len().div_ceil(PAGE_SIZE as u64))
        .sum();
    let allocated = fs.capacity_pages() - fs.free_space_pages();
    held as f64 / allocated as f64
}

/// Loads 64 MiB, settles, overwrites for a second of virtual time with four
/// writers and settles again; returns the held fraction before and after
/// the window.
fn held_after_overwrite_window(profile: DeviceProfile) -> (f64, f64) {
    Runtime::new().run(move || {
        let fs = SimFs::new(SimDevice::shared(profile), FsOptions::default());
        let db = Arc::new(Db::open(Arc::clone(&fs), DbOptions::default()).unwrap());
        let spec = WorkloadSpec {
            key_count: 64 << 10,
            value_size: 1000,
            write_fraction: 1.0,
            threads: 4,
            duration: Duration::from_secs(1),
            seed: 46,
            burst: None,
            distribution: KeyDistribution::Uniform,
        };
        fill_db(&db, spec.key_count, spec.value_size, spec.seed).unwrap();
        db.flush().unwrap();
        db.wait_for_compactions();
        let settled = held_fraction(&fs);
        assert!(run_workload(&db, &spec).writes > 0);
        db.wait_for_compactions();
        let held = held_fraction(&fs);
        db.close();
        (settled, held)
    })
}

#[test]
fn live_files_hold_their_pages_after_an_overwrite_window() {
    for profile in [profiles::intel_530_sata(), profiles::optane_900p()] {
        let name = profile.name;
        let (settled, held) = held_after_overwrite_window(profile);
        eprintln!("{name}: held {settled:.3} settled, {held:.3} after the window");
        assert!(
            held >= 0.95,
            "{name}: live files hold {:.1} % of their allocated pages",
            held * 100.0
        );
    }
}
