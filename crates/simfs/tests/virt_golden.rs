//! Virtual-time golden for the file layer.
//!
//! One tape — buffered appends through a 64-page cache into two files whose
//! extents interleave, `flush_data`, `sync`, evicting / cold / warm reads, a
//! cold 32-page read, a scripted append error, a torn append, a bit-flipped
//! read, `delete` — runs on a buffered device (`intel_530_sata`) and a
//! write-through one (`optane_900p`) and pins the virtual clock after every
//! step, the whole [`FsStats`] twice and the device's I/O counts. The
//! literals were captured at 163e6c9, before the page walk, the run
//! coalescer and the fault gate in `simfs` were folded into one each; when
//! `FileHandle::prefetch` was deleted its two steps left the tape (the first
//! twelve checkpoints are the original ones, the 32-page read pays the device
//! read its prefetch used to, and the last five keep their own deltas). A
//! change there that adds, drops or reorders one
//! `sleep_nanos` charge, cache probe, write-back or device command moves a
//! literal here in milliseconds, and nothing else pins this layer's clock on
//! its own.

use std::sync::Arc;
use xlsm_device::{profiles, Device, DeviceProfile, SimDevice, PAGE_SIZE};
use xlsm_sim::{now_nanos, Nanos, Runtime};
use xlsm_simfs::{FaultPlan, FsError, FsOptions, FsStats, SimFs};

/// One extent-growth step of the allocator, in bytes.
const CHUNK: usize = 256 * PAGE_SIZE;

#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// `now_nanos()` after each step of the tape, in order.
    checkpoints: Vec<Nanos>,
    /// Length of the second file after the torn append, and where the
    /// flipped byte of the last read landed.
    torn_len: u64,
    flipped_at: usize,
    /// Counters before the fault plan goes in, and at the end.
    before_faults: FsStats,
    end: FsStats,
    /// `DeviceSnapshot::{reads, writes, pages_read, pages_written, trims}`.
    device: [u64; 5],
}

fn run_tape(profile: DeviceProfile) -> Golden {
    Runtime::new().run(move || {
        let dev = SimDevice::shared(profile);
        // The struct update is what lets this file compile unedited against
        // the six-field `FsOptions` its literals were captured under.
        #[allow(clippy::needless_update)]
        let fs = SimFs::new(
            Arc::clone(&dev) as Arc<dyn Device>,
            FsOptions {
                page_cache_pages: 64,
                ..FsOptions::default()
            },
        );
        let mut checkpoints = Vec::new();
        let mut mark = || checkpoints.push(now_nanos());
        let page = PAGE_SIZE as u64;

        // Appends. `log` takes the first extent, `sst` the second, so the
        // extent `log` grows into later is not LPN-adjacent to its first.
        let log = fs.create("db/000001.log").unwrap();
        assert_eq!(log.append(&[1u8; 100]).unwrap(), 0);
        mark();
        let sst = fs.create("db/000002.sst").unwrap();
        sst.append(&vec![4u8; 10 * PAGE_SIZE + 7]).unwrap();
        mark();
        assert_eq!(log.append(&[2u8; 5_000]).unwrap(), 100);
        mark();
        assert_eq!(log.append(&vec![3u8; CHUNK + 1]).unwrap(), 5_100);
        mark();

        // Twenty dirty pages are over the soft limit and under the hard one:
        // the daemon is kicked and writes them back while the next append
        // sleeps. Then write-back without and with the barrier.
        sst.append(&vec![5u8; 20 * PAGE_SIZE]).unwrap();
        mark();
        log.append(&[7u8; 2 * PAGE_SIZE]).unwrap();
        mark();
        let log_len = 5_100 + CHUNK as u64 + 1 + 2 * page;
        assert_eq!(log.len(), log_len);
        log.flush_data().unwrap();
        mark();
        sst.append(&[8u8; 3 * PAGE_SIZE]).unwrap();
        sst.sync().unwrap();
        mark();
        sst.sync().unwrap(); // nothing dirty: the barrier alone
        mark();

        // Reads: one as large as the cache (evicts everything else), one
        // cold across the extent boundary, the same one warm.
        assert_eq!(log.read_at(0, 64 * PAGE_SIZE).unwrap()[5_100], 3);
        mark();
        let across = log.read_at(254 * page + 10, 3 * PAGE_SIZE).unwrap();
        mark();
        assert_eq!(log.read_at(254 * page + 10, 3 * PAGE_SIZE).unwrap(), across);
        mark();

        // A cold read of 32 pages inside one extent: one device command.
        log.read_at(100 * page, 32 * PAGE_SIZE).unwrap();
        mark();
        let before_faults = fs.stats();

        // Faults: the first append fails clean, the second is torn, the
        // first read comes back with one bit flipped.
        fs.set_fault_plan(FaultPlan {
            seed: 9,
            fail_nth_write: Some(1),
            torn_write_nth: Some(2),
            bit_flip_nth_read: Some(1),
            ..FaultPlan::default()
        });
        let sst_len = sst.len();
        assert!(matches!(
            sst.append(b"doomed"),
            Err(FsError::Io {
                op: "append",
                retryable: true,
                ..
            })
        ));
        assert_eq!(sst.len(), sst_len);
        mark();
        assert!(matches!(
            sst.append(&[6u8; 1_000]),
            Err(FsError::Io { op: "append", .. })
        ));
        mark();
        let torn_len = sst.len();
        let flipped = sst.read_at(0, 100).unwrap();
        mark();
        let flipped_at = flipped.iter().position(|&b| b != 4).unwrap();
        assert_eq!(fs.fault_ops(), 3);
        fs.clear_fault_plan();

        // Deletes: one extent, then two.
        fs.delete("db/000002.sst").unwrap();
        mark();
        fs.delete("db/000001.log").unwrap();
        mark();

        let d = dev.stats();
        Golden {
            checkpoints,
            torn_len,
            flipped_at,
            before_faults,
            end: fs.stats(),
            device: [d.reads, d.writes, d.pages_read, d.pages_written, d.trims],
        }
    })
}

/// Everything but the clock and the capacity is the same on both devices:
/// which pages hit, miss, get evicted or written back is the cache's
/// decision, and the device only decides how long each command takes.
fn expect(checkpoints: Vec<Nanos>, capacity_pages: u64) -> Golden {
    let used = 3 * 256;
    let common = FsStats {
        cache_hits: 4,
        dirty_evictions: 205,
        throttle_writebacks: 64,
        background_writebacks: 21,
        sync_writebacks: 7,
        capacity_pages,
        ..FsStats::default()
    };
    Golden {
        checkpoints,
        torn_len: 135_177,
        flipped_at: 25,
        before_faults: FsStats {
            cache_misses: 100,
            resident_pages: 64,
            files: 2,
            free_space_pages: capacity_pages - used,
            largest_free_extent_pages: capacity_pages - used,
            ..common
        },
        end: FsStats {
            cache_misses: 101,
            injected_errors: 2,
            torn_writes: 1,
            bit_flips: 1,
            free_space_pages: capacity_pages,
            largest_free_extent_pages: capacity_pages,
            ..common
        },
        device: [5, 7, 101, 297, 3],
    }
}

#[test]
fn buffered_device_tape_is_pinned() {
    let checkpoints = vec![
        1_202, 3_602, 4_948, 2_123_468, 2_127_068, 2_128_508, 2_328_668, 9_925_667, 9_925_667,
        10_533_747, 10_815_507, 10_817_667, 11_185_107, 11_185_107, 11_186_307, 11_320_509,
        11_320_509, 11_320_509,
    ];
    assert_eq!(
        run_tape(profiles::intel_530_sata()),
        expect(checkpoints, 2_097_152)
    );
}

#[test]
fn write_through_device_tape_is_pinned() {
    let checkpoints = vec![
        1_202, 3_602, 4_948, 473_468, 477_068, 478_508, 525_668, 547_828, 547_828, 661_908,
        699_668, 701_828, 767_268, 767_268, 768_468, 786_670, 786_670, 786_670,
    ];
    assert_eq!(
        run_tape(profiles::optane_900p()),
        expect(checkpoints, 2_359_296)
    );
}
