//! Heap allocations per put and per get, pinned.
//!
//! A counting `#[global_allocator]` sees every allocation of the binary, so
//! this file is a test binary of its own with one test. It loads 48 Ki
//! 1 KiB values on the SATA profile at `DbOptions::default()` and counts
//! allocations plus reallocations over the put loop (flush and compaction
//! run inside it, so background work is included) and over a loop of gets.
//! Keys and values are written into reused buffers, so every counted
//! allocation is the engine's (or the file system's and device's below it).
//!
//! Before the write path stopped allocating per put, this load counted
//! 12.63 allocations + 4.15 reallocations per put and 81.26 + 27.11 per
//! get; before the read path stopped decoding blocks into buffers of their
//! own, 3.26 + 0.28 per put and 61.05 + 1.08 per get. The budgets sit just
//! above what it counts now: 1.72 + 0.28 per put and 14.71 + 0.99 per get.
//! A get's own are its value and one block handle per block it reads, plus
//! one copy per frame that spans two chunks of the file's memory; the rest
//! are the flushes and compactions that run alongside.
//!
//! Run with `cargo test -q -p xlsm-suite --test alloc_budget -- --nocapture`
//! to see the counts. The allocator is `tests/support/counting_alloc.rs`,
//! which the oracle's binary installs too.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{Counting, ALLOCS, REALLOCS};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use xlsm_suite::device::{profiles, SimDevice};
use xlsm_suite::engine::{Db, DbOptions};
use xlsm_suite::sim::Runtime;
use xlsm_suite::simfs::{FsOptions, SimFs};

#[global_allocator]
static GLOBAL: Counting = Counting;

const KEYS: u64 = 48 << 10;
const VALUE: usize = 1 << 10;
const GETS: u64 = 4 << 10;
/// Allocations plus reallocations per put and per get, at most.
const PUT_BUDGET: f64 = 2.1;
const GET_BUDGET: f64 = 15.8;
/// Odd and prime to `KEYS`, so `i * STRIDE % KEYS` visits every key once in
/// a scattered order: compaction merges overlapping files, as under a
/// random load.
const STRIDE: u64 = 7_919;

/// Allocations and reallocations per op of a loop of `ops` calls of `op`.
fn per_op(ops: u64, mut op: impl FnMut(u64)) -> (f64, f64) {
    let (a0, r0) = (ALLOCS.load(Relaxed), REALLOCS.load(Relaxed));
    for i in 0..ops {
        op(i);
    }
    let (a, r) = (ALLOCS.load(Relaxed) - a0, REALLOCS.load(Relaxed) - r0);
    (a as f64 / ops as f64, r as f64 / ops as f64)
}

/// Writes key `index`'s 16 zero-padded digits into `key`.
fn write_key(key: &mut [u8; 16], mut index: u64) {
    for b in key.iter_mut().rev() {
        *b = b'0' + (index % 10) as u8;
        index /= 10;
    }
}

#[test]
fn puts_and_gets_stay_within_their_allocation_budgets() {
    let (put, get) = Runtime::new().run(|| {
        let fs = SimFs::new(
            SimDevice::shared(profiles::intel_530_sata()),
            FsOptions::default(),
        );
        let db = Arc::new(Db::open(fs, DbOptions::default()).unwrap());
        let mut key = [0u8; 16];
        let mut value = vec![0u8; VALUE];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let put = per_op(KEYS, |i| {
            write_key(&mut key, i * STRIDE % KEYS);
            for b in value.iter_mut() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                *b = (state >> 59) as u8 + b'a';
            }
            db.put(&key, &value).unwrap();
        });
        let get = per_op(GETS, |i| {
            write_key(&mut key, i * STRIDE * 3 % KEYS);
            assert!(db.get(&key).unwrap().is_some());
        });
        db.close();
        (put, get)
    });
    println!(
        "per put: {:.2} allocations + {:.2} reallocations; per get: {:.2} + {:.2}; \
         live heap peak: {} kB",
        put.0,
        put.1,
        get.0,
        get.1,
        counting_alloc::live_peak_kib()
    );
    assert!(put.0 + put.1 <= PUT_BUDGET, "per put: {put:?}");
    assert!(get.0 + get.1 <= GET_BUDGET, "per get: {get:?}");
}
