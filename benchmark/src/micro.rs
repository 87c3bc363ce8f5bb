//! Micro phases of the traced run: short fixed loops that time calls into
//! one crate alone, on both clocks. They run after the window, so they do
//! not disturb it; the engine's call table runs on the LSM shape the
//! workload left behind.

use std::sync::Arc;
use std::time::{Duration, Instant};
use xlsm_device::{Device, DeviceProfile, SimDevice};
use xlsm_engine::{Db, WriteBatch};
use xlsm_sim::rng::Xoshiro256;
use xlsm_simfs::{FsOptions, SimFs};

use crate::loadgen::Dataset;
use crate::measure::Rows;
use crate::stats::median;
use crate::trace::Tracer;

const HANDOFFS: u64 = 200_000;
const SLEEPS: u64 = 200_000;
const SPAWNS: u64 = 5_000;
const CALLS: usize = 2_000;
const HOT_KEYS: u64 = 256;

/// The scheduler alone. Must run on a sim thread with no other sim thread
/// alive (after the stack is closed), so that a sleep finds nothing else
/// runnable.
pub fn sim(tracer: &mut Tracer, parent: u64) -> Rows {
    let span = tracer.begin("micro.sim", "sim", parent);

    // Two threads, each yielding to the other: every yield is a hand-off.
    let start = Instant::now();
    let pong = xlsm_sim::spawn("pong", || {
        for _ in 0..HANDOFFS / 2 {
            xlsm_sim::yield_now();
        }
    });
    for _ in 0..HANDOFFS / 2 {
        xlsm_sim::yield_now();
    }
    pong.join();
    let handoff_ns = start.elapsed().as_nanos() as f64 / HANDOFFS as f64;

    let start = Instant::now();
    for _ in 0..SLEEPS {
        xlsm_sim::sleep_nanos(1000);
    }
    let sleep_ns = start.elapsed().as_nanos() as f64 / SLEEPS as f64;

    let start = Instant::now();
    for _ in 0..SPAWNS {
        xlsm_sim::spawn("empty", || {}).join();
    }
    let spawn_us = start.elapsed().as_nanos() as f64 / 1e3 / SPAWNS as f64;

    tracer.end(span, true);
    vec![
        ("sim.host_ns_per_handoff", handoff_ns),
        ("sim.host_ns_per_sleep", sleep_ns),
        ("sim.host_us_per_spawn_join", spawn_us),
    ]
}

/// The device model alone: the paper's Fig. 1 raw 4-KiB mix on a fresh
/// device of the workload's profile.
pub fn device(profile: &DeviceProfile, tracer: &mut Tracer, parent: u64) -> Rows {
    let span = tracer.begin("micro.device", "device", parent);
    let start = Instant::now();
    let raw =
        xlsm_workload::raw_mixed_kops(profile.clone(), 8, 0.125, 0.5, Duration::from_millis(300));
    let host_ns = start.elapsed().as_nanos() as f64;
    tracer.end(span, raw.total_ops > 0);
    vec![
        ("device.raw_mixed_kops", raw.kops),
        (
            "device.host_ns_per_io",
            host_ns / raw.total_ops.max(1) as f64,
        ),
    ]
}

/// simfs alone: 4-KiB `read_at` of a resident page and of a page that is
/// not, on a fresh filesystem whose file is four times its page cache.
pub fn simfs(profile: &DeviceProfile, tracer: &mut Tracer, parent: u64) -> Rows {
    const CACHE_PAGES: usize = 1024;
    const FILE_PAGES: u64 = 4096;
    const READS: u64 = 20_000;
    let span = tracer.begin("micro.simfs", "simfs", parent);
    let fs = SimFs::new(
        SimDevice::shared(profile.clone()) as Arc<dyn Device>,
        FsOptions {
            page_cache_pages: CACHE_PAGES,
            ..FsOptions::default()
        },
    );
    let page = vec![0xA5u8; 4096];
    let ok = (|| {
        let file = fs.create("micro/data")?;
        for _ in 0..FILE_PAGES {
            file.append(&page)?;
        }
        file.sync()?;

        // Cycling through a file four times the cache never finds a page
        // still resident.
        let before = fs.stats();
        let (host, virt) = (Instant::now(), xlsm_sim::now_nanos());
        for i in 0..READS {
            file.read_at((i % FILE_PAGES) * 4096, 4096)?;
        }
        let miss_host_ns = host.elapsed().as_nanos() as f64 / READS as f64;
        let miss_virt_us = (xlsm_sim::now_nanos() - virt) as f64 / 1e3 / READS as f64;
        let misses = fs.stats().cache_misses - before.cache_misses;

        // Sixteen pages, touched once, stay resident.
        for i in 0..16 {
            file.read_at(i * 4096, 4096)?;
        }
        let before = fs.stats();
        let host = Instant::now();
        for i in 0..READS {
            file.read_at((i % 16) * 4096, 4096)?;
        }
        let hit_host_ns = host.elapsed().as_nanos() as f64 / READS as f64;
        let hits = fs.stats().cache_hits - before.cache_hits;
        Ok::<_, xlsm_simfs::FsError>((misses == READS && hits == READS).then_some([
            hit_host_ns,
            miss_host_ns,
            miss_virt_us,
        ]))
    })();
    let values = ok.ok().flatten();
    tracer.end(span, values.is_some());
    let [hit, miss, miss_virt] = values.unwrap_or([0.0; 3]);
    vec![
        ("simfs.host_ns_per_read_hit", hit),
        ("simfs.host_ns_per_read_miss", miss),
        ("simfs.virt_us_per_read_miss", miss_virt),
    ]
}

/// Times `CALLS` calls of `f` on both clocks; returns the medians
/// `(virt us, host ns)` and how many calls went wrong.
fn call_table_row(f: &mut dyn FnMut(usize) -> bool) -> (f64, f64, u64) {
    let mut virt = Vec::with_capacity(CALLS);
    let mut host = Vec::with_capacity(CALLS);
    let mut failed = 0;
    for i in 0..CALLS {
        let (h, v) = (Instant::now(), xlsm_sim::now_nanos());
        failed += u64::from(!f(i));
        virt.push((xlsm_sim::now_nanos() - v) as f64 / 1e3);
        host.push(h.elapsed().as_nanos() as f64);
    }
    (median(&virt), median(&host), failed)
}

/// Calls the call table makes, for the run's count of ops attempted.
pub const CALL_TABLE_CALLS: u64 = 7 * CALLS as u64;

/// The engine's public calls, one client, on the shape the window left.
/// Returns the rows and how many calls failed or read a wrong value.
pub fn call_table(
    db: &Arc<Db>,
    data: Dataset,
    seed: u64,
    tracer: &mut Tracer,
    parent: u64,
) -> (Rows, u64) {
    let mut rng = Xoshiro256::new(seed ^ 0xCA11_7AB1E);
    let n = data.keys.count();
    let mut rows = Rows::new();
    let mut failed = 0;
    let mut row = |name_virt, name_host, tracer: &mut Tracer, f: &mut dyn FnMut(usize) -> bool| {
        let span = tracer.begin("micro.call", "engine", parent);
        let (virt_us, host_ns, bad) = call_table_row(f);
        tracer.end(span, bad == 0);
        failed += bad;
        rows.push((name_virt, virt_us));
        rows.push((name_host, host_ns));
    };
    let right =
        |idx: u64, got: Option<Vec<u8>>| got.as_deref() == Some(&data.values.value(idx)[..]);

    row(
        "engine.call.get_cold.virt_us",
        "engine.call.get_cold.host_ns",
        tracer,
        &mut |_| {
            let idx = rng.next_below(n);
            db.get(&data.keys.key(idx)).is_ok_and(|got| right(idx, got))
        },
    );
    row(
        "engine.call.get_hot.virt_us",
        "engine.call.get_hot.host_ns",
        tracer,
        &mut |i| {
            let idx = i as u64 % HOT_KEYS.min(n);
            db.get(&data.keys.key(idx)).is_ok_and(|got| right(idx, got))
        },
    );
    row(
        "engine.call.get_miss.virt_us",
        "engine.call.get_miss.host_ns",
        tracer,
        &mut |_| {
            // One byte longer than a real key: absent, yet inside the range of
            // the table that holds its neighbours.
            let mut key = data.keys.key(rng.next_below(n));
            key.push(b'x');
            db.get(&key).is_ok_and(|got| got.is_none())
        },
    );
    row(
        "engine.call.multi_get8.virt_us",
        "engine.call.multi_get8.host_ns",
        tracer,
        &mut |_| {
            let idxs: Vec<u64> = (0..8).map(|_| rng.next_below(n)).collect();
            let keys: Vec<Vec<u8>> = idxs.iter().map(|&i| data.keys.key(i)).collect();
            let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            db.multi_get(&refs).is_ok_and(|got| {
                got.len() == 8 && idxs.iter().zip(got).all(|(&idx, g)| right(idx, g))
            })
        },
    );
    row(
        "engine.call.scan16.virt_us",
        "engine.call.scan16.host_ns",
        tracer,
        &mut |_| {
            let from = rng.next_below(n.saturating_sub(17).max(1));
            (|| {
                let mut scan = db.scan()?;
                let mut valid = scan.seek(&data.keys.key(from))?;
                for step in 0..16 {
                    if !valid || scan.key() != &data.keys.key(from + step)[..] {
                        return Ok(false);
                    }
                    valid = scan.next()?;
                }
                Ok::<_, xlsm_engine::DbError>(true)
            })()
            .unwrap_or(false)
        },
    );
    row(
        "engine.call.put.virt_us",
        "engine.call.put.host_ns",
        tracer,
        &mut |_| {
            let idx = rng.next_below(n);
            db.put(&data.keys.key(idx), &data.values.value(idx)).is_ok()
        },
    );
    row(
        "engine.call.write_batch8.virt_us",
        "engine.call.write_batch8.host_ns",
        tracer,
        &mut |_| {
            let mut batch = WriteBatch::new();
            for _ in 0..8 {
                let idx = rng.next_below(n);
                batch.put(&data.keys.key(idx), &data.values.value(idx));
            }
            db.write(batch).is_ok()
        },
    );
    (rows, failed)
}
