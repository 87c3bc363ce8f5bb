//! Write-path probe: serial vs concurrent memtable writes under a growing
//! writer population — the software half of the paper's Finding #3.
//!
//! Each point runs a `fillrandom`-style loop (the standard benchmark for
//! RocksDB's `allow_concurrent_memtable_write`) on a filled database:
//! every writer thread issues small puts back-to-back. With WAL
//! durability buffered in the page cache (the `db_bench` default the
//! paper uses), a fast device leaves the *software* write path as the
//! bottleneck: the writer queue deepens, write groups grow, and the
//! serial memtable stage — one leader inserting the whole merged group —
//! scales its cost with group size and dominates put tail latency
//! (Figs. 15–16's inversion). With `allow_concurrent_memtable_write`
//! each group member applies its own sub-batch in parallel, which is
//! exactly the serialization the sweep quantifies: same workload, same
//! device, serial vs concurrent apply.
//!
//! Stall-controller pacing is lifted and the periodic WAL page-cache
//! push is kept small so the probe isolates the write-path stages
//! themselves (the device still charges every WAL push at its own
//! latency/bandwidth, which is where the sata/pcie/xpoint rows differ).
//!
//! Fully deterministic: same seed ⇒ byte-identical JSON
//! (`scripts/check.sh` runs the probe twice and diffs).

use crate::common::{
    config_cells, devices, label, ratio, us, with_testbed, BenchConfig, Cell, JsonReport, JsonRow,
};
use std::sync::Arc;
use xlsm_device::DeviceProfile;
use xlsm_engine::{DbOptions, Ticker};

/// Writer-thread counts swept per device (the paper sweeps client threads
/// the same way in Figs. 15–16).
pub const WRITERS: [usize; 3] = [4, 16, 64];

/// Puts per writer thread. Large enough that one unlucky write group
/// (every member of a group shares the same commit latency) stays well
/// under 1 % of the samples — otherwise a single group event owns p99 in
/// both modes and hides the stage cost the probe measures.
const OPS_PER_WRITER: usize = 256;

/// Value size for the measured puts (`db_bench`-style small values, like
/// the paper's runs). Small records keep the group WAL append
/// latency-bound so the sweep isolates the memtable stage; the dataset
/// fill still uses the configured value size.
const PUT_VALUE_SIZE: usize = 128;

/// Runs one (device, writers, mode) point and returns its row with its put
/// p99 (µs); a concurrent point is given the p99 of the serial point it is
/// compared with.
fn run_point(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
    writers: usize,
    serial_p99_us: Option<f64>,
) -> (JsonRow, f64) {
    let concurrent = serial_p99_us.is_some();
    // Lift the Algorithm-1 stall triggers and give the memtables some
    // slack: controller pacing and flush backpressure would otherwise
    // dominate the tail on every device and bury the write-path
    // serialization this probe isolates (the drain probe lifts its
    // triggers for the same reason).
    let opts = move || DbOptions {
        allow_concurrent_memtable_write: concurrent,
        write_buffer_size: 8 << 20,
        max_write_buffer_number: 4,
        // Smooth the periodic WAL page-cache push: with the default
        // threshold one unlucky group absorbs a large flush and that
        // single commit owns p99 in BOTH modes, hiding the stage cost.
        wal_bytes_per_sync: 4 << 10,
        level0_slowdown_writes_trigger: 1 << 16,
        level0_stop_writes_trigger: 1 << 16,
        ..DbOptions::default()
    };
    with_testbed(profile, opts, cfg, move |tb| {
        tb.db.flush().expect("flush");
        tb.db.wait_for_compactions();
        let stats = Arc::clone(tb.db.stats());
        // Drop fill-time samples: the window's write record is the puts below.
        stats.reset_window();

        let value = vec![b'w'; PUT_VALUE_SIZE];
        let mut handles = Vec::new();
        for w in 0..writers {
            let db = Arc::clone(&tb.db);
            let value = value.clone();
            handles.push(xlsm_sim::spawn(&format!("wp-writer-{w}"), move || {
                for i in 0..OPS_PER_WRITER {
                    let key = format!("wp{w:03}-{i:04}");
                    db.put(key.as_bytes(), &value).expect("put");
                }
            }));
        }
        for h in handles {
            h.join();
        }

        let put_latency = stats.writes.latency();
        let put_p99_us = us(put_latency.quantile(0.99));
        let mode = if concurrent { "concurrent" } else { "serial" };
        let row = vec![
            ("device", Cell::Str(device.into())),
            ("writers", Cell::Int(writers as u64)),
            ("mode", Cell::Str(mode.into())),
            ("put_p50_us", Cell::F3(us(put_latency.quantile(0.5)))),
            ("put_p99_us", Cell::F3(put_p99_us)),
            // Mean writer-queue depth sampled at group commits.
            ("avg_queue_depth", Cell::F3(stats.avg_waiting_writers())),
            // Mean member batches per write group.
            (
                "avg_group_batches",
                Cell::F3(stats.write_group_batches.summary().mean_ns as f64),
            ),
            (
                "concurrent_applies",
                Cell::Int(stats.ticker(Ticker::ConcurrentMemtableApplies)),
            ),
            (
                "p99_speedup_vs_serial",
                Cell::F3(serial_p99_us.map_or(1.0, |serial| ratio(serial, put_p99_us))),
            ),
        ];
        (row, put_p99_us)
    })
}

/// Runs the full sweep over the three study devices: device-major, then
/// writer count, serial before concurrent.
pub fn run(cfg: &BenchConfig) -> JsonReport {
    let mut points = Vec::new();
    for profile in devices() {
        let device = label(&profile);
        for writers in WRITERS {
            eprintln!("[writepath] {device}: {writers} writers, serial");
            let (serial, serial_p99_us) = run_point(profile.clone(), device, cfg, writers, None);
            eprintln!("[writepath] {device}: {writers} writers, concurrent");
            let (conc, _) = run_point(profile.clone(), device, cfg, writers, Some(serial_p99_us));
            points.extend([serial, conc]);
        }
    }
    JsonReport {
        bench: "writepath",
        config: config_cells(cfg),
        sections: vec![("put_latency", points)],
    }
}
