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
//! Fully deterministic: same seed ⇒ byte-identical
//! `results/writepath_put_latency.tsv` (`scripts/check.sh` compares it with
//! the committed copy at both sizes).

use crate::common::{
    devices, label, no_l0_throttle, probe_table, ratio, us, with_testbed, BenchConfig, Row,
};
use crate::figures::Figure;
use std::sync::Arc;
use xlsm_core::report::f;
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
/// p99 (µs), which `run` compares with the serial point's.
fn run_point(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
    writers: usize,
    concurrent: bool,
) -> (Row, f64) {
    // Lift the Algorithm-1 stall triggers and give the memtables some
    // slack: controller pacing and flush backpressure would otherwise
    // dominate the tail on every device and bury the write-path
    // serialization this probe isolates (the drain probe lifts its
    // triggers for the same reason).
    let opts = move || {
        no_l0_throttle(DbOptions {
            allow_concurrent_memtable_write: concurrent,
            write_buffer_size: 8 << 20,
            max_write_buffer_number: 4,
            // Smooth the periodic WAL page-cache push: with the default
            // threshold one unlucky group absorbs a large flush and that
            // single commit owns p99 in BOTH modes, hiding the stage cost.
            wal_bytes_per_sync: 4 << 10,
            ..DbOptions::default()
        })
    };
    with_testbed(profile, opts, cfg, move |tb| {
        // The fill left the window open on a settled database: its write
        // record is the puts below.
        let stats = Arc::clone(tb.db.stats());

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
        let row: Row = vec![
            ("device", device.into()),
            ("writers", writers.to_string()),
            ("mode", mode.into()),
            ("put_p50_us", f(us(put_latency.quantile(0.5)), 3)),
            ("put_p99_us", f(put_p99_us, 3)),
            // Mean writer-queue depth sampled at group commits.
            ("avg_queue_depth", f(stats.avg_waiting_writers(), 3)),
            // Mean member batches per write group.
            (
                "avg_group_batches",
                f(stats.write_group_batches.summary().mean_ns as f64, 3),
            ),
            (
                "concurrent_applies",
                stats.ticker(Ticker::ConcurrentMemtableApplies).to_string(),
            ),
        ];
        (row, put_p99_us)
    })
}

/// Runs the full sweep over the three study devices: device-major, then
/// writer count, serial before concurrent.
pub fn run(cfg: &BenchConfig) -> Vec<Figure> {
    let mut points = Vec::new();
    for profile in devices() {
        let device = label(&profile);
        for writers in WRITERS {
            eprintln!("[writepath] {device}: {writers} writers, serial");
            let (serial, serial_p99_us) = run_point(profile.clone(), device, cfg, writers, false);
            eprintln!("[writepath] {device}: {writers} writers, concurrent");
            let (conc, conc_p99_us) = run_point(profile.clone(), device, cfg, writers, true);
            // The serial point is the baseline: 1 by construction.
            let speedups = [1.0, ratio(serial_p99_us, conc_p99_us)];
            for (mut row, speedup) in [serial, conc].into_iter().zip(speedups) {
                row.push(("p99_speedup_vs_serial", f(speedup, 3)));
                points.push(row);
            }
        }
    }
    vec![probe_table("writepath_put_latency", cfg, &[], points)]
}
