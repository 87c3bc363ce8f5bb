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
    config_cells, devices, label, us, with_testbed, BenchConfig, Cell, JsonReport,
};
use std::sync::Arc;
use xlsm_core::report::{f, Table};
use xlsm_device::DeviceProfile;
use xlsm_engine::{DbOptions, Histogram, Ticker};

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

/// One measurement point.
#[derive(Clone, Debug)]
pub struct WritePathPoint {
    /// Device label (`sata-flash`, `pcie-flash`, `3d-xpoint`).
    pub device: &'static str,
    /// Concurrent writer threads.
    pub writers: usize,
    /// `"serial"` or `"concurrent"` memtable apply.
    pub mode: &'static str,
    /// Put latency, p50 in µs.
    pub put_p50_us: f64,
    /// Put latency, p99 in µs.
    pub put_p99_us: f64,
    /// Mean writer-queue depth sampled at group commits.
    pub avg_queue_depth: f64,
    /// Mean member batches per write group.
    pub avg_group_batches: f64,
    /// `ConcurrentMemtableApplies` ticker over the window.
    pub concurrent_applies: u64,
    /// Serial p99 / this p99 on the same (device, writers) point; 1.0 for
    /// the serial rows.
    pub p99_speedup_vs_serial: f64,
}

/// Full probe output.
#[derive(Clone, Debug)]
pub struct WritePathReport {
    /// Dataset size in keys.
    pub key_count: u64,
    /// Value size in bytes.
    pub value_size: usize,
    /// RNG seed.
    pub seed: u64,
    /// Sweep points: device-major, then writer count, serial before
    /// concurrent.
    pub points: Vec<WritePathPoint>,
}

/// Runs one (device, writers, mode) point.
fn run_point(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
    writers: usize,
    concurrent: bool,
) -> WritePathPoint {
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
        stats.reset_window(); // drop fill-time samples from the gauges

        let put_latency = Arc::new(Histogram::new());
        let value = vec![b'w'; PUT_VALUE_SIZE];
        let mut handles = Vec::new();
        for w in 0..writers {
            let db = Arc::clone(&tb.db);
            let put_latency = Arc::clone(&put_latency);
            let value = value.clone();
            handles.push(xlsm_sim::spawn(&format!("wp-writer-{w}"), move || {
                for i in 0..OPS_PER_WRITER {
                    let key = format!("wp{w:03}-{i:04}");
                    let t0 = xlsm_sim::now_nanos();
                    db.put(key.as_bytes(), &value).expect("put");
                    put_latency.record(xlsm_sim::now_nanos() - t0);
                }
            }));
        }
        for h in handles {
            h.join();
        }

        let group_batches = stats.write_group_batches.summary();
        WritePathPoint {
            device,
            writers,
            mode: if concurrent { "concurrent" } else { "serial" },
            put_p50_us: us(put_latency.quantile(0.5)),
            put_p99_us: us(put_latency.quantile(0.99)),
            avg_queue_depth: stats.avg_waiting_writers(),
            avg_group_batches: group_batches.mean_ns as f64,
            concurrent_applies: stats.ticker(Ticker::ConcurrentMemtableApplies),
            p99_speedup_vs_serial: 1.0, // filled in by `run`
        }
    })
}

/// Runs the full sweep over the three study devices.
pub fn run(cfg: &BenchConfig) -> WritePathReport {
    let mut points = Vec::new();
    for profile in devices() {
        let device = label(&profile);
        for writers in WRITERS {
            eprintln!("[writepath] {device}: {writers} writers, serial");
            let serial = run_point(profile.clone(), device, cfg, writers, false);
            eprintln!("[writepath] {device}: {writers} writers, concurrent");
            let mut conc = run_point(profile.clone(), device, cfg, writers, true);
            conc.p99_speedup_vs_serial = if conc.put_p99_us == 0.0 {
                0.0
            } else {
                serial.put_p99_us / conc.put_p99_us
            };
            points.push(serial);
            points.push(conc);
        }
    }
    WritePathReport {
        key_count: cfg.key_count,
        value_size: cfg.value_size,
        seed: cfg.seed,
        points,
    }
}

impl WritePathReport {
    /// The report as deterministic JSON (see [`JsonReport`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let points = self.points.iter().map(|p| {
            vec![
                ("device", Cell::Str(p.device)),
                ("writers", Cell::Int(p.writers as u64)),
                ("mode", Cell::Str(p.mode)),
                ("put_p50_us", Cell::F3(p.put_p50_us)),
                ("put_p99_us", Cell::F3(p.put_p99_us)),
                ("avg_queue_depth", Cell::F3(p.avg_queue_depth)),
                ("avg_group_batches", Cell::F3(p.avg_group_batches)),
                ("concurrent_applies", Cell::Int(p.concurrent_applies)),
                ("p99_speedup_vs_serial", Cell::F3(p.p99_speedup_vs_serial)),
            ]
        });
        JsonReport {
            bench: "writepath",
            config: config_cells(self.key_count, self.value_size, self.seed),
            sections: vec![("put_latency", points.collect())],
        }
        .to_json()
    }

    /// The report as a printable table (for the `figures` binary).
    #[must_use]
    pub fn tables(&self) -> Vec<(String, Table)> {
        let mut t = Table::new(
            "Write path: put latency vs writers, serial vs concurrent memtable apply",
            &[
                "device",
                "writers",
                "mode",
                "put_p50_us",
                "put_p99_us",
                "queue_depth",
                "group_batches",
                "p99_speedup",
            ],
        );
        for p in &self.points {
            t.row(vec![
                p.device.into(),
                p.writers.to_string(),
                p.mode.into(),
                f(p.put_p50_us, 1),
                f(p.put_p99_us, 1),
                f(p.avg_queue_depth, 2),
                f(p.avg_group_batches, 2),
                f(p.p99_speedup_vs_serial, 2),
            ]);
        }
        vec![("writepath".into(), t)]
    }
}
