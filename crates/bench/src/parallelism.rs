//! Device-parallelism probe: how far range-partitioned subcompactions and
//! batched MultiGet push each device toward its internal parallelism.
//!
//! Two experiments, both fully deterministic (same seed ⇒ byte-identical
//! JSON, which `scripts/check.sh` verifies by running the probe twice):
//!
//! * **Compaction drain** — the whole dataset is written with compactions
//!   deferred so it piles up in Level-0, then the trigger is restored and
//!   the time to drain the debt is measured. Sweeping `max_subcompactions`
//!   over the same debt isolates the fan-out speedup from workload noise.
//! * **MultiGet** — batched point lookups against the filled database,
//!   compared with the same keys issued as sequential `get`s, at several
//!   batch sizes.

use crate::common::{
    config_cells, devices, label, mib, ratio, us, vs_baseline, with_testbed, BenchConfig, Cell,
    JsonReport, JsonRow,
};
use xlsm_core::experiment::Testbed;
use xlsm_device::DeviceProfile;
use xlsm_engine::{DbOptions, Histogram, Ticker};
use xlsm_sim::Runtime;
use xlsm_workload::{fill_db, KeySpace};

/// Subcompaction fan-outs swept by the drain experiment.
pub const FANOUTS: [usize; 3] = [1, 2, 4];

/// Batch sizes swept by the MultiGet experiment.
pub const BATCHES: [usize; 3] = [4, 8, 16];

/// Batches issued per `(device, batch size)` point.
const MULTIGET_ITERS: usize = 200;

/// Fills a deferred-compaction database and times the Level-0 drain.
/// Returns the row and its drain throughput; `serial_mb_per_s` is that of
/// the same device's serial run (`None` while this is it).
fn drain_one(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
    max_subcompactions: usize,
    serial_mb_per_s: Option<f64>,
) -> (JsonRow, f64) {
    let cfg = *cfg;
    Runtime::new().run(move || {
        // Size the memtable so the deferred fill produces a deep Level-0
        // (~24 files) at any dataset scale, and lift the stall triggers:
        // exceeding the default L0 limits is the point of the experiment,
        // not a condition to throttle.
        let opts = DbOptions {
            max_subcompactions,
            write_buffer_size: (cfg.dataset_bytes() as usize / 24).clamp(256 << 10, 2 << 20),
            level0_slowdown_writes_trigger: 1 << 16,
            level0_stop_writes_trigger: 1 << 16,
            ..DbOptions::default()
        };
        let tb = Testbed::new(profile, opts, cfg.dataset_bytes()).expect("testbed");
        tb.db.set_l0_compaction_trigger(1 << 20); // defer compactions
        fill_db(&tb.db, cfg.key_count, cfg.value_size, cfg.seed).expect("fill");

        let stats = tb.db.stats();
        let read0 = stats.ticker(Ticker::CompactReadBytes);
        let t0 = xlsm_sim::now_nanos();
        tb.db.set_l0_compaction_trigger(0); // restore; debt drains now
        tb.db.wait_for_compactions();
        let drain_ns = xlsm_sim::now_nanos() - t0;
        let read = stats.ticker(Ticker::CompactReadBytes) - read0;

        // Compaction input consumed per second of drain.
        let mb_per_s = ratio(mib(read), drain_ns as f64 / 1e9);
        let row = vec![
            ("device", Cell::Str(device.into())),
            ("max_subcompactions", Cell::Int(max_subcompactions as u64)),
            ("compact_read_mb", Cell::F3(mib(read))),
            ("drain_ms", Cell::F3(drain_ns as f64 / 1e6)),
            ("mb_per_s", Cell::F3(mb_per_s)),
            (
                "speedup_vs_serial",
                Cell::F3(vs_baseline(mb_per_s, serial_mb_per_s)),
            ),
            (
                "subcompactions_launched",
                Cell::Int(stats.ticker(Ticker::SubcompactionsLaunched)),
            ),
            (
                "fallbacks",
                Cell::Int(stats.ticker(Ticker::SubcompactionFallbacks)),
            ),
        ];
        tb.close();
        (row, mb_per_s)
    })
}

/// Measures batched MultiGet against sequential gets on one device.
fn multi_get_sweep(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
) -> Vec<JsonRow> {
    let cfg = *cfg;
    with_testbed(profile, DbOptions::default, &cfg, move |tb| {
        let ks = KeySpace::new(cfg.key_count);

        // Deterministic xorshift key picker, independent of the fill RNG.
        let mut state = cfg.seed | 1;
        let mut next_key = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % cfg.key_count
        };

        let mut points = Vec::new();
        let stats = tb.db.stats();
        for batch in BATCHES {
            // The window's multi_get record is this batch size's batches;
            // the sequential side times a loop of gets as one unit.
            stats.reset_window();
            let sequential = Histogram::new();
            for _ in 0..MULTIGET_ITERS {
                // Disjoint draws for the two sides: probing the same keys
                // twice would hand whichever side runs second a warm block
                // cache. Both sides face the same cold-key distribution.
                let keys: Vec<Vec<u8>> = (0..batch).map(|_| ks.key(next_key())).collect();
                let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
                let hits = tb.db.multi_get(&refs).expect("multi_get");
                assert!(hits.iter().all(Option::is_some), "fill covers every key");

                let keys: Vec<Vec<u8>> = (0..batch).map(|_| ks.key(next_key())).collect();
                let t1 = xlsm_sim::now_nanos();
                for k in &keys {
                    tb.db.get(k).expect("get");
                }
                sequential.record(xlsm_sim::now_nanos() - t1);
            }
            let batched = stats.multi_gets.latency();
            let b99 = us(batched.quantile(0.99));
            let s99 = us(sequential.quantile(0.99));
            points.push(vec![
                ("device", Cell::Str(device.into())),
                ("batch", Cell::Int(batch as u64)),
                ("batched_p50_us", Cell::F3(us(batched.quantile(0.5)))),
                ("batched_p99_us", Cell::F3(b99)),
                ("sequential_p50_us", Cell::F3(us(sequential.quantile(0.5)))),
                ("sequential_p99_us", Cell::F3(s99)),
                ("p99_speedup", Cell::F3(ratio(s99, b99))),
            ]);
        }
        points
    })
}

/// Runs the full probe over the three study devices: drains grouped by
/// device in [`FANOUTS`] order, MultiGet in [`BATCHES`] order.
pub fn run(cfg: &BenchConfig) -> JsonReport {
    let mut drains = Vec::new();
    let mut multi_gets = Vec::new();
    for profile in devices() {
        let device = label(&profile);
        let mut serial = None;
        for n in FANOUTS {
            eprintln!("[parallelism] drain: {device} max_subcompactions={n}");
            let (row, mb_per_s) = drain_one(profile.clone(), device, cfg, n, serial);
            serial.get_or_insert(mb_per_s);
            drains.push(row);
        }
        eprintln!("[parallelism] multi_get: {device}");
        multi_gets.extend(multi_get_sweep(profile.clone(), device, cfg));
    }
    JsonReport {
        bench: "parallelism",
        config: config_cells(cfg),
        sections: vec![("compaction_drain", drains), ("multi_get", multi_gets)],
    }
}
