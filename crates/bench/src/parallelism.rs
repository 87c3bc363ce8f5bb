//! Device-parallelism probe: how far range-partitioned subcompactions and
//! batched MultiGet push each device toward its internal parallelism.
//!
//! Two experiments, one table each, both fully deterministic (same seed ⇒
//! byte-identical `results/parallelism_compaction_drain.tsv` and
//! `results/parallelism_multi_get.tsv`, which `scripts/check.sh` compares
//! with the committed copies at both sizes):
//!
//! * **Compaction drain** — the whole dataset is written with compactions
//!   deferred so it piles up in Level-0, then the trigger is restored and
//!   the time to drain the debt is measured. Sweeping `max_subcompactions`
//!   over the same debt isolates the fan-out speedup from workload noise.
//! * **MultiGet** — batched point lookups against the filled database,
//!   compared with the same keys issued as sequential `get`s, at several
//!   batch sizes.

use crate::common::{
    devices, label, mib, no_l0_throttle, picker, probe_table, ratio, us, with_testbed,
    with_vs_first, BenchConfig, Row,
};
use crate::figures::Figure;
use xlsm_core::experiment::Testbed;
use xlsm_core::report::f;
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
/// Returns the row and its drain throughput, which `run` compares with the
/// same device's serial run.
fn drain_one(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
    max_subcompactions: usize,
) -> (Row, f64) {
    let cfg = *cfg;
    Runtime::new().run(move || {
        // Size the memtable so the deferred fill produces a deep Level-0
        // (~24 files) at any dataset scale, and lift the stall triggers:
        // exceeding the default L0 limits is the point of the experiment,
        // not a condition to throttle.
        let opts = no_l0_throttle(DbOptions {
            max_subcompactions,
            write_buffer_size: (cfg.dataset_bytes() as usize / 24).clamp(256 << 10, 2 << 20),
            ..DbOptions::default()
        });
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
        let row: Row = vec![
            ("device", device.into()),
            ("max_subcompactions", max_subcompactions.to_string()),
            ("compact_read_mb", f(mib(read), 3)),
            ("drain_ms", f(drain_ns as f64 / 1e6, 3)),
            ("mb_per_s", f(mb_per_s, 3)),
            (
                "subcompactions_launched",
                stats.ticker(Ticker::SubcompactionsLaunched).to_string(),
            ),
            (
                "fallbacks",
                stats.ticker(Ticker::SubcompactionFallbacks).to_string(),
            ),
        ];
        tb.close();
        (row, mb_per_s)
    })
}

/// Measures batched MultiGet against sequential gets on one device.
fn multi_get_sweep(profile: DeviceProfile, device: &'static str, cfg: &BenchConfig) -> Vec<Row> {
    let cfg = *cfg;
    with_testbed(profile, DbOptions::default, &cfg, move |tb| {
        let ks = KeySpace::new(cfg.key_count);

        let mut next_key = picker(cfg.seed, cfg.key_count);

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
                ("device", device.into()),
                ("batch", batch.to_string()),
                ("batched_p50_us", f(us(batched.quantile(0.5)), 3)),
                ("batched_p99_us", f(b99, 3)),
                ("sequential_p50_us", f(us(sequential.quantile(0.5)), 3)),
                ("sequential_p99_us", f(s99, 3)),
                ("p99_speedup", f(ratio(s99, b99), 3)),
            ]);
        }
        points
    })
}

/// Runs the full probe over the three study devices: drains grouped by
/// device in [`FANOUTS`] order, MultiGet in [`BATCHES`] order.
pub fn run(cfg: &BenchConfig) -> Vec<Figure> {
    let mut drains = Vec::new();
    let mut multi_gets = Vec::new();
    for profile in devices() {
        let device = label(&profile);
        let points = FANOUTS.map(|n| {
            eprintln!("[parallelism] drain: {device} max_subcompactions={n}");
            drain_one(profile.clone(), device, cfg, n)
        });
        // After mb_per_s: 6th of 8.
        drains.extend(with_vs_first(points.into(), 5, "speedup_vs_serial"));
        eprintln!("[parallelism] multi_get: {device}");
        multi_gets.extend(multi_get_sweep(profile.clone(), device, cfg));
    }
    vec![
        probe_table("parallelism_compaction_drain", cfg, &[], drains),
        probe_table("parallelism_multi_get", cfg, &[], multi_gets),
    ]
}
