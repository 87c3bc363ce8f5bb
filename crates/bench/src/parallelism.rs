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
    config_cells, devices, label, mib, us, with_testbed, BenchConfig, Cell, JsonReport,
};
use xlsm_core::experiment::Testbed;
use xlsm_core::report::{f, Table};
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

/// One compaction-drain measurement.
#[derive(Clone, Debug)]
pub struct DrainPoint {
    /// Device label (`sata-flash`, `pcie-flash`, `3d-xpoint`).
    pub device: &'static str,
    /// Configured `max_subcompactions`.
    pub max_subcompactions: usize,
    /// Bytes read by compactions during the drain, in MiB.
    pub compact_read_mb: f64,
    /// Virtual time to drain the Level-0 debt, in ms.
    pub drain_ms: f64,
    /// Drain throughput (compaction input consumed per second).
    pub mb_per_s: f64,
    /// Throughput relative to the serial run on the same device.
    pub speedup_vs_serial: f64,
    /// `SubcompactionsLaunched` ticker after the drain.
    pub subcompactions_launched: u64,
    /// `SubcompactionFallbacks` ticker after the drain.
    pub fallbacks: u64,
}

/// One MultiGet-vs-sequential measurement.
#[derive(Clone, Debug)]
pub struct MultiGetPoint {
    /// Device label.
    pub device: &'static str,
    /// Keys per batch.
    pub batch: usize,
    /// Batched `multi_get` latency, p50 in µs.
    pub batched_p50_us: f64,
    /// Batched `multi_get` latency, p99 in µs.
    pub batched_p99_us: f64,
    /// Same keys as sequential `get`s, p50 in µs.
    pub sequential_p50_us: f64,
    /// Same keys as sequential `get`s, p99 in µs.
    pub sequential_p99_us: f64,
    /// `sequential_p99_us / batched_p99_us`.
    pub p99_speedup: f64,
}

/// Full probe output.
#[derive(Clone, Debug)]
pub struct ParallelismReport {
    /// Dataset size in keys.
    pub key_count: u64,
    /// Value size in bytes.
    pub value_size: usize,
    /// RNG seed.
    pub seed: u64,
    /// Drain sweep, grouped by device in [`FANOUTS`] order.
    pub drains: Vec<DrainPoint>,
    /// MultiGet sweep, grouped by device in [`BATCHES`] order.
    pub multi_gets: Vec<MultiGetPoint>,
}

/// Fills a deferred-compaction database and times the Level-0 drain.
fn drain_one(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
    max_subcompactions: usize,
) -> DrainPoint {
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

        let point = DrainPoint {
            device,
            max_subcompactions,
            compact_read_mb: mib(read),
            drain_ms: drain_ns as f64 / 1e6,
            mb_per_s: if drain_ns == 0 {
                0.0
            } else {
                mib(read) / (drain_ns as f64 / 1e9)
            },
            speedup_vs_serial: 1.0, // filled in by `run`
            subcompactions_launched: stats.ticker(Ticker::SubcompactionsLaunched),
            fallbacks: stats.ticker(Ticker::SubcompactionFallbacks),
        };
        tb.close();
        point
    })
}

/// Measures batched MultiGet against sequential gets on one device.
fn multi_get_sweep(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
) -> Vec<MultiGetPoint> {
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
        for batch in BATCHES {
            let batched = Histogram::new();
            let sequential = Histogram::new();
            for _ in 0..MULTIGET_ITERS {
                // Disjoint draws for the two sides: probing the same keys
                // twice would hand whichever side runs second a warm block
                // cache. Both sides face the same cold-key distribution.
                let keys: Vec<Vec<u8>> = (0..batch).map(|_| ks.key(next_key())).collect();
                let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
                let t0 = xlsm_sim::now_nanos();
                let hits = tb.db.multi_get(&refs).expect("multi_get");
                batched.record(xlsm_sim::now_nanos() - t0);
                assert!(hits.iter().all(Option::is_some), "fill covers every key");

                let keys: Vec<Vec<u8>> = (0..batch).map(|_| ks.key(next_key())).collect();
                let t1 = xlsm_sim::now_nanos();
                for k in &keys {
                    tb.db.get(k).expect("get");
                }
                sequential.record(xlsm_sim::now_nanos() - t1);
            }
            let b99 = us(batched.quantile(0.99));
            let s99 = us(sequential.quantile(0.99));
            points.push(MultiGetPoint {
                device,
                batch,
                batched_p50_us: us(batched.quantile(0.5)),
                batched_p99_us: b99,
                sequential_p50_us: us(sequential.quantile(0.5)),
                sequential_p99_us: s99,
                p99_speedup: if b99 == 0.0 { 0.0 } else { s99 / b99 },
            });
        }
        points
    })
}

/// Runs the full probe over the three study devices.
pub fn run(cfg: &BenchConfig) -> ParallelismReport {
    let mut drains = Vec::new();
    let mut multi_gets = Vec::new();
    for profile in devices() {
        let device = label(&profile);
        let base = drains.len();
        for n in FANOUTS {
            eprintln!("[parallelism] drain: {device} max_subcompactions={n}");
            drains.push(drain_one(profile.clone(), device, cfg, n));
        }
        let serial = drains[base].mb_per_s;
        for p in &mut drains[base..] {
            p.speedup_vs_serial = if serial == 0.0 {
                0.0
            } else {
                p.mb_per_s / serial
            };
        }
        eprintln!("[parallelism] multi_get: {device}");
        multi_gets.extend(multi_get_sweep(profile.clone(), device, cfg));
    }
    ParallelismReport {
        key_count: cfg.key_count,
        value_size: cfg.value_size,
        seed: cfg.seed,
        drains,
        multi_gets,
    }
}

impl ParallelismReport {
    /// The report as deterministic JSON (see [`JsonReport`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let drains = self.drains.iter().map(|d| {
            vec![
                ("device", Cell::Str(d.device)),
                ("max_subcompactions", Cell::Int(d.max_subcompactions as u64)),
                ("compact_read_mb", Cell::F3(d.compact_read_mb)),
                ("drain_ms", Cell::F3(d.drain_ms)),
                ("mb_per_s", Cell::F3(d.mb_per_s)),
                ("speedup_vs_serial", Cell::F3(d.speedup_vs_serial)),
                (
                    "subcompactions_launched",
                    Cell::Int(d.subcompactions_launched),
                ),
                ("fallbacks", Cell::Int(d.fallbacks)),
            ]
        });
        let multi_gets = self.multi_gets.iter().map(|m| {
            vec![
                ("device", Cell::Str(m.device)),
                ("batch", Cell::Int(m.batch as u64)),
                ("batched_p50_us", Cell::F3(m.batched_p50_us)),
                ("batched_p99_us", Cell::F3(m.batched_p99_us)),
                ("sequential_p50_us", Cell::F3(m.sequential_p50_us)),
                ("sequential_p99_us", Cell::F3(m.sequential_p99_us)),
                ("p99_speedup", Cell::F3(m.p99_speedup)),
            ]
        });
        JsonReport {
            bench: "parallelism",
            config: config_cells(self.key_count, self.value_size, self.seed),
            sections: vec![
                ("compaction_drain", drains.collect()),
                ("multi_get", multi_gets.collect()),
            ],
        }
        .to_json()
    }

    /// The report as printable tables (for the `figures` binary).
    #[must_use]
    pub fn tables(&self) -> Vec<(String, Table)> {
        let mut drain = Table::new(
            "Parallelism: L0 debt drain throughput vs max_subcompactions",
            &[
                "device",
                "subcompactions",
                "mb_per_s",
                "speedup",
                "launched",
                "fallbacks",
            ],
        );
        for d in &self.drains {
            drain.row(vec![
                d.device.into(),
                d.max_subcompactions.to_string(),
                f(d.mb_per_s, 1),
                f(d.speedup_vs_serial, 2),
                d.subcompactions_launched.to_string(),
                d.fallbacks.to_string(),
            ]);
        }
        let mut mget = Table::new(
            "Parallelism: batched MultiGet vs sequential gets (µs)",
            &[
                "device",
                "batch",
                "batched_p50",
                "batched_p99",
                "seq_p50",
                "seq_p99",
                "p99_speedup",
            ],
        );
        for m in &self.multi_gets {
            mget.row(vec![
                m.device.into(),
                m.batch.to_string(),
                f(m.batched_p50_us, 1),
                f(m.batched_p99_us, 1),
                f(m.sequential_p50_us, 1),
                f(m.sequential_p99_us, 1),
                f(m.p99_speedup, 2),
            ]);
        }
        vec![
            ("parallelism_drain".into(), drain),
            ("parallelism_multiget".into(), mget),
        ]
    }
}
