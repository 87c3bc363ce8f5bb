//! Read-path probe: what block compression, bloom filters (SST whole-key,
//! SST prefix, memtable), and table-cache sharding buy on each storage
//! generation — the software fixes for the paper's Finding #2 (the
//! Level-0 query penalty grows as the device gets faster).
//!
//! Three experiments, all fully deterministic (same seed ⇒ byte-identical
//! JSON; `scripts/check.sh` runs the probe twice and diffs):
//!
//! * **Point-miss** — the database is filled, then a slice of keys is
//!   overwritten under a deferred compaction trigger so a deep Level-0
//!   piles up, then absent keys are probed. Without filters every miss
//!   pays a table probe per covering L0 file (Finding #2); with
//!   whole-key + memtable blooms almost every probe is skipped, so the
//!   miss cost collapses — most visibly on 3D XPoint where the I/O no
//!   longer hides the software.
//! * **Compression** — the same run-structured dataset is written with
//!   `CompressionType::None` vs `Rle` and read back through a small block
//!   cache. Compressed blocks shrink the simulated device transfer, so
//!   the read win tracks how much of the get path the device owns.
//! * **MultiGet fan-out** — batched lookups at `multi_get_parallelism`
//!   4 and 8 with a single-shard vs 8-way-sharded table cache, against a
//!   block-cache-resident working set (a warmup pass loads every block
//!   the timed pass touches). That is the regime where the lock matters:
//!   once no probe waits on the device, every probe's reader lookup runs
//!   through the table-cache critical section, and with one shard those
//!   lookups serialize behind one gate and the fan-out stops scaling.
//!   (Device-bound, the gate hides behind the device queue — the
//!   point-miss and compression experiments cover that side.)

use crate::common::{
    config_cells, devices, label, us, with_testbed, BenchConfig, Cell, JsonReport,
};
use xlsm_core::experiment::Testbed;
use xlsm_core::report::{f, Table};
use xlsm_device::DeviceProfile;
use xlsm_engine::{CompressionType, DbOptions, Histogram, Ticker};
use xlsm_sim::Runtime;
use xlsm_workload::KeySpace;

/// Absent-key probes per point-miss measurement.
const MISS_OPS: usize = 2_000;

/// Present-key reads per compression measurement.
const COMPRESSED_READS: usize = 1_500;

/// Keys per MultiGet batch (wide enough to fan out across L0 + Ln files).
const MULTIGET_BATCH: usize = 32;

/// Batches per MultiGet measurement.
const MULTIGET_ITERS: usize = 100;

/// `multi_get_parallelism` values swept against each shard count.
pub const FANOUTS: [usize; 2] = [4, 8];

/// Table-cache shard counts swept.
pub const SHARDS: [usize; 2] = [1, 8];

/// One point-miss measurement.
#[derive(Clone, Debug)]
pub struct PointMissPoint {
    /// Device label (`sata-flash`, `pcie-flash`, `3d-xpoint`).
    pub device: &'static str,
    /// `"none"` or `"bloom"` (SST whole-key + memtable blooms).
    pub filters: &'static str,
    /// Level-0 files at measurement time (the Finding #2 depth).
    pub l0_files: u64,
    /// Miss lookups per second.
    pub miss_kops: f64,
    /// Miss latency, p50 in µs.
    pub miss_p50_us: f64,
    /// Miss latency, p99 in µs.
    pub miss_p99_us: f64,
    /// SST bloom rejections during the window (`BloomUseful`).
    pub bloom_useful: u64,
    /// Memtable bloom rejections during the window.
    pub memtable_bloom_useful: u64,
    /// Throughput relative to the filterless run on the same device.
    pub speedup_vs_none: f64,
}

/// One compression measurement.
#[derive(Clone, Debug)]
pub struct CompressionPoint {
    /// Device label.
    pub device: &'static str,
    /// Codec name (`none`, `rle`).
    pub codec: &'static str,
    /// Total SST bytes on disk, in MiB.
    pub sst_mb: f64,
    /// On-disk size relative to the uncompressed run (1.0 for `none`).
    pub size_ratio: f64,
    /// Present-key reads per second.
    pub get_kops: f64,
    /// Get latency, p50 in µs.
    pub get_p50_us: f64,
    /// Get latency, p99 in µs.
    pub get_p99_us: f64,
    /// Blocks decompressed during the read window.
    pub decompressions: u64,
}

/// One MultiGet fan-out measurement.
#[derive(Clone, Debug)]
pub struct MultiGetPoint {
    /// Device label.
    pub device: &'static str,
    /// Configured `multi_get_parallelism`.
    pub fanout: usize,
    /// Configured `table_cache_shards`.
    pub shards: usize,
    /// Keys resolved per second across the window.
    pub kops: f64,
    /// Batch latency, p50 in µs.
    pub batch_p50_us: f64,
    /// Batch latency, p99 in µs.
    pub batch_p99_us: f64,
    /// Throughput relative to the single-shard run at the same fan-out.
    pub speedup_vs_single_shard: f64,
}

/// Full probe output.
#[derive(Clone, Debug)]
pub struct ReadPathReport {
    /// Dataset size in keys.
    pub key_count: u64,
    /// Value size in bytes.
    pub value_size: usize,
    /// RNG seed.
    pub seed: u64,
    /// Point-miss sweep: device-major, `none` before `bloom`.
    pub point_miss: Vec<PointMissPoint>,
    /// Compression sweep: device-major, `none` before `rle`.
    pub compression: Vec<CompressionPoint>,
    /// MultiGet sweep: device-major, then fan-out, 1 shard before 8.
    pub multi_get: Vec<MultiGetPoint>,
}

fn kops(ops: usize, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        ops as f64 / (ns as f64 / 1e9) / 1e3
    }
}

/// Deterministic xorshift key picker, independent of the fill RNG.
fn picker(seed: u64, count: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % count
    }
}

/// Point-miss probe on one device, with or without filters.
fn point_miss_one(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
    filters: bool,
) -> PointMissPoint {
    let cfg = *cfg;
    let opts = move || DbOptions {
        bloom_bits_per_key: if filters { 10 } else { 0 },
        memtable_bloom_bits: if filters { 10 } else { 0 },
        // A deep Level-0 is the experiment, not a stall condition.
        level0_slowdown_writes_trigger: 1 << 16,
        level0_stop_writes_trigger: 1 << 16,
        ..DbOptions::default()
    };
    with_testbed(profile, opts, &cfg, move |tb| {
        tb.db.flush().expect("flush");
        tb.db.wait_for_compactions();

        // Finding #2 geometry: defer compactions and overwrite disjoint
        // key slices, flushing each — every flush adds one full-range L0
        // file a miss must consult.
        tb.db.set_l0_compaction_trigger(1 << 20);
        let ks = KeySpace::new(cfg.key_count);
        let slice = (cfg.key_count / 48).max(1);
        for round in 0..10u64 {
            for i in 0..slice {
                let idx = (round * slice + i) % cfg.key_count;
                tb.db.put(&ks.key(idx), &[b'o'; 64]).expect("overwrite");
            }
            tb.db.flush().expect("flush");
        }
        // Leave fresh writes in the memtable so its bloom has work too.
        for i in 0..slice {
            tb.db.put(&ks.key(i), &[b'm'; 64]).expect("mem put");
        }

        let l0_files = tb.db.shape().files_per_level[0] as u64;
        let stats = tb.db.stats();
        let bloom0 = stats.ticker(Ticker::BloomUseful);
        let mbloom0 = stats.ticker(Ticker::MemtableBloomUseful);
        let mut next = picker(cfg.seed ^ 0x04D1_55E5, cfg.key_count);
        let lat = Histogram::new();
        let t0 = xlsm_sim::now_nanos();
        for _ in 0..MISS_OPS {
            // In-range key index with an out-of-alphabet suffix: lands
            // inside every file's key range, exists in none.
            let mut key = ks.key(next());
            key.push(b'x');
            let s0 = xlsm_sim::now_nanos();
            let got = tb.db.get(&key).expect("get");
            lat.record(xlsm_sim::now_nanos() - s0);
            assert!(got.is_none(), "miss key unexpectedly present");
        }
        let elapsed = xlsm_sim::now_nanos() - t0;

        PointMissPoint {
            device,
            filters: if filters { "bloom" } else { "none" },
            l0_files,
            miss_kops: kops(MISS_OPS, elapsed),
            miss_p50_us: us(lat.quantile(0.5)),
            miss_p99_us: us(lat.quantile(0.99)),
            bloom_useful: stats.ticker(Ticker::BloomUseful) - bloom0,
            memtable_bloom_useful: stats.ticker(Ticker::MemtableBloomUseful) - mbloom0,
            speedup_vs_none: 1.0, // filled in by `run`
        }
    })
}

/// Compression probe on one device with one codec.
fn compression_one(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
    codec: CompressionType,
) -> CompressionPoint {
    let cfg = *cfg;
    Runtime::new().run(move || {
        let opts = DbOptions {
            compression: codec,
            // A small block cache keeps the read window device-bound, so
            // the smaller compressed transfers actually show up.
            block_cache_capacity: 256 << 10,
            ..DbOptions::default()
        };
        let tb = Testbed::new(profile, opts, cfg.dataset_bytes()).expect("testbed");
        let ks = KeySpace::new(cfg.key_count);
        // Run-structured values (16-byte runs keyed to the index) stand in
        // for the compressible payloads real codecs feed on; the stock
        // fill generator is xorshift noise and would compress to nothing.
        for i in 0..cfg.key_count {
            let mut value = Vec::with_capacity(cfg.value_size);
            let mut chunk = 0u64;
            while value.len() < cfg.value_size {
                let b = b'a' + ((i ^ chunk) % 23) as u8;
                let run = 16.min(cfg.value_size - value.len());
                value.extend(std::iter::repeat_n(b, run));
                chunk += 1;
            }
            tb.db.put(&ks.key(i), &value).expect("fill put");
        }
        tb.db.flush().expect("flush");
        tb.db.wait_for_compactions();

        let sst_bytes: u64 = tb.db.shape().bytes_per_level.iter().sum();
        let stats = tb.db.stats();
        let dec0 = stats.ticker(Ticker::BlockDecompressions);
        let mut next = picker(cfg.seed ^ 0xC0DE, cfg.key_count);
        let lat = Histogram::new();
        let t0 = xlsm_sim::now_nanos();
        for _ in 0..COMPRESSED_READS {
            let key = ks.key(next());
            let s0 = xlsm_sim::now_nanos();
            let got = tb.db.get(&key).expect("get");
            lat.record(xlsm_sim::now_nanos() - s0);
            assert!(got.is_some(), "fill covers every key");
        }
        let elapsed = xlsm_sim::now_nanos() - t0;

        let point = CompressionPoint {
            device,
            codec: codec.name(),
            sst_mb: sst_bytes as f64 / (1 << 20) as f64,
            size_ratio: 1.0, // filled in by `run`
            get_kops: kops(COMPRESSED_READS, elapsed),
            get_p50_us: us(lat.quantile(0.5)),
            get_p99_us: us(lat.quantile(0.99)),
            decompressions: stats.ticker(Ticker::BlockDecompressions) - dec0,
        };
        tb.close();
        point
    })
}

/// MultiGet fan-out probe on one device with one shard count.
fn multi_get_one(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
    fanout: usize,
    shards: usize,
) -> MultiGetPoint {
    let cfg = *cfg;
    let opts = move || DbOptions {
        multi_get_parallelism: fanout,
        table_cache_shards: shards,
        // The experiment isolates the table-cache critical section, so
        // the data must not hide behind device reads: a cache big
        // enough for the whole dataset plus a warmup pass makes the
        // timed window block-cache-resident.
        block_cache_capacity: (cfg.dataset_bytes() * 2) as usize,
        // A deep Level-0 is the experiment, not a stall condition.
        level0_slowdown_writes_trigger: 1 << 16,
        level0_stop_writes_trigger: 1 << 16,
        ..DbOptions::default()
    };
    with_testbed(profile, opts, &cfg, move |tb| {
        tb.db.flush().expect("flush");
        tb.db.wait_for_compactions();

        let ks = KeySpace::new(cfg.key_count);
        // Pile up full-range Level-0 files (strided overwrites, one flush
        // each) so a 32-key batch shatters into a probe job per L0 file
        // plus one per touched Ln file — the fan-out whose reader lookups
        // the sharded table cache exists to parallelize.
        tb.db.set_l0_compaction_trigger(1 << 20);
        let stride = (cfg.key_count / 48).max(1);
        for round in 0..10u64 {
            for i in 0..stride {
                let idx = i * 48 + round;
                if idx < cfg.key_count {
                    tb.db.put(&ks.key(idx), &[b'o'; 64]).expect("overwrite");
                }
            }
            tb.db.flush().expect("flush");
        }
        let batches: Vec<Vec<Vec<u8>>> = {
            let mut next = picker(cfg.seed ^ 0xFA57, cfg.key_count);
            (0..MULTIGET_ITERS)
                .map(|_| (0..MULTIGET_BATCH).map(|_| ks.key(next())).collect())
                .collect()
        };
        // Warmup: pull every block the timed pass will touch into the
        // block cache, so the measurement is the software path alone.
        for keys in &batches {
            let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            tb.db.multi_get(&refs).expect("warmup multi_get");
        }

        let lat = Histogram::new();
        let t0 = xlsm_sim::now_nanos();
        for keys in &batches {
            let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            let s0 = xlsm_sim::now_nanos();
            let hits = tb.db.multi_get(&refs).expect("multi_get");
            lat.record(xlsm_sim::now_nanos() - s0);
            assert!(hits.iter().all(Option::is_some), "fill covers every key");
        }
        let elapsed = xlsm_sim::now_nanos() - t0;

        MultiGetPoint {
            device,
            fanout,
            shards,
            kops: kops(MULTIGET_ITERS * MULTIGET_BATCH, elapsed),
            batch_p50_us: us(lat.quantile(0.5)),
            batch_p99_us: us(lat.quantile(0.99)),
            speedup_vs_single_shard: 1.0, // filled in by `run`
        }
    })
}

/// Runs the full probe over the three study devices.
pub fn run(cfg: &BenchConfig) -> ReadPathReport {
    let mut point_miss = Vec::new();
    let mut compression = Vec::new();
    let mut multi_get = Vec::new();
    for profile in devices() {
        let device = label(&profile);

        eprintln!("[readpath] point-miss: {device}, no filters");
        let base = point_miss_one(profile.clone(), device, cfg, false);
        eprintln!("[readpath] point-miss: {device}, blooms on");
        let mut bloom = point_miss_one(profile.clone(), device, cfg, true);
        bloom.speedup_vs_none = if base.miss_kops == 0.0 {
            0.0
        } else {
            bloom.miss_kops / base.miss_kops
        };
        point_miss.push(base);
        point_miss.push(bloom);

        eprintln!("[readpath] compression: {device}, none");
        let plain = compression_one(profile.clone(), device, cfg, CompressionType::None);
        eprintln!("[readpath] compression: {device}, rle");
        let mut rle = compression_one(profile.clone(), device, cfg, CompressionType::Rle);
        rle.size_ratio = if plain.sst_mb == 0.0 {
            0.0
        } else {
            rle.sst_mb / plain.sst_mb
        };
        compression.push(plain);
        compression.push(rle);

        for fanout in FANOUTS {
            let mut pair = Vec::new();
            for shards in SHARDS {
                eprintln!("[readpath] multi_get: {device}, fanout {fanout}, {shards} shard(s)");
                pair.push(multi_get_one(profile.clone(), device, cfg, fanout, shards));
            }
            let single = pair[0].kops;
            for p in &mut pair {
                p.speedup_vs_single_shard = if single == 0.0 { 0.0 } else { p.kops / single };
            }
            multi_get.extend(pair);
        }
    }
    ReadPathReport {
        key_count: cfg.key_count,
        value_size: cfg.value_size,
        seed: cfg.seed,
        point_miss,
        compression,
        multi_get,
    }
}

impl ReadPathReport {
    /// The report as deterministic JSON (see [`JsonReport`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let point_miss = self.point_miss.iter().map(|p| {
            vec![
                ("device", Cell::Str(p.device)),
                ("filters", Cell::Str(p.filters)),
                ("l0_files", Cell::Int(p.l0_files)),
                ("miss_kops", Cell::F3(p.miss_kops)),
                ("miss_p50_us", Cell::F3(p.miss_p50_us)),
                ("miss_p99_us", Cell::F3(p.miss_p99_us)),
                ("bloom_useful", Cell::Int(p.bloom_useful)),
                ("memtable_bloom_useful", Cell::Int(p.memtable_bloom_useful)),
                ("speedup_vs_none", Cell::F3(p.speedup_vs_none)),
            ]
        });
        let compression = self.compression.iter().map(|c| {
            vec![
                ("device", Cell::Str(c.device)),
                ("codec", Cell::Str(c.codec)),
                ("sst_mb", Cell::F3(c.sst_mb)),
                ("size_ratio", Cell::F3(c.size_ratio)),
                ("get_kops", Cell::F3(c.get_kops)),
                ("get_p50_us", Cell::F3(c.get_p50_us)),
                ("get_p99_us", Cell::F3(c.get_p99_us)),
                ("decompressions", Cell::Int(c.decompressions)),
            ]
        });
        let multi_get = self.multi_get.iter().map(|m| {
            vec![
                ("device", Cell::Str(m.device)),
                ("fanout", Cell::Int(m.fanout as u64)),
                ("shards", Cell::Int(m.shards as u64)),
                ("kops", Cell::F3(m.kops)),
                ("batch_p50_us", Cell::F3(m.batch_p50_us)),
                ("batch_p99_us", Cell::F3(m.batch_p99_us)),
                (
                    "speedup_vs_single_shard",
                    Cell::F3(m.speedup_vs_single_shard),
                ),
            ]
        });
        JsonReport {
            bench: "readpath",
            config: config_cells(self.key_count, self.value_size, self.seed),
            sections: vec![
                ("point_miss", point_miss.collect()),
                ("compression", compression.collect()),
                ("multi_get", multi_get.collect()),
            ],
        }
        .to_json()
    }

    /// The report as printable tables (for the `figures` binary).
    #[must_use]
    pub fn tables(&self) -> Vec<(String, Table)> {
        let mut miss = Table::new(
            "Read path: point-miss cost vs blooms under a deep Level-0",
            &[
                "device",
                "filters",
                "l0_files",
                "miss_kops",
                "p50_us",
                "p99_us",
                "bloom_useful",
                "mem_bloom",
                "speedup",
            ],
        );
        for p in &self.point_miss {
            miss.row(vec![
                p.device.into(),
                p.filters.into(),
                p.l0_files.to_string(),
                f(p.miss_kops, 1),
                f(p.miss_p50_us, 1),
                f(p.miss_p99_us, 1),
                p.bloom_useful.to_string(),
                p.memtable_bloom_useful.to_string(),
                f(p.speedup_vs_none, 2),
            ]);
        }
        let mut comp = Table::new(
            "Read path: block compression, on-disk size vs read throughput",
            &[
                "device",
                "codec",
                "sst_mb",
                "size_ratio",
                "get_kops",
                "p50_us",
                "p99_us",
                "decompressions",
            ],
        );
        for c in &self.compression {
            comp.row(vec![
                c.device.into(),
                c.codec.into(),
                f(c.sst_mb, 1),
                f(c.size_ratio, 2),
                f(c.get_kops, 1),
                f(c.get_p50_us, 1),
                f(c.get_p99_us, 1),
                c.decompressions.to_string(),
            ]);
        }
        let mut mget = Table::new(
            "Read path: MultiGet fan-out vs table-cache shards",
            &[
                "device",
                "fanout",
                "shards",
                "kops",
                "batch_p50_us",
                "batch_p99_us",
                "speedup",
            ],
        );
        for m in &self.multi_get {
            mget.row(vec![
                m.device.into(),
                m.fanout.to_string(),
                m.shards.to_string(),
                f(m.kops, 1),
                f(m.batch_p50_us, 1),
                f(m.batch_p99_us, 1),
                f(m.speedup_vs_single_shard, 2),
            ]);
        }
        vec![
            ("readpath_pointmiss".into(), miss),
            ("readpath_compression".into(), comp),
            ("readpath_multiget".into(), mget),
        ]
    }
}
