//! Read-path probe: what block compression and bloom filters (SST
//! whole-key, SST prefix, memtable) buy on each storage generation — the
//! software fixes for the paper's Finding #2 (the Level-0 query penalty
//! grows as the device gets faster).
//!
//! Two experiments, both fully deterministic (same seed ⇒ byte-identical
//! JSON; `scripts/check.sh` compares a full-size run with the committed
//! `BENCH_readpath.json`):
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

use crate::common::{
    config_cells, devices, label, mib, ratio, us, vs_baseline, with_testbed, BenchConfig, Cell,
    JsonReport, JsonRow,
};
use xlsm_core::experiment::Testbed;
use xlsm_device::DeviceProfile;
use xlsm_engine::{CompressionType, DbOptions, OpTotals, Ticker};
use xlsm_sim::Runtime;
use xlsm_workload::KeySpace;

/// Absent-key probes per point-miss measurement.
const MISS_OPS: usize = 2_000;

/// Present-key reads per compression measurement.
const COMPRESSED_READS: usize = 1_500;

/// Throughput of a window of back-to-back gets, in kop/s. Nothing is charged
/// between them, so their summed latency is the window's length.
fn kops(gets: OpTotals) -> f64 {
    ratio(gets.ops as f64, gets.total_ns as f64 / 1e9) / 1e3
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

/// Point-miss probe on one device. Every `*_one` below returns its row and
/// the value its pair divides by; the baseline of a pair runs first and is
/// handed to the other. Here the filterless run (`None`) comes before the
/// one with blooms, which is given its miss throughput.
fn point_miss_one(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
    none_kops: Option<f64>,
) -> (JsonRow, f64) {
    let cfg = *cfg;
    let filters = none_kops.is_some();
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
        stats.reset_window();
        for _ in 0..MISS_OPS {
            // In-range key index with an out-of-alphabet suffix: lands
            // inside every file's key range, exists in none.
            let mut key = ks.key(next());
            key.push(b'x');
            let got = tb.db.get(&key).expect("get");
            assert!(got.is_none(), "miss key unexpectedly present");
        }
        let lat = stats.gets.latency();

        let miss_kops = kops(stats.gets.totals());
        // SST whole-key + memtable blooms, or neither.
        let filters = if filters { "bloom" } else { "none" };
        let row = vec![
            ("device", Cell::Str(device.into())),
            ("filters", Cell::Str(filters.into())),
            // Level-0 depth at measurement time (the Finding #2 depth).
            ("l0_files", Cell::Int(l0_files)),
            ("miss_kops", Cell::F3(miss_kops)),
            ("miss_p50_us", Cell::F3(us(lat.quantile(0.5)))),
            ("miss_p99_us", Cell::F3(us(lat.quantile(0.99)))),
            // Bloom rejections during the window, SST and memtable.
            (
                "bloom_useful",
                Cell::Int(stats.ticker(Ticker::BloomUseful) - bloom0),
            ),
            (
                "memtable_bloom_useful",
                Cell::Int(stats.ticker(Ticker::MemtableBloomUseful) - mbloom0),
            ),
            (
                "speedup_vs_none",
                Cell::F3(vs_baseline(miss_kops, none_kops)),
            ),
        ];
        (row, miss_kops)
    })
}

/// Compression probe on one device with one codec; `plain_sst_mb` is the
/// on-disk size of the uncompressed run.
fn compression_one(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
    codec: CompressionType,
    plain_sst_mb: Option<f64>,
) -> (JsonRow, f64) {
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
        stats.reset_window();
        for _ in 0..COMPRESSED_READS {
            let key = ks.key(next());
            let got = tb.db.get(&key).expect("get");
            assert!(got.is_some(), "fill covers every key");
        }
        let lat = stats.gets.latency();

        let sst_mb = mib(sst_bytes);
        let row = vec![
            ("device", Cell::Str(device.into())),
            ("codec", Cell::Str(codec.name().into())),
            ("sst_mb", Cell::F3(sst_mb)),
            ("size_ratio", Cell::F3(vs_baseline(sst_mb, plain_sst_mb))),
            ("get_kops", Cell::F3(kops(stats.gets.totals()))),
            ("get_p50_us", Cell::F3(us(lat.quantile(0.5)))),
            ("get_p99_us", Cell::F3(us(lat.quantile(0.99)))),
            // Blocks decompressed during the read window.
            (
                "decompressions",
                Cell::Int(stats.ticker(Ticker::BlockDecompressions) - dec0),
            ),
        ];
        tb.close();
        (row, sst_mb)
    })
}

/// Runs the full probe over the three study devices. Every section is
/// device-major; within a device the baseline of each pair comes first.
pub fn run(cfg: &BenchConfig) -> JsonReport {
    let mut point_miss = Vec::new();
    let mut compression = Vec::new();
    for profile in devices() {
        let device = label(&profile);

        eprintln!("[readpath] point-miss: {device}, no filters");
        let (none, none_kops) = point_miss_one(profile.clone(), device, cfg, None);
        eprintln!("[readpath] point-miss: {device}, blooms on");
        let (bloom, _) = point_miss_one(profile.clone(), device, cfg, Some(none_kops));
        point_miss.extend([none, bloom]);

        eprintln!("[readpath] compression: {device}, none");
        let (plain, plain_mb) =
            compression_one(profile.clone(), device, cfg, CompressionType::None, None);
        eprintln!("[readpath] compression: {device}, rle");
        let (rle, _) = compression_one(
            profile.clone(),
            device,
            cfg,
            CompressionType::Rle,
            Some(plain_mb),
        );
        compression.extend([plain, rle]);
    }
    JsonReport {
        bench: "readpath",
        config: config_cells(cfg),
        sections: vec![("point_miss", point_miss), ("compression", compression)],
    }
}
