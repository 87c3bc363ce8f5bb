//! Read-path probe: what block compression and bloom filters (SST
//! whole-key, SST prefix, memtable) buy on each storage generation — the
//! software fixes for the paper's Finding #2 (the Level-0 query penalty
//! grows as the device gets faster).
//!
//! Two experiments, one table each, both fully deterministic (same seed ⇒
//! byte-identical `results/readpath_point_miss.tsv` and
//! `results/readpath_compression.tsv`; `scripts/check.sh` compares them
//! with the committed copies at both sizes):
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
    devices, label, mib, no_l0_throttle, picker, probe_table, ratio, us, with_testbed,
    with_vs_first, BenchConfig, Row,
};
use crate::figures::Figure;
use xlsm_core::experiment::Testbed;
use xlsm_core::report::f;
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

/// Point-miss probe on one device, with SST whole-key and memtable blooms
/// (`filters`) or neither. Every `*_one` below returns its row and the value
/// `run` compares with its pair's baseline: here the miss throughput, whose
/// baseline is the filterless run.
fn point_miss_one(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
    filters: bool,
) -> (Row, f64) {
    let cfg = *cfg;
    let bits = if filters { 10 } else { 0 };
    // A deep Level-0 is the experiment, not a stall condition.
    let opts = move || {
        no_l0_throttle(DbOptions {
            bloom_bits_per_key: bits,
            memtable_bloom_bits: bits,
            ..DbOptions::default()
        })
    };
    with_testbed(profile, opts, &cfg, move |tb| {
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
        let row: Row = vec![
            ("device", device.into()),
            ("filters", filters.into()),
            // Level-0 depth at measurement time (the Finding #2 depth).
            ("l0_files", l0_files.to_string()),
            ("miss_kops", f(miss_kops, 3)),
            ("miss_p50_us", f(us(lat.quantile(0.5)), 3)),
            ("miss_p99_us", f(us(lat.quantile(0.99)), 3)),
            // Bloom rejections during the window, SST and memtable.
            (
                "bloom_useful",
                (stats.ticker(Ticker::BloomUseful) - bloom0).to_string(),
            ),
            (
                "memtable_bloom_useful",
                (stats.ticker(Ticker::MemtableBloomUseful) - mbloom0).to_string(),
            ),
        ];
        (row, miss_kops)
    })
}

/// Compression probe on one device with one codec; the value returned is
/// the on-disk size, whose baseline is the uncompressed run's.
fn compression_one(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
    codec: CompressionType,
) -> (Row, f64) {
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
        let row: Row = vec![
            ("device", device.into()),
            ("codec", codec.name().into()),
            ("sst_mb", f(sst_mb, 3)),
            ("get_kops", f(kops(stats.gets.totals()), 3)),
            ("get_p50_us", f(us(lat.quantile(0.5)), 3)),
            ("get_p99_us", f(us(lat.quantile(0.99)), 3)),
            // Blocks decompressed during the read window.
            (
                "decompressions",
                (stats.ticker(Ticker::BlockDecompressions) - dec0).to_string(),
            ),
        ];
        tb.close();
        (row, sst_mb)
    })
}

/// Runs the full probe over the three study devices. Every section is
/// device-major; within a device the baseline of each pair comes first.
pub fn run(cfg: &BenchConfig) -> Vec<Figure> {
    let mut point_miss = Vec::new();
    let mut compression = Vec::new();
    for profile in devices() {
        let device = label(&profile);

        let misses = [false, true].map(|filters| {
            let on = if filters { "blooms on" } else { "no filters" };
            eprintln!("[readpath] point-miss: {device}, {on}");
            point_miss_one(profile.clone(), device, cfg, filters)
        });
        // Last of 9.
        point_miss.extend(with_vs_first(misses.into(), 8, "speedup_vs_none"));

        let sizes = [CompressionType::None, CompressionType::Rle].map(|codec| {
            eprintln!("[readpath] compression: {device}, {}", codec.name());
            compression_one(profile.clone(), device, cfg, codec)
        });
        // After sst_mb: 4th of 8.
        compression.extend(with_vs_first(sizes.into(), 3, "size_ratio"));
    }
    vec![
        probe_table("readpath_point_miss", cfg, &[], point_miss),
        probe_table("readpath_compression", cfg, &[], compression),
    ]
}
