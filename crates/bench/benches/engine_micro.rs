//! Criterion microbenchmarks for the engine's core data structures.
//!
//! These measure *host* execution speed of the implementation (the figure
//! harness measures *virtual-time* behavior); they exist to catch
//! performance regressions in the substrate itself.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use xlsm_engine::bloom::{BloomBuilder, BloomFilter};
use xlsm_engine::crc32c::{crc32c, Body};
use xlsm_engine::memtable::MemTable;
use xlsm_engine::types::ValueType;
use xlsm_engine::{DbStats, Histogram, Ticker, WriteBatch};

fn bench_memtable(c: &mut Criterion) {
    let mut g = c.benchmark_group("memtable");
    g.bench_function("insert_1k", |b| {
        b.iter_batched(
            || MemTable::new(0),
            |m| {
                for i in 0..1000u64 {
                    m.add(
                        i + 1,
                        ValueType::Value,
                        format!("key{i:08}").as_bytes(),
                        b"value",
                    );
                }
                m
            },
            BatchSize::SmallInput,
        );
    });
    let filled = MemTable::new(0);
    for i in 0..10_000u64 {
        filled.add(
            i + 1,
            ValueType::Value,
            format!("key{i:08}").as_bytes(),
            b"value",
        );
    }
    g.bench_function("get_hit_10k", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 10_000;
            filled.get(format!("key{i:08}").as_bytes(), u64::MAX >> 8)
        });
    });
    g.bench_function("get_miss_10k", |b| {
        b.iter(|| filled.get(b"absent-key", u64::MAX >> 8));
    });
    g.finish();
}

fn bench_bloom(c: &mut Criterion) {
    let keys: Vec<Vec<u8>> = (0..4096u32)
        .map(|i| format!("key{i:08}").into_bytes())
        .collect();
    let build = || {
        let mut b = BloomBuilder::new(10);
        for k in &keys {
            b.add_key(k);
        }
        b.finish()
    };
    let mut g = c.benchmark_group("bloom");
    g.throughput(Throughput::Elements(keys.len() as u64));
    g.bench_function("build_4k_keys", |b| {
        b.iter(build);
    });
    let filter = build();
    g.throughput(Throughput::Elements(1));
    g.bench_function("probe", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % keys.len();
            BloomFilter::may_contain(&filter, &keys[i])
        });
    });
    g.finish();
}

fn bench_crc(c: &mut Criterion) {
    // The sizes the engine hashes: a record header, a value, a block, and
    // one `integrity::FILE_CRC_CHUNK` of a whole-file pass; through the
    // dispatch and through every body this host runs (the folding body
    // hands the header to the three lanes).
    let data = vec![0xA5u8; 64 << 10];
    let mut g = c.benchmark_group("crc32c");
    for (name, len) in [
        ("16b_header", 16),
        ("1k_value", 1 << 10),
        ("4k_block", 4 << 10),
        ("64k_file_chunk", 64 << 10),
    ] {
        let data = &data[..len];
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(name, |b| b.iter(|| crc32c(black_box(data))));
        for body in Body::available() {
            let row = format!("{name}/{}", format!("{body:?}").to_lowercase());
            g.bench_function(&row, |b| b.iter(|| body.crc32c(black_box(data))));
        }
    }
    g.finish();
}

fn bench_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("write_batch");
    g.bench_function("encode_100_puts", |b| {
        b.iter(|| {
            let mut batch = WriteBatch::new();
            for i in 0..100u32 {
                batch.put(format!("key{i:06}").as_bytes(), b"some-value-payload");
            }
            batch.set_sequence(1);
            batch.byte_size()
        });
    });
    let mut batch = WriteBatch::new();
    for i in 0..100u32 {
        batch.put(format!("key{i:06}").as_bytes(), b"some-value-payload");
    }
    batch.set_sequence(1);
    let bytes = batch.data().to_vec();
    g.bench_function("decode_100_puts", |b| {
        b.iter(|| WriteBatch::from_data(&bytes).unwrap());
    });
    g.bench_function("apply_100_puts", |b| {
        b.iter_batched(
            || MemTable::new(0),
            |m| batch.apply_to(&m).unwrap(),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

/// What every engine op pays for exclusion and bookkeeping: an uncontended
/// lock taken and dropped (the shim's one kind), and the per-op counters
/// (a ticker bump and a histogram record), all on one OS thread.
fn bench_sync(c: &mut Criterion) {
    let mut g = c.benchmark_group("sync");
    let m = parking_lot::Mutex::new(0u64);
    g.bench_function("mutex_lock", |b| b.iter(|| *black_box(&m).lock() += 1));
    let stats = DbStats::new();
    g.bench_function("stats_bump", |b| {
        b.iter(|| black_box(&stats).bump(Ticker::Gets))
    });
    let h = Histogram::new();
    g.bench_function("histogram_record", |b| {
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            black_box(&h).record(v % 1_000_000);
        });
    });
    g.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let h = Histogram::new();
    let mut g = c.benchmark_group("histogram");
    for _ in 0..100_000 {
        h.record(rand_like(&h));
    }
    g.bench_function("quantile_p99", |b| b.iter(|| h.quantile(0.99)));
    g.finish();
}

fn rand_like(h: &Histogram) -> u64 {
    // Cheap varying input derived from current count.
    (h.count().wrapping_mul(2654435761)) % 2_000_000
}

fn bench_sim_scheduler(c: &mut Criterion) {
    // Meta-benchmark: cost of a virtual-time context switch (two threads
    // ping-ponging via sleeps). This is the constant that converts simulated
    // event counts into wall time for the figure harness.
    let mut g = c.benchmark_group("sim");
    g.bench_function("switch_1000", |b| {
        b.iter(|| {
            xlsm_sim::Runtime::new().run(|| {
                let h = xlsm_sim::spawn("pong", || {
                    for _ in 0..500 {
                        xlsm_sim::sleep_nanos(10);
                    }
                });
                for _ in 0..500 {
                    xlsm_sim::sleep_nanos(10);
                }
                h.join();
            })
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_memtable,
    bench_bloom,
    bench_crc,
    bench_batch,
    bench_sync,
    bench_histogram,
    bench_sim_scheduler
);
criterion_main!(benches);
