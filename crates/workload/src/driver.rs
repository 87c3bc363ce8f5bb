//! Closed-loop workload driver.

use crate::keys::{thread_rng, KeySpace, ValueGenerator, Zipfian};
use crate::spec::{KeyDistribution, WorkloadSpec};
use rand::RngExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xlsm_engine::{Db, DbResult, HistogramSummary};

/// Timeline bucket width (100 ms of virtual time).
pub const BUCKET_NANOS: u64 = 100_000_000;

/// Aggregated outcome of one workload run.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Operations completed inside the measurement window.
    pub total_ops: u64,
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Measured duration (virtual).
    pub duration: Duration,
    /// Read-latency summary (the engine's get record).
    pub read_latency: HistogramSummary,
    /// Write-latency summary (the engine's write record).
    pub write_latency: HistogramSummary,
    /// Completed ops per 100 ms bucket, as `(seconds, kop/s)`; a bucket is
    /// labelled by its end, so the labels are 0.1, 0.2, 0.3, … s.
    pub timeline: Vec<(f64, f64)>,
    /// Average writer-queue depth sampled at group commits (Fig. 16).
    pub avg_waiting_writers: f64,
}

impl WorkloadResult {
    /// Overall throughput in kop/s.
    pub fn kops(&self) -> f64 {
        self.total_ops as f64 / self.duration.as_secs_f64() / 1e3
    }

    /// Minimum bucket throughput in kop/s (the "near-stop" depth of the
    /// throttling dips in Figs. 5 and 18).
    pub fn min_bucket_kops(&self) -> f64 {
        self.timeline
            .iter()
            .map(|&(_, k)| k)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Pre-populates `db` with every key of the space, in a pseudo-random
/// permutation (like `db_bench` `fillrandom`), then waits for flushes and
/// compactions to settle and clears the latency windows.
///
/// # Errors
///
/// Propagates write failures.
pub fn fill_db(db: &Db, key_count: u64, value_size: usize, seed: u64) -> DbResult<()> {
    let ks = KeySpace::new(key_count);
    let vg = ValueGenerator::new(value_size);
    // A stride permutation with a stride co-prime to the key count visits
    // every key exactly once while spreading key ranges across L0 files.
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let mut stride = (key_count / 2 + seed % 1000) | 1;
    while gcd(stride, key_count) != 1 {
        stride += 2;
    }
    let mut idx = seed % key_count;
    for _ in 0..key_count {
        idx = (idx + stride) % key_count;
        db.put(&ks.key(idx), &vg.value(idx))?;
    }
    db.flush()?;
    db.wait_for_compactions();
    db.stats().reset_window();
    Ok(())
}

/// Runs `spec` against `db` and gathers the measurements.
///
/// Must be called from inside a sim runtime. The database should already be
/// filled (reads probe existing keys). The run opens the engine's window
/// (`reset_window`), so its op counts and latencies are the engine's own
/// get and write records; the driver keeps only the timeline.
pub fn run_workload(db: &Arc<Db>, spec: &WorkloadSpec) -> WorkloadResult {
    let ks = KeySpace::new(spec.key_count);
    let vg = ValueGenerator::new(spec.value_size);
    let start = xlsm_sim::now_nanos();
    let end = start + spec.duration.as_nanos() as u64;
    let n_buckets = (spec.duration.as_nanos() as u64).div_ceil(BUCKET_NANOS) as usize;
    let buckets: Arc<Vec<AtomicU64>> =
        Arc::new((0..n_buckets).map(|_| AtomicU64::new(0)).collect());

    db.stats().reset_window();
    let mut handles = Vec::new();
    for t in 0..spec.threads {
        let db = Arc::clone(db);
        let spec = spec.clone();
        let buckets = Arc::clone(&buckets);
        handles.push(xlsm_sim::spawn(&format!("client-{t}"), move || {
            let mut rng = thread_rng(spec.seed, t as u64);
            let zipf = match spec.distribution {
                KeyDistribution::Zipfian(theta) => Some(Zipfian::new(spec.key_count, theta)),
                KeyDistribution::Uniform => None,
            };
            loop {
                let now = xlsm_sim::now_nanos();
                if now >= end {
                    break;
                }
                let wf = spec.write_fraction_at(now - start);
                let idx = match &zipf {
                    Some(z) => z.sample(&mut rng),
                    None => ks.uniform(&mut rng),
                };
                if rng.random::<f64>() < wf {
                    db.put(&ks.key(idx), &vg.value(idx)).expect("put failed");
                } else {
                    let _ = db.get(&ks.key(idx)).expect("get failed");
                }
                let done = xlsm_sim::now_nanos();
                let bucket = ((done.saturating_sub(start)) / BUCKET_NANOS) as usize;
                if let Some(b) = buckets.get(bucket) {
                    xlsm_sim::sync::add(b, 1);
                }
            }
        }));
    }
    for h in handles {
        h.join();
    }
    let timeline: Vec<(f64, f64)> = buckets
        .iter()
        .enumerate()
        .map(|(i, b)| {
            (
                (i as f64 + 1.0) * (BUCKET_NANOS as f64 / 1e9),
                b.load(Ordering::Relaxed) as f64 / (BUCKET_NANOS as f64 / 1e9) / 1e3,
            )
        })
        .collect();
    let stats = db.stats();
    let read_latency = stats.gets.latency().summary();
    let write_latency = stats.writes.latency().summary();
    WorkloadResult {
        total_ops: read_latency.count + write_latency.count,
        reads: read_latency.count,
        writes: write_latency.count,
        duration: spec.duration,
        read_latency,
        write_latency,
        timeline,
        avg_waiting_writers: stats.avg_waiting_writers(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlsm_device::{profiles, SimDevice};
    use xlsm_engine::DbOptions;
    use xlsm_sim::Runtime;
    use xlsm_simfs::{FsOptions, SimFs};

    fn test_db() -> Arc<Db> {
        let fs = SimFs::new(
            SimDevice::shared(profiles::optane_900p()),
            FsOptions::default(),
        );
        Arc::new(
            Db::open(
                fs,
                DbOptions {
                    write_buffer_size: 256 << 10,
                    target_file_size_base: 256 << 10,
                    max_bytes_for_level_base: 1 << 20,
                    ..DbOptions::default()
                },
            )
            .unwrap(),
        )
    }

    #[test]
    fn fill_then_mixed_workload() {
        Runtime::new().run(|| {
            let db = test_db();
            fill_db(&db, 2_000, 256, 7).unwrap();
            let spec = WorkloadSpec {
                key_count: 2_000,
                value_size: 256,
                write_fraction: 0.5,
                threads: 4,
                duration: Duration::from_millis(500),
                seed: 11,
                burst: None,
                distribution: KeyDistribution::Uniform,
            };
            let r = run_workload(&db, &spec);
            assert!(r.total_ops > 100, "too few ops: {}", r.total_ops);
            assert!(r.reads > 0 && r.writes > 0);
            // 1:1 mix within generous tolerance.
            let wf = r.writes as f64 / r.total_ops as f64;
            assert!((0.35..0.65).contains(&wf), "write fraction {wf}");
            assert!(r.kops() > 0.0);
            assert_eq!(r.timeline.len(), 5);
            // As the figures print them, to one decimal: no two rows share a time.
            let labels: Vec<f64> = r
                .timeline
                .iter()
                .map(|&(t, _)| format!("{t:.1}").parse().unwrap())
                .collect();
            assert!(labels.windows(2).all(|w| w[0] < w[1]), "{labels:?}");
            assert_eq!(labels.first(), Some(&0.1));
            assert!(r.read_latency.count > 0);
            assert!(r.write_latency.p90_ns > 0);
            db.close();
        });
    }

    #[test]
    fn pure_read_and_pure_write_mixes() {
        Runtime::new().run(|| {
            let db = test_db();
            fill_db(&db, 1_000, 128, 3).unwrap();
            let base = WorkloadSpec {
                key_count: 1_000,
                value_size: 128,
                threads: 2,
                duration: Duration::from_millis(200),
                seed: 5,
                burst: None,
                write_fraction: 0.0,
                distribution: KeyDistribution::Uniform,
            };
            let reads = run_workload(&db, &base);
            assert_eq!(reads.writes, 0);
            let writes = run_workload(&db, &base.clone().with_write_fraction(1.0));
            assert_eq!(writes.reads, 0);
            db.close();
        });
    }

    #[test]
    fn determinism_same_seed_same_ops() {
        fn once() -> (u64, u64) {
            Runtime::new().run(|| {
                let db = test_db();
                fill_db(&db, 500, 64, 1).unwrap();
                let spec = WorkloadSpec {
                    key_count: 500,
                    value_size: 64,
                    write_fraction: 0.3,
                    threads: 3,
                    duration: Duration::from_millis(100),
                    seed: 42,
                    burst: None,
                    distribution: KeyDistribution::Uniform,
                };
                let r = run_workload(&db, &spec);
                db.close();
                (r.reads, r.writes)
            })
        }
        assert_eq!(once(), once());
    }

    #[test]
    fn reads_after_fill_find_values() {
        Runtime::new().run(|| {
            let db = test_db();
            fill_db(&db, 300, 64, 9).unwrap();
            let ks = KeySpace::new(300);
            let vg = ValueGenerator::new(64);
            for i in (0..300).step_by(23) {
                assert_eq!(db.get(&ks.key(i)).unwrap(), Some(vg.value(i)), "key {i}");
            }
            db.close();
        });
    }
}

#[cfg(test)]
mod zipf_tests {
    use super::*;
    use crate::spec::KeyDistribution;
    use xlsm_device::{profiles, SimDevice};
    use xlsm_engine::DbOptions;
    use xlsm_sim::Runtime;
    use xlsm_simfs::{FsOptions, SimFs};

    #[test]
    fn zipfian_workload_runs_and_skews_hits() {
        Runtime::new().run(|| {
            let fs = SimFs::new(
                SimDevice::shared(profiles::optane_900p()),
                FsOptions::default(),
            );
            let db = Arc::new(Db::open(fs, DbOptions::default()).unwrap());
            fill_db(&db, 4_000, 256, 3).unwrap();
            let base = WorkloadSpec {
                key_count: 4_000,
                value_size: 256,
                write_fraction: 0.0,
                threads: 2,
                duration: Duration::from_millis(300),
                seed: 21,
                burst: None,
                distribution: KeyDistribution::Uniform,
            };
            let uniform = run_workload(&db, &base);
            let (h0, m0) = db.block_cache_counters();
            let zipf = run_workload(
                &db,
                &base
                    .clone()
                    .with_distribution(KeyDistribution::Zipfian(0.99)),
            );
            let (h1, m1) = db.block_cache_counters();
            assert!(uniform.reads > 0 && zipf.reads > 0);
            // Hot-key concentration: the zipfian window's cache hit *rate*
            // must beat the uniform window's.
            let uniform_rate = h0 as f64 / (h0 + m0) as f64;
            let zipf_rate = (h1 - h0) as f64 / ((h1 - h0) + (m1 - m0)).max(1) as f64;
            assert!(
                zipf_rate > uniform_rate,
                "zipfian should hit cache more: {zipf_rate:.3} vs {uniform_rate:.3}"
            );
            db.close();
        });
    }
}
