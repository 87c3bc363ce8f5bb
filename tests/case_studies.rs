//! Integration tests for the three case studies (paper Section V), at
//! reduced scale so they run in CI time.

use std::sync::Arc;
use std::time::Duration;
use xlsm_suite::device::profiles;
use xlsm_suite::engine::{Db, DbOptions, ThrottlePolicy};
use xlsm_suite::sim::Runtime;
use xlsm_suite::simfs::{FsOptions, SimFs};
use xlsm_suite::study::casestudy::dynamic_l0::{DynamicL0Config, DynamicL0Manager};
use xlsm_suite::study::casestudy::nvm_wal;
use xlsm_suite::workload::{fill_db, run_workload, BurstSpec, KeyDistribution, WorkloadSpec};

fn burst_workload() -> WorkloadSpec {
    WorkloadSpec {
        key_count: 8 << 10,
        value_size: 1024,
        write_fraction: 0.9, // sustained write pressure keeps L0 loaded
        threads: 6,
        duration: Duration::from_secs(2),
        seed: 31,
        burst: Some(BurstSpec {
            period: Duration::from_secs(1),
            burst_len: Duration::from_millis(500),
            burst_write_fraction: 1.0,
        }),
        distribution: KeyDistribution::Uniform,
    }
}

/// Triggers engage at CI scale: tight L0 thresholds so the slowdown zone is
/// actually visited during the run.
fn throttle_prone_opts() -> DbOptions {
    DbOptions {
        write_buffer_size: 256 << 10,
        target_file_size_base: 256 << 10,
        max_bytes_for_level_base: 1 << 20,
        level0_file_num_compaction_trigger: 2,
        level0_slowdown_writes_trigger: 4,
        level0_stop_writes_trigger: 12,
        ..DbOptions::default()
    }
}

struct PolicyRun {
    total_kops: f64,
    /// Lowest delayed_write_rate the controller ever reached (bytes/s).
    min_rate: u64,
    /// Fraction of samples spent in any throttled state.
    throttled_frac: f64,
}

fn run_with_policy(two_stage: bool) -> PolicyRun {
    let spec = burst_workload();
    Runtime::new().run(move || {
        let mut opts = throttle_prone_opts();
        if two_stage {
            opts.throttle_policy = ThrottlePolicy::TwoStage {
                min_rate: opts.delayed_write_rate,
            };
        }
        let fs = SimFs::new(
            xlsm_suite::device::SimDevice::shared(profiles::optane_900p()) as _,
            FsOptions::default(),
        );
        let db = Arc::new(Db::open(fs, opts).unwrap());
        fill_db(&db, spec.key_count, spec.value_size, spec.seed).unwrap();
        let db2 = Arc::clone(&db);
        let sampler = xlsm_suite::workload::Sampler::start("ctl", 5_000_000, move || {
            use xlsm_suite::engine::controller::StallLevel;
            let snap = db2.controller_snapshot();
            match snap.level {
                StallLevel::Clear => -1.0,
                _ => snap.delayed_write_rate as f64,
            }
        });
        let r = run_workload(&db, &spec);
        let series = sampler.finish();
        db.close();
        let throttled: Vec<f64> = series
            .iter()
            .filter(|&&(_, v)| v >= 0.0)
            .map(|&(_, v)| v)
            .collect();
        PolicyRun {
            total_kops: r.kops(),
            min_rate: throttled.iter().fold(f64::INFINITY, |a, &b| a.min(b)) as u64,
            throttled_frac: throttled.len() as f64 / series.len() as f64,
        }
    })
}

/// Case study V-A: under sustained write pressure the original Algorithm 1
/// rate compounds downward, while the two-stage policy's stage-1 floor
/// keeps the rate at the configured level — without costing throughput.
#[test]
fn two_stage_throttle_holds_a_rate_floor() {
    let orig = run_with_policy(false);
    let two = run_with_policy(true);
    // Both configurations must actually visit the throttled regime for the
    // comparison to be meaningful.
    assert!(
        orig.throttled_frac > 0.05 && two.throttled_frac > 0.05,
        "throttling must engage: orig {:.2} two {:.2}",
        orig.throttled_frac,
        two.throttled_frac
    );
    let floor = DbOptions::default().delayed_write_rate;
    assert!(
        orig.min_rate < floor,
        "original policy should adapt below the initial rate: {} vs {floor}",
        orig.min_rate
    );
    assert!(
        two.min_rate >= floor,
        "two-stage stage-1 floor must hold: {} vs {floor}",
        two.min_rate
    );
    assert!(
        two.total_kops > orig.total_kops * 0.8,
        "two-stage must not sacrifice overall throughput: {:.1} vs {:.1}",
        orig.total_kops,
        two.total_kops
    );
}

/// Case study V-B: the dynamic Level-0 manager tracks the workload mix,
/// choosing large memtables for read-heavy phases and small ones for
/// write-heavy phases.
#[test]
fn dynamic_l0_follows_workload_mix() {
    Runtime::new().run(|| {
        let fs = SimFs::new(
            xlsm_suite::device::SimDevice::shared(profiles::optane_900p()) as _,
            FsOptions::default(),
        );
        let db = Arc::new(Db::open(fs, DbOptions::default()).unwrap());
        fill_db(&db, 2 << 10, 512, 5).unwrap();
        let cfg = DynamicL0Config {
            aggregate_l0_bytes: 12 << 20,
            sample_interval_nanos: 100_000_000,
            ..DynamicL0Config::default()
        };
        let mgr = DynamicL0Manager::start(Arc::clone(&db), cfg);
        // Read-heavy phase.
        let read_spec = WorkloadSpec {
            key_count: 2 << 10,
            value_size: 512,
            write_fraction: 0.05,
            threads: 2,
            duration: Duration::from_millis(500),
            seed: 6,
            burst: None,
            distribution: KeyDistribution::Uniform,
        };
        run_workload(&db, &read_spec);
        let read_target = db.write_buffer_size();
        // Write-heavy phase.
        run_workload(&db, &read_spec.clone().with_write_fraction(0.9));
        let write_target = db.write_buffer_size();
        let log = mgr.stop();
        assert!(
            read_target > write_target,
            "read-heavy phases should use larger memtables: {read_target} vs {write_target}"
        );
        assert!(!log.is_empty(), "the manager should have acted");
        db.close();
    });
}

/// Case study V-C: with per-commit WAL syncs, moving the log to NVM
/// drastically cuts the write tail; disabling the WAL entirely is the
/// lower bound.
#[test]
fn nvm_wal_cuts_synced_write_tail() {
    fn p90(enable_wal: bool, on_nvm: bool) -> u64 {
        Runtime::new().run(move || {
            let fs = SimFs::new(
                xlsm_suite::device::SimDevice::shared(profiles::intel_750_pcie()) as _,
                FsOptions::default(),
            );
            let opts = DbOptions {
                wal_sync: true,
                enable_wal,
                wal_fs: on_nvm.then(nvm_wal::log_fs),
                ..DbOptions::default()
            };
            let db = Arc::new(Db::open(fs, opts).unwrap());
            let spec = WorkloadSpec {
                key_count: 2 << 10,
                value_size: 512,
                write_fraction: 1.0,
                threads: 2,
                duration: Duration::from_millis(400),
                seed: 4,
                burst: None,
                distribution: KeyDistribution::Uniform,
            };
            fill_db(&db, spec.key_count, spec.value_size, spec.seed).unwrap();
            let r = run_workload(&db, &spec);
            db.close();
            r.write_latency.p90_ns
        })
    }
    let ssd = p90(true, false);
    let nvm = p90(true, true);
    let off = p90(false, false);
    assert!(
        nvm < ssd,
        "NVM WAL should beat same-device WAL: {nvm} vs {ssd} ns"
    );
    assert!(
        off <= nvm,
        "disabled WAL is the lower bound: {off} vs {nvm} ns"
    );
}

/// The paper's overall narrative in one test: on 3D XPoint, a write-heavy
/// workload gains far less over SATA flash than the raw device speedup,
/// because software bottlenecks dominate.
#[test]
fn software_bottleneck_narrows_the_hardware_gap() {
    fn kops(profile: xlsm_suite::device::DeviceProfile) -> f64 {
        Runtime::new().run(move || {
            let fs = SimFs::new(
                xlsm_suite::device::SimDevice::shared(profile) as _,
                FsOptions::default(),
            );
            let db = Arc::new(Db::open(fs, DbOptions::default()).unwrap());
            let spec = WorkloadSpec {
                key_count: 8 << 10,
                value_size: 1024,
                write_fraction: 0.9,
                threads: 4,
                duration: Duration::from_secs(1),
                seed: 17,
                burst: None,
                distribution: KeyDistribution::Uniform,
            };
            fill_db(&db, spec.key_count, spec.value_size, spec.seed).unwrap();
            let r = run_workload(&db, &spec);
            db.close();
            r.kops()
        })
    }
    let sata = kops(profiles::intel_530_sata());
    let xpoint = kops(profiles::optane_900p());
    let kv_gain = xpoint / sata;
    // Raw device gap is ~15x; the KV-level gap at 90% writes must collapse
    // to a single digit (paper: 1.8x at 1:1 with 4K values).
    assert!(
        kv_gain < 10.0,
        "KV gain should be far below the ~15x raw gap, got {kv_gain:.1}x"
    );
    assert!(kv_gain > 1.0, "XPoint should still win: {kv_gain:.2}x");
}
