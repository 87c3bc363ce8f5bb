//! Cross-crate integration: full stack (device → simfs → engine → workload)
//! exercised end to end.

use std::sync::Arc;
use std::time::Duration;
use xlsm_suite::device::{profiles, SimDevice};
use xlsm_suite::engine::{Db, DbOptions};
use xlsm_suite::sim::Runtime;
use xlsm_suite::simfs::{FsOptions, SimFs};
use xlsm_suite::workload::{
    fill_db, run_workload, KeyDistribution, KeySpace, ValueGenerator, WorkloadSpec,
};

fn small_spec() -> WorkloadSpec {
    WorkloadSpec {
        key_count: 4 << 10,
        value_size: 512,
        write_fraction: 0.5,
        threads: 4,
        duration: Duration::from_millis(600),
        seed: 0xABCD,
        burst: None,
        distribution: KeyDistribution::Uniform,
    }
}

fn stack(profile: xlsm_suite::device::DeviceProfile) -> (Arc<SimFs>, Arc<Db>) {
    let device = SimDevice::shared(profile);
    let fs = SimFs::new(device as _, FsOptions::default());
    let db = Arc::new(
        Db::open(
            Arc::clone(&fs),
            DbOptions {
                write_buffer_size: 256 << 10,
                target_file_size_base: 256 << 10,
                max_bytes_for_level_base: 1 << 20,
                ..DbOptions::default()
            },
        )
        .unwrap(),
    );
    (fs, db)
}

#[test]
fn mixed_workload_runs_on_every_device() {
    for profile in profiles::paper_devices() {
        let name = profile.name;
        let kops = Runtime::new().run(move || {
            let (_fs, db) = stack(profile);
            let spec = small_spec();
            fill_db(&db, spec.key_count, spec.value_size, spec.seed).unwrap();
            let r = run_workload(&db, &spec);
            db.close();
            r.kops()
        });
        assert!(kops > 1.0, "{name}: implausibly low throughput {kops}");
    }
}

#[test]
fn device_speed_ordering_propagates_to_kv_reads() {
    // Read-only after fill, with a page cache far smaller than the dataset
    // so reads actually reach the device: read latency must order
    // SATA > PCIe > XPoint.
    let mut p90s = Vec::new();
    for profile in profiles::paper_devices() {
        let p90 = Runtime::new().run(move || {
            let device = SimDevice::shared(profile);
            let fs = SimFs::new(
                device as _,
                FsOptions {
                    page_cache_pages: 1024, // 4 MiB vs ~8 MiB dataset
                },
            );
            let db = Arc::new(
                Db::open(
                    Arc::clone(&fs),
                    DbOptions {
                        write_buffer_size: 256 << 10,
                        target_file_size_base: 256 << 10,
                        max_bytes_for_level_base: 1 << 20,
                        ..DbOptions::default()
                    },
                )
                .unwrap(),
            );
            let spec = WorkloadSpec {
                write_fraction: 0.0,
                key_count: 16 << 10,
                ..small_spec()
            };
            fill_db(&db, spec.key_count, spec.value_size, spec.seed).unwrap();
            let r = run_workload(&db, &spec);
            db.close();
            r.read_latency.p90_ns
        });
        p90s.push(p90);
    }
    assert!(
        p90s[0] > p90s[1] && p90s[1] > p90s[2],
        "read p90 ordering should be SATA > PCIe > XPoint: {p90s:?}"
    );
}

#[test]
fn data_integrity_after_heavy_churn_and_reopen() {
    Runtime::new().run(|| {
        let (fs, db) = stack(profiles::optane_900p());
        let ks = KeySpace::new(2_000);
        let vg = ValueGenerator::new(256);
        // Three overwrite passes force flushes and compactions.
        for pass in 0..3u64 {
            for i in 0..2_000 {
                let idx = (i * 7 + pass * 13) % 2_000;
                db.put(&ks.key(idx), &vg.value(idx + pass * 10_000))
                    .unwrap();
            }
        }
        // Delete a stripe.
        for i in (0..2_000).step_by(10) {
            db.delete(&ks.key(i)).unwrap();
        }
        db.flush().unwrap();
        db.wait_for_compactions();
        db.close();

        // Reopen and verify every key against the model.
        let db2 = Db::open(
            Arc::clone(&fs),
            DbOptions {
                write_buffer_size: 256 << 10,
                target_file_size_base: 256 << 10,
                max_bytes_for_level_base: 1 << 20,
                ..DbOptions::default()
            },
        )
        .unwrap();
        for i in 0..2_000u64 {
            let got = db2.get(&ks.key(i)).unwrap();
            if i % 10 == 0 {
                assert_eq!(got, None, "key {i} should be deleted");
            } else {
                // Every pass rewrites every index (gcd(7, 2000) = 1), so the
                // last writer is pass 2.
                assert_eq!(
                    got,
                    Some(vg.value(i + 2 * 10_000)),
                    "key {i} corrupt after reopen"
                );
            }
        }
        db2.close();
    });
}

#[test]
fn whole_stack_is_deterministic() {
    fn run_once() -> (u64, u64, u64) {
        Runtime::new().run(|| {
            let (fs, db) = stack(profiles::intel_750_pcie());
            let spec = small_spec();
            fill_db(&db, spec.key_count, spec.value_size, spec.seed).unwrap();
            let r = run_workload(&db, &spec);
            let dev_reads = {
                let d = fs.device();
                d.stats().reads
            };
            db.close();
            (r.total_ops, xlsm_suite::sim::now_nanos(), dev_reads)
        })
    }
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "same seed must reproduce bit-for-bit");
}

/// Attributing host time to charge classes reads the host clock and moves
/// no virtual number: one workload with the books on and off gives the same
/// result, metrics, scheduler counters and clock.
#[test]
fn host_attribution_moves_no_virtual_metric() {
    fn run_once(rt: Runtime) -> (String, String, (u64, u64, u64), bool) {
        rt.run(|| {
            let (_fs, db) = stack(profiles::intel_530_sata());
            let spec = small_spec();
            fill_db(&db, spec.key_count, spec.value_size, spec.seed).unwrap();
            let r = run_workload(&db, &spec);
            let metrics = format!("{:?}", db.metrics());
            db.close();
            let s = xlsm_suite::sim::runtime::stats();
            let attributed = xlsm_suite::sim::host_times().is_some();
            (
                format!("{r:?}"),
                metrics,
                (s.switches, s.timer_events, s.now),
                attributed,
            )
        })
    }
    let (r_on, m_on, sched_on, on) = run_once(Runtime::new().attribute_host_time());
    let (r_off, m_off, sched_off, off) = run_once(Runtime::new());
    assert!(on && !off);
    assert_eq!(r_on, r_off);
    assert_eq!(m_on, m_off);
    assert_eq!(sched_on, sched_off);
}

#[test]
fn scan_is_consistent_under_concurrent_writes() {
    Runtime::new().run(|| {
        let (_fs, db) = stack(profiles::optane_900p());
        for i in 0..500u32 {
            db.put(format!("stable{i:04}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        let db2 = Arc::clone(&db);
        let writer = xlsm_suite::sim::spawn("writer", move || {
            for i in 0..500u32 {
                db2.put(format!("new{i:04}").as_bytes(), b"w").unwrap();
            }
        });
        // The scan pins a snapshot: it must see exactly the 500 stable keys
        // regardless of concurrent inserts sorting before/after.
        let mut scan = db.scan().unwrap();
        let mut count = 0;
        let mut ok = scan.seek(b"stable").unwrap();
        while ok && scan.key().starts_with(b"stable") {
            count += 1;
            ok = scan.next().unwrap();
        }
        assert_eq!(count, 500);
        drop(scan);
        writer.join();
        db.close();
    });
}
