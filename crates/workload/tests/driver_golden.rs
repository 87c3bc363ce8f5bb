//! Golden for the closed-loop driver's latency and op counts.
//!
//! On each paper device one small database is filled and run through one
//! 1:1 read/write window of `run_workload`. The golden pins the window's
//! read and write counts and every field of both latency summaries, to the
//! nanosecond: the figures print only p50/p90/p99 to 0.1 µs, so a change
//! that moves one sample, the mean or the max shows here first.
//!
//! It also pins one writepath-style window on the same database: four
//! writers of 64 puts each after `reset_window`, read back from the
//! engine's own record through `Db::metrics`.
//!
//! The literals were captured at 883b121, while the driver still timed each
//! op with histograms of its own.

use std::sync::Arc;
use std::time::Duration;
use xlsm_device::{profiles, DeviceProfile, SimDevice};
use xlsm_engine::{Db, DbOptions, HistogramSummary};
use xlsm_sim::Runtime;
use xlsm_simfs::{FsOptions, SimFs};
use xlsm_workload::{fill_db, run_workload, KeyDistribution, WorkloadSpec};

const KEYS: u64 = 2_000;
const VALUE: usize = 256;

#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// `WorkloadResult::{reads, writes}` of the 1:1 window.
    ops: [u64; 2],
    /// `WorkloadResult::read_latency`.
    read_latency: HistogramSummary,
    /// `WorkloadResult::write_latency`.
    write_latency: HistogramSummary,
    /// The writepath-style window: the engine's write count, then the
    /// count and p99 of its write-latency record.
    put_window: [u64; 3],
}

fn run(profile: DeviceProfile) -> Golden {
    Runtime::new().run(move || {
        let fs = SimFs::new(SimDevice::shared(profile), FsOptions::default());
        let opts = DbOptions {
            write_buffer_size: 256 << 10,
            target_file_size_base: 256 << 10,
            max_bytes_for_level_base: 1 << 20,
            ..DbOptions::default()
        };
        let db = Arc::new(Db::open(fs, opts).unwrap());
        fill_db(&db, KEYS, VALUE, 7).unwrap();
        let spec = WorkloadSpec {
            key_count: KEYS,
            value_size: VALUE,
            write_fraction: 0.5,
            threads: 4,
            duration: Duration::from_millis(300),
            seed: 11,
            burst: None,
            distribution: KeyDistribution::Uniform,
        };
        let r = run_workload(&db, &spec);

        db.stats().reset_window();
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let db = Arc::clone(&db);
                xlsm_sim::spawn(&format!("golden-writer-{w}"), move || {
                    for i in 0..64 {
                        db.put(format!("gw{w}-{i:03}").as_bytes(), &[b'w'; 128])
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in writers {
            h.join();
        }
        let m = db.metrics();
        db.close();
        Golden {
            ops: [r.reads, r.writes],
            read_latency: r.read_latency,
            write_latency: r.write_latency,
            put_window: [m.writes.ops, m.write_latency.count, m.write_latency.p99_ns],
        }
    })
}

fn summary(s: [u64; 6]) -> HistogramSummary {
    let [count, mean_ns, p50_ns, p90_ns, p99_ns, max_ns] = s;
    HistogramSummary {
        count,
        mean_ns,
        p50_ns,
        p90_ns,
        p99_ns,
        max_ns,
    }
}

#[test]
fn sata() {
    let g = run(profiles::intel_530_sata());
    assert_eq!(
        g,
        Golden {
            ops: [24139, 24027],
            read_latency: summary([24139, 8019, 6208, 17920, 27392, 38791]),
            write_latency: summary([24027, 42112, 4224, 6528, 68608, 7216479]),
            put_window: [256, 256, 66560],
        }
    );
}

#[test]
fn pcie() {
    let g = run(profiles::intel_750_pcie());
    assert_eq!(
        g,
        Golden {
            ops: [69385, 69795],
            read_latency: summary([69385, 9680, 6208, 20224, 43008, 110733]),
            write_latency: summary([69795, 7570, 4224, 5824, 19456, 1044483]),
            put_window: [256, 256, 20224],
        }
    );
}

#[test]
fn xpoint() {
    let g = run(profiles::optane_900p());
    assert_eq!(
        g,
        Golden {
            ops: [70373, 70791],
            read_latency: summary([70373, 9900, 6208, 20224, 43520, 93824]),
            write_latency: summary([70791, 7135, 4224, 5888, 27648, 1053737]),
            put_window: [256, 256, 1048576],
        }
    );
}
