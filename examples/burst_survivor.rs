//! Case-study tour: surviving periodic write bursts with the paper's three
//! optimizations — two-stage throttling (V-A), dynamic Level-0 management
//! (V-B), and NVM-resident logging (V-C) — all enabled at once, versus the
//! stock configuration.
//!
//! ```text
//! cargo run --release --example burst_survivor
//! ```

use std::sync::Arc;
use std::time::Duration;
use xlsm_suite::device::profiles;
use xlsm_suite::engine::{DbOptions, ThrottlePolicy};
use xlsm_suite::sim::Runtime;
use xlsm_suite::study::casestudy::dynamic_l0::{DynamicL0Config, DynamicL0Manager};
use xlsm_suite::study::casestudy::nvm_wal;
use xlsm_suite::study::experiment::Testbed;
use xlsm_suite::workload::{fill_db, run_workload, BurstSpec, KeyDistribution, WorkloadSpec};

fn burst_spec() -> WorkloadSpec {
    WorkloadSpec {
        key_count: 24 << 10,
        value_size: 1024,
        write_fraction: 0.5,
        threads: 6,
        duration: Duration::from_secs(8),
        seed: 99,
        burst: Some(BurstSpec {
            period: Duration::from_secs(4),
            burst_len: Duration::from_secs(2),
            burst_write_fraction: 0.9,
        }),
        distribution: KeyDistribution::Uniform,
    }
}

fn run(name: &str, optimized: bool) {
    let spec = burst_spec();
    let r = Runtime::new().run(move || {
        let mut opts = DbOptions::default();
        if optimized {
            // V-A: two-stage throttling with the floor at the configured rate.
            opts.throttle_policy = ThrottlePolicy::TwoStage {
                min_rate: opts.delayed_write_rate,
            };
            // V-C: WAL on byte-addressable NVM.
            opts.wal_fs = Some(nvm_wal::log_fs());
        }
        let dataset = spec.key_count * (spec.value_size as u64 + 16);
        let tb = Testbed::new(profiles::optane_900p(), opts, dataset).expect("testbed");
        fill_db(&tb.db, spec.key_count, spec.value_size, spec.seed).expect("fill");
        // V-B: dynamic Level-0 management reacting to the burst phases.
        let mgr = optimized.then(|| {
            DynamicL0Manager::start(
                Arc::clone(&tb.db),
                DynamicL0Config {
                    aggregate_l0_bytes: 12 << 20,
                    sample_interval_nanos: 200_000_000,
                    ..DynamicL0Config::default()
                },
            )
        });
        let r = run_workload(&tb.db, &spec);
        if let Some(m) = mgr {
            let decisions = m.stop();
            println!(
                "  [{name}] dynamic-L0 retargeted the memtable {} times",
                decisions.len()
            );
        }
        tb.close();
        r
    });
    println!(
        "  [{name}] total {:>6.1} kop/s | worst 100ms bucket {:>5.1} kop/s | write p90 {:>6.0} us | write p99 {:>7.0} us",
        r.kops(),
        r.min_bucket_kops(),
        r.write_latency.p90_ns as f64 / 1e3,
        r.write_latency.p99_ns as f64 / 1e3,
    );
}

fn main() {
    println!("periodic write bursts on a 3D XPoint SSD (90% writes for 2s of every 4s):\n");
    run("stock RocksDB-style", false);
    run("all three case studies", true);
    println!("\nThe optimized configuration lifts the near-stop throughput floor (worst");
    println!("bucket ~3x higher) and bounds the extreme write tail (p99), at the cost of");
    println!("spreading throttle delay across more writes (higher p90) — the smooth-pacing");
    println!("trade-off behind the paper's Section V-A case study.");
}
