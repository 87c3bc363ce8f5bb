//! Storage-evolution comparison: the same mixed key-value workload on the
//! three SSD generations of the ISPASS'20 paper, plus the analytic
//! throttling model of Section IV-A.
//!
//! ```text
//! cargo run --release --example storage_comparison
//! ```

use std::time::Duration;
use xlsm_suite::device::profiles;
use xlsm_suite::engine::DbOptions;
use xlsm_suite::sim::Runtime;
use xlsm_suite::study::experiment::Testbed;
use xlsm_suite::study::model;
use xlsm_suite::workload::{fill_db, run_workload, KeyDistribution, WorkloadSpec};

fn main() {
    let spec = WorkloadSpec {
        key_count: 16 << 10,
        value_size: 1024,
        write_fraction: 0.5,
        threads: 4,
        duration: Duration::from_secs(1),
        seed: 7,
        burst: None,
        distribution: KeyDistribution::Uniform,
    };

    println!(
        "workload: {} keys x {} B, {} threads, 1:1 read/write, {:?}\n",
        spec.key_count, spec.value_size, spec.threads, spec.duration
    );
    println!(
        "{:<12} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "device", "kop/s", "read p50", "read p90", "write p50", "write p90"
    );

    for profile in profiles::paper_devices() {
        let spec = spec.clone();
        let name = profile.kind.label();
        let r = Runtime::new().run(move || {
            let dataset = spec.key_count * (spec.value_size as u64 + 16);
            let tb = Testbed::new(profile, DbOptions::default(), dataset).expect("testbed");
            fill_db(&tb.db, spec.key_count, spec.value_size, spec.seed).expect("fill");
            let r = run_workload(&tb.db, &spec);
            tb.close();
            r
        });
        println!(
            "{:<12} {:>9.1} {:>9.0} us {:>9.0} us {:>9.0} us {:>9.0} us",
            name,
            r.kops(),
            r.read_latency.p50_ns as f64 / 1e3,
            r.read_latency.p90_ns as f64 / 1e3,
            r.write_latency.p50_ns as f64 / 1e3,
            r.write_latency.p90_ns as f64 / 1e3,
        );
    }

    // The paper's Section IV-A model: once Algorithm 1 engages, throughput
    // collapses to a level the hardware can barely influence.
    println!("\nSection IV-A analytic model (Eq. 2), throttled throughput:");
    for (name, lambda_s) in [("3d-xpoint", 190.0), ("sata-flash", 130.0)] {
        println!(
            "  {name:<12} λs = {lambda_s:>5.0} kop/s → λa = {:.2} kop/s",
            model::throttled_throughput_kops(lambda_s, 15.0, model::REFILL_INTERVAL_US)
        );
    }
    println!(
        "  i.e. once Algorithm 1 engages, BOTH devices collapse below 3 kop/s — from\n  unthrottled rates that differ by ~4x. The refill interval, not the hardware,\n  sets the floor."
    );
}
