//! Shared configuration and run helpers for the figure harnesses.

use crate::figures::Figure;
use std::time::Duration;
use xlsm_core::experiment::Testbed;
use xlsm_core::report::{f, Table};
use xlsm_device::DeviceProfile;
use xlsm_engine::DbOptions;
use xlsm_sim::Runtime;
use xlsm_workload::{fill_db, run_workload, WorkloadResult, WorkloadSpec};

/// Global knobs for a figure run.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Dataset size in keys (values are 1 KiB).
    pub key_count: u64,
    /// Value size in bytes.
    pub value_size: usize,
    /// Measurement window per data point.
    pub duration: Duration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> BenchConfig {
        BenchConfig {
            key_count: 48 << 10, // ≈ 48 MiB dataset
            value_size: 1024,
            duration: Duration::from_secs(3),
            seed: 0xF16,
        }
    }
}

impl BenchConfig {
    /// A fast configuration for smoke tests (`xlsm-bench --quick`, CI).
    pub fn quick() -> BenchConfig {
        BenchConfig {
            key_count: 8 << 10,
            value_size: 512,
            duration: Duration::from_millis(800),
            seed: 0xF16,
        }
    }

    /// Dataset bytes.
    pub fn dataset_bytes(&self) -> u64 {
        self.key_count * (self.value_size as u64 + 16)
    }

    /// The base workload spec for this config.
    pub fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            key_count: self.key_count,
            value_size: self.value_size,
            duration: self.duration,
            seed: self.seed,
            ..WorkloadSpec::default()
        }
    }
}

/// The three devices of the study, in presentation order.
pub fn devices() -> Vec<DeviceProfile> {
    xlsm_device::profiles::paper_devices()
}

/// Runs `body` on a freshly filled testbed inside its own sim runtime — the
/// one primitive every figure and probe goes through. The options are built
/// *inside* the runtime because they may carry sim-bound resources (an NVM
/// filesystem for the WAL).
pub fn with_testbed<T: Send + 'static>(
    profile: DeviceProfile,
    make_opts: impl FnOnce() -> DbOptions + Send + 'static,
    cfg: &BenchConfig,
    body: impl FnOnce(&Testbed) -> T + Send + 'static,
) -> T {
    with_testbed_on(Runtime::new(), profile, make_opts, cfg, body)
}

/// [`with_testbed`] on `rt`, a runtime the caller built (one that
/// attributes host time, say).
pub fn with_testbed_on<T: Send + 'static>(
    rt: Runtime,
    profile: DeviceProfile,
    make_opts: impl FnOnce() -> DbOptions + Send + 'static,
    cfg: &BenchConfig,
    body: impl FnOnce(&Testbed) -> T + Send + 'static,
) -> T {
    let cfg = *cfg;
    rt.run(move || {
        let tb = Testbed::new(profile, make_opts(), cfg.dataset_bytes()).expect("testbed");
        fill_db(&tb.db, cfg.key_count, cfg.value_size, cfg.seed).expect("fill");
        let out = body(&tb);
        tb.close();
        out
    })
}

/// One workload on its own freshly filled testbed: the one point primitive.
/// A point owns its database from fill to close, so its number does not
/// depend on which points ran before it, as with separate `db_bench` runs.
pub fn run_one(
    profile: DeviceProfile,
    make_opts: impl FnOnce() -> DbOptions + Send + 'static,
    cfg: &BenchConfig,
    spec: WorkloadSpec,
) -> WorkloadResult {
    with_testbed(profile, make_opts, cfg, move |tb| {
        run_workload(&tb.db, &spec)
    })
}

/// Deterministic xorshift key picker, independent of the fill RNG: the
/// next key index below `count`.
pub fn picker(seed: u64, count: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % count
    }
}

/// Nanoseconds as microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Bytes as MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

/// `x / base`, or 0 when there is no baseline to divide by.
pub fn ratio(x: f64, base: f64) -> f64 {
    if base > 0.0 {
        x / base
    } else {
        0.0
    }
}

/// One sweep's rows, each given a "vs baseline" cell as its column `at`:
/// the row's value over the first row's, the sweep's baseline. The baseline
/// row reads 1 by construction (`ratio(x, x)` would read 0 where `x` is 0).
/// Every point has run when this is called, so no point depends on another.
pub fn with_vs_first(points: Vec<(Row, f64)>, at: usize, column: &'static str) -> Vec<Row> {
    let base = points.first().map_or(0.0, |(_, x)| *x);
    let rows = points.into_iter().enumerate().map(|(i, (mut row, x))| {
        let vs = if i == 0 { 1.0 } else { ratio(x, base) };
        row.insert(at, (column, f(vs, 3)));
        row
    });
    rows.collect()
}

/// `opts` with no Level-0 throttle: both Level-0 write triggers lifted out
/// of reach (the memtable stop stays), for an experiment whose point is a
/// deep Level-0 or a write path without controller pacing.
pub fn no_l0_throttle(opts: DbOptions) -> DbOptions {
    DbOptions {
        level0_slowdown_writes_trigger: 1 << 16,
        level0_stop_writes_trigger: 1 << 16,
        ..opts
    }
}

/// Short device label for table rows.
pub fn label(profile: &DeviceProfile) -> &'static str {
    profile.kind.label()
}

/// One row of a probe table: each cell with its column's name, declared
/// where the value is measured ([`Table::from_named_rows`]).
pub type Row = Vec<(&'static str, String)>;

/// A probe's table `name`, for `results/<name>.tsv`. Its title carries the
/// run's configuration as `key=value` pairs: dataset shape and seed, then
/// `extra`.
pub fn probe_table(
    name: &str,
    cfg: &BenchConfig,
    extra: &[(&str, String)],
    rows: Vec<Row>,
) -> Figure {
    let config = [
        ("key_count", cfg.key_count.to_string()),
        ("value_size", cfg.value_size.to_string()),
        ("seed", cfg.seed.to_string()),
    ];
    let config: Vec<String> = config
        .iter()
        .chain(extra)
        .map(|(key, value)| format!("{key}={value}"))
        .collect();
    let title = format!("{name}: {}", config.join(" "));
    (name.to_owned(), Table::from_named_rows(&title, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A point owns its testbed: a write-heavy point run between two runs
    /// of the same point leaves the second run identical to the first.
    #[test]
    fn a_point_does_not_depend_on_the_points_before_it() {
        let cfg = BenchConfig {
            key_count: 2 << 10,
            value_size: 512,
            duration: Duration::from_millis(300),
            seed: 0xF16,
        };
        let point = |write_fraction| {
            let spec = cfg
                .spec()
                .with_threads(4)
                .with_write_fraction(write_fraction);
            run_one(devices().remove(0), DbOptions::default, &cfg, spec)
        };
        let first = point(0.5);
        let heavy = point(0.9);
        let again = point(0.5);
        assert!(first.reads > 0 && first.writes > 0 && heavy.writes > first.writes);
        assert_eq!((first.reads, first.writes), (again.reads, again.writes));
        assert_eq!(first.read_latency, again.read_latency);
        assert_eq!(first.write_latency, again.write_latency);
        assert_eq!(first.timeline, again.timeline);
    }
}
