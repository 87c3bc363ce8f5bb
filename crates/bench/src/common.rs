//! Shared configuration and run helpers for the figure harnesses.

use std::time::Duration;
use xlsm_core::experiment::Testbed;
use xlsm_core::report::Table;
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

/// A "vs baseline" column: `x` over the baseline a sweep measured first, and
/// 1 for the baseline point itself (`None`).
pub fn vs_baseline(x: f64, baseline: Option<f64>) -> f64 {
    baseline.map_or(1.0, |base| ratio(x, base))
}

/// Short device label for table rows.
pub fn label(profile: &DeviceProfile) -> &'static str {
    profile.kind.label()
}

/// One value in a [`JsonReport`]; the kind fixes how it prints, so a report
/// is byte-identical across runs with the same seed.
#[derive(Clone, Debug)]
pub enum Cell {
    /// A quoted string.
    Str(String),
    /// An integer.
    Int(u64),
    /// A float printed `{:.3}` — every measured value.
    F3(f64),
    /// A float printed `{:.1}` — configuration values.
    F1(f64),
    /// A list of floats, each printed `{:.3}`.
    F3List(Vec<f64>),
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Str(s) => write!(f, "\"{s}\""),
            Cell::Int(n) => write!(f, "{n}"),
            Cell::F3(x) => write!(f, "{x:.3}"),
            Cell::F1(x) => write!(f, "{x:.1}"),
            Cell::F3List(xs) => {
                let items: Vec<String> = xs.iter().map(|x| format!("{x:.3}")).collect();
                write!(f, "[{}]", items.join(", "))
            }
        }
    }
}

/// One JSON object: named cells in declaration order.
pub type JsonRow = Vec<(&'static str, Cell)>;

/// The one thing a probe returns: the bench name, a `config` object, and
/// named sections of rows. The JSON file and the printed tables both derive
/// from it, so each column is declared once, where it is measured. Written
/// by hand (the bench crate carries no
/// serde) with the field order and float precision fixed by the
/// declaration, so two runs with the same seed produce byte-identical
/// files — which is what the determinism gate in `scripts/check.sh` diffs.
#[derive(Clone, Debug)]
pub struct JsonReport {
    /// Value of the top-level `"bench"` field.
    pub bench: &'static str,
    /// The `"config"` object.
    pub config: JsonRow,
    /// `(name, rows)` per section, one row per line.
    pub sections: Vec<(&'static str, Vec<JsonRow>)>,
}

fn json_object(row: &JsonRow) -> String {
    let fields: Vec<String> = row.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", fields.join(", "))
}

impl JsonReport {
    /// Serializes the report.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\n  \"bench\": \"{}\",\n  \"config\": {}",
            self.bench,
            json_object(&self.config)
        );
        for (name, rows) in &self.sections {
            s.push_str(&format!(",\n  \"{name}\": [\n"));
            for (i, row) in rows.iter().enumerate() {
                let comma = if i + 1 == rows.len() { "" } else { "," };
                s.push_str(&format!("    {}{comma}\n", json_object(row)));
            }
            s.push_str("  ]");
        }
        s.push_str("\n}\n");
        s
    }

    /// One printable table per section: the headers are the first row's
    /// cell names, the cells print exactly as in the JSON.
    #[must_use]
    pub fn section_tables(&self) -> Vec<Table> {
        let table = |(name, rows): &(&str, Vec<JsonRow>)| {
            let headers: Vec<&str> = rows.first().into_iter().flatten().map(|c| c.0).collect();
            let mut t = Table::new(&format!("{}: {name}", self.bench), &headers);
            for row in rows {
                t.row(row.iter().map(|(_, v)| v.to_string()).collect());
            }
            t
        };
        self.sections.iter().map(table).collect()
    }
}

/// The `config` cells every probe reports: dataset shape and seed.
pub fn config_cells(cfg: &BenchConfig) -> JsonRow {
    vec![
        ("key_count", Cell::Int(cfg.key_count)),
        ("value_size", Cell::Int(cfg.value_size as u64)),
        ("seed", Cell::Int(cfg.seed)),
    ]
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

    /// The emitter must keep reproducing the committed artifacts byte for
    /// byte: header and first row of `BENCH_parallelism.json` (strings,
    /// integers, `{:.3}` floats, two sections) and of `BENCH_stability.json`
    /// (a `{:.1}` config float and a float list). The printed tables come
    /// from the same rows: headers are the JSON keys in order, one line per
    /// row.
    #[test]
    fn emitter_reproduces_committed_bench_files() {
        let drain = vec![
            ("device", Cell::Str("sata-flash".into())),
            ("max_subcompactions", Cell::Int(1)),
            ("compact_read_mb", Cell::F3(49.326)),
            ("drain_ms", Cell::F3(625.8)),
            ("mb_per_s", Cell::F3(78.82)),
            ("speedup_vs_serial", Cell::F3(1.0)),
            ("subcompactions_launched", Cell::Int(0)),
            ("fallbacks", Cell::Int(0)),
        ];
        let cfg = BenchConfig::default();
        let report = JsonReport {
            bench: "parallelism",
            config: config_cells(&cfg),
            sections: vec![
                ("compaction_drain", vec![drain.clone(), drain.clone()]),
                ("multi_get", vec![]),
            ],
        };
        let json = report.to_json();
        assert!(
            json.starts_with(concat!(
                "{\n",
                "  \"bench\": \"parallelism\",\n",
                "  \"config\": {\"key_count\": 49152, \"value_size\": 1024, \"seed\": 3862},\n",
                "  \"compaction_drain\": [\n",
                "    {\"device\": \"sata-flash\", \"max_subcompactions\": 1, ",
                "\"compact_read_mb\": 49.326, \"drain_ms\": 625.800, \"mb_per_s\": 78.820, ",
                "\"speedup_vs_serial\": 1.000, \"subcompactions_launched\": 0, ",
                "\"fallbacks\": 0},\n",
            )),
            "{json}"
        );
        assert!(
            json.ends_with("\"fallbacks\": 0}\n  ],\n  \"multi_get\": [\n  ]\n}\n"),
            "{json}"
        );
        let tables = report.section_tables();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].title, "parallelism: compaction_drain");
        let keys: Vec<&str> = drain.iter().map(|c| c.0).collect();
        assert_eq!(tables[0].headers, keys);
        assert_eq!(tables[0].rows.len(), 2);
        assert_eq!(tables[0].rows[0][..3], ["\"sata-flash\"", "1", "49.326"]);
        // Title, blank line above it, header and rule, then one line per row.
        assert_eq!(tables[0].to_string().lines().count(), 4 + 2);
        assert!(tables[1].headers.is_empty() && tables[1].rows.is_empty());

        let mut config = config_cells(&cfg);
        config.push(("window_secs", Cell::F1(12.0)));
        let point = vec![
            ("device", Cell::Str("sata-flash".into())),
            ("policy", Cell::Str("greedy".into())),
            ("kops", Cell::F3(14.285)),
            ("cv", Cell::F3(0.384)),
            ("min_bucket_kops", Cell::F3(3.83)),
            ("write_p50_us", Cell::F3(4.928)),
            ("write_p99_us", Cell::F3(1081.344)),
            ("write_p999_us", Cell::F3(25690.112)),
            ("episodes", Cell::Int(42)),
            ("ep_p50_ms", Cell::F3(16.63)),
            ("ep_p90_ms", Cell::F3(226.259)),
            ("ep_p99_ms", Cell::F3(328.518)),
            ("ep_max_ms", Cell::F3(328.518)),
            ("stalled_pct", Cell::F3(20.494)),
            (
                "episode_cdf",
                Cell::F3List(vec![0.333, 0.786, 0.81, 1.0, 1.0]),
            ),
            ("bg_io_wait_ms", Cell::F3(0.0)),
            ("kops_vs_greedy", Cell::F3(1.0)),
            ("ep_p99_vs_greedy", Cell::F3(1.0)),
            ("cv_vs_greedy", Cell::F3(1.0)),
        ];
        let json = JsonReport {
            bench: "stability",
            config,
            sections: vec![("points", vec![point])],
        }
        .to_json();
        assert_eq!(
            json,
            concat!(
                "{\n",
                "  \"bench\": \"stability\",\n",
                "  \"config\": {\"key_count\": 49152, \"value_size\": 1024, \"seed\": 3862, ",
                "\"window_secs\": 12.0},\n",
                "  \"points\": [\n",
                "    {\"device\": \"sata-flash\", \"policy\": \"greedy\", \"kops\": 14.285, ",
                "\"cv\": 0.384, \"min_bucket_kops\": 3.830, \"write_p50_us\": 4.928, ",
                "\"write_p99_us\": 1081.344, \"write_p999_us\": 25690.112, \"episodes\": 42, ",
                "\"ep_p50_ms\": 16.630, \"ep_p90_ms\": 226.259, \"ep_p99_ms\": 328.518, ",
                "\"ep_max_ms\": 328.518, \"stalled_pct\": 20.494, ",
                "\"episode_cdf\": [0.333, 0.786, 0.810, 1.000, 1.000], ",
                "\"bg_io_wait_ms\": 0.000, \"kops_vs_greedy\": 1.000, ",
                "\"ep_p99_vs_greedy\": 1.000, \"cv_vs_greedy\": 1.000}\n",
                "  ]\n",
                "}\n",
            )
        );
    }
}
