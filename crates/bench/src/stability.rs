//! Stability probe: long-run performance *stability* of the whole
//! stability-policy family under periodic write bursts, on all three study
//! devices.
//!
//! The paper's Section IV finding is that fast storage turns RocksDB's
//! throughput from device-bound into *stall-bound*: the write controller's
//! episodes (delay/stop spans) decide the timeline shape, not the SSD. This
//! probe quantifies that with three families of metrics per
//! (device, policy) point:
//!
//! * **throughput variance** — mean kop/s over the run, the coefficient of
//!   variation across 100 ms buckets, and the worst bucket (the "near-stop"
//!   depth of Figs. 5/18);
//! * **stall-episode duration CDFs** — contiguous non-`Clear` controller
//!   spans from [`xlsm_engine::episode_durations`]; per-episode durations,
//!   not per-transition, so one long delay→delay→stop span counts once;
//! * **tail latency** — client write p50/p99/p99.9 from the engine's raw
//!   latency histogram (the summary type stops at p99).
//!
//! Policies swept: the three compaction schedulers (greedy baseline,
//! round-robin, fair+shared-I/O-budget) and the paper's two case-study
//! mechanisms (two-stage throttling, dynamic L0) — all members of
//! [`xlsm_core::StabilityPolicy`], so scheduler-side and foreground-side
//! interventions land in the same table.
//!
//! Fully deterministic: same seed ⇒ byte-identical JSON
//! (`scripts/check.sh` runs the probe twice and diffs).

use crate::common::{
    config_cells, devices, label, us, with_testbed, BenchConfig, Cell, JsonReport,
};
use std::sync::Arc;
use xlsm_core::report::{f, Table};
use xlsm_core::StabilityPolicy;
use xlsm_device::DeviceProfile;
use xlsm_engine::{episode_durations, DbOptions, Ticker};
use xlsm_workload::{run_workload, BurstSpec, WorkloadSpec};

/// Episode-duration CDF thresholds, in milliseconds.
pub const CDF_THRESHOLDS_MS: [u64; 5] = [10, 50, 100, 500, 1000];

/// One (device, policy) measurement.
#[derive(Clone, Debug)]
pub struct StabilityPoint {
    /// Device label (`sata-flash`, `pcie-flash`, `3d-xpoint`).
    pub device: &'static str,
    /// Policy label (`greedy`, `round-robin`, `fair`, `two-stage`,
    /// `dynamic-l0`).
    pub policy: &'static str,
    /// Mean throughput over the run, kop/s.
    pub kops: f64,
    /// Coefficient of variation (σ/µ) across 100 ms timeline buckets.
    pub cv: f64,
    /// Worst 100 ms bucket, kop/s (near-stop depth).
    pub min_bucket_kops: f64,
    /// Client write latency p50, µs.
    pub write_p50_us: f64,
    /// Client write latency p99, µs.
    pub write_p99_us: f64,
    /// Client write latency p99.9, µs.
    pub write_p999_us: f64,
    /// Stall episodes observed in the window.
    pub episodes: usize,
    /// Episode duration p50, ms.
    pub ep_p50_ms: f64,
    /// Episode duration p90, ms.
    pub ep_p90_ms: f64,
    /// Episode duration p99, ms.
    pub ep_p99_ms: f64,
    /// Longest episode, ms.
    pub ep_max_ms: f64,
    /// Fraction of the window spent inside stall episodes, percent.
    pub stalled_pct: f64,
    /// Fraction of episodes no longer than each [`CDF_THRESHOLDS_MS`]
    /// entry.
    pub episode_cdf: [f64; 5],
    /// Total time background jobs waited on the shared I/O budget, ms
    /// (0 for policies that leave the limiter off).
    pub bg_io_wait_ms: f64,
    /// Mean kop/s relative to the greedy baseline on the same device.
    pub kops_vs_greedy: f64,
    /// Episode p99 relative to greedy (< 1.0 = shorter stalls).
    pub ep_p99_vs_greedy: f64,
    /// Throughput CV relative to greedy (< 1.0 = steadier).
    pub cv_vs_greedy: f64,
}

/// Full probe output.
#[derive(Clone, Debug)]
pub struct StabilityReport {
    /// Dataset size in keys.
    pub key_count: u64,
    /// Value size in bytes.
    pub value_size: usize,
    /// RNG seed.
    pub seed: u64,
    /// Measured window per point, seconds (virtual).
    pub window_secs: f64,
    /// Sweep points: device-major, policies in [`StabilityPolicy::ALL`]
    /// order (greedy first).
    pub points: Vec<StabilityPoint>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nearest-rank quantile over a sorted slice; 0 when empty.
fn quantile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The stall-provoking geometry every point shares: a tight Level-0 budget
/// (like the `fig_stalls` probe) so the periodic bursts actually engage the
/// controller on every device, which is the regime the policies differ in.
fn stall_geometry() -> DbOptions {
    DbOptions {
        write_buffer_size: 1 << 20,
        target_file_size_base: 1 << 20,
        level0_file_num_compaction_trigger: 4,
        level0_slowdown_writes_trigger: 8,
        level0_stop_writes_trigger: 12,
        // Half the default so Level-1 overflows under the bursts: the
        // policies only differ when more than one level carries debt at
        // once (a pure-L0 tree gives every picker the same choice).
        max_bytes_for_level_base: 2 << 20,
        ..DbOptions::default()
    }
}

/// The bursty mixed workload: a 1:1 base mix with periodic 90 %-write
/// bursts (Fig. 18's "flash of crowd" shape), run for 4× the configured
/// window so several burst cycles land in the measurement.
fn burst_spec(cfg: &BenchConfig) -> WorkloadSpec {
    WorkloadSpec {
        burst: Some(BurstSpec {
            period: cfg.duration,
            burst_len: cfg.duration * 2 / 5,
            burst_write_fraction: 0.9,
        }),
        ..cfg
            .spec()
            .with_threads(4)
            .with_write_fraction(0.5)
            .with_duration(cfg.duration * 4)
    }
}

/// Runs one (device, policy) point in its own sim runtime.
fn run_point(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
    policy: StabilityPolicy,
) -> StabilityPoint {
    let cfg = *cfg;
    let opts = move || {
        let mut opts = stall_geometry();
        policy.apply(&mut opts);
        opts
    };
    with_testbed(profile, opts, &cfg, move |tb| {
        // Drain fill-phase controller transitions so the episode window
        // covers exactly the measured run.
        let _ = tb.db.metrics();
        let companion = policy.attach(&tb.db);

        let spec = burst_spec(&cfg);
        let t0 = xlsm_sim::now_nanos();
        let r = run_workload(&tb.db, &spec);
        let t1 = xlsm_sim::now_nanos();

        let stats = Arc::clone(tb.db.stats());
        let write_hist = &stats.write_latency;
        let m = tb.db.metrics();
        let mut eps = episode_durations(&m.stall_events, t0, t1);
        eps.sort_unstable();
        let window = (t1 - t0).max(1);
        let stalled: u64 = eps.iter().sum();
        let mut episode_cdf = [0.0f64; 5];
        if !eps.is_empty() {
            for (slot, thr) in episode_cdf.iter_mut().zip(CDF_THRESHOLDS_MS) {
                let within = eps.iter().filter(|&&e| e <= thr * 1_000_000).count();
                *slot = within as f64 / eps.len() as f64;
            }
        }
        let buckets: Vec<f64> = r.timeline.iter().map(|&(_, k)| k).collect();
        let mean = buckets.iter().sum::<f64>() / buckets.len().max(1) as f64;
        let var =
            buckets.iter().map(|k| (k - mean).powi(2)).sum::<f64>() / buckets.len().max(1) as f64;
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };

        let point = StabilityPoint {
            device,
            policy: policy.name(),
            kops: r.kops(),
            cv,
            min_bucket_kops: r.min_bucket_kops(),
            write_p50_us: us(write_hist.quantile(0.5)),
            write_p99_us: us(write_hist.quantile(0.99)),
            write_p999_us: us(write_hist.quantile(0.999)),
            episodes: eps.len(),
            ep_p50_ms: ms(quantile_ns(&eps, 0.5)),
            ep_p90_ms: ms(quantile_ns(&eps, 0.9)),
            ep_p99_ms: ms(quantile_ns(&eps, 0.99)),
            ep_max_ms: ms(eps.last().copied().unwrap_or(0)),
            stalled_pct: stalled as f64 / window as f64 * 100.0,
            episode_cdf,
            bg_io_wait_ms: stats.ticker(Ticker::BgIoThrottledNs) as f64 / 1e6,
            // Filled in by `run` once the device's greedy baseline exists.
            kops_vs_greedy: 1.0,
            ep_p99_vs_greedy: 1.0,
            cv_vs_greedy: 1.0,
        };
        companion.stop();
        point
    })
}

/// Runs the full (device × policy) sweep.
pub fn run(cfg: &BenchConfig) -> StabilityReport {
    let mut points = Vec::new();
    for profile in devices() {
        let device = label(&profile);
        let mut device_points: Vec<StabilityPoint> = Vec::new();
        for policy in StabilityPolicy::ALL {
            eprintln!("[stability] {device}: {}", policy.name());
            let mut p = run_point(profile.clone(), device, cfg, policy);
            if let Some(base) = device_points.first() {
                p.kops_vs_greedy = if base.kops > 0.0 {
                    p.kops / base.kops
                } else {
                    0.0
                };
                p.ep_p99_vs_greedy = if base.ep_p99_ms > 0.0 {
                    p.ep_p99_ms / base.ep_p99_ms
                } else {
                    0.0
                };
                p.cv_vs_greedy = if base.cv > 0.0 { p.cv / base.cv } else { 0.0 };
            }
            device_points.push(p);
        }
        points.append(&mut device_points);
    }
    StabilityReport {
        key_count: cfg.key_count,
        value_size: cfg.value_size,
        seed: cfg.seed,
        window_secs: cfg.duration.as_secs_f64() * 4.0,
        points,
    }
}

impl StabilityReport {
    /// The report as deterministic JSON (see [`JsonReport`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let points = self.points.iter().map(|p| {
            vec![
                ("device", Cell::Str(p.device)),
                ("policy", Cell::Str(p.policy)),
                ("kops", Cell::F3(p.kops)),
                ("cv", Cell::F3(p.cv)),
                ("min_bucket_kops", Cell::F3(p.min_bucket_kops)),
                ("write_p50_us", Cell::F3(p.write_p50_us)),
                ("write_p99_us", Cell::F3(p.write_p99_us)),
                ("write_p999_us", Cell::F3(p.write_p999_us)),
                ("episodes", Cell::Int(p.episodes as u64)),
                ("ep_p50_ms", Cell::F3(p.ep_p50_ms)),
                ("ep_p90_ms", Cell::F3(p.ep_p90_ms)),
                ("ep_p99_ms", Cell::F3(p.ep_p99_ms)),
                ("ep_max_ms", Cell::F3(p.ep_max_ms)),
                ("stalled_pct", Cell::F3(p.stalled_pct)),
                ("episode_cdf", Cell::F3List(&p.episode_cdf)),
                ("bg_io_wait_ms", Cell::F3(p.bg_io_wait_ms)),
                ("kops_vs_greedy", Cell::F3(p.kops_vs_greedy)),
                ("ep_p99_vs_greedy", Cell::F3(p.ep_p99_vs_greedy)),
                ("cv_vs_greedy", Cell::F3(p.cv_vs_greedy)),
            ]
        });
        let mut config = config_cells(self.key_count, self.value_size, self.seed);
        config.push(("window_secs", Cell::F1(self.window_secs)));
        JsonReport {
            bench: "stability",
            config,
            sections: vec![("points", points.collect())],
        }
        .to_json()
    }

    /// The report as printable tables (for the `figures` binary):
    /// throughput variance, stall-episode quantiles, and the episode CDF.
    #[must_use]
    pub fn tables(&self) -> Vec<(String, Table)> {
        let mut tput = Table::new(
            "Stability: throughput variance under periodic write bursts",
            &[
                "device",
                "policy",
                "kops",
                "cv",
                "min_bucket",
                "write_p99_us",
                "write_p999_us",
                "kops_vs_greedy",
                "cv_vs_greedy",
            ],
        );
        let mut stalls = Table::new(
            "Stability: stall-episode durations (controller-level spans)",
            &[
                "device",
                "policy",
                "episodes",
                "ep_p50_ms",
                "ep_p90_ms",
                "ep_p99_ms",
                "ep_max_ms",
                "stalled_pct",
                "bg_io_wait_ms",
                "p99_vs_greedy",
            ],
        );
        let mut cdf = Table::new(
            "Stability: stall-episode duration CDF (fraction of episodes <= threshold)",
            &[
                "device", "policy", "le_10ms", "le_50ms", "le_100ms", "le_500ms", "le_1s",
            ],
        );
        for p in &self.points {
            tput.row(vec![
                p.device.into(),
                p.policy.into(),
                f(p.kops, 1),
                f(p.cv, 3),
                f(p.min_bucket_kops, 1),
                f(p.write_p99_us, 1),
                f(p.write_p999_us, 1),
                f(p.kops_vs_greedy, 2),
                f(p.cv_vs_greedy, 2),
            ]);
            stalls.row(vec![
                p.device.into(),
                p.policy.into(),
                p.episodes.to_string(),
                f(p.ep_p50_ms, 1),
                f(p.ep_p90_ms, 1),
                f(p.ep_p99_ms, 1),
                f(p.ep_max_ms, 1),
                f(p.stalled_pct, 1),
                f(p.bg_io_wait_ms, 1),
                f(p.ep_p99_vs_greedy, 2),
            ]);
            cdf.row(vec![
                p.device.into(),
                p.policy.into(),
                f(p.episode_cdf[0], 2),
                f(p.episode_cdf[1], 2),
                f(p.episode_cdf[2], 2),
                f(p.episode_cdf[3], 2),
                f(p.episode_cdf[4], 2),
            ]);
        }
        vec![
            ("stability_throughput".into(), tput),
            ("stability_stalls".into(), stalls),
            ("stability_cdf".into(), cdf),
        ]
    }
}
