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
//! round-robin, fair+shared-I/O-budget) and the paper's two-stage
//! throttling (case study V-A) — all members of
//! [`xlsm_core::StabilityPolicy`], so scheduler-side and foreground-side
//! interventions land in the same table. Dynamic Level-0 (V-B) is not
//! swept: this workload never drops to 25 % writes, so its manager would
//! never decide anything (EXPERIMENTS.md, "Performance stability").
//!
//! Fully deterministic: same seed ⇒ byte-identical JSON
//! (`scripts/check.sh` runs the probe twice and diffs).

use crate::common::{
    config_cells, devices, label, ratio, us, vs_baseline, with_testbed, BenchConfig, Cell,
    JsonReport, JsonRow,
};
use std::sync::Arc;
use xlsm_core::StabilityPolicy;
use xlsm_device::DeviceProfile;
use xlsm_engine::{episode_durations, DbOptions, Ticker};
use xlsm_workload::{run_workload, BurstSpec, WorkloadSpec};

/// Episode-duration CDF thresholds, in milliseconds.
pub const CDF_THRESHOLDS_MS: [u64; 5] = [10, 50, 100, 500, 1000];

/// What the `*_vs_greedy` columns of a device's later points divide by.
#[derive(Clone, Copy)]
struct Baseline {
    kops: f64,
    ep_p99_ms: f64,
    cv: f64,
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

/// Runs one (device, policy) point in its own sim runtime. `greedy` is the
/// same device's greedy point, `None` while this is it.
fn run_point(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
    policy: StabilityPolicy,
    greedy: Option<Baseline>,
) -> (JsonRow, Baseline) {
    let cfg = *cfg;
    let opts = move || {
        let mut opts = stall_geometry();
        policy.apply(&mut opts);
        opts
    };
    with_testbed(profile, opts, &cfg, move |tb| {
        // Drain fill-phase controller transitions so the episode window
        // covers exactly the measured run.
        tb.db.stats().stall.drain_events();

        let spec = burst_spec(&cfg);
        let t0 = xlsm_sim::now_nanos();
        let r = run_workload(&tb.db, &spec);
        let t1 = xlsm_sim::now_nanos();

        let stats = Arc::clone(tb.db.stats());
        let write_hist = stats.writes.latency();
        let m = tb.db.metrics();
        let mut eps = episode_durations(&m.stall_events, t0, t1);
        eps.sort_unstable();
        let window = (t1 - t0).max(1);
        let stalled: u64 = eps.iter().sum();
        // Fraction of episodes no longer than each `CDF_THRESHOLDS_MS` entry.
        let mut episode_cdf = vec![0.0f64; CDF_THRESHOLDS_MS.len()];
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
        let cv = ratio(var.sqrt(), mean);

        let own = Baseline {
            kops: r.kops(),
            ep_p99_ms: ms(quantile_ns(&eps, 0.99)),
            cv,
        };
        let row = vec![
            ("device", Cell::Str(device.into())),
            ("policy", Cell::Str(policy.name().into())),
            ("kops", Cell::F3(own.kops)),
            // Coefficient of variation (σ/µ) across 100 ms timeline buckets.
            ("cv", Cell::F3(cv)),
            // Worst 100 ms bucket (near-stop depth).
            ("min_bucket_kops", Cell::F3(r.min_bucket_kops())),
            ("write_p50_us", Cell::F3(us(write_hist.quantile(0.5)))),
            ("write_p99_us", Cell::F3(us(write_hist.quantile(0.99)))),
            ("write_p999_us", Cell::F3(us(write_hist.quantile(0.999)))),
            ("episodes", Cell::Int(eps.len() as u64)),
            ("ep_p50_ms", Cell::F3(ms(quantile_ns(&eps, 0.5)))),
            ("ep_p90_ms", Cell::F3(ms(quantile_ns(&eps, 0.9)))),
            ("ep_p99_ms", Cell::F3(own.ep_p99_ms)),
            ("ep_max_ms", Cell::F3(ms(eps.last().copied().unwrap_or(0)))),
            // Share of the window spent inside stall episodes.
            (
                "stalled_pct",
                Cell::F3(stalled as f64 / window as f64 * 100.0),
            ),
            ("episode_cdf", Cell::F3List(episode_cdf)),
            // Time background jobs waited on the shared I/O budget (0 for
            // policies that leave the limiter off).
            (
                "bg_io_wait_ms",
                Cell::F3(stats.ticker(Ticker::BgIoThrottledNs) as f64 / 1e6),
            ),
            (
                "kops_vs_greedy",
                Cell::F3(vs_baseline(own.kops, greedy.map(|g| g.kops))),
            ),
            // < 1.0 = shorter stalls.
            (
                "ep_p99_vs_greedy",
                Cell::F3(vs_baseline(own.ep_p99_ms, greedy.map(|g| g.ep_p99_ms))),
            ),
            // < 1.0 = steadier.
            (
                "cv_vs_greedy",
                Cell::F3(vs_baseline(cv, greedy.map(|g| g.cv))),
            ),
        ];
        (row, own)
    })
}

/// Runs the full (device × policy) sweep: device-major, policies in
/// [`StabilityPolicy::ALL`] order (greedy first).
pub fn run(cfg: &BenchConfig) -> JsonReport {
    let mut points = Vec::new();
    for profile in devices() {
        let device = label(&profile);
        let mut greedy = None;
        for policy in StabilityPolicy::ALL {
            eprintln!("[stability] {device}: {}", policy.name());
            let (row, own) = run_point(profile.clone(), device, cfg, policy, greedy);
            greedy.get_or_insert(own);
            points.push(row);
        }
    }
    let mut config = config_cells(cfg);
    // Measured window per point, virtual seconds.
    config.push(("window_secs", Cell::F1(cfg.duration.as_secs_f64() * 4.0)));
    JsonReport {
        bench: "stability",
        config,
        sections: vec![("points", points)],
    }
}
