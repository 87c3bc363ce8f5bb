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
//! throttling (case study V-A) — the rows of [`POLICIES`], each a setting
//! of the engine's options, so scheduler-side and foreground-side
//! interventions land in the same table. Dynamic Level-0 (V-B) is not
//! swept: this workload never drops to 25 % writes, so its manager would
//! never decide anything (EXPERIMENTS.md, "Performance stability").
//!
//! Fully deterministic: same seed ⇒ byte-identical `results/stability.tsv`
//! (`scripts/check.sh` compares its quick run with the committed
//! `results/quick/stability.tsv`).

use crate::common::{
    devices, label, probe_table, ratio, us, with_testbed, with_vs_first, BenchConfig, Row,
};
use crate::figures::Figure;
use std::sync::Arc;
use xlsm_core::report::f;
use xlsm_device::DeviceProfile;
use xlsm_engine::{episode_durations, CompactionScheduler, DbOptions, ThrottlePolicy, Ticker};
use xlsm_workload::{run_workload, BurstSpec, WorkloadSpec};

/// The episode-duration CDF: each column is the share of episodes no longer
/// than its threshold, in milliseconds.
pub const EPISODE_CDF_MS: [(&str, u64); 5] = [
    ("ep_le_10ms", 10),
    ("ep_le_50ms", 50),
    ("ep_le_100ms", 100),
    ("ep_le_500ms", 500),
    ("ep_le_1000ms", 1000),
];

/// Background I/O budget of the `fair` row, in bytes per second of virtual
/// time. Chosen to sit above the steady compaction demand of the scaled
/// testbeds on every device (so the mean throughput stays within a few
/// percent of greedy) while clipping the bursts where flush and compaction
/// I/O gang up on the device at once. Auto-tuning scales it up with
/// measured compaction debt (to 4× under sustained pressure), so a
/// temporarily undersized budget self-corrects instead of wedging the LSM.
pub const FAIR_BG_IO_RATE: u64 = 256 << 20;

/// Stage-1 rate floor of [`ThrottlePolicy::TwoStage`] in the `two-stage`
/// row (bytes/s): half the default `delayed_write_rate`. Fig. 18's own
/// harness floors at the full 16 MiB/s.
pub const TWO_STAGE_MIN_RATE: u64 = 8 << 20;

/// A policy the probe sweeps: its report name and how it sets the options.
pub type Policy = (&'static str, fn(&mut DbOptions));

/// The stability-policy family, in the order the tables report it.
/// `greedy` is the baseline: greedy max-score compaction picking,
/// unlimited background I/O and the stock Algorithm-1 write controller.
/// `round-robin` picks across eligible levels in turn. `fair` is the full
/// scheduler-side intervention: deficit-based fair picking plus the shared
/// background-I/O budget with flush priority and debt-scaled auto-tuning.
/// `two-stage` is case study V-A, the foreground side, under greedy
/// picking.
#[rustfmt::skip] // one row per policy
pub const POLICIES: [Policy; 4] = [
    ("greedy", |o| o.compaction_scheduler = CompactionScheduler::Greedy),
    ("round-robin", |o| o.compaction_scheduler = CompactionScheduler::RoundRobin),
    ("fair", |o| {
        o.compaction_scheduler = CompactionScheduler::Fair;
        o.bg_io_rate_bytes_per_sec = FAIR_BG_IO_RATE;
    }),
    ("two-stage", |o| {
        o.compaction_scheduler = CompactionScheduler::Greedy;
        o.throttle_policy = ThrottlePolicy::TwoStage { min_rate: TWO_STAGE_MIN_RATE };
    }),
];

/// What the `*_vs_greedy` columns compare, each with the same device's
/// greedy point.
struct Measured {
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

/// Runs one (device, policy) point in its own sim runtime.
fn run_point(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
    (policy, apply): Policy,
) -> (Row, Measured) {
    let cfg = *cfg;
    let opts = move || {
        let mut opts = stall_geometry();
        apply(&mut opts);
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
        let buckets: Vec<f64> = r.timeline.iter().map(|&(_, k)| k).collect();
        let mean = buckets.iter().sum::<f64>() / buckets.len().max(1) as f64;
        let var =
            buckets.iter().map(|k| (k - mean).powi(2)).sum::<f64>() / buckets.len().max(1) as f64;
        let cv = ratio(var.sqrt(), mean);

        let own = Measured {
            kops: r.kops(),
            ep_p99_ms: ms(quantile_ns(&eps, 0.99)),
            cv,
        };
        let mut row: Row = vec![
            ("device", device.into()),
            ("policy", policy.into()),
            ("kops", f(own.kops, 3)),
            // Coefficient of variation (σ/µ) across 100 ms timeline buckets.
            ("cv", f(cv, 3)),
            // Worst 100 ms bucket (near-stop depth).
            ("min_bucket_kops", f(r.min_bucket_kops(), 3)),
            ("write_p50_us", f(us(write_hist.quantile(0.5)), 3)),
            ("write_p99_us", f(us(write_hist.quantile(0.99)), 3)),
            ("write_p999_us", f(us(write_hist.quantile(0.999)), 3)),
            ("episodes", eps.len().to_string()),
            ("ep_p50_ms", f(ms(quantile_ns(&eps, 0.5)), 3)),
            ("ep_p90_ms", f(ms(quantile_ns(&eps, 0.9)), 3)),
            ("ep_p99_ms", f(own.ep_p99_ms, 3)),
            ("ep_max_ms", f(ms(eps.last().copied().unwrap_or(0)), 3)),
            // Share of the window spent inside stall episodes.
            ("stalled_pct", f(stalled as f64 / window as f64 * 100.0, 3)),
        ];
        row.extend(EPISODE_CDF_MS.map(|(column, limit_ms)| {
            let within = eps.iter().filter(|&&e| e <= limit_ms * 1_000_000).count();
            (column, f(ratio(within as f64, eps.len() as f64), 3))
        }));
        // Time background jobs waited on the shared I/O budget (0 for
        // policies that leave the limiter off).
        row.push((
            "bg_io_wait_ms",
            f(stats.ticker(Ticker::BgIoThrottledNs) as f64 / 1e6, 3),
        ));
        (row, own)
    })
}

/// Runs the full (device × policy) sweep: device-major, policies in
/// [`POLICIES`] order (greedy first).
pub fn run(cfg: &BenchConfig) -> Vec<Figure> {
    let mut points = Vec::new();
    for profile in devices() {
        let device = label(&profile);
        let (mut rows, own): (Vec<Row>, Vec<Measured>) = POLICIES
            .into_iter()
            .map(|policy| {
                eprintln!("[stability] {device}: {}", policy.0);
                run_point(profile.clone(), device, cfg, policy)
            })
            .unzip();
        let vs_greedy = [
            (
                "kops_vs_greedy",
                own.iter().map(|m| m.kops).collect::<Vec<_>>(),
            ),
            // < 1.0 = shorter stalls.
            (
                "ep_p99_vs_greedy",
                own.iter().map(|m| m.ep_p99_ms).collect(),
            ),
            // < 1.0 = steadier.
            ("cv_vs_greedy", own.iter().map(|m| m.cv).collect()),
        ];
        for (column, values) in vs_greedy {
            let at = rows[0].len();
            rows = with_vs_first(rows.into_iter().zip(values).collect(), at, column);
        }
        points.extend(rows);
    }
    // Measured window per point, virtual seconds.
    let window_secs = f(cfg.duration.as_secs_f64() * 4.0, 1);
    vec![probe_table(
        "stability",
        cfg,
        &[("window_secs", window_secs)],
        points,
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_are_named_valid_option_settings() {
        let names = POLICIES.map(|p| p.0);
        assert_eq!(names, ["greedy", "round-robin", "fair", "two-stage"]);
        for (name, apply) in POLICIES {
            let mut opts = DbOptions::default();
            apply(&mut opts);
            opts.validate().expect(name);
            let fair = name == "fair";
            let budget = if fair { FAIR_BG_IO_RATE } else { 0 };
            assert_eq!(opts.bg_io_rate_bytes_per_sec, budget, "{name}");
            assert_eq!(
                opts.compaction_scheduler == CompactionScheduler::Fair,
                fair,
                "{name}"
            );
            let throttle = match name {
                "two-stage" => ThrottlePolicy::TwoStage { min_rate: 8 << 20 },
                _ => ThrottlePolicy::Original,
            };
            assert_eq!(opts.throttle_policy, throttle, "{name}");
        }
    }
}
