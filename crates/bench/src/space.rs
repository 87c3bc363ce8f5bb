//! Space probe: what rate-limited reclamation of obsolete SSTs costs (and
//! buys) on each study device.
//!
//! The full-disk subsystem trades *when* space comes back for *how smooth*
//! the foreground stays: obsolete SSTs are parked in `trash/` and deleted
//! at `sst_delete_rate_bytes_per_sec`, so a slow rate keeps delete I/O off
//! the device's critical path but lets the backlog occupy capacity — and
//! once live bytes + backlog press against `max_allowed_space_bytes`,
//! compactions defer and writers soft-stall until the reaper frees room.
//! This probe sweeps the reclamation rate under overwrite churn with
//! concurrent reads and reports both sides of the trade per
//! (device, rate) point:
//!
//! * **read tail latency** — client get p50/p99 (the paper's tail metric)
//!   plus the ratio against the same device's inline-delete baseline;
//! * **reclamation throughput** — bytes actually reclaimed over the
//!   window, the cumulative bytes trashed, and the peak/final backlog;
//! * **space-pressure events** — soft ENOSPC stalls, watcher
//!   auto-resumes, and compactions deferred by the space cap.
//!
//! Rate 0 is the legacy baseline: obsolete files are deleted inline, no
//! trash, no pacing. Fully deterministic: same seed ⇒ byte-identical
//! `results/space.tsv` (`scripts/check.sh` compares its quick run with the
//! committed `results/quick/space.tsv`).

use crate::common::{
    devices, label, mib, probe_table, ratio, us, with_testbed, with_vs_first, BenchConfig, Row,
};
use crate::figures::Figure;
use std::sync::Arc;
use xlsm_core::report::f;
use xlsm_device::DeviceProfile;
use xlsm_engine::{DbOptions, Ticker};
use xlsm_workload::{run_workload, Sampler, WorkloadSpec};

/// The reclamation-rate sweep, bytes/second (0 = legacy inline deletion).
pub const RATES: [u64; 4] = [0, 2 << 20, 8 << 20, 32 << 20];

/// Human label for a sweep rate.
#[must_use]
pub fn rate_label(rate: u64) -> String {
    if rate == 0 {
        "inline".to_owned()
    } else {
        format!("{}MiB/s", rate >> 20)
    }
}

/// The churn geometry every point shares: small files and a tight level
/// base so overwrites obsolete SSTs continuously, plus a space cap with
/// the watcher on — the regime where the reclamation rate decides how hard
/// the cap bites.
fn churn_geometry(cfg: &BenchConfig, rate: u64) -> DbOptions {
    DbOptions {
        write_buffer_size: 1 << 20,
        target_file_size_base: 1 << 20,
        max_bytes_for_level_base: 2 << 20,
        sst_delete_rate_bytes_per_sec: rate,
        max_allowed_space_bytes: cap_bytes(cfg),
        space_poll_interval_ns: 1_000_000,
        ..DbOptions::default()
    }
}

/// The cap: 6× the dataset (32 MiB floor). Generous on purpose — under
/// overwrite churn the live LSM transiently holds several copies of the
/// dataset across levels, and a cap without that headroom defers every
/// compaction while the inline baseline has no backlog to reclaim, so the
/// stall could never auto-resume. The cap here is a guardrail; space
/// pressure shows up through the backlog and deferred-compaction columns.
fn cap_bytes(cfg: &BenchConfig) -> u64 {
    (cfg.dataset_bytes() * 6).max(32 << 20)
}

/// Runs one (device, rate) point in its own sim runtime and returns its row
/// with its get p99 (µs), which `run` compares with the same device's
/// inline baseline.
fn run_point(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
    rate: u64,
) -> (Row, f64) {
    let cfg = *cfg;
    with_testbed(
        profile,
        move || churn_geometry(&cfg, rate),
        &cfg,
        move |tb| {
            // Counters from here on cover exactly the measured churn window.
            let trashed0 = tb.db.stats().ticker(Ticker::TrashQueueBytes);
            let reclaimed0 = tb.db.stats().ticker(Ticker::SpaceReclaimedBytes);

            // A virtual-time sampler tracks the backlog's high-water mark while
            // the closed-loop workload runs.
            let sampler = {
                let db = Arc::clone(&tb.db);
                Sampler::start("backlog-sampler", 20_000_000, move || {
                    db.trash_queued_bytes() as f64
                })
            };

            let spec: WorkloadSpec = cfg
                .spec()
                .with_threads(4)
                .with_write_fraction(0.5)
                .with_duration(cfg.duration * 2);
            let t0 = xlsm_sim::now_nanos();
            let r = run_workload(&tb.db, &spec);
            let t1 = xlsm_sim::now_nanos();
            let peak_backlog = sampler
                .finish()
                .into_iter()
                .map(|(_, bytes)| bytes as u64)
                .fold(tb.db.trash_queued_bytes(), u64::max);

            let stats = tb.db.stats();
            let window_secs = (t1 - t0) as f64 / 1e9;
            let reclaimed = stats.ticker(Ticker::SpaceReclaimedBytes) - reclaimed0;
            let get_p99_us = us(r.read_latency.p99_ns);
            let row: Row = vec![
                ("device", device.into()),
                ("rate", rate_label(rate)),
                ("kops", f(r.kops(), 3)),
                ("get_p50_us", f(us(r.read_latency.p50_ns), 3)),
                ("get_p99_us", f(get_p99_us, 3)),
                ("write_p99_us", f(us(r.write_latency.p99_ns), 3)),
                // Bytes that entered `trash/` over the run (0 when inline).
                (
                    "trashed_mib",
                    f(mib(stats.ticker(Ticker::TrashQueueBytes) - trashed0), 3),
                ),
                ("reclaimed_mib", f(mib(reclaimed), 3)),
                ("reclaim_mibps", f(ratio(mib(reclaimed), window_secs), 3)),
                ("peak_backlog_mib", f(mib(peak_backlog), 3)),
                // Backlog still queued when the window closed.
                ("final_backlog_mib", f(mib(tb.db.trash_queued_bytes()), 3)),
                (
                    "enospc_stalls",
                    stats.ticker(Ticker::EnospcStalls).to_string(),
                ),
                (
                    "auto_resumes",
                    stats.ticker(Ticker::BackgroundAutoResumes).to_string(),
                ),
                // Compactions whose output would not fit under the cap.
                (
                    "compactions_deferred",
                    stats.ticker(Ticker::SpaceCompactionsDeferred).to_string(),
                ),
            ];
            (row, get_p99_us)
        },
    )
}

/// Runs the full (device × reclamation-rate) sweep: device-major, rates in
/// [`RATES`] order (inline first).
pub fn run(cfg: &BenchConfig) -> Vec<Figure> {
    let mut points = Vec::new();
    for profile in devices() {
        let device = label(&profile);
        let rates = RATES.map(|rate| {
            eprintln!("[space] {device}: rate {}", rate_label(rate));
            run_point(profile.clone(), device, cfg, rate)
        });
        // Last of 15.
        points.extend(with_vs_first(rates.into(), 14, "get_p99_vs_inline"));
    }
    let config = [
        ("cap_mib", f(mib(cap_bytes(cfg)), 1)),
        // Measured window per point, virtual seconds.
        ("window_secs", f(cfg.duration.as_secs_f64() * 2.0, 1)),
    ];
    vec![probe_table("space", cfg, &config, points)]
}
