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
//! trash, no pacing. Fully deterministic: same seed ⇒ byte-identical JSON
//! (`scripts/check.sh` runs the probe twice and diffs).

use crate::common::{
    config_cells, devices, label, mib, ratio, us, vs_baseline, with_testbed, BenchConfig, Cell,
    JsonReport, JsonRow,
};
use std::sync::Arc;
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
/// with its get p99 (µs) — the first point of a device is the inline
/// baseline the later ones are divided by.
fn run_point(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
    rate: u64,
    inline_p99_us: Option<f64>,
) -> (JsonRow, f64) {
    let cfg = *cfg;
    with_testbed(
        profile,
        move || churn_geometry(&cfg, rate),
        &cfg,
        move |tb| {
            tb.db.flush().expect("fill flush");
            tb.db.wait_for_compactions();
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
            let row = vec![
                ("device", Cell::Str(device.into())),
                ("rate", Cell::Str(rate_label(rate))),
                ("kops", Cell::F3(r.kops())),
                ("get_p50_us", Cell::F3(us(r.read_latency.p50_ns))),
                ("get_p99_us", Cell::F3(get_p99_us)),
                ("write_p99_us", Cell::F3(us(r.write_latency.p99_ns))),
                // Bytes that entered `trash/` over the run (0 when inline).
                (
                    "trashed_mib",
                    Cell::F3(mib(stats.ticker(Ticker::TrashQueueBytes) - trashed0)),
                ),
                ("reclaimed_mib", Cell::F3(mib(reclaimed))),
                (
                    "reclaim_mibps",
                    Cell::F3(ratio(mib(reclaimed), window_secs)),
                ),
                ("peak_backlog_mib", Cell::F3(mib(peak_backlog))),
                // Backlog still queued when the window closed.
                (
                    "final_backlog_mib",
                    Cell::F3(mib(tb.db.trash_queued_bytes())),
                ),
                (
                    "enospc_stalls",
                    Cell::Int(stats.ticker(Ticker::EnospcStalls)),
                ),
                (
                    "auto_resumes",
                    Cell::Int(stats.ticker(Ticker::BackgroundAutoResumes)),
                ),
                // Compactions whose output would not fit under the cap.
                (
                    "compactions_deferred",
                    Cell::Int(stats.ticker(Ticker::SpaceCompactionsDeferred)),
                ),
                (
                    "get_p99_vs_inline",
                    Cell::F3(vs_baseline(get_p99_us, inline_p99_us)),
                ),
            ];
            (row, get_p99_us)
        },
    )
}

/// Runs the full (device × reclamation-rate) sweep: device-major, rates in
/// [`RATES`] order (inline first).
pub fn run(cfg: &BenchConfig) -> JsonReport {
    let mut points = Vec::new();
    for profile in devices() {
        let device = label(&profile);
        let mut inline_p99_us = None;
        for rate in RATES {
            eprintln!("[space] {device}: rate {}", rate_label(rate));
            let (row, p99_us) = run_point(profile.clone(), device, cfg, rate, inline_p99_us);
            inline_p99_us.get_or_insert(p99_us);
            points.push(row);
        }
    }
    let mut config = config_cells(cfg);
    config.push(("cap_mib", Cell::F1(mib(cap_bytes(cfg)))));
    // Measured window per point, virtual seconds.
    config.push(("window_secs", Cell::F1(cfg.duration.as_secs_f64() * 2.0)));
    JsonReport {
        bench: "space",
        config,
        sections: vec![("points", points)],
    }
}
