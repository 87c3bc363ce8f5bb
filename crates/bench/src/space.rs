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
    config_cells, devices, label, mib, us, with_testbed, BenchConfig, Cell, JsonReport,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xlsm_core::report::{f, Table};
use xlsm_device::DeviceProfile;
use xlsm_engine::{DbOptions, Ticker};
use xlsm_workload::{run_workload, WorkloadSpec};

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

/// One (device, reclamation-rate) measurement.
#[derive(Clone, Debug)]
pub struct SpacePoint {
    /// Device label (`sata-flash`, `pcie-flash`, `3d-xpoint`).
    pub device: &'static str,
    /// Reclamation rate label (`inline`, `2MiB/s`, ...).
    pub rate: String,
    /// Mean throughput over the run, kop/s.
    pub kops: f64,
    /// Client get latency p50, µs.
    pub get_p50_us: f64,
    /// Client get latency p99, µs.
    pub get_p99_us: f64,
    /// Client write latency p99, µs.
    pub write_p99_us: f64,
    /// Bytes that entered `trash/` over the run, MiB (0 when inline).
    pub trashed_mib: f64,
    /// Bytes reclaimed by the paced reaper over the run, MiB.
    pub reclaimed_mib: f64,
    /// Achieved reclamation throughput, MiB/s.
    pub reclaim_mibps: f64,
    /// Largest trash backlog observed during the run, MiB.
    pub peak_backlog_mib: f64,
    /// Backlog still queued when the window closed, MiB.
    pub final_backlog_mib: f64,
    /// Soft ENOSPC stalls entered during the run.
    pub enospc_stalls: u64,
    /// SpaceWatcher auto-resumes during the run.
    pub auto_resumes: u64,
    /// Compactions deferred because their output would not fit the cap.
    pub compactions_deferred: u64,
    /// Get p99 relative to the inline baseline on the same device.
    pub get_p99_vs_inline: f64,
}

/// Full probe output.
#[derive(Clone, Debug)]
pub struct SpaceReport {
    /// Dataset size in keys.
    pub key_count: u64,
    /// Value size in bytes.
    pub value_size: usize,
    /// RNG seed.
    pub seed: u64,
    /// Space cap applied to every point, MiB.
    pub cap_mib: f64,
    /// Measured window per point, seconds (virtual).
    pub window_secs: f64,
    /// Sweep points: device-major, rates in [`RATES`] order (inline first).
    pub points: Vec<SpacePoint>,
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

/// Runs one (device, rate) point in its own sim runtime.
fn run_point(
    profile: DeviceProfile,
    device: &'static str,
    cfg: &BenchConfig,
    rate: u64,
) -> SpacePoint {
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
            let stop = Arc::new(AtomicBool::new(false));
            let sampler = {
                let db = Arc::clone(&tb.db);
                let stop = Arc::clone(&stop);
                xlsm_sim::spawn("backlog-sampler", move || {
                    let mut peak = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        peak = peak.max(db.trash_queued_bytes());
                        xlsm_sim::sleep_nanos(20_000_000);
                    }
                    peak
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
            stop.store(true, Ordering::Relaxed);
            let peak_backlog = sampler.join().max(tb.db.trash_queued_bytes());

            let stats = tb.db.stats();
            let window_secs = (t1 - t0) as f64 / 1e9;
            let reclaimed = stats.ticker(Ticker::SpaceReclaimedBytes) - reclaimed0;
            SpacePoint {
                device,
                rate: rate_label(rate),
                kops: r.kops(),
                get_p50_us: us(stats.get_latency.quantile(0.5)),
                get_p99_us: us(stats.get_latency.quantile(0.99)),
                write_p99_us: us(stats.write_latency.quantile(0.99)),
                trashed_mib: mib(stats.ticker(Ticker::TrashQueueBytes) - trashed0),
                reclaimed_mib: mib(reclaimed),
                reclaim_mibps: if window_secs > 0.0 {
                    mib(reclaimed) / window_secs
                } else {
                    0.0
                },
                peak_backlog_mib: mib(peak_backlog),
                final_backlog_mib: mib(tb.db.trash_queued_bytes()),
                enospc_stalls: stats.ticker(Ticker::EnospcStalls),
                auto_resumes: stats.ticker(Ticker::BackgroundAutoResumes),
                compactions_deferred: stats.ticker(Ticker::SpaceCompactionsDeferred),
                // Filled in by `run` once the device's inline baseline exists.
                get_p99_vs_inline: 1.0,
            }
        },
    )
}

/// Runs the full (device × reclamation-rate) sweep.
pub fn run(cfg: &BenchConfig) -> SpaceReport {
    let mut points = Vec::new();
    for profile in devices() {
        let device = label(&profile);
        let mut device_points: Vec<SpacePoint> = Vec::new();
        for rate in RATES {
            eprintln!("[space] {device}: rate {}", rate_label(rate));
            let mut p = run_point(profile.clone(), device, cfg, rate);
            if let Some(base) = device_points.first() {
                p.get_p99_vs_inline = if base.get_p99_us > 0.0 {
                    p.get_p99_us / base.get_p99_us
                } else {
                    0.0
                };
            }
            device_points.push(p);
        }
        points.append(&mut device_points);
    }
    SpaceReport {
        key_count: cfg.key_count,
        value_size: cfg.value_size,
        seed: cfg.seed,
        cap_mib: mib(cap_bytes(cfg)),
        window_secs: cfg.duration.as_secs_f64() * 2.0,
        points,
    }
}

impl SpaceReport {
    /// The report as deterministic JSON (see [`JsonReport`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let points = self.points.iter().map(|p| {
            vec![
                ("device", Cell::Str(p.device)),
                ("rate", Cell::Str(&p.rate)),
                ("kops", Cell::F3(p.kops)),
                ("get_p50_us", Cell::F3(p.get_p50_us)),
                ("get_p99_us", Cell::F3(p.get_p99_us)),
                ("write_p99_us", Cell::F3(p.write_p99_us)),
                ("trashed_mib", Cell::F3(p.trashed_mib)),
                ("reclaimed_mib", Cell::F3(p.reclaimed_mib)),
                ("reclaim_mibps", Cell::F3(p.reclaim_mibps)),
                ("peak_backlog_mib", Cell::F3(p.peak_backlog_mib)),
                ("final_backlog_mib", Cell::F3(p.final_backlog_mib)),
                ("enospc_stalls", Cell::Int(p.enospc_stalls)),
                ("auto_resumes", Cell::Int(p.auto_resumes)),
                ("compactions_deferred", Cell::Int(p.compactions_deferred)),
                ("get_p99_vs_inline", Cell::F3(p.get_p99_vs_inline)),
            ]
        });
        let mut config = config_cells(self.key_count, self.value_size, self.seed);
        config.push(("cap_mib", Cell::F1(self.cap_mib)));
        config.push(("window_secs", Cell::F1(self.window_secs)));
        JsonReport {
            bench: "space",
            config,
            sections: vec![("points", points.collect())],
        }
        .to_json()
    }

    /// The report as printable tables (for the `figures` binary): the
    /// read-tail trade and the reclamation/backlog accounting.
    #[must_use]
    pub fn tables(&self) -> Vec<(String, Table)> {
        let mut tail = Table::new(
            "Space: reclamation rate vs read tail latency (overwrite churn + reads)",
            &[
                "device",
                "rate",
                "kops",
                "get_p50_us",
                "get_p99_us",
                "write_p99_us",
                "get_p99_vs_inline",
            ],
        );
        let mut reclaim = Table::new(
            "Space: reclamation throughput and trash backlog under the cap",
            &[
                "device",
                "rate",
                "trashed_mib",
                "reclaimed_mib",
                "reclaim_mibps",
                "peak_backlog_mib",
                "final_backlog_mib",
                "enospc_stalls",
                "auto_resumes",
                "deferred",
            ],
        );
        for p in &self.points {
            tail.row(vec![
                p.device.into(),
                p.rate.clone(),
                f(p.kops, 1),
                f(p.get_p50_us, 1),
                f(p.get_p99_us, 1),
                f(p.write_p99_us, 1),
                f(p.get_p99_vs_inline, 2),
            ]);
            reclaim.row(vec![
                p.device.into(),
                p.rate.clone(),
                f(p.trashed_mib, 1),
                f(p.reclaimed_mib, 1),
                f(p.reclaim_mibps, 1),
                f(p.peak_backlog_mib, 1),
                f(p.final_backlog_mib, 1),
                p.enospc_stalls.to_string(),
                p.auto_resumes.to_string(),
                p.compactions_deferred.to_string(),
            ]);
        }
        vec![
            ("space_tail".into(), tail),
            ("space_reclaim".into(), reclaim),
        ]
    }
}
