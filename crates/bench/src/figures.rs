//! One function per paper figure (or per shared sweep). A figure is a list
//! of points and the columns it projects from their results; every point
//! runs on its own freshly filled testbed ([`run_one`] or [`with_testbed`]),
//! so no point's number depends on the points that ran before it.

use crate::common::{devices, label, run_one, us, with_testbed, BenchConfig, Row};
use std::sync::Arc;
use std::time::Duration;
use xlsm_core::casestudy::dynamic_l0::{DynamicL0Config, DynamicL0Manager};
use xlsm_core::casestudy::nvm_wal;
use xlsm_core::report::{f, stall_breakdown_table, stall_timeline_table, Table};
use xlsm_engine::{DbOptions, HistogramSummary, ThrottlePolicy, Ticker};
use xlsm_sim::Runtime;
use xlsm_workload::{
    raw_mixed_kops, run_workload, BurstSpec, KeyDistribution, Sampler, WorkloadResult, WorkloadSpec,
};

/// A named table destined for `results/<name>.tsv`.
pub type Figure = (String, Table);

/// Every spec on every paper device with default options, one point each:
/// `results[device][spec]`.
fn on_every_device(cfg: &BenchConfig, specs: &[WorkloadSpec]) -> Vec<Vec<WorkloadResult>> {
    devices()
        .into_iter()
        .map(|profile| {
            specs
                .iter()
                .map(|spec| run_one(profile.clone(), DbOptions::default, cfg, spec.clone()))
                .collect()
        })
        .collect()
}

/// A row keyed by `key`, then one cell per paper device, each named by the
/// device's label.
fn device_row(key: (&'static str, String), cells: impl IntoIterator<Item = String>) -> Row {
    let labels = devices().into_iter().map(|profile| label(&profile));
    std::iter::once(key).chain(labels.zip(cells)).collect()
}

/// A latency table: one `p50_us, p90_us, p99_us` row per `(name, summary)`,
/// the name in column `key`.
fn latency_table<'a>(
    title: &str,
    key: &'static str,
    rows: impl IntoIterator<Item = (&'a str, HistogramSummary)>,
) -> Table {
    let rows = rows.into_iter().map(|(name, s)| {
        vec![
            (key, name.to_owned()),
            ("p50_us", f(us(s.p50_ns), 1)),
            ("p90_us", f(us(s.p90_ns), 1)),
            ("p99_us", f(us(s.p99_ns), 1)),
        ]
    });
    Table::from_named_rows(title, rows)
}

/// Figs. 6/7 and 14/15: the read and the write latency table of one point
/// per device, each `(name, title)`.
fn read_and_write_latency(
    points: &[&WorkloadResult],
    read: (&str, &str),
    write: (&str, &str),
) -> Vec<Figure> {
    let table = |(name, title): (&str, &str), side: fn(&WorkloadResult) -> HistogramSummary| {
        let labels = devices().into_iter().map(|p| label(&p));
        let rows = labels.zip(points.iter().map(|r| side(r)));
        (name.to_owned(), latency_table(title, "device", rows))
    };
    vec![
        table(read, |r| r.read_latency),
        table(write, |r| r.write_latency),
    ]
}

// ---------------------------------------------------------------------------
// Fig. 1 — motivating example: raw vs KV speedup
// ---------------------------------------------------------------------------

/// Fig. 1: raw 4-KiB random 1:1 throughput vs RocksDB-level throughput on
/// each device (8 threads). Paper: raw 26 → 408 kop/s (15.7×) but KV only
/// 13 → 23 kop/s (+76.9 %).
pub fn fig01(cfg: &BenchConfig) -> Vec<Figure> {
    let mut rows = Vec::new();
    let mut raw_vals = Vec::new();
    let mut kv_vals = Vec::new();
    // Fig. 1 uses 4 KiB requests at both layers (unlike the 1 KiB values of
    // the later sections), which is what pushes the KV side into
    // compaction/throttling territory even at a 1:1 mix.
    let kv_cfg = BenchConfig {
        value_size: 4096,
        key_count: cfg.key_count / 4,
        ..*cfg
    };
    for profile in devices() {
        let raw = Runtime::new().run({
            let profile = profile.clone();
            let d = cfg.duration.min(Duration::from_millis(500));
            move || raw_mixed_kops(profile, 8, 0.125, 0.5, d)
        });
        let kv = run_one(
            profile.clone(),
            DbOptions::default,
            &kv_cfg,
            kv_cfg.spec().with_threads(8).with_write_fraction(0.5),
        );
        rows.push(vec![
            ("device", label(&profile).into()),
            ("raw_kops", f(raw.kops, 1)),
            ("kv_kops", f(kv.kops(), 1)),
        ]);
        raw_vals.push(raw.kops);
        kv_vals.push(kv.kops());
    }
    rows.push(vec![
        ("device", "xpoint/sata".into()),
        ("raw_kops", f(raw_vals[2] / raw_vals[0], 2)),
        ("kv_kops", f(kv_vals[2] / kv_vals[0], 2)),
    ]);
    let title = "Fig 1: raw device vs KV throughput (4KiB random, 1:1 R/W, 8 threads)";
    vec![("fig01".into(), Table::from_named_rows(title, rows))]
}

// ---------------------------------------------------------------------------
// Fig. 3 — throughput vs insertion ratio (the throttling finding)
// ---------------------------------------------------------------------------

/// Fig. 3: throughput vs insertion ratio, 4 threads. Paper: flash SSDs rise
/// (32 → 41.3 kop/s on PCIe) while 3D XPoint falls (115 → 45 kop/s) because
/// the throttling mechanism engages.
pub fn fig03(cfg: &BenchConfig) -> Vec<Figure> {
    let ratios = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0];
    let specs: Vec<WorkloadSpec> = ratios
        .iter()
        .map(|&r| cfg.spec().with_threads(4).with_write_fraction(r))
        .collect();
    let results = on_every_device(cfg, &specs);
    let rows = ratios.iter().enumerate().map(|(i, r)| {
        device_row(
            ("insert_pct", f(r * 100.0, 0)),
            results.iter().map(|d| f(d[i].kops(), 1)),
        )
    });
    let title = "Fig 3: throughput (kop/s) vs insertion ratio, 4 threads";
    vec![("fig03".into(), Table::from_named_rows(title, rows))]
}

// ---------------------------------------------------------------------------
// Figs. 4–7 — timelines and latency at 5 % / 90 % writes
// ---------------------------------------------------------------------------

/// Figs. 4–7 share two runs per device (5 % and 90 % writes):
/// * Fig. 4: throughput timeline @5 % writes (stable);
/// * Fig. 5: throughput timeline @90 % writes (throttle oscillation —
///   paper: 169 → 3 kop/s dips on 3D XPoint);
/// * Fig. 6: read latency @90 % writes (p90: XPoint 251 µs ≪ SATA 839 µs);
/// * Fig. 7: write latency @90 % writes (p90 ≈ 26 vs 28 µs — similar!).
pub fn fig04_to_07(cfg: &BenchConfig) -> Vec<Figure> {
    let specs = [0.05, 0.9].map(|w| {
        cfg.spec()
            .with_threads(4)
            .with_write_fraction(w)
            .with_duration(cfg.duration * 2)
    });
    let results = on_every_device(cfg, &specs);
    let mut out = Vec::new();
    for (point, fig, writes) in [(0, 4, 5), (1, 5, 90)] {
        let title = format!("Fig {fig}: throughput timeline, {writes}% writes (kop/s per 100ms)");
        let rs: Vec<&WorkloadResult> = results.iter().map(|d| &d[point]).collect();
        let buckets = rs[0].timeline.iter().enumerate().map(|(i, &(t_s, _))| {
            device_row(("t_s", f(t_s, 1)), rs.iter().map(|r| f(r.timeline[i].1, 1)))
        });
        let min_bucket = device_row(
            ("t_s", "min_bucket".into()),
            rs.iter().map(|r| f(r.min_bucket_kops(), 1)),
        );
        let rows = buckets.chain([min_bucket]);
        out.push((format!("fig{fig:02}"), Table::from_named_rows(&title, rows)));
    }
    let at_90: Vec<&WorkloadResult> = results.iter().map(|d| &d[1]).collect();
    out.extend(read_and_write_latency(
        &at_90,
        ("fig06", "Fig 6: read latency at 90% writes (us)"),
        ("fig07", "Fig 7: write latency at 90% writes (us)"),
    ));
    out
}

// ---------------------------------------------------------------------------
// Figs. 8–10 & 12 — Level-0 geometry sweep
// ---------------------------------------------------------------------------

/// Figs. 8, 9, 10 and 12 share a sweep over the Level-0 file size
/// (memtable size), 1:1 mix, 4 threads:
/// * Fig. 8: average Level-0 file count vs file size;
/// * Fig. 9: throughput vs file count (paper: XPoint −19.9 % from 2→8
///   files, PCIe only −12.3 %);
/// * Fig. 10: read p90 vs file count (XPoint 101 → 134 µs);
/// * Fig. 12: write p90 vs file size (grows with memtable size).
pub fn fig08_to_12(cfg: &BenchConfig) -> Vec<Figure> {
    // Paper sweeps 32–512 MB; /32 scale → 1–16 MiB.
    let sizes: [usize; 5] = [1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20];
    struct Point {
        size_mb: f64,
        avg_l0: f64,
        kops: f64,
        read_p90_us: f64,
        write_p90_us: f64,
    }
    let mut per_device: Vec<Vec<Point>> = Vec::new();
    for profile in devices() {
        let mut points = Vec::new();
        for &size in &sizes {
            let opts = DbOptions {
                write_buffer_size: size,
                target_file_size_base: size as u64,
                ..DbOptions::default()
            };
            let spec = cfg.spec().with_threads(4).with_write_fraction(0.5);
            let (avg_l0, r) = with_testbed(
                profile.clone(),
                move || opts,
                cfg,
                move |tb| {
                    let db = Arc::clone(&tb.db);
                    let sampler =
                        Sampler::start("l0-count", 50_000_000, move || db.num_l0_files() as f64);
                    let r = run_workload(&tb.db, &spec);
                    let series = sampler.finish();
                    (xlsm_workload::sampler::series_mean(&series, 0), r)
                },
            );
            points.push(Point {
                size_mb: size as f64 / (1 << 20) as f64,
                avg_l0,
                kops: r.kops(),
                read_p90_us: us(r.read_latency.p90_ns),
                write_p90_us: us(r.write_latency.p90_ns),
            });
        }
        per_device.push(points);
    }
    let dev_labels: Vec<&str> = devices().iter().map(label).collect::<Vec<_>>();
    let mut out = Vec::new();
    // Fig 8: size → avg L0 files.
    let rows = per_device[0].iter().enumerate().map(|(i, p)| {
        device_row(
            ("file_size_mb", f(p.size_mb, 1)),
            per_device.iter().map(|points| f(points[i].avg_l0, 2)),
        )
    });
    let title = "Fig 8: avg num of Level-0 files vs file size (1:1, 4 threads)";
    out.push(("fig08".into(), Table::from_named_rows(title, rows)));
    // Figs 9, 10, 12: per device rows keyed by geometry.
    for (name, title) in [
        ("fig09", "Fig 9: throughput (kop/s) vs num of L0 files"),
        ("fig10", "Fig 10: read p90 (us) vs num of L0 files"),
        ("fig12", "Fig 12: write p90 (us) vs SST file size (MB)"),
    ] {
        let mut rows = Vec::new();
        for (&device, points) in dev_labels.iter().zip(&per_device) {
            for p in points {
                let v = match name {
                    "fig09" => p.kops,
                    "fig10" => p.read_p90_us,
                    _ => p.write_p90_us,
                };
                rows.push(vec![
                    ("device", device.into()),
                    ("file_size_mb", f(p.size_mb, 1)),
                    ("avg_l0_files", f(p.avg_l0, 2)),
                    ("value", f(v, 1)),
                ]);
            }
        }
        out.push((name.to_owned(), Table::from_named_rows(title, rows)));
    }
    out
}

// ---------------------------------------------------------------------------
// Figs. 13–16 — parallelism and read/write interference
// ---------------------------------------------------------------------------

/// Figs. 13–16 share a thread sweep (1:1 mix):
/// * Fig. 13: throughput vs parallelism (rises on all devices);
/// * Fig. 14: read p90 @32 threads (XPoint 335 µs ≪ SATA 1.4 ms);
/// * Fig. 15: write p90 @32 threads — **XPoint (440 µs) worse than SATA
///   (47 µs)**: fast reads refill the single writer queue;
/// * Fig. 16: average waiting writer threads per device.
pub fn fig13_to_16(cfg: &BenchConfig) -> Vec<Figure> {
    let threads = [1usize, 2, 4, 8, 16, 32];
    let specs: Vec<WorkloadSpec> = threads
        .iter()
        .map(|&t| cfg.spec().with_threads(t).with_write_fraction(0.5))
        .collect();
    let results = on_every_device(cfg, &specs);
    let rows = threads.iter().enumerate().map(|(i, t)| {
        device_row(
            ("threads", t.to_string()),
            results.iter().map(|d| f(d[i].kops(), 1)),
        )
    });
    let t13 = Table::from_named_rows("Fig 13: throughput (kop/s) vs parallelism (1:1 R/W)", rows);
    let at_32: Vec<&WorkloadResult> = results.iter().map(|d| &d[threads.len() - 1]).collect();
    let rows = devices().into_iter().zip(&at_32).map(|(profile, r)| {
        vec![
            ("device", label(&profile).into()),
            ("avg_waiting_writers", f(r.avg_waiting_writers, 2)),
        ]
    });
    let t16 = Table::from_named_rows("Fig 16: avg waiting writer threads at 32 threads", rows);
    let mut out = vec![("fig13".into(), t13)];
    out.extend(read_and_write_latency(
        &at_32,
        ("fig14", "Fig 14: read latency at 32 threads (us)"),
        ("fig15", "Fig 15: write latency at 32 threads (us)"),
    ));
    out.push(("fig16".into(), t16));
    out
}

// ---------------------------------------------------------------------------
// Fig. 17 — WAL on/off
// ---------------------------------------------------------------------------

/// Fig. 17: write p90 with and without the WAL, 1:9 R/W. Paper: on 3D
/// XPoint 54 µs → 22 µs when disabling the WAL — logging still matters on
/// fast storage.
pub fn fig17(cfg: &BenchConfig) -> Vec<Figure> {
    let mut rows = Vec::new();
    for profile in devices() {
        let spec = cfg.spec().with_threads(4).with_write_fraction(0.9);
        let with_wal = run_one(profile.clone(), DbOptions::default, cfg, spec.clone());
        let without = run_one(
            profile.clone(),
            || DbOptions {
                enable_wal: false,
                ..DbOptions::default()
            },
            cfg,
            spec,
        );
        rows.push(vec![
            ("device", label(&profile).into()),
            ("wal_p50", f(us(with_wal.write_latency.p50_ns), 1)),
            ("wal_p90", f(us(with_wal.write_latency.p90_ns), 1)),
            ("nowal_p50", f(us(without.write_latency.p50_ns), 1)),
            ("nowal_p90", f(us(without.write_latency.p90_ns), 1)),
        ]);
    }
    let title = "Fig 17: write latency (us) vs WAL, 1:9 R/W";
    vec![("fig17".into(), Table::from_named_rows(title, rows))]
}

// ---------------------------------------------------------------------------
// Fig. 18 — case study V-A: two-stage throttling under bursts
// ---------------------------------------------------------------------------

/// Fig. 18: throughput timeline under periodic write bursts (25 s of 1:9
/// writes per minute, scaled), original vs two-stage throttling on the 3D
/// XPoint SSD. Paper: the original dips below 10 kop/s ("near-stop"); the
/// two-stage policy removes the dips.
pub fn fig18(cfg: &BenchConfig) -> Vec<Figure> {
    let burst = BurstSpec {
        period: cfg.duration * 2,
        burst_len: cfg.duration, // ≈ 25s of bursts per 60s in the paper
        burst_write_fraction: 0.9,
    };
    let spec = WorkloadSpec {
        burst: Some(burst),
        ..cfg
            .spec()
            .with_threads(6)
            .with_write_fraction(0.5)
            .with_duration(cfg.duration * 4)
    };
    let xpoint = xlsm_device::profiles::optane_900p();
    let original = run_one(xpoint.clone(), DbOptions::default, cfg, spec.clone());
    let two_stage = run_one(
        xpoint,
        || DbOptions {
            throttle_policy: ThrottlePolicy::TwoStage { min_rate: 16 << 20 },
            ..DbOptions::default()
        },
        cfg,
        spec,
    );
    let row = |t_s: String, original: f64, two_stage: f64| {
        vec![
            ("t_s", t_s),
            ("original", f(original, 1)),
            ("two_stage", f(two_stage, 1)),
        ]
    };
    let buckets = original.timeline.iter().zip(&two_stage.timeline);
    let rows = buckets
        .map(|(&(t_s, kops), &(_, two_stage_kops))| row(f(t_s, 1), kops, two_stage_kops))
        .chain([
            row(
                "min_bucket".into(),
                original.min_bucket_kops(),
                two_stage.min_bucket_kops(),
            ),
            row("total_kops".into(), original.kops(), two_stage.kops()),
        ]);
    let title = "Fig 18: throughput under periodic write bursts (kop/s per 100ms), 3D XPoint";
    vec![("fig18".into(), Table::from_named_rows(title, rows))]
}

// ---------------------------------------------------------------------------
// Fig. 19 — case study V-B: dynamic Level-0 management
// ---------------------------------------------------------------------------

/// Fig. 19: throughput vs read ratio, default vs dynamic Level-0
/// management on the 3D XPoint SSD. Paper: +13 % at 90 % reads, parity at
/// 5 % reads.
pub fn fig19(cfg: &BenchConfig) -> Vec<Figure> {
    // Both configurations share the paper's baseline geometry: Level-0 is
    // "initialized to throttle writes when the number of files reaches 24",
    // with a deliberately lazy compaction trigger so a standing population
    // of L0 files exists (the regime where Finding #2's tradeoff matters).
    let base_opts = || DbOptions {
        write_buffer_size: 1 << 20,
        target_file_size_base: 1 << 20,
        level0_file_num_compaction_trigger: 12,
        level0_slowdown_writes_trigger: 24,
        level0_stop_writes_trigger: 36,
        ..DbOptions::default()
    };
    // Dynamic: same aggregate L0 volume (12 × 1 MiB), but the manager trades
    // file count against file size with the mix: read-heavy → 3 × 4 MiB,
    // write-heavy → 12 × 1 MiB (the paper uses 24 small files; at our scale
    // a 0.5 MiB memtable collides with the two-memtable stop budget, so the
    // write-heavy geometry equals the baseline — matching the paper's
    // observed parity at low read ratios).
    let kops = |read: f64, dynamic: bool| {
        let spec = cfg.spec().with_threads(4).with_write_fraction(1.0 - read);
        let xpoint = xlsm_device::profiles::optane_900p();
        with_testbed(xpoint, base_opts, cfg, move |tb| {
            let mgr = dynamic.then(|| {
                DynamicL0Manager::start(
                    Arc::clone(&tb.db),
                    DynamicL0Config {
                        aggregate_l0_bytes: 12 << 20,
                        files_when_read_heavy: 3,
                        files_when_write_heavy: 12,
                        sample_interval_nanos: 100_000_000,
                        ..DynamicL0Config::default()
                    },
                )
            });
            let r = run_workload(&tb.db, &spec);
            mgr.map(DynamicL0Manager::stop);
            r.kops()
        })
    };
    let rows = [0.05, 0.25, 0.5, 0.75, 0.9].map(|read| {
        vec![
            ("read_pct", f(read * 100.0, 0)),
            ("default", f(kops(read, false), 1)),
            ("dynamic_l0", f(kops(read, true), 1)),
        ]
    });
    let title = "Fig 19: throughput (kop/s) vs read ratio, 3D XPoint";
    vec![("fig19".into(), Table::from_named_rows(title, rows))]
}

// ---------------------------------------------------------------------------
// Fig. 20 — case study V-C: NVM logging
// ---------------------------------------------------------------------------

/// Fig. 20: write latency with the WAL on the data SSD, on NVM, and
/// disabled, at 50 % inserts on the 3D XPoint SSD. Paper: p90 16 µs →
/// 13 µs with NVM logging (−18.8 %), still above WAL-disabled.
pub fn fig20(cfg: &BenchConfig) -> Vec<Figure> {
    // (label, WAL on, WAL on NVM). The NVM filesystem spawns its writeback
    // daemon, so the options are assembled inside the sim runtime.
    let placements = [
        ("wal-on-ssd", true, false),
        ("wal-on-nvm", true, true),
        ("wal-disabled", false, false),
    ];
    let rows = placements.map(|(placement, enable_wal, on_nvm)| {
        let r = run_one(
            xlsm_device::profiles::optane_900p(),
            move || DbOptions {
                enable_wal,
                wal_fs: on_nvm.then(nvm_wal::log_fs),
                ..DbOptions::default()
            },
            cfg,
            cfg.spec().with_threads(4).with_write_fraction(0.5),
        );
        (placement, r.write_latency)
    });
    let t = latency_table(
        "Fig 20: write latency (us) vs logging placement, 50% inserts, 3D XPoint",
        "placement",
        rows,
    );
    vec![("fig20".into(), t)]
}

// ---------------------------------------------------------------------------
// Stall accounting — Fig. 6/7-style attribution from the engine's registry
// ---------------------------------------------------------------------------

/// Stall attribution: regenerates the paper's Fig. 6/7-style stall analysis
/// from the engine's cross-layer accounting instead of client-side latency
/// sampling. One write-heavy run on the 3D XPoint SSD with a deliberately
/// tight Level-0 budget yields two tables:
/// * `stall_timeline` — the controller-transition event log: when each
///   delay/stop episode began, what triggered it (L0 pressure vs memtable
///   limit), how long the previous level lasted, and the adaptive rate;
/// * `stall_breakdown` — where every write nanosecond went (queue wait, WAL
///   append, pipeline wait, memtable insert, delay pacing, stop wait,
///   setup) plus the reconciliation coverage against observed end-to-end
///   latency.
pub fn fig_stalls(cfg: &BenchConfig) -> Vec<Figure> {
    let xpoint = xlsm_device::profiles::optane_900p();
    let opts = DbOptions {
        write_buffer_size: 1 << 20,
        target_file_size_base: 1 << 20,
        level0_file_num_compaction_trigger: 4,
        level0_slowdown_writes_trigger: 8,
        level0_stop_writes_trigger: 12,
        ..DbOptions::default()
    };
    let spec = cfg.spec().with_threads(4).with_write_fraction(0.9);
    let metrics = with_testbed(
        xpoint,
        move || opts,
        cfg,
        move |tb| {
            // Drain fill-phase transitions so the timeline covers the run.
            tb.db.stats().stall.drain_events();
            run_workload(&tb.db, &spec);
            tb.db.metrics()
        },
    );
    let timeline = stall_timeline_table(
        "Stall timeline: controller transitions, 90% writes, 3D XPoint",
        &metrics.stall_events,
    );
    let breakdown = stall_breakdown_table(
        "Stall breakdown: write-time attribution, 90% writes, 3D XPoint",
        &metrics.stall,
    );
    vec![
        ("stall_timeline".into(), timeline),
        ("stall_breakdown".into(), breakdown),
    ]
}

// ---------------------------------------------------------------------------
// Extension — key skew (beyond the paper)
// ---------------------------------------------------------------------------

/// Extension experiment: the paper's uniform `randomreadrandomwrite` versus
/// a YCSB-style zipfian (θ = 0.99) on each device, 1:1 mix. Skew
/// concentrates reads on cache-resident keys — the memory/storage gap
/// discussion of Section VI from another angle.
pub fn ext_skew(cfg: &BenchConfig) -> Vec<Figure> {
    let uniform = cfg.spec().with_threads(4).with_write_fraction(0.5);
    let zipfian = uniform
        .clone()
        .with_distribution(KeyDistribution::Zipfian(0.99));
    let results = on_every_device(cfg, &[uniform, zipfian]);
    let rows = devices().into_iter().zip(&results).map(|(profile, rs)| {
        vec![
            ("device", label(&profile).into()),
            ("uniform", f(rs[0].kops(), 1)),
            ("zipfian", f(rs[1].kops(), 1)),
            ("gain", format!("{:.2}x", rs[1].kops() / rs[0].kops())),
        ]
    });
    let title = "Extension: uniform vs zipfian(0.99) throughput (kop/s), 1:1 R/W, 4 threads";
    vec![("ext_skew".into(), Table::from_named_rows(title, rows))]
}

// ---------------------------------------------------------------------------
// Extension — end-to-end integrity cost (protection + scrubber)
// ---------------------------------------------------------------------------

/// Extension experiment: what end-to-end data integrity costs on the
/// fastest device, where software overhead is least hideable (the same
/// logic as Finding #3). Two tables:
/// * `integrity_protection` — write throughput and put latency vs
///   `protection_bytes_per_key` (0 = off, 1/8 = truncated/full per-KV
///   checksums carried batch → WAL → memtable → flush), 90 % writes;
/// * `integrity_scrub` — foreground throughput and read tail vs the
///   background scrubber's pacing budget, plus how many bytes each budget
///   actually re-verified and how many full passes it completed, 1:1 mix.
pub fn fig_integrity(cfg: &BenchConfig) -> Vec<Figure> {
    let xpoint = xlsm_device::profiles::optane_900p();
    let prot = [0usize, 1, 8].map(|width| {
        let opts = DbOptions {
            protection_bytes_per_key: width,
            ..DbOptions::default()
        };
        let r = run_one(
            xpoint.clone(),
            move || opts,
            cfg,
            cfg.spec().with_threads(4).with_write_fraction(0.9),
        );
        vec![
            ("protection_bytes", format!("{width}")),
            ("kops", f(r.kops(), 1)),
            ("put_p50_us", f(us(r.write_latency.p50_ns), 1)),
            ("put_p90_us", f(us(r.write_latency.p90_ns), 1)),
            ("put_p99_us", f(us(r.write_latency.p99_ns), 1)),
        ]
    });
    let scrub = [0u64, 16, 64].map(|rate_mib| {
        let opts = DbOptions {
            protection_bytes_per_key: 8,
            scrub_rate_bytes_per_sec: rate_mib << 20,
            ..DbOptions::default()
        };
        let spec = cfg.spec().with_threads(4).with_write_fraction(0.5);
        let (r, verified, passes) = with_testbed(
            xpoint.clone(),
            move || opts,
            cfg,
            move |tb| {
                let r = run_workload(&tb.db, &spec);
                (
                    r,
                    tb.db.stats().ticker(Ticker::ScrubBytesVerified),
                    tb.db.metrics().scrub_pass.count,
                )
            },
        );
        vec![
            ("scrub_mib_s", format!("{rate_mib}")),
            ("kops", f(r.kops(), 1)),
            ("get_p99_us", f(us(r.read_latency.p99_ns), 1)),
            ("verified_mib", f(verified as f64 / (1 << 20) as f64, 1)),
            ("passes", format!("{passes}")),
        ]
    });
    let prot_title = "Integrity: per-KV protection write overhead, 90% writes, 3D XPoint";
    let scrub_title = "Integrity: background scrubber pacing, 1:1 R/W, 3D XPoint";
    vec![
        (
            "integrity_protection".into(),
            Table::from_named_rows(prot_title, prot),
        ),
        (
            "integrity_scrub".into(),
            Table::from_named_rows(scrub_title, scrub),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stall figures must carry a non-empty timeline series (transitions
    /// drained from the engine's event log) and a breakdown that reconciles.
    #[test]
    fn stall_figures_emit_series() {
        let cfg = BenchConfig {
            key_count: 2 << 10,
            value_size: 512,
            duration: Duration::from_millis(300),
            seed: 0xF16,
        };
        let figs = fig_stalls(&cfg);
        assert_eq!(figs.len(), 2);
        let (name, timeline) = &figs[0];
        assert_eq!(name, "stall_timeline");
        assert!(
            !timeline.rows.is_empty(),
            "tight L0 budget at 90% writes must produce controller transitions"
        );
        assert!(timeline.rows.iter().any(|r| r[1] != "clear"));
        let (name, breakdown) = &figs[1];
        assert_eq!(name, "stall_breakdown");
        let ops_row = breakdown.rows.iter().find(|r| r[0] == "ops").unwrap();
        assert_ne!(ops_row[1], "0", "breakdown must cover recorded writes");
    }
}
