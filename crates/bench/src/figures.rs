//! One function per paper figure (or per shared sweep).

use crate::common::{
    devices, label, run_one, run_one_with_opts, run_sequence, us, with_testbed, BenchConfig,
};
use std::sync::Arc;
use std::time::Duration;
use xlsm_core::casestudy::dynamic_l0::{DynamicL0Config, DynamicL0Manager};
use xlsm_core::casestudy::nvm_wal::{apply_wal_placement, WalPlacement};
use xlsm_core::report::{f, stall_breakdown_table, stall_timeline_table, Table};
use xlsm_engine::{DbOptions, ThrottlePolicy, Ticker};
use xlsm_sim::Runtime;
use xlsm_workload::{
    raw_mixed_kops, run_workload, BurstSpec, KeyDistribution, Sampler, WorkloadSpec,
};

/// A named table destined for `results/<name>.tsv`.
pub type Figure = (String, Table);

// ---------------------------------------------------------------------------
// Fig. 1 — motivating example: raw vs KV speedup
// ---------------------------------------------------------------------------

/// Fig. 1: raw 4-KiB random 1:1 throughput vs RocksDB-level throughput on
/// each device (8 threads). Paper: raw 26 → 408 kop/s (15.7×) but KV only
/// 13 → 23 kop/s (+76.9 %).
pub fn fig01(cfg: &BenchConfig) -> Vec<Figure> {
    let mut table = Table::new(
        "Fig 1: raw device vs KV throughput (4KiB random, 1:1 R/W, 8 threads)",
        &["device", "raw_kops", "kv_kops"],
    );
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
            DbOptions::default(),
            &kv_cfg,
            kv_cfg.spec().with_threads(8).with_write_fraction(0.5),
        );
        table.row(vec![
            label(&profile).into(),
            f(raw.kops, 1),
            f(kv.kops(), 1),
        ]);
        raw_vals.push(raw.kops);
        kv_vals.push(kv.kops());
    }
    table.row(vec![
        "xpoint/sata".into(),
        f(raw_vals[2] / raw_vals[0], 2),
        f(kv_vals[2] / kv_vals[0], 2),
    ]);
    vec![("fig01".into(), table)]
}

// ---------------------------------------------------------------------------
// Fig. 3 — throughput vs insertion ratio (the throttling finding)
// ---------------------------------------------------------------------------

/// Fig. 3: throughput vs insertion ratio, 4 threads. Paper: flash SSDs rise
/// (32 → 41.3 kop/s on PCIe) while 3D XPoint falls (115 → 45 kop/s) because
/// the throttling mechanism engages.
pub fn fig03(cfg: &BenchConfig) -> Vec<Figure> {
    let ratios = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0];
    let mut table = Table::new(
        "Fig 3: throughput (kop/s) vs insertion ratio, 4 threads",
        &["insert_pct", "sata-flash", "pcie-flash", "3d-xpoint"],
    );
    let mut columns = Vec::new();
    for profile in devices() {
        let specs: Vec<WorkloadSpec> = ratios
            .iter()
            .map(|&r| cfg.spec().with_threads(4).with_write_fraction(r))
            .collect();
        let results = run_sequence(profile, DbOptions::default(), cfg, specs);
        columns.push(results.iter().map(|r| r.kops()).collect::<Vec<_>>());
    }
    for (i, &r) in ratios.iter().enumerate() {
        table.row(vec![
            f(r * 100.0, 0),
            f(columns[0][i], 1),
            f(columns[1][i], 1),
            f(columns[2][i], 1),
        ]);
    }
    vec![("fig03".into(), table)]
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
    let timeline_duration = cfg.duration * 2;
    let mut results_5 = Vec::new();
    let mut results_90 = Vec::new();
    for profile in devices() {
        let specs = vec![
            cfg.spec()
                .with_threads(4)
                .with_write_fraction(0.05)
                .with_duration(timeline_duration),
            cfg.spec()
                .with_threads(4)
                .with_write_fraction(0.9)
                .with_duration(timeline_duration),
        ];
        let mut rs = run_sequence(profile, DbOptions::default(), cfg, specs);
        results_90.push(rs.pop().unwrap());
        results_5.push(rs.pop().unwrap());
    }
    let mut out = Vec::new();
    for (name, title, results) in [
        (
            "fig04",
            "Fig 4: throughput timeline, 5% writes (kop/s per 100ms)",
            &results_5,
        ),
        (
            "fig05",
            "Fig 5: throughput timeline, 90% writes (kop/s per 100ms)",
            &results_90,
        ),
    ] {
        let mut t = Table::new(title, &["t_s", "sata-flash", "pcie-flash", "3d-xpoint"]);
        for i in 0..results[0].timeline.len() {
            t.row(vec![
                f(results[0].timeline[i].0, 1),
                f(results[0].timeline[i].1, 1),
                f(results[1].timeline[i].1, 1),
                f(results[2].timeline[i].1, 1),
            ]);
        }
        t.row(vec![
            "min_bucket".into(),
            f(results[0].min_bucket_kops(), 1),
            f(results[1].min_bucket_kops(), 1),
            f(results[2].min_bucket_kops(), 1),
        ]);
        out.push((name.to_owned(), t));
    }
    for (name, title, pick) in [
        ("fig06", "Fig 6: read latency at 90% writes (us)", true),
        ("fig07", "Fig 7: write latency at 90% writes (us)", false),
    ] {
        let mut t = Table::new(title, &["device", "p50_us", "p90_us", "p99_us"]);
        for (i, profile) in devices().iter().enumerate() {
            let s = if pick {
                results_90[i].read_latency
            } else {
                results_90[i].write_latency
            };
            t.row(vec![
                label(profile).into(),
                f(us(s.p50_ns), 1),
                f(us(s.p90_ns), 1),
                f(us(s.p99_ns), 1),
            ]);
        }
        out.push((name.to_owned(), t));
    }
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
    let mut t8 = Table::new(
        "Fig 8: avg num of Level-0 files vs file size (1:1, 4 threads)",
        &["file_size_mb", dev_labels[0], dev_labels[1], dev_labels[2]],
    );
    for ((d0, d1), d2) in per_device[0].iter().zip(&per_device[1]).zip(&per_device[2]) {
        t8.row(vec![
            f(d0.size_mb, 1),
            f(d0.avg_l0, 2),
            f(d1.avg_l0, 2),
            f(d2.avg_l0, 2),
        ]);
    }
    out.push(("fig08".into(), t8));
    // Figs 9, 10, 12: per device rows keyed by geometry.
    for (name, title) in [
        ("fig09", "Fig 9: throughput (kop/s) vs num of L0 files"),
        ("fig10", "Fig 10: read p90 (us) vs num of L0 files"),
        ("fig12", "Fig 12: write p90 (us) vs SST file size (MB)"),
    ] {
        let mut t = Table::new(title, &["device", "file_size_mb", "avg_l0_files", "value"]);
        for (d, points) in per_device.iter().enumerate() {
            for p in points {
                let v = match name {
                    "fig09" => p.kops,
                    "fig10" => p.read_p90_us,
                    _ => p.write_p90_us,
                };
                t.row(vec![
                    dev_labels[d].into(),
                    f(p.size_mb, 1),
                    f(p.avg_l0, 2),
                    f(v, 1),
                ]);
            }
        }
        out.push((name.to_owned(), t));
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
    let mut all = Vec::new();
    for profile in devices() {
        let specs: Vec<WorkloadSpec> = threads
            .iter()
            .map(|&t| cfg.spec().with_threads(t).with_write_fraction(0.5))
            .collect();
        all.push(run_sequence(profile, DbOptions::default(), cfg, specs));
    }
    let dev_labels: Vec<&str> = devices().iter().map(label).collect();
    let mut out = Vec::new();
    let mut t13 = Table::new(
        "Fig 13: throughput (kop/s) vs parallelism (1:1 R/W)",
        &["threads", dev_labels[0], dev_labels[1], dev_labels[2]],
    );
    for (i, &t) in threads.iter().enumerate() {
        t13.row(vec![
            t.to_string(),
            f(all[0][i].kops(), 1),
            f(all[1][i].kops(), 1),
            f(all[2][i].kops(), 1),
        ]);
    }
    out.push(("fig13".into(), t13));
    let last = threads.len() - 1;
    for (name, title, read_side) in [
        ("fig14", "Fig 14: read latency at 32 threads (us)", true),
        ("fig15", "Fig 15: write latency at 32 threads (us)", false),
    ] {
        let mut t = Table::new(title, &["device", "p50_us", "p90_us", "p99_us"]);
        for (d, label) in dev_labels.iter().enumerate() {
            let s = if read_side {
                all[d][last].read_latency
            } else {
                all[d][last].write_latency
            };
            t.row(vec![
                (*label).into(),
                f(us(s.p50_ns), 1),
                f(us(s.p90_ns), 1),
                f(us(s.p99_ns), 1),
            ]);
        }
        out.push((name.to_owned(), t));
    }
    let mut t16 = Table::new(
        "Fig 16: avg waiting writer threads at 32 threads",
        &["device", "avg_waiting_writers"],
    );
    for (d, label) in dev_labels.iter().enumerate() {
        t16.row(vec![
            (*label).into(),
            f(all[d][last].avg_waiting_writers, 2),
        ]);
    }
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
    let mut t = Table::new(
        "Fig 17: write latency (us) vs WAL, 1:9 R/W",
        &["device", "wal_p50", "wal_p90", "nowal_p50", "nowal_p90"],
    );
    for profile in devices() {
        let spec = cfg.spec().with_threads(4).with_write_fraction(0.9);
        let with_wal = run_one(profile.clone(), DbOptions::default(), cfg, spec.clone());
        let without = run_one(
            profile.clone(),
            DbOptions {
                enable_wal: false,
                ..DbOptions::default()
            },
            cfg,
            spec,
        );
        t.row(vec![
            label(&profile).into(),
            f(us(with_wal.write_latency.p50_ns), 1),
            f(us(with_wal.write_latency.p90_ns), 1),
            f(us(without.write_latency.p50_ns), 1),
            f(us(without.write_latency.p90_ns), 1),
        ]);
    }
    vec![("fig17".into(), t)]
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
    let original = run_one(xpoint.clone(), DbOptions::default(), cfg, spec.clone());
    let two_stage = run_one(
        xpoint,
        DbOptions {
            throttle_policy: ThrottlePolicy::TwoStage { min_rate: 16 << 20 },
            ..DbOptions::default()
        },
        cfg,
        spec,
    );
    let mut t = Table::new(
        "Fig 18: throughput under periodic write bursts (kop/s per 100ms), 3D XPoint",
        &["t_s", "original", "two_stage"],
    );
    for i in 0..original.timeline.len() {
        t.row(vec![
            f(original.timeline[i].0, 1),
            f(original.timeline[i].1, 1),
            f(two_stage.timeline[i].1, 1),
        ]);
    }
    t.row(vec![
        "min_bucket".into(),
        f(original.min_bucket_kops(), 1),
        f(two_stage.min_bucket_kops(), 1),
    ]);
    t.row(vec![
        "total_kops".into(),
        f(original.kops(), 1),
        f(two_stage.kops(), 1),
    ]);
    vec![("fig18".into(), t)]
}

// ---------------------------------------------------------------------------
// Fig. 19 — case study V-B: dynamic Level-0 management
// ---------------------------------------------------------------------------

/// Fig. 19: throughput vs read ratio, default vs dynamic Level-0
/// management on the 3D XPoint SSD. Paper: +13 % at 90 % reads, parity at
/// 5 % reads.
pub fn fig19(cfg: &BenchConfig) -> Vec<Figure> {
    let read_ratios = [0.05, 0.25, 0.5, 0.75, 0.9];
    let xpoint = xlsm_device::profiles::optane_900p();
    let mut t = Table::new(
        "Fig 19: throughput (kop/s) vs read ratio, 3D XPoint",
        &["read_pct", "default", "dynamic_l0"],
    );
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
    let specs: Vec<WorkloadSpec> = read_ratios
        .iter()
        .map(|&r| cfg.spec().with_threads(4).with_write_fraction(1.0 - r))
        .collect();
    let base = run_sequence(xpoint.clone(), base_opts(), cfg, specs.clone());
    // Dynamic: same aggregate L0 volume (12 × 1 MiB), but the manager trades
    // file count against file size with the mix: read-heavy → 3 × 4 MiB,
    // write-heavy → 12 × 1 MiB (the paper uses 24 small files; at our scale
    // a 0.5 MiB memtable collides with the two-memtable stop budget, so the
    // write-heavy geometry equals the baseline — matching the paper's
    // observed parity at low read ratios).
    let mut dynamic = Vec::new();
    for spec in specs {
        let r = with_testbed(xpoint.clone(), base_opts, cfg, move |tb| {
            let mgr = DynamicL0Manager::start(
                Arc::clone(&tb.db),
                DynamicL0Config {
                    aggregate_l0_bytes: 12 << 20,
                    files_when_read_heavy: 3,
                    files_when_write_heavy: 12,
                    sample_interval_nanos: 100_000_000,
                    ..DynamicL0Config::default()
                },
            );
            let r = run_workload(&tb.db, &spec);
            let _ = mgr.stop();
            r
        });
        dynamic.push(r);
    }
    for (i, &r) in read_ratios.iter().enumerate() {
        t.row(vec![
            f(r * 100.0, 0),
            f(base[i].kops(), 1),
            f(dynamic[i].kops(), 1),
        ]);
    }
    vec![("fig19".into(), t)]
}

// ---------------------------------------------------------------------------
// Fig. 20 — case study V-C: NVM logging
// ---------------------------------------------------------------------------

/// Fig. 20: write latency with the WAL on the data SSD, on NVM, and
/// disabled, at 50 % inserts on the 3D XPoint SSD. Paper: p90 16 µs →
/// 13 µs with NVM logging (−18.8 %), still above WAL-disabled.
pub fn fig20(cfg: &BenchConfig) -> Vec<Figure> {
    let xpoint = xlsm_device::profiles::optane_900p();
    let mut t = Table::new(
        "Fig 20: write latency (us) vs logging placement, 50% inserts, 3D XPoint",
        &["placement", "p50_us", "p90_us", "p99_us"],
    );
    for placement in [
        WalPlacement::SameDevice,
        WalPlacement::Nvm,
        WalPlacement::Disabled,
    ] {
        // The NVM filesystem spawns its writeback daemon, so the options
        // must be assembled inside the sim runtime.
        let r = run_one_with_opts(
            xpoint.clone(),
            move || apply_wal_placement(DbOptions::default(), placement).0,
            cfg,
            cfg.spec().with_threads(4).with_write_fraction(0.5),
        );
        t.row(vec![
            placement.label().into(),
            f(us(r.write_latency.p50_ns), 1),
            f(us(r.write_latency.p90_ns), 1),
            f(us(r.write_latency.p99_ns), 1),
        ]);
    }
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
/// concentrates reads on cache-resident keys, so the *slower* the device,
/// the larger the relative gain — the memory/storage gap discussion of
/// Section VI from another angle.
pub fn ext_skew(cfg: &BenchConfig) -> Vec<Figure> {
    let mut t = Table::new(
        "Extension: uniform vs zipfian(0.99) throughput (kop/s), 1:1 R/W, 4 threads",
        &["device", "uniform", "zipfian", "gain"],
    );
    for profile in devices() {
        let specs = vec![
            cfg.spec().with_threads(4).with_write_fraction(0.5),
            cfg.spec()
                .with_threads(4)
                .with_write_fraction(0.5)
                .with_distribution(KeyDistribution::Zipfian(0.99)),
        ];
        let rs = run_sequence(profile.clone(), DbOptions::default(), cfg, specs);
        t.row(vec![
            label(&profile).into(),
            f(rs[0].kops(), 1),
            f(rs[1].kops(), 1),
            format!("{:.2}x", rs[1].kops() / rs[0].kops()),
        ]);
    }
    vec![("ext_skew".into(), t)]
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
    let mut prot = Table::new(
        "Integrity: per-KV protection write overhead, 90% writes, 3D XPoint",
        &[
            "protection_bytes",
            "kops",
            "put_p50_us",
            "put_p90_us",
            "put_p99_us",
        ],
    );
    for width in [0usize, 1, 8] {
        let opts = DbOptions {
            protection_bytes_per_key: width,
            ..DbOptions::default()
        };
        let r = run_one(
            xpoint.clone(),
            opts,
            cfg,
            cfg.spec().with_threads(4).with_write_fraction(0.9),
        );
        prot.row(vec![
            format!("{width}"),
            f(r.kops(), 1),
            f(us(r.write_latency.p50_ns), 1),
            f(us(r.write_latency.p90_ns), 1),
            f(us(r.write_latency.p99_ns), 1),
        ]);
    }
    let mut scrub = Table::new(
        "Integrity: background scrubber pacing, 1:1 R/W, 3D XPoint",
        &[
            "scrub_mib_s",
            "kops",
            "get_p99_us",
            "verified_mib",
            "passes",
        ],
    );
    for rate_mib in [0u64, 16, 64] {
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
        scrub.row(vec![
            format!("{rate_mib}"),
            f(r.kops(), 1),
            f(us(r.read_latency.p99_ns), 1),
            f(verified as f64 / (1 << 20) as f64, 1),
            format!("{passes}"),
        ]);
    }
    vec![
        ("integrity_protection".into(), prot),
        ("integrity_scrub".into(), scrub),
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
