//! The one experiment CLI: every figure and probe of the registry by name,
//! plus a diagnostic counter dump.
//!
//! ```text
//! cargo run -p xlsm-bench --release -- [--quick] <name>... | all
//! cargo run -p xlsm-bench --release -- list
//! cargo run -p xlsm-bench --release -- [--quick] probe <device> <write_pct> <threads> [secs]
//! ```
//!
//! Every experiment prints its tables and writes each to
//! `results/<table>.tsv`, relative to the working directory; at `--quick`
//! they go under `results/quick/` instead, so a quick file never lands under
//! a full-size name. No table carries timestamps or wall-clock data: two
//! runs with the same seed must produce byte-identical files
//! (`scripts/check.sh` compares a fresh quick run with the committed
//! `results/quick/`). `list` prints the registry, one entry per line, the
//! names that select it separated by spaces. `probe` runs one workload
//! configuration and dumps engine, filesystem and device counters — a
//! calibration/debugging aid, not a paper figure — and where the host clock
//! went, per charge class, in the fill and in the window.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xlsm_bench::common::{with_testbed_on, BenchConfig};
use xlsm_bench::{names, select, EXPERIMENTS};
use xlsm_device::{profiles, Device};
use xlsm_engine::{DbOptions, Ticker};
use xlsm_sim::{runtime::RuntimeStats, Class, HostTimes, Runtime};
use xlsm_workload::run_workload;

fn usage() -> ! {
    eprintln!(
        "usage: xlsm-bench [--quick] <name>... | all\n       \
         xlsm-bench list\n       \
         xlsm-bench [--quick] probe <device> <write_pct> <threads> [secs]\n\
         names: {}",
        names().collect::<Vec<_>>().join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let cfg = if quick {
        BenchConfig::quick()
    } else {
        BenchConfig::default()
    };
    match args.first().map(String::as_str) {
        None => usage(),
        Some("probe") => return dump_counters(&args[1..], cfg),
        Some("list") => {
            for (names, _) in EXPERIMENTS {
                println!("{}", names.join(" "));
            }
            return;
        }
        Some(_) => {}
    }
    let selected = select(&args).unwrap_or_else(|unknown| {
        eprintln!("xlsm-bench: unknown experiment {unknown:?}");
        usage()
    });
    eprintln!(
        "[xlsm-bench] config: {} keys x {} B, {:?} per point, seed {:#x}{}",
        cfg.key_count,
        cfg.value_size,
        cfg.duration,
        cfg.seed,
        if quick { " (quick)" } else { "" }
    );

    let table_dir = if quick { "results/quick" } else { "results" };
    let t0 = std::time::Instant::now();
    let mut failed = false;
    // Each file is written as soon as its experiment is done, so partial
    // results survive an interruption.
    let mut written = |path: &Path, result: std::io::Result<()>| match result {
        Ok(()) => eprintln!(
            "[xlsm-bench] wrote {} ({:.0}s elapsed)",
            path.display(),
            t0.elapsed().as_secs_f64()
        ),
        Err(e) => {
            eprintln!("[xlsm-bench] failed to write {}: {e}", path.display());
            failed = true;
        }
    };
    for (_, run) in selected {
        for (name, table) in run(&cfg) {
            println!("{table}");
            let path = Path::new(table_dir).join(format!("{name}.tsv"));
            written(&path, table.write_tsv(&path));
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Argument `i`, `default` when absent; one that does not parse is a usage
/// error, not the default.
fn number<T: std::str::FromStr>(args: &[String], i: usize, name: &str, default: T) -> T {
    let Some(arg) = args.get(i) else {
        return default;
    };
    arg.parse().unwrap_or_else(|_| {
        eprintln!("error: {name} must be a number, got {arg:?}");
        usage()
    })
}

fn dump_counters(args: &[String], cfg: BenchConfig) {
    let device = args.first().map(String::as_str).unwrap_or("3d-xpoint");
    let write_pct: f64 = number(args, 1, "write_pct", 50.0);
    let threads: usize = number(args, 2, "threads", 4);
    let secs: u64 = number(args, 3, "secs", 3);
    if !(0.0..=100.0).contains(&write_pct) {
        eprintln!("error: write_pct must be in 0..=100, got {write_pct}");
        std::process::exit(2);
    }
    if threads == 0 || secs == 0 {
        eprintln!("error: threads and secs must be positive");
        std::process::exit(2);
    }
    let profile = match device {
        "sata-flash" | "sata" => profiles::intel_530_sata(),
        "pcie-flash" | "pcie" => profiles::intel_750_pcie(),
        "3d-xpoint" | "xpoint" | "optane" => profiles::optane_900p(),
        other => {
            eprintln!("error: unknown device {other:?} (use sata | pcie | xpoint)");
            std::process::exit(2);
        }
    };
    let cfg = BenchConfig {
        duration: std::time::Duration::from_secs(secs),
        ..cfg
    };
    let spec = cfg
        .spec()
        .with_threads(threads)
        .with_write_fraction(write_pct / 100.0);
    let device = device.to_owned();

    let started = Instant::now();
    let rt = Runtime::new().attribute_host_time();
    with_testbed_on(rt, profile, DbOptions::default, &cfg, move |tb| {
        let fill_done = xlsm_sim::now_nanos();
        let (fill_host, fill_wall) = (host_times(), started.elapsed());
        let fill_sched = xlsm_sim::runtime::stats();
        let db_probe = Arc::clone(&tb.db);
        let l0_sampler =
            xlsm_workload::Sampler::start("l0", 20_000_000, move || db_probe.num_l0_files() as f64);
        let db_probe2 = Arc::clone(&tb.db);
        let rate_sampler = xlsm_workload::Sampler::start("rate", 20_000_000, move || {
            use xlsm_engine::controller::StallLevel;
            match db_probe2.controller_snapshot().level {
                StallLevel::Clear => 0.0,
                StallLevel::GentleDelay { .. } => 1.0,
                StallLevel::Delay => 2.0,
                StallLevel::Stop => 3.0,
            }
        });
        let window_started = Instant::now();
        let (window_host, window_sched) = (host_times(), xlsm_sim::runtime::stats());
        let r = run_workload(&tb.db, &spec);
        let window_host = host_times() - window_host;
        let window_wall = window_started.elapsed();
        let window_sched = since(xlsm_sim::runtime::stats(), window_sched);
        let l0s = l0_sampler.finish();
        let levels = rate_sampler.finish();
        let max_l0 = l0s.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
        let avg_l0 = l0s.iter().map(|&(_, v)| v).sum::<f64>() / l0s.len() as f64;
        let frac =
            |x: f64| levels.iter().filter(|&&(_, v)| v == x).count() as f64 / levels.len() as f64;
        println!(
            "L0: avg={avg_l0:.1} max={max_l0:.0}; stall-level time: clear={:.0}% gentle={:.0}% delay={:.0}% stop={:.0}%",
            frac(0.0) * 100.0, frac(1.0) * 100.0, frac(2.0) * 100.0, frac(3.0) * 100.0
        );
        let stats = tb.db.stats();
        println!("=== run: {device} {write_pct}% writes, {threads} threads, {secs}s ===");
        println!("fill wall-clock (virtual): {:.2}s", fill_done as f64 / 1e9);
        println!(
            "kops={:.1} reads={} writes={} read_p50={:.0}us read_p90={:.0}us write_p50={:.0}us write_p90={:.0}us",
            r.kops(), r.reads, r.writes,
            r.read_latency.p50_ns as f64 / 1e3,
            r.read_latency.p90_ns as f64 / 1e3,
            r.write_latency.p50_ns as f64 / 1e3,
            r.write_latency.p90_ns as f64 / 1e3,
        );
        println!(
            "min_bucket={:.1} kops, avg_waiting_writers={:.2}",
            r.min_bucket_kops(),
            r.avg_waiting_writers
        );
        let shape = tb.db.shape();
        println!(
            "shape: files/level={:?} imm={} mutable={}KB",
            shape.files_per_level,
            shape.immutables,
            shape.mutable_bytes / 1024
        );
        println!("controller: {:?}", tb.db.controller_snapshot());
        for t in [
            Ticker::Gets,
            Ticker::Puts,
            Ticker::GetHitMemtable,
            Ticker::GetHitImmutable,
            Ticker::GetHitL0,
            Ticker::GetHitLn,
            Ticker::GetMiss,
            Ticker::L0FilesSearched,
            Ticker::BlockCacheHit,
            Ticker::BlockCacheMiss,
            Ticker::FlushCount,
            Ticker::FlushBytes,
            Ticker::CompactionCount,
            Ticker::CompactReadBytes,
            Ticker::CompactWriteBytes,
            Ticker::TrivialMoves,
            Ticker::StallDelayedWrites,
            Ticker::StallStoppedWrites,
            Ticker::StallMicros,
            Ticker::WalBytes,
            Ticker::WriteGroupsLed,
            Ticker::WritesJoinedGroup,
        ] {
            println!("  {:?} = {}", t, stats.ticker(t));
        }
        println!(
            "flush_dur p90 = {}us, compaction_dur p90 = {}us (n={})",
            stats.flush_duration.quantile(0.9) / 1000,
            stats.compaction_duration.quantile(0.9) / 1000,
            stats.compaction_duration.count()
        );
        let fstats = tb.fs.stats();
        println!("fs: {fstats:?}");
        let d = tb.device.stats();
        println!(
            "device: reads={} writes={} pages_r={} pages_w={} mean_read={}us mean_write={}us stall_ms={} amp={:.2}",
            d.reads, d.writes, d.pages_read, d.pages_written,
            d.mean_read_ns() / 1000, d.mean_write_ns() / 1000,
            d.write_stall_ns / 1_000_000, d.write_amp
        );
        let fill_ops = cfg.key_count;
        print_host_rows(
            "fill",
            fill_host,
            fill_wall.as_nanos(),
            fill_sched,
            fill_ops,
        );
        let window_ops = r.reads + r.writes;
        print_host_rows(
            "window",
            window_host,
            window_wall.as_nanos(),
            window_sched,
            window_ops,
        );
    });
}

fn host_times() -> HostTimes {
    xlsm_sim::host_times().expect("the probe's runtime attributes host time")
}

/// The scheduler counters `now` gained since `then`.
fn since(now: RuntimeStats, then: RuntimeStats) -> RuntimeStats {
    RuntimeStats {
        switches: now.switches - then.switches,
        timer_events: now.timer_events - then.timer_events,
        now: now.now - then.now,
    }
}

/// Where a phase's host time went: one row per class that ran or was
/// charged (host ms, virtual ms, host ns per virtual µs), then the
/// scheduler, switch and uncharged rows, with how much of the phase's wall
/// time the rows cover, sim events (switches and timer firings) per host
/// second and switches per op.
fn print_host_rows(phase: &str, t: HostTimes, wall_ns: u128, sched: RuntimeStats, ops: u64) {
    let wall_s = wall_ns as f64 / 1e9;
    println!(
        "host clock, {phase}: {:.1} ms, rows {:.1} % of it; {:.2} M sim events/s; {:.2} switches/op",
        wall_s * 1e3,
        t.total() as f64 * 100.0 / wall_ns as f64,
        (sched.switches + sched.timer_events) as f64 / wall_s / 1e6,
        sched.switches as f64 / ops.max(1) as f64,
    );
    println!(
        "  {:<18} {:>10} {:>10} {:>16}",
        "row", "host_ms", "virt_ms", "host_ns/virt_us"
    );
    let ms = |ns: u64| ns as f64 / 1e6;
    for class in Class::ALL {
        let (host, virt) = (t.classes.get(class), t.virt.get(class));
        if host == 0 && virt == 0 {
            continue;
        }
        let per_us = if virt > 0 {
            format!("{:.1}", host as f64 * 1e3 / virt as f64)
        } else {
            "-".to_owned()
        };
        println!(
            "  {:<18} {:>10.3} {:>10.3} {per_us:>16}",
            format!("{class:?}"),
            ms(host),
            ms(virt)
        );
    }
    for (row, host) in [
        ("scheduler", t.scheduler),
        ("switch", t.switch),
        ("uncharged", t.uncharged),
    ] {
        println!("  {row:<18} {:>10.3} {:>10} {:>16}", ms(host), "-", "-");
    }
}
