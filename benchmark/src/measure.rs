//! Snapshots of every public counter the layers already keep, taken at the
//! window's boundaries, and the per-layer metrics that are their deltas.
//! Nothing here reaches inside a crate.

use xlsm_core::experiment::Testbed;
use xlsm_device::{Device, DeviceSnapshot, PAGE_SIZE};
use xlsm_engine::controller::StallLevel;
use xlsm_engine::{episode_durations, Metrics, StallEvent, Ticker};
use xlsm_sim::runtime::RuntimeStats;
use xlsm_simfs::FsStats;

use crate::json::{obj, Json};
use crate::loadgen::Mark;
use crate::stats::ratio;

/// `(name, value)` rows of one run, in the order produced.
pub type Rows = Vec<(&'static str, f64)>;

/// Process CPU time from `/proc/self/stat`, in clock ticks (100 per second
/// on Linux), and the memory high-water mark.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostProc {
    pub utime_ticks: u64,
    pub stime_ticks: u64,
}

const TICKS_PER_S: f64 = 100.0;

impl HostProc {
    pub fn read() -> HostProc {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name, which may hold spaces.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let mut fields = rest.split_whitespace().skip(11);
        let mut next = || fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
        HostProc {
            utime_ticks: next(),
            stime_ticks: next(),
        }
    }
}

/// `VmHWM` of this process in MiB, or 0 where `/proc` does not say.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Every layer's counters at one instant.
#[derive(Clone, Debug)]
pub struct Snap {
    pub virt_ns: u64,
    pub host_ns: u64,
    pub proc: HostProc,
    pub sim: RuntimeStats,
    pub dev: DeviceSnapshot,
    pub fs: FsStats,
    /// Engine tickers, histogram summaries, stall totals, gauges. Taking it
    /// drains the controller's event log into `engine.stall_events`.
    pub engine: Metrics,
    pub block_cache: (u64, u64),
    pub table_cache: (u64, u64),
    pub open_table_readers: u64,
}

impl Snap {
    /// Must run on a sim thread.
    pub fn take(tb: &Testbed, host_ns: u64) -> Snap {
        Snap {
            virt_ns: xlsm_sim::now_nanos(),
            host_ns,
            proc: HostProc::read(),
            sim: xlsm_sim::runtime::stats(),
            dev: tb.device.stats(),
            fs: tb.fs.stats(),
            engine: tb.db.metrics(),
            block_cache: tb.db.block_cache_counters(),
            table_cache: tb.db.table_cache_counters(),
            open_table_readers: tb.db.open_table_readers() as u64,
        }
    }

    pub fn ticker(&self, t: Ticker) -> u64 {
        self.engine.tickers.get(t)
    }

    /// Bytes the engine wrote on its own account: WAL + flush + compaction.
    pub fn app_bytes(&self) -> u64 {
        self.ticker(Ticker::WalBytes)
            + self.ticker(Ticker::FlushBytes)
            + self.ticker(Ticker::CompactWriteBytes)
    }
}

/// Pages that reached the media between two device snapshots: what the
/// host wrote plus what the FTL moved to make room.
pub fn media_pages(a: &DeviceSnapshot, b: &DeviceSnapshot) -> u64 {
    (b.pages_written - a.pages_written) + (b.gc_moved_pages - a.gc_moved_pages)
}

/// Bytes in use on the filesystem.
pub fn fs_used_bytes(fs: &FsStats) -> u64 {
    (fs.capacity_pages - fs.free_space_pages) * PAGE_SIZE as u64
}

/// What the window did, as the load generator counted it.
#[derive(Clone, Debug, Default)]
pub struct WindowFacts {
    pub ops: u64,
    pub puts: u64,
    /// Key plus value bytes of one entry.
    pub entry_bytes: u64,
    /// Bytes of user data when every key is live.
    pub live_bytes: u64,
    /// L0 file count every 10 ms virt.
    pub l0_series: Vec<f64>,
    /// Controller transitions inside the window, in order.
    pub stall_events: Vec<StallEvent>,
    /// Progress marks, the window's start first.
    pub marks: Vec<Mark>,
}

/// Write amplification of the last third of the window over that of the
/// middle third, from the marks' `[user bytes, app bytes]` probes; 0 when
/// a third wrote nothing.
pub fn write_amp_drift(marks: &[Mark]) -> f64 {
    let n = marks.len().saturating_sub(1);
    if n < 3 {
        return 0.0;
    }
    let wa = |from: usize, to: usize| {
        let d = |i: usize| marks[to].probe[i] - marks[from].probe[i];
        ratio(d(1) as f64, d(0) as f64)
    };
    ratio(wa(2 * n / 3, n), wa(n / 3, 2 * n / 3))
}

/// The per-layer metrics that are deltas over the window `a..b`.
pub fn window_layers(a: &Snap, b: &Snap, w: &WindowFacts) -> Rows {
    let ops = w.ops as f64;
    let virt_ns = (b.virt_ns - a.virt_ns) as f64;
    let t = |t: Ticker| (b.ticker(t) - a.ticker(t)) as f64;
    let dev = b.dev.delta_since(&a.dev);
    let user_bytes = (w.puts * w.entry_bytes) as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    let ms = |ns: u64| ns as f64 / 1e6;

    let cpu = |f: fn(&HostProc) -> u64| (f(&b.proc) - f(&a.proc)) as f64 / TICKS_PER_S;
    let (utime_s, stime_s) = (cpu(|p| p.utime_ticks), cpu(|p| p.stime_ticks));

    let fs_hits = (b.fs.cache_hits - a.fs.cache_hits) as f64;
    let fs_misses = (b.fs.cache_misses - a.fs.cache_misses) as f64;
    let pair = |b: (u64, u64), a: (u64, u64)| ((b.0 - a.0) as f64, (b.1 - a.1) as f64);
    let (block_hits, block_misses) = pair(b.block_cache, a.block_cache);
    let (table_hits, table_misses) = pair(b.table_cache, a.table_cache);

    // The engine's window histograms and stall totals are reset at `a`, so
    // their values at `b` are the window's.
    let stall = &b.engine.stall;
    let share = |ns: u64| ratio(ns as f64, stall.total_write_ns as f64);
    let episodes = episode_durations(&w.stall_events, a.virt_ns, b.virt_ns);
    let compaction = &b.engine.compaction_duration;
    let gets = t(Ticker::Gets);
    let app_bytes = (b.app_bytes() - a.app_bytes()) as f64;
    let l0_mean = ratio(w.l0_series.iter().sum(), w.l0_series.len() as f64);
    let l0_max = w.l0_series.iter().copied().fold(0.0, f64::max);

    vec![
        (
            "sim.switches_per_op",
            (b.sim.switches - a.sim.switches) as f64 / ops,
        ),
        (
            "sim.timer_events_per_op",
            (b.sim.timer_events - a.sim.timer_events) as f64 / ops,
        ),
        ("sim.host_cpu_us_per_op", (utime_s + stime_s) * 1e6 / ops),
        ("sim.host_sys_frac", ratio(stime_s, utime_s + stime_s)),
        ("device.reads_per_op", dev.reads as f64 / ops),
        ("device.pages_read_per_op", dev.pages_read as f64 / ops),
        (
            "device.read_queue_us_mean",
            ratio(us(dev.read_queue_ns), dev.reads as f64),
        ),
        (
            "device.read_service_us_mean",
            ratio(us(dev.read_service_ns), dev.reads as f64),
        ),
        (
            "device.write_service_us_mean",
            ratio(us(dev.write_service_ns), dev.writes as f64),
        ),
        ("device.write_stall_ms", ms(dev.write_stall_ns)),
        ("device.sync_wait_ms", ms(dev.sync_wait_ns)),
        (
            "device.media_bytes_per_user_byte",
            ratio(
                (media_pages(&a.dev, &b.dev) * PAGE_SIZE as u64) as f64,
                user_bytes,
            ),
        ),
        (
            "device.write_amp",
            ratio(media_pages(&a.dev, &b.dev) as f64, dev.pages_written as f64),
        ),
        ("device.gc_moved_pages", dev.gc_moved_pages as f64),
        ("device.erases", dev.erases as f64),
        (
            "simfs.page_cache_hit_ratio",
            ratio(fs_hits, fs_hits + fs_misses),
        ),
        ("simfs.page_misses_per_op", fs_misses / ops),
        (
            "simfs.sync_writeback_pages",
            (b.fs.sync_writebacks - a.fs.sync_writebacks) as f64,
        ),
        (
            "simfs.background_writeback_pages",
            (b.fs.background_writebacks - a.fs.background_writebacks) as f64,
        ),
        (
            "simfs.throttle_writebacks",
            (b.fs.throttle_writebacks - a.fs.throttle_writebacks) as f64,
        ),
        (
            "simfs.dirty_evictions",
            (b.fs.dirty_evictions - a.fs.dirty_evictions) as f64,
        ),
        (
            "simfs.used_bytes_per_live_byte",
            fs_used_bytes(&b.fs) as f64 / w.live_bytes as f64,
        ),
        (
            "simfs.largest_free_extent_frac",
            ratio(
                b.fs.largest_free_extent_pages as f64,
                b.fs.free_space_pages as f64,
            ),
        ),
        (
            "engine.get.memtable_hit_frac",
            ratio(t(Ticker::GetHitMemtable) + t(Ticker::GetHitImmutable), gets),
        ),
        ("engine.get.l0_hit_frac", ratio(t(Ticker::GetHitL0), gets)),
        (
            "engine.get.l0_files_searched_per_get",
            ratio(t(Ticker::L0FilesSearched), gets),
        ),
        (
            "engine.get.bloom_useful_per_get",
            ratio(t(Ticker::BloomUseful), gets),
        ),
        (
            "engine.cache.block_hit_ratio",
            ratio(block_hits, block_hits + block_misses),
        ),
        (
            "engine.cache.table_hit_ratio",
            ratio(table_hits, table_hits + table_misses),
        ),
        (
            "engine.cache.open_table_readers",
            b.open_table_readers as f64,
        ),
        (
            "engine.write.group_size_mean",
            ratio(
                t(Ticker::WriteGroupsLed) + t(Ticker::WritesJoinedGroup),
                t(Ticker::WriteGroupsLed),
            ),
        ),
        (
            "engine.write.avg_waiting_writers",
            b.engine.avg_waiting_writers,
        ),
        ("engine.write.queue_wait_share", share(stall.queue_wait_ns)),
        ("engine.write.wal_share", share(stall.wal_append_ns)),
        (
            "engine.write.pipeline_wait_share",
            share(stall.pipeline_wait_ns),
        ),
        (
            "engine.write.memtable_share",
            share(stall.memtable_insert_ns),
        ),
        ("engine.write.delay_share", share(stall.delay_sleep_ns)),
        ("engine.write.stop_share", share(stall.stop_wait_ns)),
        (
            "engine.write.breakdown_coverage",
            share(stall.accounted_ns()),
        ),
        (
            "engine.wal.bytes_per_user_byte",
            ratio(t(Ticker::WalBytes), user_bytes),
        ),
        ("engine.wal.append_us_p50", us(b.engine.wal_append.p50_ns)),
        ("engine.stall.delayed_writes", t(Ticker::StallDelayedWrites)),
        ("engine.stall.stopped_writes", t(Ticker::StallStoppedWrites)),
        (
            "engine.stall.virt_frac",
            episodes.iter().sum::<u64>() as f64 / virt_ns,
        ),
        ("engine.stall.episodes", episodes.len() as f64),
        ("engine.flush.count", t(Ticker::FlushCount)),
        (
            "engine.flush.duration_ms_p50",
            ms(b.engine.flush_duration.p50_ns),
        ),
        (
            "engine.flush.bytes_per_user_byte",
            ratio(t(Ticker::FlushBytes), user_bytes),
        ),
        ("engine.compaction.count", t(Ticker::CompactionCount)),
        ("engine.compaction.duration_ms_p90", ms(compaction.p90_ns)),
        (
            "engine.compaction.busy_frac",
            (compaction.mean_ns * compaction.count) as f64 / virt_ns,
        ),
        (
            "engine.compaction.read_bytes_per_user_byte",
            ratio(t(Ticker::CompactReadBytes), user_bytes),
        ),
        (
            "engine.compaction.write_bytes_per_user_byte",
            ratio(t(Ticker::CompactWriteBytes), user_bytes),
        ),
        ("engine.compaction.trivial_moves", t(Ticker::TrivialMoves)),
        (
            "engine.compaction.debt_bytes_end",
            b.engine.compaction_debt_bytes as f64,
        ),
        ("engine.write_amp_app", ratio(app_bytes, user_bytes)),
        ("engine.write_amp_drift", write_amp_drift(&w.marks)),
        ("engine.bgio.throttled_ms", t(Ticker::BgIoThrottledNs) / 1e6),
        ("engine.lsm.l0_files_mean", l0_mean),
        ("engine.lsm.l0_files_max", l0_max),
        (
            "engine.lsm.live_sst_bytes_per_live_byte",
            b.engine.live_sst_bytes as f64 / w.live_bytes as f64,
        ),
        ("engine.errors.background", t(Ticker::BackgroundErrors)),
        ("engine.errors.read_only", t(Ticker::ReadOnlyTransitions)),
    ]
}

/// The raw deltas at the window's boundaries, for the trace file.
pub fn delta_note(boundary: &str, a: &Snap, b: &Snap) -> Json {
    let dev = b.dev.delta_since(&a.dev);
    let d = |x: u64, y: u64| Json::from(y - x);
    let t = |t: Ticker| Json::from(b.ticker(t) - a.ticker(t));
    obj([
        ("type", "delta".into()),
        ("boundary", boundary.into()),
        ("virt_start_ns", a.virt_ns.into()),
        ("virt_end_ns", b.virt_ns.into()),
        ("host_start_ns", a.host_ns.into()),
        ("host_end_ns", b.host_ns.into()),
        (
            "sim",
            obj([
                ("switches", d(a.sim.switches, b.sim.switches)),
                ("timer_events", d(a.sim.timer_events, b.sim.timer_events)),
            ]),
        ),
        (
            "device",
            obj([
                ("reads", dev.reads.into()),
                ("writes", dev.writes.into()),
                ("pages_read", dev.pages_read.into()),
                ("pages_written", dev.pages_written.into()),
                ("read_queue_ns", dev.read_queue_ns.into()),
                ("read_service_ns", dev.read_service_ns.into()),
                ("write_service_ns", dev.write_service_ns.into()),
                ("write_stall_ns", dev.write_stall_ns.into()),
                ("syncs", dev.syncs.into()),
                ("sync_wait_ns", dev.sync_wait_ns.into()),
                ("gc_moved_pages", dev.gc_moved_pages.into()),
                ("erases", dev.erases.into()),
            ]),
        ),
        (
            "simfs",
            obj([
                ("cache_hits", d(a.fs.cache_hits, b.fs.cache_hits)),
                ("cache_misses", d(a.fs.cache_misses, b.fs.cache_misses)),
                (
                    "sync_writebacks",
                    d(a.fs.sync_writebacks, b.fs.sync_writebacks),
                ),
                (
                    "background_writebacks",
                    d(a.fs.background_writebacks, b.fs.background_writebacks),
                ),
                (
                    "throttle_writebacks",
                    d(a.fs.throttle_writebacks, b.fs.throttle_writebacks),
                ),
                (
                    "dirty_evictions",
                    d(a.fs.dirty_evictions, b.fs.dirty_evictions),
                ),
                ("free_space_pages_end", b.fs.free_space_pages.into()),
            ]),
        ),
        (
            "engine",
            obj([
                ("gets", t(Ticker::Gets)),
                ("puts", t(Ticker::Puts)),
                ("wal_bytes", t(Ticker::WalBytes)),
                ("flush_count", t(Ticker::FlushCount)),
                ("flush_bytes", t(Ticker::FlushBytes)),
                ("compaction_count", t(Ticker::CompactionCount)),
                ("compact_read_bytes", t(Ticker::CompactReadBytes)),
                ("compact_write_bytes", t(Ticker::CompactWriteBytes)),
                ("block_cache_hits", d(a.block_cache.0, b.block_cache.0)),
                ("block_cache_misses", d(a.block_cache.1, b.block_cache.1)),
                ("stall_micros", t(Ticker::StallMicros)),
            ]),
        ),
    ])
}

/// The controller level as a number for the timeline: 0 clear, 1 gentle
/// delay, 2 delay, 3 stop.
pub fn level_number(level: StallLevel) -> u64 {
    match level {
        StallLevel::Clear => 0,
        StallLevel::GentleDelay { .. } => 1,
        StallLevel::Delay => 2,
        StallLevel::Stop => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(ops_done: u64, user: u64, app: u64) -> Mark {
        Mark {
            ops_done,
            host_ns: 0,
            probe: [user, app],
        }
    }

    #[test]
    fn media_pages_add_host_and_gc_pages() {
        let a = DeviceSnapshot {
            pages_written: 100,
            gc_moved_pages: 10,
            ..DeviceSnapshot::default()
        };
        let b = DeviceSnapshot {
            pages_written: 160,
            gc_moved_pages: 40,
            ..DeviceSnapshot::default()
        };
        assert_eq!(media_pages(&a, &b), 60 + 30);
        assert_eq!(media_pages(&a, &a), 0);
    }

    #[test]
    fn used_bytes_are_capacity_minus_free() {
        let fs = FsStats {
            capacity_pages: 1000,
            free_space_pages: 250,
            ..FsStats::default()
        };
        assert_eq!(fs_used_bytes(&fs), 750 * 4096);
    }

    #[test]
    fn drift_compares_the_last_third_with_the_middle_third() {
        // Six slices; user bytes rise by 100 per slice. App bytes rise by
        // 300 per slice in the middle third and by 330 in the last.
        let marks: Vec<Mark> = [0, 250, 500, 800, 1100, 1430, 1760]
            .iter()
            .enumerate()
            .map(|(i, &app)| mark(i as u64, i as u64 * 100, app))
            .collect();
        assert!((write_amp_drift(&marks) - 1.1).abs() < 1e-12);
        assert_eq!(write_amp_drift(&marks[..3]), 0.0, "too few marks");
        let idle: Vec<Mark> = (0..7).map(|i| mark(i, 0, 0)).collect();
        assert_eq!(write_amp_drift(&idle), 0.0, "no writes");
    }

    #[test]
    fn proc_counters_read_and_grow() {
        let a = HostProc::read();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let b = HostProc::read();
        assert!(b.utime_ticks + b.stime_ticks > a.utime_ticks + a.stime_ticks);
        assert!(peak_rss_mib() > 1.0);
    }
}
