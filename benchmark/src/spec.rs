//! What the benchmark measures and on what: the metric tables and the one
//! workload table. Sizes and rates are constants frozen by `calibrate`; the
//! regression bounds live in `BENCHMARK.json`, which `calibrate` writes from
//! these tables.

use crate::json::{obj, Json};
use xlsm_device::{profiles, DeviceProfile};

/// Which clock (or none) a metric is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Simulated nanoseconds: repeats to the last digit for a given seed.
    Virt,
    /// This machine's wall clock, CPU accounting or memory: noisy.
    Host,
    /// A count or a ratio of counts: repeats exactly, no clock involved.
    Exact,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Virt => "virt",
            Clock::Host => "host",
            Clock::Exact => "exact",
        }
    }

    /// Whether two runs of the same code and seed must agree to the digit.
    pub fn repeats(self) -> bool {
        self != Clock::Host
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric. `what` defines it; `moves` is the prediction written
/// down before measuring: which end-to-end metric it should move, where.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    pub what: &'static str,
    pub moves: &'static str,
}

impl MetricDef {
    /// The metric as it appears in a run file or a suite summary: its value
    /// with unit, clock and direction; callers append what else they know.
    pub fn fields(&self, value: Json) -> Vec<(String, Json)> {
        [
            ("value", value),
            ("unit", self.unit.into()),
            ("clock", self.clock.label().into()),
            ("better", self.better.label().into()),
        ]
        .map(|(k, v)| (k.to_owned(), v))
        .into()
    }
}

const fn m(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    what: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        what,
        moves,
    }
}

use Better::{Higher, Lower};
use Clock::{Exact, Host, Virt};

/// What a user of the system sees. `failed_frac` belongs with them and is
/// printed by every run, but is not listed: its value is 0, a bound is a
/// share of the parent's value, and the driver reads it from the `failed`
/// and `attempted` fields of the result line.
///
/// Tails are the mean of the slowest 1 % and 0.1 % of ops, not the 99th and
/// 99.9th percentile: the cost model quantises latency, and on
/// `overwrite_sata` the 99th percentile sits on a step (1.09 ms at p98, 2.1 ms
/// at p99.5) and swung 20 % with the seed while the tail mean moved 1.2 %.
///
/// Latency is split by op type only as a mean. A workload whose window
/// lacks an op type still issues it once (every run loads the data set and
/// reads a sample back), so a mean exists everywhere; a tail does not, and
/// the simulated median of an uncontended op is one constant of the cost
/// model whatever the seed. The typed medians and tails are the `client.*`
/// per-layer metrics.
#[rustfmt::skip]
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Host, Lower,
      "precondition + open + fill + settle + warm-up, median of the run's set-ups (build excluded)",
      "-"),
    m("virt_kops", "kop/s", Virt, Higher,
      "client ops completed / simulated length of the window",
      "-"),
    m("read_mean_us", "us", Virt, Lower,
      "mean get latency in the window, from the due time in the open loop; where the window has no gets, of the read-back check after it",
      "-"),
    m("write_mean_us", "us", Virt, Lower,
      "mean put latency in the window, from the due time in the open loop; where the window has no puts, of the load",
      "-"),
    m("tail99_us", "us", Virt, Lower,
      "mean latency of the slowest 1 % of the window's ops (those beyond the 99th percentile), from the due time in the open loop",
      "-"),
    m("tail999_us", "us", Virt, Lower,
      "mean latency of the slowest 0.1 % of the same ops (at least ten of them)",
      "-"),
    m("write_amp", "ratio", Virt, Lower,
      "media bytes written (device host pages + GC-moved pages) / user key+value bytes written, over the window; where it has no puts, over the load",
      "-"),
    m("space_amp", "ratio", Virt, Lower,
      "simfs bytes in use at window end (capacity - free) / live user bytes",
      "-"),
    m("host_ops_per_s", "op/s", Host, Higher,
      "client ops in the window / wall seconds of the window: the simulator's speed",
      "-"),
    m("peak_rss_mb", "MiB", Host, Lower, "VmHWM of the process when the run's checks end (before the extra, timed-only set-ups)", "-"),
];

const SIM_MOVES: &str = "host_ops_per_s, setup_s on every workload (most on mixed_xpoint, least on overwrite_sata); must not move any virt metric by a nanosecond";
const READ_MOVES: &str = "read_mean_us, tail99_us, virt_kops on readrandom_xpoint, mixed_xpoint, base phase of burst_open_pcie; nothing in the window of overwrite_sata";
const READ_IO_MOVES: &str = "read_mean_us, tail99_us, virt_kops on readrandom_xpoint (no contention) and mixed_xpoint (queueing behind compaction reads); nothing in the window of overwrite_sata";
const WRITE_MOVES: &str = "write_mean_us, tail99_us, virt_kops on overwrite_sata; write_mean_us on mixed_xpoint; nothing in the window of readrandom_xpoint";
const STALL_MOVES: &str = "tail999_us, virt_kops on overwrite_sata; tail99_us, tail999_us from due time on burst_open_pcie; read_mean_us, tail99_us via L0 depth on mixed_xpoint; zero in the window of readrandom_xpoint";
const WA_MOVES: &str =
    "write_amp, and through device busy time tail999_us, on overwrite_sata and burst_open_pcie";
const SPACE_MOVES: &str = "space_amp on overwrite_sata, mixed_xpoint";
const WRITEBACK_MOVES: &str =
    "tail99_us, tail999_us on overwrite_sata; nothing on readrandom_xpoint";
const LOADGEN_MOVES: &str = "validity of burst_open_pcie: a growing backlog means the rate is not sustained and every latency there counts as a miss";
const MICRO: &str = "micro phase, traced run only";

/// Single layers (the crates), measured from outside. Window deltas unless
/// `what` says micro.
#[rustfmt::skip]
pub const PER_LAYER: &[MetricDef] = &[
    // sim
    m("sim.switches_per_op", "count", Exact, Lower, "run-token hand-offs between sim threads per client op", SIM_MOVES),
    m("sim.timer_events_per_op", "count", Exact, Lower, "timer firings (clock advances) per client op", SIM_MOVES),
    m("sim.host_cpu_us_per_op", "us", Host, Lower, "process utime+stime per client op (/proc/self/stat)", SIM_MOVES),
    m("sim.host_sys_frac", "frac", Host, Lower, "stime / (utime+stime) over the window", SIM_MOVES),
    m("sim.host_ns_per_handoff", "ns", Host, Lower, "micro: two sim threads ping-pong yield_now x 200k", SIM_MOVES),
    m("sim.host_ns_per_sleep", "ns", Host, Lower, "micro: one thread, sleep_nanos(1000) x 200k, nothing else runnable", SIM_MOVES),
    m("sim.host_us_per_spawn_join", "us", Host, Lower, "micro: spawn + join of an empty sim thread x 5k", SIM_MOVES),
    // device
    m("device.reads_per_op", "count", Exact, Lower, "device read commands per client op", READ_IO_MOVES),
    m("device.pages_read_per_op", "count", Exact, Lower, "4-KiB pages read per client op", READ_IO_MOVES),
    m("device.read_queue_us_mean", "us", Virt, Lower, "mean wait of a read command for a channel", READ_IO_MOVES),
    m("device.read_service_us_mean", "us", Virt, Lower, "mean read service time (media + bus)", READ_IO_MOVES),
    m("device.write_service_us_mean", "us", Virt, Lower, "mean write service time (bus + buffer insert or media)", WRITEBACK_MOVES),
    m("device.write_stall_ms", "ms", Virt, Lower, "time writers stalled on a full device write buffer", WRITEBACK_MOVES),
    m("device.sync_wait_ms", "ms", Virt, Lower, "time spent in device sync waiting for the buffer to drain", WRITEBACK_MOVES),
    m("device.media_bytes_per_user_byte", "ratio", Exact, Lower, "(host pages + GC-moved pages) x 4 KiB / user bytes written in the window", WA_MOVES),
    m("device.write_amp", "ratio", Exact, Lower, "(host pages + GC-moved pages) / host pages in the window: the FTL's own amplification", WA_MOVES),
    m("device.gc_moved_pages", "count", Exact, Lower, "pages the FTL relocated in the window (> 0 shows preconditioning took)", WA_MOVES),
    m("device.erases", "count", Exact, Lower, "block erases in the window", WA_MOVES),
    m("device.raw_mixed_kops", "kop/s", Virt, Higher, "micro: rawio::raw_mixed_kops, 8 threads 1:1 on a fresh device of the profile (Fig. 1 anchor; moves only if the device model changes)", MICRO),
    m("device.host_ns_per_io", "ns", Host, Lower, "micro: host time of that raw run / its I/Os", SIM_MOVES),
    // simfs
    m("simfs.page_cache_hit_ratio", "ratio", Exact, Higher, "page-cache hits / (hits + misses)", READ_IO_MOVES),
    m("simfs.page_misses_per_op", "count", Exact, Lower, "page-cache misses per client op", READ_IO_MOVES),
    m("simfs.sync_writeback_pages", "count", Exact, Lower, "pages written back by explicit sync", WRITEBACK_MOVES),
    m("simfs.background_writeback_pages", "count", Exact, Lower, "pages written back by the writeback daemon", WRITEBACK_MOVES),
    m("simfs.throttle_writebacks", "count", Exact, Lower, "pages written back by an appender stalled at the dirty limit", WRITEBACK_MOVES),
    m("simfs.dirty_evictions", "count", Exact, Lower, "dirty pages written back under eviction pressure", WRITEBACK_MOVES),
    m("simfs.used_bytes_per_live_byte", "ratio", Exact, Lower, "(capacity - free) / live user bytes at window end", SPACE_MOVES),
    m("simfs.largest_free_extent_frac", "frac", Exact, Higher, "largest free extent / free space at window end (fragmentation)", SPACE_MOVES),
    m("simfs.host_ns_per_read_hit", "ns", Host, Lower, "micro: FileHandle::read_at of a resident 4-KiB page", SIM_MOVES),
    m("simfs.host_ns_per_read_miss", "ns", Host, Lower, "micro: FileHandle::read_at of a non-resident 4-KiB page", SIM_MOVES),
    m("simfs.virt_us_per_read_miss", "us", Virt, Lower, "micro: simulated time of that miss", READ_IO_MOVES),
    // engine, read path
    m("engine.get.memtable_hit_frac", "frac", Exact, Higher, "gets answered by the mutable or an immutable memtable / gets", READ_MOVES),
    m("engine.get.l0_hit_frac", "frac", Exact, Lower, "gets answered from Level 0 / gets", READ_MOVES),
    m("engine.get.l0_files_searched_per_get", "count", Exact, Lower, "L0 files probed per get", READ_MOVES),
    m("engine.get.bloom_useful_per_get", "count", Exact, Higher, "table probes a bloom filter saved, per get (0 at the defaults: blooms are off)", READ_MOVES),
    m("engine.cache.block_hit_ratio", "ratio", Exact, Higher, "block-cache hits / (hits + misses)", READ_MOVES),
    m("engine.cache.table_hit_ratio", "ratio", Exact, Higher, "table-cache hits / (hits + misses)", READ_MOVES),
    m("engine.cache.open_table_readers", "count", Exact, Lower, "open table readers at window end", READ_MOVES),
    // engine, write path
    m("engine.write.group_size_mean", "count", Exact, Higher, "batches per committed write group", WRITE_MOVES),
    m("engine.write.avg_waiting_writers", "count", Exact, Lower, "mean queued writers sampled at group commit (Fig. 16)", WRITE_MOVES),
    m("engine.write.queue_wait_share", "frac", Virt, Lower, "share of summed write latency spent queued behind other writers", WRITE_MOVES),
    m("engine.write.wal_share", "frac", Virt, Lower, "share spent in the WAL append", WRITE_MOVES),
    m("engine.write.pipeline_wait_share", "frac", Virt, Lower, "share spent waiting to enter the memtable stage", WRITE_MOVES),
    m("engine.write.memtable_share", "frac", Virt, Lower, "share spent inserting into the memtable", WRITE_MOVES),
    m("engine.write.delay_share", "frac", Virt, Lower, "share spent in Algorithm 1 delay sleeps", STALL_MOVES),
    m("engine.write.stop_share", "frac", Virt, Lower, "share spent fully stopped", STALL_MOVES),
    m("engine.write.breakdown_coverage", "frac", Virt, Higher, "sum of the six shares (must stay >= 0.9)", WRITE_MOVES),
    m("engine.wal.bytes_per_user_byte", "ratio", Exact, Lower, "WAL bytes appended / user bytes written", WRITE_MOVES),
    m("engine.wal.append_us_p50", "us", Virt, Lower, "median WAL append (the engine's log-bucket histogram)", WRITE_MOVES),
    m("engine.stall.delayed_writes", "count", Exact, Lower, "writes that slept in delay pacing", STALL_MOVES),
    m("engine.stall.stopped_writes", "count", Exact, Lower, "writes that waited fully stopped", STALL_MOVES),
    m("engine.stall.virt_frac", "frac", Virt, Lower, "share of the window the write controller sat at a non-clear level", STALL_MOVES),
    m("engine.stall.episodes", "count", Exact, Lower, "maximal non-clear spans of the controller in the window", STALL_MOVES),
    // engine, background
    m("engine.flush.count", "count", Exact, Lower, "flush jobs finished", STALL_MOVES),
    m("engine.flush.duration_ms_p50", "ms", Virt, Lower, "median flush job (log-bucket histogram)", STALL_MOVES),
    m("engine.flush.bytes_per_user_byte", "ratio", Exact, Lower, "flush output bytes / user bytes written", WA_MOVES),
    m("engine.compaction.count", "count", Exact, Lower, "compaction jobs finished", STALL_MOVES),
    m("engine.compaction.duration_ms_p90", "ms", Virt, Lower, "p90 compaction job (log-bucket histogram)", STALL_MOVES),
    m("engine.compaction.busy_frac", "frac", Virt, Lower, "summed compaction job time / window length", STALL_MOVES),
    m("engine.compaction.read_bytes_per_user_byte", "ratio", Exact, Lower, "compaction input bytes / user bytes written", WA_MOVES),
    m("engine.compaction.write_bytes_per_user_byte", "ratio", Exact, Lower, "compaction output bytes / user bytes written", WA_MOVES),
    m("engine.compaction.trivial_moves", "count", Exact, Higher, "compactions done by re-linking a file", WA_MOVES),
    m("engine.compaction.debt_bytes_end", "bytes", Exact, Lower, "estimated bytes awaiting compaction at window end", SPACE_MOVES),
    m("engine.write_amp_app", "ratio", Exact, Lower, "(WAL + flush + compaction output bytes) / user bytes written", WA_MOVES),
    m("engine.write_amp_drift", "ratio", Exact, Lower, "write_amp_app of the last third of the window / of the middle third; outside 0.9-1.1 the run prints steady=false", WA_MOVES),
    m("engine.bgio.throttled_ms", "ms", Virt, Lower, "time background jobs waited on the shared I/O budget (0 at the defaults: unthrottled)", STALL_MOVES),
    m("engine.lsm.l0_files_mean", "count", Exact, Lower, "L0 file count sampled every 10 ms virt, mean", STALL_MOVES),
    m("engine.lsm.l0_files_max", "count", Exact, Lower, "the same samples, max", STALL_MOVES),
    m("engine.lsm.live_sst_bytes_per_live_byte", "ratio", Exact, Lower, "bytes of live SSTs at window end / live user bytes", SPACE_MOVES),
    m("engine.errors.background", "count", Exact, Lower, "background errors raised", "failed ops on every workload"),
    m("engine.errors.read_only", "count", Exact, Lower, "transitions to read-only", "failed ops on every workload"),
    // engine, call table
    m("engine.call.get_cold.virt_us", "us", Virt, Lower, "micro: one client after the window, 2000 uniform gets, median", READ_MOVES),
    m("engine.call.get_cold.host_ns", "ns", Host, Lower, "host time of the same calls, median", SIM_MOVES),
    m("engine.call.get_hot.virt_us", "us", Virt, Lower, "micro: 2000 gets looping over 256 keys that fit the block cache, median", READ_MOVES),
    m("engine.call.get_hot.host_ns", "ns", Host, Lower, "host time of the same calls, median", SIM_MOVES),
    m("engine.call.get_miss.virt_us", "us", Virt, Lower, "micro: 2000 gets of absent keys inside the key range, median", READ_MOVES),
    m("engine.call.get_miss.host_ns", "ns", Host, Lower, "host time of the same calls, median", SIM_MOVES),
    m("engine.call.multi_get8.virt_us", "us", Virt, Lower, "micro: 2000 multi_gets of 8 uniform keys, median (the only coverage multi_get gets)", READ_MOVES),
    m("engine.call.multi_get8.host_ns", "ns", Host, Lower, "host time of the same calls, median", SIM_MOVES),
    m("engine.call.scan16.virt_us", "us", Virt, Lower, "micro: 2000 seeks + 16 nexts, median (the only coverage scan gets)", READ_MOVES),
    m("engine.call.scan16.host_ns", "ns", Host, Lower, "host time of the same calls, median", SIM_MOVES),
    m("engine.call.put.virt_us", "us", Virt, Lower, "micro: 2000 uniform puts, median", WRITE_MOVES),
    m("engine.call.put.host_ns", "ns", Host, Lower, "host time of the same calls, median", SIM_MOVES),
    m("engine.call.write_batch8.virt_us", "us", Virt, Lower, "micro: 2000 batches of 8 puts, median", WRITE_MOVES),
    m("engine.call.write_batch8.host_ns", "ns", Host, Lower, "host time of the same calls, median", SIM_MOVES),
    // workload
    m("client.read_p50_us", "us", Virt, Lower, "median get latency in the window, exact sorted samples (0 where the window has no gets)", READ_MOVES),
    m("client.read_p99_us", "us", Virt, Lower, "99th percentile of the same gets", READ_MOVES),
    m("client.write_p50_us", "us", Virt, Lower, "median put latency in the window (0 where the window has no puts)", WRITE_MOVES),
    m("client.write_p99_us", "us", Virt, Lower, "99th percentile of the same puts", WRITE_MOVES),
    m("client.write_p999_us", "us", Virt, Lower, "99.9th percentile of the same puts", STALL_MOVES),
    m("loadgen.host_ns_per_op", "ns", Host, Lower, "host time in the benchmark's own client code (key, value, check, record) per op: phase.window self time", SIM_MOVES),
    m("loadgen.offered_kops", "kop/s", Virt, Higher, "ops issued / window length (the schedule's rate in the open loop)", LOADGEN_MOVES),
    m("loadgen.lag_us_p99", "us", Virt, Lower, "open loop: dispatch - due, p99: how late the generator ran", LOADGEN_MOVES),
    m("loadgen.backlog_max", "count", Exact, Lower, "open loop: most arrivals waiting for a worker", LOADGEN_MOVES),
    m("loadgen.backlog_end", "count", Exact, Lower, "open loop: arrivals still waiting when the schedule ended (must be 0)", LOADGEN_MOVES),
    // core
    m("core.open_virt_ms", "ms", Virt, Lower, "SimFs::new + Db::open into a Testbed, simulated", "setup_s"),
    m("core.open_host_ms", "ms", Host, Lower, "the same, host time", "setup_s"),
    m("core.close_host_ms", "ms", Host, Lower, "Testbed::close, host time", "-"),
    // trace
    m("trace.spans", "count", Exact, Lower, "spans recorded by the traced run", "-"),
    m("trace.overhead_frac", "frac", Host, Lower, "window spans x measured cost of recording one / window host time", "host_ops_per_s of the traced run only"),
];

/// How keys are drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Keys {
    Uniform,
    /// YCSB zipfian with this theta; the hot head fits the block cache.
    Zipfian(f64),
}

/// One leg of an open-loop cycle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Leg {
    /// Simulated seconds at `--seconds 10`.
    pub virt_s: f64,
    pub ops_per_s: f64,
    pub write_frac: f64,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// Each client sends its next op when the previous one returns.
    Closed {
        clients: u64,
        /// Per client, per second of `--seconds`.
        ops_per_client_per_s: u64,
        write_frac: f64,
    },
    /// A generator sends on a schedule whatever the system does; `workers`
    /// sim threads serve the queue. Latency is counted from the due time.
    Open {
        workers: u64,
        cycles: u64,
        base: Leg,
        burst: Leg,
    },
}

impl Load {
    /// Ops in the window when its size is `size` (`--seconds` x `--scale`,
    /// so 10 in a measured run).
    pub fn window_ops(&self, size: f64) -> u64 {
        match *self {
            Load::Closed { clients, .. } => clients * self.ops_per_client(size),
            Load::Open {
                cycles,
                base,
                burst,
                ..
            } => {
                let leg = |l: Leg| (l.virt_s * size / NOMINAL_SECONDS * l.ops_per_s).round() as u64;
                cycles * (leg(base) + leg(burst))
            }
        }
    }

    /// Closed loop: ops each client issues at that size.
    pub fn ops_per_client(&self, size: f64) -> u64 {
        match *self {
            Load::Closed {
                ops_per_client_per_s,
                ..
            } => ((ops_per_client_per_s as f64 * size).round() as u64).max(1),
            Load::Open { .. } => 0,
        }
    }

    /// Clients and write share of the closed-loop warm-up.
    pub fn warmup_mix(&self) -> (u64, f64) {
        match *self {
            Load::Closed {
                clients,
                write_frac,
                ..
            } => (clients, write_frac),
            Load::Open { workers, base, .. } => (workers, base.write_frac),
        }
    }

    pub fn has_gets(&self) -> bool {
        !matches!(*self, Load::Closed { write_frac, .. } if write_frac >= 1.0)
    }

    pub fn has_puts(&self) -> bool {
        !matches!(*self, Load::Closed { write_frac, .. } if write_frac <= 0.0)
    }
}

#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub device: fn() -> DeviceProfile,
    pub keys: Keys,
    pub load: Load,
}

/// `--seconds` the sizes below were chosen for.
pub const NOMINAL_SECONDS: f64 = 10.0;

/// The workload table. Op counts per second of `--seconds` were sized so a
/// window takes about that long in host time at the commit that added the
/// benchmark; the open-loop rates are about 60 % of the closed-loop
/// capacities `calibrate` measured there.
#[rustfmt::skip]
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "readrandom_xpoint",
        why: "closed loop, 4 clients, uniform gets on Optane, data 8x the caches: read path only, zero background jobs",
        device: profiles::optane_900p,
        keys: Keys::Uniform,
        load: Load::Closed { clients: 4, ops_per_client_per_s: 6_000, write_frac: 0.0 },
    },
    WorkloadDef {
        name: "overwrite_sata",
        why: "closed loop, 4 clients, uniform puts on preconditioned SATA flash: write path, flush, compaction, stalls, FTL GC",
        device: profiles::intel_530_sata,
        keys: Keys::Uniform,
        load: Load::Closed { clients: 4, ops_per_client_per_s: 4_000, write_frac: 1.0 },
    },
    WorkloadDef {
        name: "mixed_xpoint",
        why: "closed loop, 4 clients, 50:50 get/put on Optane: reads pay for the L0 depth and compaction I/O that writes create",
        device: profiles::optane_900p,
        keys: Keys::Uniform,
        load: Load::Closed { clients: 4, ops_per_client_per_s: 2_100, write_frac: 0.5 },
    },
    WorkloadDef {
        name: "burst_open_pcie",
        why: "open loop on preconditioned PCIe flash, zipfian keys that fit the cache, write bursts: a stall delays ops not yet issued",
        device: profiles::intel_750_pcie,
        keys: Keys::Zipfian(0.99),
        load: Load::Open {
            workers: 8,
            cycles: 3,
            base: Leg { virt_s: 1.2, ops_per_s: 20_000.0, write_frac: 0.1 },
            burst: Leg { virt_s: 0.8, ops_per_s: 50_000.0, write_frac: 0.9 },
        },
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Checks the tables against the limits the benchmark contract sets on
/// names and counts.
///
/// # Errors
///
/// The first name or count outside the limits.
pub fn validate(workloads: &[&str], end_to_end: &[&str], per_layer: &[&str]) -> Result<(), String> {
    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }
    for (what, names, min, max) in [
        ("workloads", workloads, 2, 8),
        ("end-to-end metrics", end_to_end, 1, 16),
        ("per-layer metrics", per_layer, 1, 128),
    ] {
        if !(min..=max).contains(&names.len()) {
            return Err(format!("{} {what}, allowed {min} to {max}", names.len()));
        }
        if let Some(bad) = names.iter().find(|n| !name_ok(n)) {
            return Err(format!(
                "name {bad:?} is not [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"
            ));
        }
    }
    let mut metrics: Vec<&str> = end_to_end.iter().chain(per_layer).copied().collect();
    metrics.sort_unstable();
    if let Some(w) = metrics.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("metric {:?} is listed twice", w[0]));
    }
    let mut ws = workloads.to_vec();
    ws.sort_unstable();
    if let Some(w) = ws.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("workload {:?} is listed twice", w[0]));
    }
    Ok(())
}

fn unit_ok(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// [`validate`] on this file's own tables, plus their units and reasons:
/// `calibrate` refuses to write a `BENCHMARK.json` the pipeline would refuse.
///
/// # Errors
///
/// What is outside the limits.
pub fn check_tables() -> Result<(), String> {
    let names = |defs: &[MetricDef]| defs.iter().map(|d| d.name).collect::<Vec<_>>();
    let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    validate(&workloads, &names(END_TO_END), &names(PER_LAYER))?;
    if let Some(d) = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| !unit_ok(d.unit))
    {
        return Err(format!("unit {:?} of {} is not allowed", d.unit, d.name));
    }
    if let Some(w) = WORKLOADS
        .iter()
        .find(|w| w.why.len() > 200 || w.why.contains('\n'))
    {
        return Err(format!(
            "the reason for {} is not one line of at most 200 characters",
            w.name
        ));
    }
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s");
    if !setup.is_some_and(|d| d.unit == "s" && d.better == Better::Lower) {
        return Err("setup_s (s, lower) is missing".into());
    }
    Ok(())
}

/// `BENCHMARK.json` from the tables, with `bounds[i]` for `END_TO_END[i]`.
pub fn benchmark_json(run_seconds: u64, bounds: &[f64]) -> Json {
    assert_eq!(bounds.len(), END_TO_END.len());
    obj([
        ("command", vec!["bash", "benchmark/run.sh"].into()),
        ("paths", vec!["benchmark"].into()),
        ("run_seconds", run_seconds.into()),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .zip(bounds)
                    .map(|(d, &b)| {
                        obj([
                            ("name", d.name.into()),
                            ("unit", d.unit.into()),
                            ("better", d.better.label().into()),
                            ("bound", b.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|d| {
                        obj([
                            ("name", d.name.into()),
                            ("unit", d.unit.into()),
                            ("better", d.better.label().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The regression bound of each end-to-end metric, from `BENCHMARK.json`.
///
/// # Errors
///
/// The file is unreadable, is not JSON, or lists other metrics than
/// [`END_TO_END`].
pub fn read_bounds(path: &std::path::Path) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    let listed = doc.get("end_to_end").map(Json::as_arr).unwrap_or_default();
    END_TO_END
        .iter()
        .map(|d| {
            listed
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(d.name))
                .and_then(|e| e.get("bound"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: no bound for {}", path.display(), d.name))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_meet_the_contract() {
        check_tables().unwrap();
    }

    #[test]
    fn validator_refuses_bad_names_and_counts() {
        let ok = ["a", "b"];
        assert!(validate(&ok, &["m"], &["l"]).is_ok());
        assert!(validate(&["only"], &["m"], &["l"]).is_err(), "one workload");
        assert!(validate(&ok, &[], &["l"]).is_err(), "no end-to-end metric");
        assert!(validate(&ok, &["has space"], &["l"]).is_err());
        assert!(validate(&ok, &["µs"], &["l"]).is_err());
        assert!(validate(&ok, &[".dot"], &["l"]).is_err());
        assert!(validate(&ok, &["m"], &["m"]).is_err(), "duplicate");
        assert!(validate(&["a", "a"], &["m"], &["l"]).is_err());
        let many: Vec<String> = (0..17).map(|i| format!("m{i}")).collect();
        let many: Vec<&str> = many.iter().map(String::as_str).collect();
        assert!(validate(&ok, &many, &["l"]).is_err(), "17 end-to-end");
        let many: Vec<String> = (0..129).map(|i| format!("l{i}")).collect();
        let many: Vec<&str> = many.iter().map(String::as_str).collect();
        assert!(validate(&ok, &["m"], &many).is_err(), "129 per-layer");
        assert!(validate(&ok, &["m"], &[&"x".repeat(65)]).is_err());
    }

    /// The committed `BENCHMARK.json` is what `calibrate` would write from
    /// these tables, with its own bounds.
    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let bounds = read_bounds(&path).unwrap();
        assert!(bounds.iter().all(|b| (0.0..=0.25).contains(b)));
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&text).unwrap();
        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap() as u64;
        assert_eq!(doc, benchmark_json(seconds, &bounds));
        assert!(text.len() <= 64 << 10);
    }
}
