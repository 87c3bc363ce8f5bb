//! One op tape, one reference model and one sampler for every option that
//! changes what a read or write costs and never what it returns (one row of
//! [`AXES`] each), and for every fault the engine claims to survive (one
//! value of [`Fault`] each). A case draws a schedule of up to three faults,
//! ordered in its tape; adjacent faults arm together. Reads are checked as
//! they run, writes are read back, and the whole key space after each settle,
//! reopen, concurrent op and fault and at the end. A divergence prints its
//! config and tape prefix, which joins [`corpus`]: replayed first, under the
//! default and each one-axis config, and under every fault twice. A fault
//! combination the engine claims to survive is one of [`schedules`], which
//! must fire every fault, in order.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xlsm_suite::device::{profiles, DeviceProfile, SimDevice};
use xlsm_suite::engine::db::Snapshot;
use xlsm_suite::engine::{repair_db, ErrorSeverity::Hard, Metrics, Ticker, WalRecoveryMode as M};
use xlsm_suite::engine::{CompactionScheduler as Sched, CompressionType as C, ThrottlePolicy as T};
use xlsm_suite::engine::{Db, DbError, DbOptions, DbResult, WriteBatch};
use xlsm_suite::sim::{self, JoinHandle, Runtime};
use xlsm_suite::simfs::{FaultPlan, FsError, FsOptions, FsStats, SimFs};
use xlsm_suite::study::casestudy::nvm_wal;

/// Keys the tape writes.
const KEYS: u16 = 400;
/// Keys past [`KEYS`] are read and never written: the misses.
const MISSES: u16 = 50;
/// Sampled cases per run, after the corpus.
const CASES: u32 = 48;
/// Power cuts swept through each corpus tape.
const CUTS: u16 = 16;

/// Ten two-byte prefix families (`p0`..`p9`), so prefix blooms and prefix
/// scans have something to prune; a miss sorts among the hits.
fn key(k: u16) -> Vec<u8> {
    format!("p{}{k:05}", k % 10).into_bytes()
}

/// The `k` of [`key`]`(k)`.
fn index(key: &[u8]) -> u16 {
    String::from_utf8_lossy(&key[2..]).parse().unwrap()
}

/// A run of one byte, so RLE compresses, then the key and the version.
fn value(k: u16, v: u8) -> Vec<u8> {
    let mut out = vec![b'a' + v % 23; 100 + usize::from(k % 8) * 200];
    out.extend_from_slice(format!("{k}:{v}").as_bytes());
    out
}

fn all_keys() -> Vec<Vec<u8>> {
    (0..KEYS + MISSES).map(key).collect()
}

/// Prefixes of every length around the extractor's two bytes, one absent.
const PREFIXES: [&str; 8] = ["p0", "p3", "p9", "qq", "", "p", "p300", "p4004"];

/// One write: its entries in order, `None` a delete.
type Batch = Vec<(u16, Option<u8>)>;

/// A key space as a scan returns it.
type Dump = Vec<(Vec<u8>, Vec<u8>)>;

/// Writers' streams of batches, each with the shortest and the longest
/// prefix of it a recovery may show.
type Streams = Vec<(Vec<Batch>, usize, usize)>;

#[derive(Clone, Debug)]
enum Op {
    Put(u16, u8),
    Delete(u16),
    /// One `WriteBatch` of three entries.
    Write([(u16, Option<u8>); 3]),
    Get(u16),
    MultiGet([u16; 8]),
    Scan,
    ScanPrefix(&'static str),
    Snapshot,
    /// Reads the whole key space at held snapshot `n % held`.
    ReadAt(u8),
    Release(u8),
    Flush,
    Settle,
    Reopen,
    /// `(n, len, seed)`: writers `w` in `0..n` at once, each writing
    /// [`stream`]`(w, n, len, seed)`.
    Parallel(u8, u8, u8),
    /// `(len, seed)`: a snapshot, then one writer of [`stream`]`(0, 1, len,
    /// seed)` while its keys are read at the snapshot.
    ReadWhileWriting(u8, u8),
    /// A run of them arms together: up to the first whose
    /// [`Fault::class`] the run holds already.
    Inject(Fault),
}

/// A fault the engine claims to survive, armed where its op stands.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Power dies at the `n`th file operation from here, in the ops that
    /// follow (or when the next fault arms, or after the last op), and the
    /// database reopens. Armed with other faults, it dies once their
    /// triggers ran, or at a full device's stall.
    PowerCut(u16),
    /// A power cut, then the MANIFEST is lost — deleted, or (`.1`) cut to
    /// half — with (`.2`) every other log, and `repair_db` runs first.
    ManifestLoss(u16, bool, bool),
    /// A write whose WAL append fails whole, or (`true`) torn.
    WalAppend(bool),
    /// A write whose WAL sync fails.
    WalSync,
    /// The `n`th SST append of a flush fails, retryably or (`false`) hard.
    SstWrite(u8, bool),
    /// The `n`th SST read of a read of every key fails, retryably or not.
    SstRead(u8, bool),
    /// Three in ten SST reads of a read of every key flip a bit (a seed).
    BitFlips(u8),
    /// A flush's extent allocation fails, or (`true`) finds the device full.
    Enospc(bool),
    /// The next delete of a log or (`false`) a table fails, retryably or not.
    /// A failed log purge is counted, leaves the database writable, and the
    /// next purge deletes the log and clears the error (the mutation "the
    /// purge pass never clears the `WalPurge` error" fails here).
    DeleteFails(bool, bool),
}

impl Fault {
    /// What a fault arms: a cut (0), a full device (1) or a file trigger (2).
    /// Faults armed together are of different classes.
    fn class(self) -> u8 {
        match self {
            Fault::PowerCut(_) | Fault::ManifestLoss(..) => 0,
            Fault::Enospc(_) => 1,
            _ => 2,
        }
    }

    fn kind(self) -> &'static str {
        match self {
            Fault::PowerCut(_) => "power cut",
            Fault::ManifestLoss(..) => "manifest loss",
            Fault::WalAppend(false) => "wal append",
            Fault::WalAppend(true) => "torn wal append",
            Fault::WalSync => "wal sync",
            Fault::SstWrite(_, true) => "retryable sst write",
            Fault::SstWrite(_, false) => "hard sst write",
            Fault::SstRead(..) => "sst read",
            Fault::BitFlips(_) => "bit flips",
            Fault::Enospc(false) => "enospc",
            Fault::Enospc(true) => "capacity shrink",
            Fault::DeleteFails(..) => "delete",
        }
    }

    /// The plan that injects it, and whether on the log's filesystem.
    #[rustfmt::skip]
    fn plan(self) -> (FaultPlan, bool) {
        use Fault::*;
        let on = |filter: &str| FaultPlan { path_filter: Some(filter.into()), ..FaultPlan::default() };
        let any = FaultPlan::default;
        match self {
            PowerCut(n) | ManifestLoss(n, ..) => (FaultPlan { power_cut_at_op: Some(n.into()), ..any() }, false),
            WalAppend(false) => (FaultPlan { fail_nth_write: Some(1), ..on(".log") }, true),
            WalAppend(true) => (FaultPlan { torn_write_nth: Some(1), ..on(".log") }, true),
            WalSync => (FaultPlan { fail_nth_sync: Some(1), ..on(".log") }, true),
            SstWrite(n, retryable) => (FaultPlan { fail_nth_write: Some(n.into()), retryable, ..on(".sst") }, false),
            SstRead(n, retryable) => (FaultPlan { fail_nth_read: Some(n.into()), retryable, ..on(".sst") }, false),
            BitFlips(seed) => (FaultPlan { seed: seed.into(), bit_flip_read_prob: 0.3, ..on(".sst") }, false),
            Enospc(false) => (FaultPlan { fail_nth_alloc: Some(1), ..any() }, false),
            Enospc(true) => (FaultPlan { shrink_at_alloc: Some((1, u64::MAX)), ..any() }, false),
            DeleteFails(true, retryable) => (FaultPlan { fail_nth_delete: Some(1), retryable, ..on(".log") }, true),
            DeleteFails(false, retryable) => (FaultPlan { fail_nth_delete: Some(1), retryable, ..on(".sst") }, false),
        }
    }
}

/// Two plans armed together as one: every trigger of both; an injected error
/// is retryable only if both say so. No two faults armed together set the
/// same trigger ([`Fault::class`]).
#[rustfmt::skip]
fn merge(a: FaultPlan, b: FaultPlan) -> FaultPlan {
    FaultPlan {
        seed: a.seed.max(b.seed),
        path_filter: a.path_filter.or(b.path_filter),
        fail_nth_read: a.fail_nth_read.or(b.fail_nth_read),
        fail_nth_write: a.fail_nth_write.or(b.fail_nth_write),
        fail_nth_sync: a.fail_nth_sync.or(b.fail_nth_sync),
        torn_write_nth: a.torn_write_nth.or(b.torn_write_nth),
        bit_flip_nth_read: a.bit_flip_nth_read.or(b.bit_flip_nth_read),
        bit_flip_read_prob: a.bit_flip_read_prob.max(b.bit_flip_read_prob),
        power_cut_at_op: a.power_cut_at_op.or(b.power_cut_at_op),
        fail_nth_alloc: a.fail_nth_alloc.or(b.fail_nth_alloc),
        shrink_at_alloc: a.shrink_at_alloc.or(b.shrink_at_alloc),
        fail_nth_delete: a.fail_nth_delete.or(b.fail_nth_delete),
        retryable: a.retryable && b.retryable,
    }
}

/// One fault of every kind, as the corpus replays them.
#[rustfmt::skip]
const FAULTS: [Fault; 12] = {
    use Fault::*;
    [PowerCut(60), ManifestLoss(60, true, false), WalAppend(false), WalAppend(true), WalSync,
        SstWrite(1, true), SstWrite(1, false), SstRead(1, true), BitFlips(7), Enospc(false),
        Enospc(true), DeleteFails(true, true)]
};

fn op_strategy() -> impl Strategy<Value = Op> {
    let entry = || (0..KEYS, prop::option::of(any::<u8>()));
    prop_oneof![
        6 => (0..KEYS, any::<u8>()).prop_map(|(k, v)| Op::Put(k, v)),
        2 => (0..KEYS).prop_map(Op::Delete),
        2 => (entry(), entry(), entry()).prop_map(|(a, b, c)| Op::Write([a, b, c])),
        4 => (0..KEYS + MISSES).prop_map(Op::Get),
        2 => prop::collection::vec(0..KEYS + MISSES, 8..9)
            .prop_map(|keys| Op::MultiGet(keys.try_into().unwrap())),
        1 => Just(Op::Scan),
        2 => (0..PREFIXES.len()).prop_map(|i| Op::ScanPrefix(PREFIXES[i])),
        1 => Just(Op::Snapshot),
        1 => any::<u8>().prop_map(Op::ReadAt),
        1 => any::<u8>().prop_map(Op::Release),
        1 => Just(Op::Flush),
        1 => Just(Op::Settle),
        1 => Just(Op::Reopen),
        1 => (2u8..5, 4u8..24, any::<u8>()).prop_map(|(n, len, seed)| Op::Parallel(n, len, seed)),
        1 => (8u8..64, any::<u8>()).prop_map(|(len, seed)| Op::ReadWhileWriting(len, seed)),
    ]
}

fn fault_strategy() -> impl Strategy<Value = Fault> {
    use Fault::*;
    let flag = any::<bool>;
    prop_oneof![
        3 => (1u16..400).prop_map(PowerCut),
        2 => (1u16..400, flag(), flag()).prop_map(|(n, t, d)| ManifestLoss(n, t, d)),
        2 => flag().prop_map(WalAppend),
        1 => Just(WalSync),
        2 => (1u8..4, flag()).prop_map(|(n, r)| SstWrite(n, r)),
        1 => (1u8..4, flag()).prop_map(|(n, r)| SstRead(n, r)),
        1 => any::<u8>().prop_map(BitFlips),
        2 => flag().prop_map(Enospc),
        1 => (flag(), flag()).prop_map(|(l, r)| DeleteFails(l, r)),
    ]
}

/// Up to three faults, each with a point in the tape and whether it goes
/// beside the one before (and so may arm with it).
type Schedule = Vec<(Fault, usize, bool)>;

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    prop::collection::vec((fault_strategy(), any::<usize>(), any::<bool>()), 0..4)
}

/// `tape` with `schedule`'s faults inserted in order.
fn place(mut tape: Vec<Op>, schedule: &Schedule) -> Vec<Op> {
    let mut at: Vec<usize> = schedule.iter().map(|s| s.1 % (tape.len() + 1)).collect();
    at.sort_unstable();
    for i in 1..at.len() {
        if schedule[i].2 {
            at[i] = at[i - 1];
        }
    }
    for (i, (fault, ..)) in schedule.iter().enumerate().rev() {
        tape.insert(at[i], Op::Inject(*fault));
    }
    tape
}

/// Writer `w` of `n`: `len` batches on its own stripe of keys (`k % n ==
/// w`), every third of two entries, about one entry in five a delete.
fn stream(w: u8, n: u8, len: u8, seed: u8) -> Vec<Batch> {
    let (w, n) = (u16::from(w), u16::from(n));
    let mut x = u32::from(seed) << 8 | u32::from(w);
    let mut entry = move || {
        x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
        let k = w + n * ((x >> 16) as u16 % (KEYS / n));
        (k, ((x >> 12) % 5 != 0).then_some((x >> 4) as u8))
    };
    let batch = |i| (0..1 + usize::from(i % 3 == 2)).map(|_| entry()).collect();
    (0..len).map(batch).collect()
}

/// What one case opens: the data device and the options.
struct Setup {
    device: DeviceProfile,
    opts: DbOptions,
}

/// An option that must not change answers: its name, the values the sampler
/// draws (the first is the default config's), and how value `v` is set —
/// inside the simulation, so a value may create a filesystem.
type Axis = (&'static str, &'static [&'static str], fn(&mut Setup, usize));

#[rustfmt::skip] // one row per axis
const AXES: [Axis; 18] = [
    ("device", &["xpoint", "sata", "pcie"], |s, v| {
        s.device = [profiles::optane_900p, profiles::intel_530_sata, profiles::intel_750_pcie][v]();
    }),
    ("compression", &["none", "rle"], |s, v| s.opts.compression = [C::None, C::Rle][v]),
    ("bloom_bits_per_key/prefix_extractor", &["0/none", "10/none", "0/2", "10/2"], |s, v| {
        (s.opts.bloom_bits_per_key, s.opts.prefix_extractor) = (v % 2 * 10, (v >= 2).then_some(2));
    }),
    ("memtable_bloom_bits", &["0", "10"], |s, v| s.opts.memtable_bloom_bits = v * 10),
    ("block_size", &["4k", "1k"], |s, v| s.opts.block_size = [4096, 1024][v]),
    ("max_subcompactions", &["1", "4"], |s, v| s.opts.max_subcompactions = [1, 4][v]),
    ("allow_concurrent_memtable_write", &["off", "on"], |s, v| {
        s.opts.allow_concurrent_memtable_write = v == 1;
    }),
    ("compaction_scheduler", &["greedy", "round-robin", "fair"], |s, v| {
        s.opts.compaction_scheduler = [Sched::Greedy, Sched::RoundRobin, Sched::Fair][v];
    }),
    ("bg_io_rate_bytes_per_sec", &["0", "8M"], |s, v| {
        s.opts.bg_io_rate_bytes_per_sec = [0, 8 << 20][v];
    }),
    ("throttle_policy", &["original", "two-stage", "original, no level-0 throttle"], |s, v| {
        s.opts.throttle_policy = [T::Original, T::TwoStage { min_rate: 8 << 20 }, T::Original][v];
        if v == 2 {
            // Neither Level-0 trigger is reachable: only the memtable stop.
            s.opts.level0_slowdown_writes_trigger = 1 << 16;
            s.opts.level0_stop_writes_trigger = 1 << 16;
        }
    }),
    ("protection_bytes_per_key", &["0", "1", "8"], |s, v| {
        s.opts.protection_bytes_per_key = [0, 1, 8][v];
    }),
    ("paranoid_file_checks", &["off", "on"], |s, v| s.opts.paranoid_file_checks = v == 1),
    ("scrub_rate_bytes_per_sec", &["0", "64M"], |s, v| {
        s.opts.scrub_rate_bytes_per_sec = [0, 64 << 20][v];
    }),
    ("space cap/reaper/watcher", &["off", "64M/8M/1ms", "64M/8M/200ms"], |s, v| {
        s.opts.max_allowed_space_bytes = [0, 64 << 20, 64 << 20][v];
        s.opts.sst_delete_rate_bytes_per_sec = [0, 8 << 20, 8 << 20][v];
        s.opts.space_poll_interval_ns = [0, 1_000_000, 200_000_000][v];
    }),
    ("wal_sync", &["off", "on"], |s, v| s.opts.wal_sync = v == 1),
    ("wal_recovery_mode", &["point-in-time", "absolute", "tolerate-tail", "skip-any"], |s, v| {
        s.opts.wal_recovery_mode = [M::PointInTimeRecovery, M::AbsoluteConsistency,
            M::TolerateCorruptedTailRecords, M::SkipAnyCorruptedRecords][v];
    }),
    ("max_open_files", &["256", "16"], |s, v| s.opts.max_open_files = [256, 16][v]),
    ("wal_fs", &["data fs", "nvm fs"], |s, v| {
        s.opts.wal_fs = (v == 1).then(nvm_wal::log_fs);
    }),
];

/// One value index per row of [`AXES`].
#[derive(Clone, Debug, Default)]
struct Config([usize; AXES.len()]);

impl Config {
    fn setup(&self) -> Setup {
        let mut setup = Setup {
            device: profiles::optane_900p(),
            // Small and fixed: a flush every ~80 writes, compaction after
            // every second Level-0 file, a second level, and a slowdown a
            // throttled compaction can reach.
            opts: DbOptions {
                write_buffer_size: 64 << 10,
                target_file_size_base: 64 << 10,
                max_bytes_for_level_base: 64 << 10,
                level0_file_num_compaction_trigger: 2,
                level0_slowdown_writes_trigger: 4,
                level0_stop_writes_trigger: 8,
                ..DbOptions::default()
            },
        };
        (AXES.iter().zip(&self.0)).for_each(|((_, _, set), &v)| set(&mut setup, v));
        setup
    }

    /// The default config with `axis` (by name) at value `v`.
    fn with(mut self, axis: &str, v: usize) -> Config {
        self.0[AXES.iter().position(|a| a.0 == axis).unwrap()] = v;
        self
    }
}

fn config_strategy() -> impl Strategy<Value = Config> {
    // Every row has 2, 3 or 4 values, so a draw below 12 picks each alike.
    let draws = prop::collection::vec(0..12usize, AXES.len()..AXES.len() + 1);
    draws.prop_map(|d| Config(std::array::from_fn(|a| d[a] % AXES[a].1.len())))
}

/// Every version a key had, `(write index, value)`, `None` a delete.
type Versions = Vec<(usize, Option<Vec<u8>>)>;

/// The reference model.
#[derive(Clone, Default)]
struct Model {
    versions: BTreeMap<Vec<u8>, Versions>,
    /// Writes applied so far, which is the index of the newest.
    writes: usize,
}

impl Model {
    fn apply(&mut self, batch: &[(u16, Option<u8>)]) {
        self.writes += 1;
        for &(k, v) in batch {
            let version = (self.writes, v.map(|v| value(k, v)));
            self.versions.entry(key(k)).or_default().push(version);
        }
    }

    /// The value `key` had after write `at`; a later entry of one batch wins.
    fn get(&self, key: &[u8], at: usize) -> Option<Vec<u8>> {
        let versions = self.versions.get(key)?;
        versions.iter().rev().find(|(w, _)| *w <= at)?.1.clone()
    }

    /// The keys under `prefix` after write `at`.
    fn state(&self, at: usize, prefix: &[u8]) -> Dump {
        (self.versions.range(prefix.to_vec()..))
            .take_while(|(k, _)| k.starts_with(prefix))
            .filter_map(|(k, _)| Some((k.clone(), self.get(k, at)?)))
            .collect()
    }

    /// Forgets every write after `at`.
    fn truncate(&mut self, at: usize) {
        let keep = |v: &mut Versions| v.retain(|(w, _)| *w <= at);
        self.versions.values_mut().for_each(keep);
        self.writes = at;
    }

    /// One write that makes the key space `got`: a delete of every key,
    /// then a put of each in `got`, which wins.
    fn reset(&mut self, got: &Dump) {
        self.writes += 1;
        self.versions
            .values_mut()
            .for_each(|v| v.push((self.writes, None)));
        for (k, v) in got {
            let versions = self.versions.entry(k.clone()).or_default();
            versions.push((self.writes, Some(v.clone())));
        }
    }
}

type Check = Result<(), String>;

fn fail(e: DbError) -> String {
    format!("error: {e}")
}

/// A key as text, a value by its length and the version it ends in.
fn show(bytes: &[u8]) -> String {
    let run = bytes.iter().take_while(|&&b| b == bytes[0]).count();
    let text = |b| String::from_utf8_lossy(b).into_owned();
    match bytes.len() {
        0..=16 => text(bytes),
        n => format!("{n} bytes ending {}", text(&bytes[run..])),
    }
}

fn point(what: fmt::Arguments<'_>, got: Option<Vec<u8>>, want: Option<Vec<u8>>) -> Check {
    if got == want {
        return Ok(());
    }
    let (got, want) = (got.as_deref().map(show), want.as_deref().map(show));
    Err(format!("{what}: got {got:?}, want {want:?}"))
}

/// Two key spaces, entry by entry.
fn differ(what: fmt::Arguments<'_>, got: &Dump, want: &Dump) -> Check {
    if got == want {
        return Ok(());
    }
    let i = got.iter().zip(want).take_while(|(g, w)| g == w).count();
    let [got, want] = [got, want].map(|e| e.get(i).map(|(k, v)| (show(k), show(v))));
    Err(format!("{what}: entry {i} is {got:?}, want {want:?}"))
}

/// The keys of stripe `w` of `n`.
fn stripe(dump: &Dump, w: usize, n: usize) -> Dump {
    let on = |(k, _): &&(Vec<u8>, Vec<u8>)| usize::from(index(k)) % n == w;
    dump.iter().filter(on).cloned().collect()
}

/// An answer, or `None` for an error `expected` allows.
fn allowed<T>(read: DbResult<T>, expected: fn(&DbError) -> bool) -> Result<Option<T>, String> {
    match read {
        Ok(v) => Ok(Some(v)),
        Err(e) if expected(&e) => Ok(None),
        Err(e) => Err(fail(e)),
    }
}

fn apply(db: &Db, batch: &[(u16, Option<u8>)]) -> DbResult<()> {
    let mut b = WriteBatch::new();
    for &(k, v) in batch {
        match v {
            Some(v) => b.put(&key(k), &value(k, v)),
            None => b.delete(&key(k)),
        }
    }
    db.write(b)
}

/// The MANIFEST and CURRENT deleted, or the MANIFEST cut to half its length;
/// with `drop_logs`, every other log deleted too.
fn lose_manifest(fs: &Arc<SimFs>, wal_fs: &SimFs, truncate: bool, drop_logs: bool) {
    for path in ["db/MANIFEST", "db/CURRENT"] {
        let f = fs.open(path).unwrap();
        let half = f.read_at(0, f.len() as usize / 2).unwrap();
        fs.delete(path).unwrap();
        if truncate && path == "db/MANIFEST" {
            let f = fs.create(path).unwrap();
            f.append(&half).and_then(|_| f.sync()).unwrap();
        }
    }
    for log in logs(wal_fs).iter().step_by(2).filter(|_| drop_logs) {
        wal_fs.delete(log).unwrap();
    }
}

/// The logs on `fs`.
fn logs(fs: &SimFs) -> Vec<String> {
    let mut files = fs.list("db/");
    files.retain(|p| p.ends_with(".log"));
    files
}

thread_local! {
    /// Every config the sampler drew on this thread, for the coverage check.
    static DRAWN: RefCell<Vec<Config>> = const { RefCell::new(Vec::new()) };
    /// Every fault kind that fired on this thread.
    static FIRED: RefCell<BTreeSet<&'static str>> = const { RefCell::new(BTreeSet::new()) };
}

/// One case in flight: the database, the model and the held snapshots.
struct Run {
    fs: Arc<SimFs>,
    /// The log's filesystem: `fs`, or the NVM one of the `wal_fs` axis.
    wal_fs: Arc<SimFs>,
    opts: DbOptions,
    db: Arc<Db>,
    model: Model,
    held: Vec<(Snapshot, usize)>,
    /// The newest write a power cut may not take back: the last acked with
    /// `wal_sync`, else the last a flush or a recovery made durable.
    durable: usize,
    /// The power cut armed, and the data filesystem's count of cuts when it
    /// armed, until it fired and the database reopened.
    cut: Option<(Fault, u64)>,
    /// The writes of the op a fired power cut overtook; one write is one
    /// stream.
    pending: Streams,
    /// Concurrent writes since the last recovery, after the model write
    /// each op started at.
    concurrent: Vec<(usize, Streams)>,
    /// The key space after every recovery, for the same-seed check.
    dumps: Vec<Dump>,
    /// The kind of every fault that fired, in order.
    fired: Vec<&'static str>,
}

impl Run {
    /// One op or fault run, then the recovery once an armed power cut has
    /// fired. What it saw after the cut is not checked: the recovery is.
    fn armed(&mut self, step: impl FnOnce(&mut Run) -> Check) -> Check {
        let result = step(self);
        if self.cut.is_some() && self.fs.is_powered_off() {
            self.recover()
        } else {
            result
        }
    }

    fn step(&mut self, op: &Op) -> Check {
        let head = self.model.writes;
        match *op {
            Op::Put(k, v) => self.write(&[(k, Some(v))]),
            Op::Delete(k) => self.write(&[(k, None)]),
            Op::Write(batch) => self.write(&batch),
            Op::Get(k) => self.get(&key(k), ""),
            Op::MultiGet(ks) => self.read(&ks.map(key), None),
            Op::Scan => self.scan(None),
            Op::ScanPrefix(p) => self.scan(Some(p)),
            Op::Snapshot => {
                self.held.push((self.db.snapshot(), head));
                Ok(())
            }
            Op::ReadAt(n) if !self.held.is_empty() => {
                let (snap, at) = &self.held[usize::from(n) % self.held.len()];
                self.read(&all_keys(), Some((snap.sequence(), *at)))
            }
            Op::Release(n) if !self.held.is_empty() => {
                self.held.remove(usize::from(n) % self.held.len());
                Ok(())
            }
            Op::ReadAt(_) | Op::Release(_) => Ok(()),
            Op::Flush => {
                self.db.flush().map_err(fail)?;
                self.durable = head;
                Ok(())
            }
            Op::Settle => {
                self.db.wait_for_compactions();
                self.drain_trash()?;
                self.expect_healthy()?;
                self.check_head()
            }
            Op::Reopen => {
                self.db.close();
                self.open(false)?;
                self.check_head()
            }
            Op::Parallel(n, len, seed) => {
                let streams: Vec<Vec<Batch>> = (0..n).map(|w| stream(w, n, len, seed)).collect();
                let writers: Vec<_> = streams.iter().map(|s| self.spawn(s)).collect();
                // Join every writer before failing: none may outlive the runtime.
                let joined = writers.into_iter().map(JoinHandle::join).collect();
                // The stripes are disjoint, so every interleaving ends here.
                self.finish(streams, joined)?;
                self.check_head()
            }
            Op::ReadWhileWriting(len, seed) => {
                let snap = self.db.snapshot();
                let batches = stream(0, 1, len, seed);
                let keys: Vec<Vec<u8>> = batches.iter().flatten().map(|&(k, _)| key(k)).collect();
                let writer = self.spawn(&batches);
                let read = self.read(&keys, Some((snap.sequence(), head)));
                self.finish(vec![batches], vec![writer.join()])?;
                read?;
                self.check_head()
            }
            Op::Inject(fault) => self.inject(&[fault]),
        }
    }

    /// Applies one write to both sides and reads its keys back.
    fn write(&mut self, batch: &[(u16, Option<u8>)]) -> Check {
        let result = apply(&self.db, batch);
        self.finish(vec![vec![batch.to_vec()]], vec![(0, result)])?;
        let mut keys = batch.iter().map(|&(k, _)| key(k));
        keys.try_for_each(|k| self.get(&k, " after its write"))
    }

    /// Writes `batches` on a sim thread of its own, up to the first error;
    /// returns the batches acked.
    fn spawn(&self, batches: &[Batch]) -> JoinHandle<(usize, DbResult<()>)> {
        let (db, batches) = (Arc::clone(&self.db), batches.to_vec());
        sim::spawn("writer", move || {
            for (acked, b) in batches.iter().enumerate() {
                if let Err(e) = apply(&db, b) {
                    return (acked, Err(e));
                }
            }
            (batches.len(), Ok(()))
        })
    }

    /// Streams that finished before any power cut go to the model. The
    /// writes of an op a cut overtook are left pending for the recovery:
    /// it shows what each stream acked if that was synced, and at most one
    /// batch more.
    fn finish(&mut self, streams: Vec<Vec<Batch>>, joined: Vec<(usize, DbResult<()>)>) -> Check {
        let error = joined.iter().find_map(|(_, r)| r.clone().err());
        if error.is_some() || self.cut.is_some() && self.fs.is_powered_off() {
            let sync = self.opts.wal_sync;
            let bound = |(s, (acked, _)): (Vec<Batch>, _)| {
                let most = s.len().min(acked + 1);
                (s, if sync { acked } else { 0 }, most)
            };
            self.pending = streams.into_iter().zip(joined).map(bound).collect();
            return error.map_or(Ok(()), |e| Err(fail(e)));
        }
        if streams.len() > 1 {
            let whole = streams.iter().map(|s| (s.clone(), 0, s.len())).collect();
            self.concurrent.push((self.model.writes, whole));
        }
        streams.iter().flatten().for_each(|b| self.model.apply(b));
        if self.opts.wal_sync {
            self.durable = self.model.writes;
        }
        Ok(())
    }

    fn get(&self, k: &[u8], when: &str) -> Check {
        let got = self.db.get(k).map_err(fail)?;
        let what = format_args!("get({}){when}", show(k));
        point(what, got, self.model.get(k, self.model.writes))
    }

    /// The full scan, or the prefix scan of `p`.
    fn dump(&self, p: Option<&str>) -> Result<Dump, String> {
        let scan = match p {
            None => self.db.scan().and_then(|mut s| Ok((s.seek_to_first()?, s))),
            Some(p) => self.db.scan_prefix(p.as_bytes()).map(|s| (s.valid(), s)),
        };
        let (mut ok, mut scan) = scan.map_err(fail)?;
        let mut got = Vec::new();
        while ok {
            got.push((scan.key().to_vec(), scan.value().to_vec()));
            ok = scan.next().map_err(fail)?;
        }
        Ok(got)
    }

    fn scan(&self, p: Option<&str>) -> Check {
        let prefix = p.unwrap_or("").as_bytes();
        let want = self.model.state(self.model.writes, prefix);
        differ(format_args!("scan {p:?}"), &self.dump(p)?, &want)
    }

    /// The full scan and a `get` of every key. (Not a `multi_get`: its probe
    /// threads would cost more host time than the rest of the case.)
    fn check_head(&self) -> Check {
        self.scan(None)?;
        all_keys().iter().try_for_each(|k| self.get(k, " at head"))
    }

    /// `multi_get` of `keys` at the head, or `multi_get_at` and `get_at` at
    /// `Some((seq, at))`: a held sequence that must read as model write `at`.
    fn read(&self, keys: &[Vec<u8>], held: Option<(u64, usize)>) -> Check {
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let (batch, at) = match held {
            None => (self.db.multi_get(&refs), self.model.writes),
            Some((seq, at)) => (self.db.multi_get_at(&refs, seq), at),
        };
        for (k, got) in keys.iter().zip(batch.map_err(fail)?) {
            let want = self.model.get(k, at);
            let what = format!("{} after write {at}", show(k));
            point(format_args!("multi_get of {what}"), got, want.clone())?;
            if let Some((seq, _)) = held {
                let single = self.db.get_at(k, seq).map_err(fail)?;
                point(format_args!("get_at of {what}"), single, want)?;
            }
        }
        Ok(())
    }

    /// A `multi_get` and a `get` of every key while reads fail: each answer
    /// is the model's, or an error `expected` allows, never a wrong value.
    fn read_failing(&self, expected: fn(&DbError) -> bool) -> Check {
        let (keys, at) = (all_keys(), self.model.writes);
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let batch = allowed(self.db.multi_get(&refs), expected)?;
        for (i, k) in keys.iter().enumerate() {
            let many = batch.as_ref().map(|b| b[i].clone());
            let single = allowed(self.db.get(k), expected)?;
            for got in [many, single].into_iter().flatten() {
                let want = self.model.get(k, at);
                point(format_args!("{} under faults", show(k)), got, want)?;
            }
        }
        Ok(())
    }

    /// With the space axis on, the reaper empties `trash/` and counts every
    /// byte it queued as reclaimed.
    fn drain_trash(&self) -> Check {
        if self.opts.sst_delete_rate_bytes_per_sec == 0 {
            return Ok(());
        }
        for _ in 0..60_000 {
            let t = self.db.metrics().tickers;
            let reclaimed = t.get(Ticker::SpaceReclaimedBytes) == t.get(Ticker::TrashQueueBytes);
            let drained = reclaimed && self.fs.list("db/trash/").is_empty();
            // A dead filesystem keeps its trash for the reopen to queue.
            if drained || self.fs.is_powered_off() {
                return Ok(());
            }
            sim::sleep_nanos(5_000_000);
        }
        Err("the trash never drained".into())
    }

    /// Opens the closed database. After a power cut AbsoluteConsistency may
    /// refuse a torn log, and point-in-time recovery then may not. No file
    /// that was in `trash/` comes back to the live set, and the database
    /// opens healthy.
    fn open(&mut self, after_cut: bool) -> Check {
        self.held.clear();
        let trash = self.fs.list("db/trash/");
        let mut opts = self.opts.clone();
        let mut db = Db::open(Arc::clone(&self.fs), opts.clone());
        let refused = matches!(&db, Err(e) if e.is_corruption());
        if after_cut && refused && opts.wal_recovery_mode == M::AbsoluteConsistency {
            opts.wal_recovery_mode = M::PointInTimeRecovery;
            db = Db::open(Arc::clone(&self.fs), opts);
        }
        self.db = Arc::new(db.map_err(fail)?);
        let back = |t: &&String| self.fs.exists(&t.replace("/trash/", "/"));
        match trash.iter().find(back) {
            Some(t) => Err(format!("{t} came back from the trash")),
            None => self.expect_healthy(),
        }
    }

    /// Power off (if the armed cut has not), restore, damage the manifest if
    /// the fault says so, reopen, and match the key space to the model.
    fn recover(&mut self) -> Check {
        let Some((fault, cuts)) = self.cut.take() else {
            return Ok(());
        };
        self.record(&[fault], &[self.fs.stats().power_cuts > cuts]);
        // The whole machine: the log's device too, and again if the cut hit.
        self.fs.power_cut();
        self.wal_fs.power_cut();
        self.held.clear();
        self.db.close();
        self.fs.power_restore();
        self.wal_fs.power_restore();
        let (sync, floor) = (self.opts.wal_sync, self.durable);
        let mode = self.opts.wal_recovery_mode;
        // What the recovery may land on: the model after one write from the
        // floor on, or per key a value it had since `Some(write)`.
        let per_key = match fault {
            Fault::ManifestLoss(_, truncate, drop_logs) => {
                lose_manifest(&self.fs, &self.wal_fs, truncate, drop_logs);
                repair_db(Arc::clone(&self.fs), &self.opts).map_err(fail)?;
                // Repair salvages each log apart, so only synced ones line up.
                (drop_logs || !sync).then_some(if drop_logs { 0 } else { floor })
            }
            _ if matches!(mode, M::PointInTimeRecovery | M::AbsoluteConsistency) => None,
            _ => Some(floor),
        };
        self.open(true)?;
        let got = self.dump(None)?;
        match per_key {
            None => self.adopt(&got, floor)?,
            Some(since) => self.adopt_per_key(&got, since)?,
        }
        self.durable = self.model.writes;
        self.dumps.push(got);
        self.drain_trash()?;
        self.check_head()
    }

    /// Matches `got` to the model after one write from `floor` to the head,
    /// then makes it the head. The writes of the op the cut overtook, and
    /// of every concurrent op since the floor, commit interleaved on
    /// disjoint stripes: there each stripe shows its own prefix.
    fn adopt(&mut self, got: &Dump, floor: usize) -> Check {
        let (head, pending) = (self.model.writes, std::mem::take(&mut self.pending));
        if pending.iter().all(|(_, least, _)| *least == 0) {
            let same = |&at: &usize| self.model.state(at, b"") == *got;
            if let Some(at) = (floor..=head).rev().find(same) {
                self.model.truncate(at);
                return Ok(());
            }
        }
        let mut ops = std::mem::take(&mut self.concurrent);
        ops.retain(|(at, _)| *at >= floor);
        ops.extend((!pending.is_empty()).then_some((head, pending)));
        for (at, op) in &ops {
            let n = op.len();
            let with = |w: usize, p: usize| {
                let mut m = self.model.clone();
                m.truncate(*at);
                op[w].0[..p].iter().for_each(|b| m.apply(b));
                stripe(&m.state(m.writes, b""), w, n)
            };
            let prefix = |w: usize| (op[w].1..=op[w].2).find(|&p| with(w, p) == stripe(got, w, n));
            if let Some(ps) = (0..n).map(prefix).collect::<Option<Vec<_>>>() {
                self.model.truncate(*at);
                let applied = ps.iter().enumerate().flat_map(|(w, &p)| &op[w].0[..p]);
                applied.for_each(|b| self.model.apply(b));
                return Ok(());
            }
        }
        let want = self.model.state(head, b"");
        let what = format_args!("no write {floor}..={head} matches");
        differ(what, got, &want)
    }

    /// Checks that every key of `got` holds its value after write `since`,
    /// one written later, or one in flight, then makes `got` the head.
    fn adopt_per_key(&mut self, got: &Dump, since: usize) -> Check {
        let (pending, got_map) = (std::mem::take(&mut self.pending), got.iter().cloned());
        let got_map: BTreeMap<_, _> = got_map.collect();
        for k in all_keys() {
            let found = got_map.get(&k).cloned();
            let versions = self.model.versions.get(&k).into_iter().flatten();
            let mut later = versions.filter(|(w, _)| *w > since).map(|(_, v)| v);
            let mut in_flight = pending.iter().flat_map(|(s, ..)| s.iter().flatten());
            let sent = |&(i, v): &(u16, Option<u8>)| key(i) == k && v.map(|v| value(i, v)) == found;
            let kept = found == self.model.get(&k, since) || later.any(|v| *v == found);
            if !kept && !in_flight.any(sent) {
                let found = found.as_deref().map(show);
                return Err(format!("{} recovered as {found:?}", show(&k)));
            }
        }
        self.concurrent.clear();
        self.model.reset(got);
        Ok(())
    }

    /// Records which of `faults` fired: for the run's coverage and, in
    /// order, for the case's schedule.
    fn record(&mut self, faults: &[Fault], hits: &[bool]) {
        for (f, _) in faults.iter().zip(hits).filter(|(_, &hit)| hit) {
            FIRED.with(|fired| fired.borrow_mut().insert(f.kind()));
            self.fired.push(f.kind());
        }
    }

    /// Arms `faults` together, at most one of each [`Fault::class`]. A lone
    /// cut waits for the ops that follow. Any other fault's trigger runs
    /// here, each in turn, under one plan per filesystem; a cut armed with
    /// them fires next, and its recovery is the outcome. Otherwise the
    /// strongest outcome a fired fault promises wins: read-only until
    /// `resume`, else writable with each fault counted; healthy either way.
    fn inject(&mut self, faults: &[Fault]) -> Check {
        if self.cut.is_some() {
            // A cut still armed fires before the next fault arms.
            self.fs.power_cut();
            self.recover()?;
        }
        let cut = faults.iter().copied().find(|f| f.class() == 0);
        let faults: Vec<Fault> = faults.iter().copied().filter(|f| f.class() != 0).collect();
        if faults.is_empty() {
            if let Some(cut) = cut {
                self.fs.set_fault_plan(cut.plan().0);
                self.cut = Some((cut, self.fs.stats().power_cuts));
            }
            return Ok(());
        }
        // The write a fault rides on, or fails with.
        let n = self.model.writes;
        let batch = [((n * 37 % usize::from(KEYS)) as u16, Some(n as u8))];
        let on_wal = |f: &Fault| matches!(f, Fault::WalAppend(_) | Fault::WalSync);
        let reads = |f: &Fault| matches!(f, Fault::SstRead(..) | Fault::BitFlips(_));
        // Tables to read, then a memtable to flush.
        if faults.iter().any(reads) {
            self.flush_settled()?;
        }
        if !faults.iter().all(on_wal) {
            self.write(&batch)?;
        }
        let fss = [Arc::clone(&self.fs), Arc::clone(&self.wal_fs)];
        let mut plans: [Option<FaultPlan>; 2] = [None, None];
        for &f in &faults {
            let slot = &mut plans[self.fs_of(f)];
            let plan = f.plan().0;
            *slot = Some(match slot.take() {
                Some(armed) => merge(armed, plan),
                None => plan,
            });
        }
        let before = fss.each_ref().map(|fs| fs.stats());
        for (fs, plan) in fss.iter().zip(plans) {
            plan.into_iter().for_each(|plan| fs.set_fault_plan(plan));
        }
        let m0 = self.db.metrics();
        let mut shrunk = false;
        let mut triggered = Ok(());
        // A full device first: every other trigger flushes, and a flush
        // stalls until space comes back.
        let mut triggers = faults.clone();
        triggers.sort_by_key(|f| f.class() != 1);
        for &f in &triggers {
            if triggered.is_err() {
                break;
            }
            triggered = match f {
                _ if on_wal(&f) => {
                    let written = apply(&self.db, &batch);
                    if written.is_ok() {
                        self.model.apply(&batch);
                    } else if cut.is_some() {
                        // The write failed, and the cut may keep it or not.
                        self.pending = vec![(vec![batch.to_vec()], 0, 1)];
                    }
                    written.map_err(fail)
                }
                Fault::Enospc(_) => self
                    .flush_while_full(cut.is_some(), &mut shrunk)?
                    .map_err(fail),
                // Every key read, then a write flushed with the compactions it
                // starts: a foreground error reaches the client, a background
                // one the error handler.
                Fault::SstRead(..) | Fault::BitFlips(_) => {
                    let expected: fn(&DbError) -> bool = match f {
                        Fault::BitFlips(_) => DbError::is_corruption,
                        _ => |e| matches!(e, DbError::Io { .. }),
                    };
                    let read = self.read_failing(expected);
                    read.and_then(|()| self.write(&batch))
                        .and_then(|()| self.flush_settled())
                }
                _ => self.flush_settled(),
            };
        }
        // A delete fault stays armed across the reaper's drain.
        let delete = faults.iter().any(|f| matches!(f, Fault::DeleteFails(..)));
        if delete && cut.is_none() {
            triggered = triggered.and_then(|()| self.drain_trash());
        }
        let hits = self.hits(&faults, &before, &m0, shrunk);
        fss.iter().for_each(|fs| fs.clear_fault_plan());
        self.record(&faults, &hits);
        if let Some(cut) = cut {
            self.cut = Some((cut, before[0].power_cuts));
            self.fs.power_cut();
            return self.recover();
        }
        let (m, watcher) = (self.db.metrics(), self.opts.space_poll_interval_ns > 0);
        let rose = |ticker| m.tickers.get(ticker) > m0.tickers.get(ticker);
        let must = |f: &Fault| match *f {
            Fault::SstWrite(_, retryable) => !retryable,
            Fault::Enospc(_) => !watcher,
            // Corruption a background job found.
            Fault::BitFlips(_) => rose(Ticker::CorruptionDetected),
            Fault::DeleteFails(..) | Fault::SstRead(..) => false,
            _ => true,
        };
        // A read a background job failed on may make it read-only.
        let may = |f: &Fault| matches!(f, Fault::SstRead(_, false) | Fault::BitFlips(_));
        let fired: Vec<Fault> = (faults.iter().zip(&hits))
            .filter_map(|(&f, &hit)| hit.then_some(f))
            .collect();
        if fired.iter().any(must) || m.read_only && fired.iter().any(may) {
            return self.expect_hard();
        }
        triggered?;
        self.expect_writable(&m0)?;
        if delete {
            // The next purge retries a failed delete: two more Level-0
            // files make a compaction, and its purge.
            for _ in 0..2 {
                self.write(&batch)?;
                self.flush_settled()?;
            }
            self.drain_trash()?;
        }
        let m = self.db.metrics();
        let t = |ticker| m.tickers.get(ticker) - m0.tickers.get(ticker);
        for f in fired {
            #[rustfmt::skip]
            let counted = match f {
                Fault::SstWrite(..) => t(Ticker::BackgroundErrorRetries) * t(Ticker::BackgroundAutoResumes) > 0,
                Fault::Enospc(_) => t(Ticker::EnospcStalls) > 0,
                Fault::DeleteFails(log, _) => !log || t(Ticker::WalPurgeFailures) > 0,
                _ => true,
            };
            if !counted {
                return Err(format!("{f:?} fired and the engine did not count it"));
            }
        }
        if delete && logs(&self.wal_fs).len() != 1 {
            return Err("a log the purge failed to delete is still there".into());
        }
        self.expect_healthy()
    }

    /// Which filesystem `fault` is armed on: the data's (0) or the log's.
    fn fs_of(&self, fault: Fault) -> usize {
        usize::from(fault.plan().1 && !Arc::ptr_eq(&self.fs, &self.wal_fs))
    }

    /// Which of `faults`, armed together, fired since `before` (each
    /// filesystem's stats) and `m0`. Each injected error is one fault's. A
    /// failed allocation beside a file trigger on the data filesystem is
    /// told by the engine instead: a stall, or a full device recorded.
    fn hits(
        &self,
        faults: &[Fault],
        before: &[FsStats; 2],
        m0: &Metrics,
        shrunk: bool,
    ) -> Vec<bool> {
        let after = [&self.fs, &self.wal_fs].map(|fs| fs.stats());
        let count = |s: &FsStats| s.injected_errors + s.bit_flips;
        let injected = |i: usize| count(&after[i]) - count(&before[i]);
        let m = self.db.metrics();
        let stalls = |m: &Metrics| m.tickers.get(Ticker::EnospcStalls);
        let full = stalls(&m) > stalls(m0)
            || matches!(&m.background_error, Some(e) if e.error == DbError::Fs(FsError::DeviceFull));
        let beside = faults.iter().any(|&f| f.class() == 2 && self.fs_of(f) == 0);
        let alloc = faults.iter().any(|f| matches!(f, Fault::Enospc(false)))
            && if beside { full } else { injected(0) > 0 };
        let hit = |f: Fault| match f {
            Fault::Enospc(true) => shrunk,
            Fault::Enospc(false) => alloc,
            _ => injected(self.fs_of(f)) > u64::from(alloc && self.fs_of(f) == 0),
        };
        faults.iter().map(|&f| hit(f)).collect()
    }

    /// Flushes on a thread of its own while the device is full, until the
    /// flush ends, the database stops or it stalls. With `cut` the power
    /// then dies, and a flush stalled at the edge must fail before space
    /// comes back; then it comes back, and the flush must end. `Err` if a
    /// flush outlives either wait (ten virtual seconds), else its result.
    fn flush_while_full(&self, cut: bool, shrunk: &mut bool) -> Result<DbResult<()>, String> {
        let (db, done) = (Arc::clone(&self.db), Arc::new(AtomicBool::new(false)));
        let flushed = Arc::clone(&done);
        // A daemon: a flush that never ends fails the case, not the runtime.
        let flusher = sim::spawn_daemon("flusher", move || {
            let result = db.flush();
            flushed.store(true, Ordering::Relaxed);
            result
        });
        let wait = |until: &dyn Fn() -> bool| {
            for _ in 0..10_000 {
                if until() {
                    return true;
                }
                sim::sleep_nanos(1_000_000);
            }
            false
        };
        let ended = || done.load(Ordering::Relaxed);
        let stalls = self.db.metrics().tickers.get(Ticker::EnospcStalls);
        wait(&|| {
            let m = self.db.metrics();
            m.read_only || m.tickers.get(Ticker::EnospcStalls) > stalls || ended()
        });
        if cut {
            self.fs.power_cut();
            if !wait(&ended) {
                self.fs.restore_capacity();
                return Err("a flush stalled at the power cut never failed".into());
            }
        }
        *shrunk = self.fs.restore_capacity() > 0;
        if !wait(&ended) {
            return Err("a flush stalled on a full device never ended".into());
        }
        Ok(flusher.join())
    }

    fn flush_settled(&self) -> Check {
        let flushed = self.db.flush();
        self.db.wait_for_compactions();
        flushed.map_err(fail)
    }

    /// A fault that never makes the database read-only, not even for a
    /// while since `m0`.
    fn expect_writable(&self, m0: &Metrics) -> Check {
        let went = |m: &Metrics| m.tickers.get(Ticker::ReadOnlyTransitions);
        let m = self.db.metrics();
        if m.read_only || went(&m) > went(m0) {
            return Err(format!("read-only after a fault: {:?}", m.background_error));
        }
        self.check_head()
    }

    /// No background error: nothing is retrying, stalled or read-only.
    fn expect_healthy(&self) -> Check {
        match self.db.metrics().background_error {
            Some(e) => Err(format!("unhealthy: {e:?}")),
            None => Ok(()),
        }
    }

    /// A hard fault: the database is read-only, a write fails with
    /// `ReadOnly`, reads still match the model, and `resume` recovers it.
    fn expect_hard(&mut self) -> Check {
        let m = self.db.metrics();
        if !m.read_only || m.background_error.as_ref().map(|b| b.severity) != Some(Hard) {
            let error = m.background_error;
            return Err(format!("writable after a hard fault: {error:?}"));
        }
        match apply(&self.db, &[(0, Some(0))]) {
            Err(DbError::ReadOnly(_)) => {}
            other => return Err(format!("a write while read-only returned {other:?}")),
        }
        self.check_head()?;
        self.db.resume().map_err(fail)?;
        self.expect_healthy()?;
        self.check_head()
    }

    /// The end of a case: the head and every held snapshot, and after a
    /// fault a last reopen.
    fn end(&mut self, faulted: bool) -> Check {
        self.recover()?;
        self.check_head()?;
        for (snap, at) in &self.held {
            self.read(&all_keys(), Some((snap.sequence(), *at)))?;
        }
        if faulted {
            self.db.close();
            self.open(false)?;
            self.dumps.push(self.dump(None)?);
            self.check_head()?;
        }
        Ok(())
    }
}

/// The faults of the `Inject` run at the head of `ops` that arm together:
/// up to the first op that is no `Inject` or whose class the run holds.
fn group(ops: &[Op]) -> Vec<Fault> {
    let mut faults: Vec<Fault> = Vec::new();
    for op in ops {
        match *op {
            Op::Inject(f) if faults.iter().all(|g| g.class() != f.class()) => faults.push(f),
            _ => break,
        }
    }
    faults
}

/// Replays `tape` under `config` and returns the key space after every
/// recovery and the kind of every fault that fired, in order. At a
/// divergence, panics with the config and the tape up to the op that
/// diverged, a literal to paste into [`corpus`].
fn check(config: &Config, tape: &[Op]) -> (Vec<Dump>, Vec<&'static str>) {
    let result = Runtime::new().run(|| {
        let Setup { device, opts } = config.setup();
        let fs = SimFs::new(SimDevice::shared(device), FsOptions::default());
        let wal_fs = opts.wal_fs.clone().unwrap_or_else(|| Arc::clone(&fs));
        let db = Arc::new(Db::open(Arc::clone(&fs), opts.clone()).map_err(|e| (0, fail(e)))?);
        #[rustfmt::skip]
        let mut run = Run { fs, wal_fs, opts, db, model: Model::default(), held: Vec::new(),
            durable: 0, cut: None, pending: Vec::new(), concurrent: Vec::new(), dumps: Vec::new(),
            fired: Vec::new() };
        let (mut result, mut i) = (Ok(()), 0);
        while result.is_ok() && i < tape.len() {
            let (op, faults) = (&tape[i], group(&tape[i..]));
            i += faults.len().max(1);
            result = run
                .armed(|run| match faults.is_empty() {
                    true => run.step(op),
                    false => run.inject(&faults),
                })
                .map_err(|why| (i - 1, why));
        }
        if result.is_ok() {
            let faulted = tape.iter().any(|op| matches!(op, Op::Inject(_)));
            result = run.end(faulted).map_err(|why| (tape.len() - 1, why));
        }
        run.held.clear();
        run.db.close();
        result.map(|()| (run.dumps, run.fired))
    });
    result.unwrap_or_else(|(at, why)| {
        let name = |((axis, values, _), &v): (&Axis, _)| (v > 0).then(|| (*axis, values[v]));
        let names: Vec<_> = AXES.iter().zip(&config.0).filter_map(name).collect();
        let (op, prefix) = (&tape[at], &tape[..=at]);
        panic!("diverged at op {at}, {op:?}: {why}\n{config:?} {names:?}\nvec!{prefix:?}");
    })
}

/// Tapes that once diverged, replayed before any sampled case.
#[rustfmt::skip] // pasted literals, one tape to a paragraph
fn corpus() -> Vec<Vec<Op>> {
    use Fault::*;
    use Op::*;
    vec![
        // The one failure recorded for the model check this oracle replaced.
        vec![Put(80, 53), Delete(80), Get(82), Delete(384), Get(315), Scan, Put(324, 95),
            Put(153, 250), Put(94, 158), Scan, Get(342), Put(136, 144), Get(145), Scan,
            Delete(298), Reopen, Put(127, 164), Put(278, 44), Put(111, 68), Reopen, Get(359),
            Put(172, 120), Delete(326), Delete(138), Put(236, 9), Flush, Scan, Get(184), Scan,
            Put(30, 132), Flush, Reopen, Get(329), Flush, Put(126, 112), Flush, Delete(66),
            Get(334), Put(142, 140), Put(298, 94), Put(385, 25), Put(158, 146), Delete(270),
            Scan, Get(148), Get(307), Get(160), Reopen, Flush, Delete(219), Delete(120),
            Put(385, 19), Delete(32)],
        // A snapshot shields a value from a later delete, across a flush.
        vec![Put(7, 1), Snapshot, Delete(7), Flush, Settle, Get(7), ReadAt(0)],
        // A full compaction output was cut between two versions of a key that
        // a snapshot kept; moving the first file down buried the newer one.
        vec![Put(62, 185), ReadWhileWriting(11, 98), Put(118, 60),
            Write([(278, Some(190)), (235, Some(39)), (121, Some(168))]), Parallel(4, 13, 117),
            Parallel(4, 12, 173), Put(262, 3), Put(237, 83), Put(133, 24), Reopen, Snapshot,
            ReadWhileWriting(58, 156), Parallel(2, 21, 31)],
        // A refused WAL append skipped a sequence range, and point-in-time
        // replay stopped at the gap, before the next acked write.
        vec![Put(1, 1), Inject(WalAppend(false)), Put(2, 3), Reopen],
        // A torn append stopped replay before the next acked write.
        vec![Put(1, 1), Inject(WalAppend(true)), Put(2, 3), Reopen],
        // A write whose WAL sync failed was replayed at the next open.
        vec![Put(1, 1), Inject(WalSync), Put(2, 3), Reopen],
        // The same torn append as a log's first record: `resume` retires the
        // log of an empty memtable.
        vec![Put(1, 1), Flush, Inject(WalAppend(true)), Put(2, 3), Reopen],
    ]
}

/// Fault combinations the engine claims to survive, each under the config
/// it needs. Every one must fire all of its faults, in the tape's order.
#[rustfmt::skip] // one schedule to a paragraph
fn schedules() -> Vec<(Config, Vec<Op>)> {
    use Fault::*;
    use Op::*;
    let space = |v| Config::default().with("space cap/reaper/watcher", v);
    let fill = |n: u16, then: Vec<Op>| [(0..n).map(|k| Put(k * 7 % KEYS, 1)).collect(), then].concat();
    let mut pinned = Vec::new();
    // A power cut while a full device stalls a flush, on every device: the
    // stall turns hard, and the flush parked in it fails before space comes
    // back; every acked write survives.
    for device in 0..3 {
        let config = space(1).with("wal_sync", 1).with("device", device);
        pinned.push((config, fill(120, vec![Inject(Enospc(true)), Inject(PowerCut(400)), Put(1, 2), Scan])));
    }
    pinned.extend([
        // A retried scrub read under an ENOSPC stall: its success ends only
        // its own error, and the watcher still ends the stall.
        (space(2).with("scrub_rate_bytes_per_sec", 1).with("device", 2),
            fill(120, vec![Inject(Enospc(false)), Inject(SstRead(1, true)), Put(2, 3), Settle])),
        // A table delete that fails under the paced reaper, armed across its
        // drain: the reaper's next delete clears its error.
        (space(1), fill(200, vec![Inject(DeleteFails(false, true)), Settle])),
        // A torn WAL append, then the MANIFEST lost before `resume`, and
        // `repair_db`.
        (Config::default().with("wal_sync", 1),
            fill(100, vec![Flush, Put(3, 4), Inject(WalAppend(true)), Inject(ManifestLoss(60, false, false)),
                Put(4, 5), Scan])),
        // Bit flips on a compressed, protected store, then the MANIFEST cut
        // to half, and `repair_db`.
        (Config::default().with("compression", 1).with("protection_bytes_per_key", 2),
            fill(150, vec![Inject(BitFlips(7)), Inject(ManifestLoss(60, true, false)), Put(5, 6), Scan])),
    ]);
    pinned
}

proptest! {
    #![proptest_config(ProptestConfig { cases: CASES, ..ProptestConfig::default() })]

    /// Run by [`every_option_and_fault_answers_like_the_model`].
    fn sampled_cases(
        config in config_strategy(),
        schedule in schedule_strategy(),
        tape in prop::collection::vec(op_strategy(), 1..160),
    ) {
        DRAWN.with(|d| d.borrow_mut().push(config.clone()));
        check(&config, &place(tape, &schedule));
    }
}

#[test]
fn every_option_and_fault_answers_like_the_model() {
    let axis_values =
        || (AXES.iter().enumerate()).flat_map(|(a, row)| (0..row.1.len()).map(move |v| (a, v)));
    for (t, tape) in corpus().into_iter().enumerate() {
        // The default config, then every config one value away from it.
        for (axis, v) in axis_values().filter(|&(a, v)| v > 0 || a == 0) {
            let mut config = Config::default();
            config.0[axis] = v;
            check(&config, &tape);
        }
        if tape.iter().any(|op| matches!(op, Op::Inject(_))) {
            continue;
        }
        // Every fault at the middle of the tape, twice: the same bytes.
        let config = Config::default().with("device", 1).with("wal_sync", 1);
        let config = config.with("space cap/reaper/watcher", t % 2);
        for fault in FAULTS {
            let mut tape = tape.clone();
            tape.insert(tape.len() / 2, Op::Inject(fault));
            let same = check(&config, &tape) == check(&config, &tape);
            assert!(same, "{fault:?} recovered two ways");
        }
        // Power cuts swept through the tape, under every recovery mode with
        // and without `wal_sync`.
        let config = config.with("space cap/reaper/watcher", 1);
        for i in 0..CUTS {
            let tape = [&[Op::Inject(Fault::PowerCut(1 + i * 23))], &tape[..]].concat();
            let mode = config.clone().with("wal_recovery_mode", usize::from(i % 4));
            check(&mode.with("wal_sync", usize::from(i / 4 % 2)), &tape);
        }
    }
    for (config, tape) in schedules() {
        let faults = tape.iter().filter_map(|op| match op {
            Op::Inject(f) => Some(f.kind()),
            _ => None,
        });
        let (_, fired) = check(&config, &tape);
        let want: Vec<_> = faults.collect();
        assert_eq!(
            fired, want,
            "a pinned schedule fired other faults under {config:?}"
        );
    }
    sampled_cases();
    for (axis, v) in axis_values() {
        let (name, values, _) = AXES[axis];
        let drew = DRAWN.with(|d| d.borrow().iter().any(|c| c.0[axis] == v));
        assert!(drew, "no sampled case drew {name}={}", values[v]);
    }
    let (fired, kinds) = (FIRED.with(|f| f.take()), FAULTS.map(Fault::kind));
    let all = kinds.iter().all(|k| fired.contains(k));
    assert!(all, "fired only {fired:?}");
    // The run's peak memory, which `scripts/bench.sh` reads with
    // `--show-output`: the resident high-water mark, which also counts what
    // the C allocator keeps after frees, and the peak of live heap bytes.
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    println!(
        "{}",
        status
            .lines()
            .find(|l| l.starts_with("VmHWM"))
            .unwrap_or("VmHWM: n/a")
    );
    println!("live heap peak: {} kB", counting_alloc::live_peak_kib());
}

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;
