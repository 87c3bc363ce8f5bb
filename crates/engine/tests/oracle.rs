//! One op tape, one reference model and one configuration sampler for every
//! option that changes what a read or write costs and never what it returns
//! (one row of [`AXES`] each). Reads are checked as they run, writes are read
//! back, and the whole key space after each settle, reopen and concurrent op
//! and at the end. A divergence prints its config and tape prefix, which
//! joins [`corpus`]: replayed first, under the default and each one-axis config.

use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use xlsm_device::{profiles, DeviceProfile, SimDevice};
use xlsm_engine::db::Snapshot;
use xlsm_engine::{CompactionScheduler as Sched, CompressionType as C, ThrottlePolicy as T};
use xlsm_engine::{Db, DbError, DbOptions, DbResult, WriteBatch};
use xlsm_sim::Runtime;
use xlsm_simfs::{FsOptions, SimFs};

/// Keys the tape writes.
const KEYS: u16 = 400;
/// Keys past [`KEYS`] are read and never written: the misses.
const MISSES: u16 = 50;
/// Sampled cases per run, after the corpus.
const CASES: u32 = 48;

/// Ten two-byte prefix families (`p0`..`p9`), so prefix blooms and prefix
/// scans have something to prune; a miss sorts among the hits.
fn key(k: u16) -> Vec<u8> {
    format!("p{}{k:05}", k % 10).into_bytes()
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
}

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
const AXES: [Axis; 17] = [
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
    ("throttle_policy", &["original", "two-stage", "off"], |s, v| {
        s.opts.throttle_policy = [T::Original, T::TwoStage { min_rate: 8 << 20 }, T::Off][v];
    }),
    ("protection_bytes_per_key", &["0", "1", "8"], |s, v| {
        s.opts.protection_bytes_per_key = [0, 1, 8][v];
    }),
    ("paranoid_file_checks", &["off", "on"], |s, v| s.opts.paranoid_file_checks = v == 1),
    ("scrub_rate_bytes_per_sec", &["0", "64M"], |s, v| {
        s.opts.scrub_rate_bytes_per_sec = [0, 64 << 20][v];
    }),
    ("space cap/reaper/watcher", &["off", "64M/8M/1ms"], |s, v| {
        s.opts.max_allowed_space_bytes = [0, 64 << 20][v];
        s.opts.sst_delete_rate_bytes_per_sec = [0, 8 << 20][v];
        s.opts.space_poll_interval_ns = [0, 1_000_000][v];
    }),
    ("wal_sync", &["off", "on"], |s, v| s.opts.wal_sync = v == 1),
    ("max_open_files", &["256", "16"], |s, v| s.opts.max_open_files = [256, 16][v]),
    ("wal_fs", &["data fs", "nvm fs"], |s, v| {
        // `apply_wal_placement`'s NVM log: a page cache over the whole device.
        let nvm = || SimDevice::shared(profiles::nvm_dram());
        let fs = || SimFs::new(nvm(), FsOptions { page_cache_pages: 64 << 10 });
        s.opts.wal_fs = (v == 1).then(fs);
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
}

fn config_strategy() -> impl Strategy<Value = Config> {
    // Every row has 2, 3 or 4 values, so a draw below 12 picks each alike.
    let draws = prop::collection::vec(0..12usize, AXES.len()..AXES.len() + 1);
    draws.prop_map(|d| Config(std::array::from_fn(|a| d[a] % AXES[a].1.len())))
}

/// Every version a key had, `(write index, value)`, `None` a delete.
type Versions = Vec<(usize, Option<Vec<u8>>)>;

/// The reference model.
#[derive(Default)]
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

    fn scan(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        (self.versions.range(prefix.to_vec()..))
            .take_while(|(k, _)| k.starts_with(prefix))
            .filter_map(|(k, _)| Some((k.clone(), self.get(k, self.writes)?)))
            .collect()
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

/// One case in flight: the database, the model and the held snapshots.
struct Run {
    fs: Arc<SimFs>,
    opts: DbOptions,
    db: Arc<Db>,
    model: Model,
    held: Vec<(Snapshot, usize)>,
}

impl Run {
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
            Op::Flush => self.db.flush().map_err(fail),
            Op::Settle => {
                self.db.wait_for_compactions();
                self.check_head()
            }
            Op::Reopen => {
                self.held.clear();
                self.db.close();
                self.db =
                    Arc::new(Db::open(Arc::clone(&self.fs), self.opts.clone()).map_err(fail)?);
                self.check_head()
            }
            Op::Parallel(n, len, seed) => {
                let streams: Vec<Vec<Batch>> = (0..n).map(|w| stream(w, n, len, seed)).collect();
                let writers: Vec<_> = streams.iter().map(|s| self.spawn(s)).collect();
                // Join every writer before failing: none may outlive the runtime.
                let joined: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
                joined.into_iter().try_for_each(|r| r.map_err(fail))?;
                // The stripes are disjoint, so every interleaving ends here.
                streams.iter().flatten().for_each(|b| self.model.apply(b));
                self.check_head()
            }
            Op::ReadWhileWriting(len, seed) => {
                let snap = self.db.snapshot();
                let batches = stream(0, 1, len, seed);
                let keys: Vec<Vec<u8>> = batches.iter().flatten().map(|&(k, _)| key(k)).collect();
                let writer = self.spawn(&batches);
                let read = self.read(&keys, Some((snap.sequence(), head)));
                read.and(writer.join().map_err(fail))?;
                batches.iter().for_each(|b| self.model.apply(b));
                self.check_head()
            }
        }
    }

    /// Applies one write to both sides and reads its keys back.
    fn write(&mut self, batch: &[(u16, Option<u8>)]) -> Check {
        apply(&self.db, batch).map_err(fail)?;
        self.model.apply(batch);
        let mut keys = batch.iter().map(|&(k, _)| key(k));
        keys.try_for_each(|k| self.get(&k, " after its write"))
    }

    /// Writes `batches` on a sim thread of its own.
    fn spawn(&self, batches: &[Batch]) -> xlsm_sim::JoinHandle<DbResult<()>> {
        let (db, batches) = (Arc::clone(&self.db), batches.to_vec());
        let write_all = move || batches.iter().try_for_each(|b| apply(&db, b));
        xlsm_sim::spawn("writer", write_all)
    }

    fn get(&self, k: &[u8], when: &str) -> Check {
        let got = self.db.get(k).map_err(fail)?;
        let what = format_args!("get({}){when}", show(k));
        point(what, got, self.model.get(k, self.model.writes))
    }

    /// The full scan, or the prefix scan of `p`, entry by entry.
    fn scan(&self, p: Option<&str>) -> Check {
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
        let want = self.model.scan(p.unwrap_or("").as_bytes());
        if got == want {
            return Ok(());
        }
        let i = got.iter().zip(&want).take_while(|(g, w)| g == w).count();
        let at = |e: &[(Vec<u8>, Vec<u8>)]| e.get(i).map(|(k, v)| (show(k), show(v)));
        let (got, want) = (at(&got), at(&want));
        Err(format!("scan {p:?}: entry {i} is {got:?}, want {want:?}"))
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
}

/// Replays `tape` under `config`. At a divergence, panics with the config
/// and the tape up to the op that diverged, a literal to paste into
/// [`corpus`].
fn check(config: &Config, tape: &[Op]) {
    let result = Runtime::new().run(|| {
        let Setup { device, opts } = config.setup();
        // Small, since a flash FTL's maps scale with capacity and a
        // filesystem's parked writeback daemon keeps it alive after the run.
        let device = SimDevice::shared(device.with_capacity_bytes(256 << 20));
        let fs = SimFs::new(device, FsOptions::default());
        let db = Arc::new(Db::open(Arc::clone(&fs), opts.clone()).map_err(|e| (0, fail(e)))?);
        #[rustfmt::skip]
        let mut run = Run { fs, opts, db, model: Model::default(), held: Vec::new() };
        let mut result =
            (tape.iter().enumerate()).try_for_each(|(i, op)| run.step(op).map_err(|why| (i, why)));
        if result.is_ok() {
            // The end: the head and every held snapshot.
            let mut ends = run.held.iter().map(|(s, at)| Some((s.sequence(), *at)));
            let end = run.check_head();
            let end = end.and_then(|()| ends.try_for_each(|held| run.read(&all_keys(), held)));
            result = end.map_err(|why| (tape.len() - 1, why));
        }
        run.held.clear();
        run.db.close();
        result
    });
    if let Err((at, why)) = result {
        let name = |((axis, values, _), &v): (&Axis, _)| (v > 0).then(|| (*axis, values[v]));
        let names: Vec<_> = AXES.iter().zip(&config.0).filter_map(name).collect();
        let (op, prefix) = (&tape[at], &tape[..=at]);
        panic!("diverged at op {at}, {op:?}: {why}\n{config:?} {names:?}\nvec!{prefix:?}");
    }
}

/// Tapes that once diverged, replayed before any sampled case.
#[rustfmt::skip] // pasted literals, one tape to a paragraph
fn corpus() -> Vec<Vec<Op>> {
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
    ]
}

thread_local! {
    /// Every config the sampler drew on this thread, for the coverage check.
    static DRAWN: RefCell<Vec<Config>> = const { RefCell::new(Vec::new()) };
}

proptest! {
    #![proptest_config(ProptestConfig { cases: CASES, ..ProptestConfig::default() })]

    /// Run by [`every_option_answers_like_the_model`], after the corpus.
    fn sampled_cases(
        config in config_strategy(),
        tape in prop::collection::vec(op_strategy(), 1..160),
    ) {
        DRAWN.with(|d| d.borrow_mut().push(config.clone()));
        check(&config, &tape);
    }
}

#[test]
fn every_option_answers_like_the_model() {
    let axis_values =
        || (AXES.iter().enumerate()).flat_map(|(a, row)| (0..row.1.len()).map(move |v| (a, v)));
    for tape in corpus() {
        // The default config, then every config one value away from it.
        for (axis, v) in axis_values().filter(|&(a, v)| v > 0 || a == 0) {
            let mut config = Config::default();
            config.0[axis] = v;
            check(&config, &tape);
        }
    }
    sampled_cases();
    for (axis, v) in axis_values() {
        let (name, values, _) = AXES[axis];
        let drew = DRAWN.with(|d| d.borrow().iter().any(|c| c.0[axis] == v));
        assert!(drew, "no sampled case drew {name}={}", values[v]);
    }
}
