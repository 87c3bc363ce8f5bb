//! Equivalence and atomicity tests for concurrent memtable writes
//! (`allow_concurrent_memtable_write`):
//!
//! * a randomized interleaved multi-writer workload applied with concurrent
//!   memtable writes must leave **byte-identical** state — every internal
//!   `(user_key, sequence, type, value)` entry — to replaying the same
//!   batches through the serial path with the same sequence assignment,
//!   which makes `get(key, s)` identical at *every* snapshot sequence `s`;
//! * the `write_done_count` barrier must prevent a reader from ever
//!   observing a partially-applied write group (all-or-none per batch);
//! * ≥32 writer threads hammering the concurrent insert path end-to-end
//!   must lose nothing.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xlsm_device::{profiles, SimDevice};
use xlsm_engine::iterator::InternalIterator;
use xlsm_engine::types::{parse_internal_key, ValueType};
use xlsm_engine::write::{WriteBackend, WriteQueue};
use xlsm_engine::{Db, DbOptions, DbResult, DbStats, MemTable, Ticker, WriteBatch};
use xlsm_sim::{Class, Runtime};
use xlsm_simfs::{FsOptions, SimFs};

/// Spawns writers `w0..w{n-1}`; writer `w` runs `work(w)`.
fn spawn_writers(
    n: usize,
    work: impl Fn(usize) + Send + Sync + 'static,
) -> Vec<xlsm_sim::JoinHandle<()>> {
    let work = Arc::new(work);
    (0..n)
        .map(|w| {
            let work = Arc::clone(&work);
            xlsm_sim::spawn(&format!("w{w}"), move || work(w))
        })
        .collect()
}

/// [`spawn_writers`], joined in spawn order.
fn fan_out(n: usize, work: impl Fn(usize) + Send + Sync + 'static) {
    for writer in spawn_writers(n, work) {
        writer.join();
    }
}

// ---------------------------------------------------------------------------
// Queue-level equivalence: concurrent apply vs. serial replay
// ---------------------------------------------------------------------------

/// Minimal backend over a bare memtable. WAL latency creates the grouping
/// window; memtable cost scales per entry, charged before each insert as
/// the engine charges it, so the concurrent path genuinely overlaps work.
struct MemBackend {
    mem: Arc<MemTable>,
    seq: AtomicU64,
    wal_delay_ns: u64,
    per_insert_ns: u64,
}

impl MemBackend {
    fn new(wal_delay_ns: u64, per_insert_ns: u64) -> Arc<MemBackend> {
        Arc::new(MemBackend {
            mem: MemTable::new(0),
            seq: AtomicU64::new(0),
            wal_delay_ns,
            per_insert_ns,
        })
    }
}

impl WriteBackend for MemBackend {
    fn preprocess(&self, _group_bytes: u64) -> DbResult<()> {
        Ok(())
    }
    fn reserve_seq(&self, count: u64) -> u64 {
        self.seq.fetch_add(count, Ordering::Relaxed) + 1
    }
    fn publish_seq(&self, _last: u64) {}
    fn write_wal(&self, _group: &WriteBatch) -> DbResult<()> {
        if self.wal_delay_ns > 0 {
            xlsm_sim::sleep_nanos(self.wal_delay_ns);
        }
        Ok(())
    }
    fn write_memtable(&self, group: &WriteBatch) -> DbResult<()> {
        if self.per_insert_ns > 0 {
            xlsm_sim::sleep_nanos(self.per_insert_ns * u64::from(group.count()));
        }
        group.apply_to(&self.mem)
    }
    fn write_memtable_member(&self, batch: &WriteBatch) -> DbResult<()> {
        for (seq, op) in (batch.sequence()..).zip(batch.iter()) {
            let (t, key, value) = op?;
            if self.per_insert_ns > 0 {
                xlsm_sim::charge(Class::MemtableInsert, self.per_insert_ns);
            }
            self.mem.add(seq, t, key, value);
        }
        Ok(())
    }
}

/// Every internal entry, in skiplist order: `(internal_key, value)` —
/// internal keys embed `(user_key, sequence, type)`, so equality here is
/// byte-identity of the whole versioned state.
fn dump_entries(mem: &Arc<MemTable>) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut it = mem.iter();
    let mut out = Vec::new();
    let mut ok = it.seek_to_first().unwrap();
    while ok {
        out.push((it.key().to_vec(), it.value().to_vec()));
        ok = it.next().unwrap();
    }
    out
}

/// One writer's batches. Each batch leads with a marker put whose value
/// uniquely names `(writer, batch)`, so the sequence the concurrent run
/// assigned to that batch can be recovered from the final state.
type WriterBatches = Vec<Vec<(bool, u8)>>; // (is_put, key) per op

fn marker(w: usize, b: usize) -> (Vec<u8>, Vec<u8>) {
    (
        format!("marker-w{w:02}-b{b:02}").into_bytes(),
        format!("seqprobe-w{w:02}-b{b:02}").into_bytes(),
    )
}

fn build_batch(w: usize, b: usize, ops: &[(bool, u8)]) -> WriteBatch {
    let mut batch = WriteBatch::new();
    let (mk, mv) = marker(w, b);
    batch.put(&mk, &mv);
    for (i, (is_put, k)) in ops.iter().enumerate() {
        let key = format!("key{k:03}");
        if *is_put {
            batch.put(key.as_bytes(), format!("val-w{w}-b{b}-o{i}").as_bytes());
        } else {
            batch.delete(key.as_bytes());
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        max_shrink_iters: 60,
        ..ProptestConfig::default()
    })]

    /// Concurrent memtable writes must be *observationally identical* to
    /// the serial path: replaying the same batches serially, in the order
    /// of the sequences the concurrent run assigned, yields a memtable
    /// whose full internal entry dump is byte-identical — hence any
    /// `get(key, snapshot)` at any sequence returns the same answer.
    #[test]
    fn concurrent_apply_state_equals_serial_replay(
        writers in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec((any::<bool>(), 0u8..40), 0..4),
                1..5,
            ),
            2..6,
        ),
    ) {
        let writers: Vec<WriterBatches> = writers;
        Runtime::new().run(move || {
            // --- Concurrent run: interleaved writers, real grouping. ---
            let q = Arc::new(
                WriteQueue::new(1 << 20, true),
            );
            let be = MemBackend::new(20_000, 2_000);
            let stats = Arc::new(DbStats::new());
            fan_out(writers.len(), {
                let (be, writers) = (Arc::clone(&be), writers.clone());
                move |w| {
                    for (b, ops) in writers[w].iter().enumerate() {
                        q.submit(build_batch(w, b, ops), be.as_ref(), &stats)
                            .unwrap();
                    }
                }
            });
            let concurrent_dump = dump_entries(&be.mem);

            // --- Recover each batch's assigned first sequence from the
            // marker entries, then replay serially in that order. ---
            let mut order: Vec<(u64, usize, usize)> = Vec::new(); // (first_seq, w, b)
            for (ikey, _v) in &concurrent_dump {
                let (uk, seq, t) = parse_internal_key(ikey);
                if t == ValueType::Value && uk.starts_with(b"marker-w") {
                    let s = String::from_utf8_lossy(uk);
                    let w: usize = s[8..10].parse().unwrap();
                    let b: usize = s[12..14].parse().unwrap();
                    order.push((seq, w, b));
                }
            }
            order.sort_unstable();
            prop_assert_eq!(
                order.len(),
                writers.iter().map(Vec::len).sum::<usize>(),
                "every batch's marker must be present exactly once"
            );
            // Batches must occupy contiguous, non-overlapping sequence
            // ranges (the marker is the first op of its batch).
            let mut next_seq = 1u64;
            for (first, w, b) in &order {
                prop_assert_eq!(
                    *first, next_seq,
                    "batch w{}b{} has a sequence gap/overlap", w, b
                );
                next_seq += 1 + writers[*w][*b].len() as u64;
            }

            let serial_q = WriteQueue::new(1 << 20, false);
            let serial_be = MemBackend::new(0, 0);
            let serial_stats = DbStats::new();
            for (_seq, w, b) in &order {
                serial_q
                    .submit(
                        build_batch(*w, *b, &writers[*w][*b]),
                        serial_be.as_ref(),
                        &serial_stats,
                    )
                    .unwrap();
            }
            let serial_dump = dump_entries(&serial_be.mem);
            prop_assert_eq!(
                &concurrent_dump, &serial_dump,
                "concurrent apply must be byte-identical to the serial replay"
            );
            // Spot-check reads at every snapshot sequence for a few keys.
            let last = next_seq - 1;
            for k in [0u8, 7, 23, 39] {
                let key = format!("key{k:03}");
                for s in 0..=last {
                    prop_assert_eq!(
                        be.mem.get(key.as_bytes(), s),
                        serial_be.mem.get(key.as_bytes(), s),
                        "get({}, {}) diverged", &key, s
                    );
                }
            }
            // Small inputs may never form a >=2 group; the deterministic
            // tests below assert the concurrent path actually engages.
            Ok(())
        })?;
    }
}

// ---------------------------------------------------------------------------
// Database-level tests
// ---------------------------------------------------------------------------

fn db_opts(concurrent: bool) -> DbOptions {
    DbOptions {
        write_buffer_size: 256 << 10,
        block_cache_capacity: 256 << 10,
        allow_concurrent_memtable_write: concurrent,
        ..DbOptions::default()
    }
}

fn open(opts: DbOptions) -> (Arc<Db>, Arc<SimFs>) {
    let fs = SimFs::new(
        SimDevice::shared(profiles::optane_900p()),
        FsOptions::default(),
    );
    let db = Db::open(Arc::clone(&fs), opts).unwrap();
    (Arc::new(db), fs)
}

/// Publication end-to-end, in both apply modes: each writer commits
/// two-key batches; a reader snapshotting at arbitrary points must always
/// see *both* keys of a batch or *neither* — never a half-applied group
/// member.
#[test]
fn reader_never_observes_half_applied_group() {
    for concurrent in [false, true] {
        half_applied_group_is_never_observed(concurrent);
    }
}

fn half_applied_group_is_never_observed(concurrent: bool) {
    Runtime::new().run(move || {
        let (db, _fs) = open(db_opts(concurrent));
        let writers = spawn_writers(8, {
            let db = Arc::clone(&db);
            move |w| {
                for i in 0..20u32 {
                    let mut b = WriteBatch::new();
                    b.put(format!("pair-a-{w:02}-{i:03}").as_bytes(), b"v");
                    b.put(format!("pair-b-{w:02}-{i:03}").as_bytes(), b"v");
                    db.write(b).unwrap();
                }
            }
        });
        let reader_db = Arc::clone(&db);
        let reader = xlsm_sim::spawn("reader", move || {
            for _ in 0..200 {
                xlsm_sim::sleep_nanos(3_000);
                let snap = reader_db.snapshot();
                let s = snap.sequence();
                for w in 0..8u32 {
                    for i in 0..20u32 {
                        let a = reader_db
                            .get_at(format!("pair-a-{w:02}-{i:03}").as_bytes(), s)
                            .unwrap();
                        let b = reader_db
                            .get_at(format!("pair-b-{w:02}-{i:03}").as_bytes(), s)
                            .unwrap();
                        assert_eq!(
                            a.is_some(),
                            b.is_some(),
                            "snapshot {s} observed a half-applied batch w{w} i{i}"
                        );
                    }
                }
            }
        });
        for h in writers {
            h.join();
        }
        reader.join();
        assert_eq!(
            db.stats().ticker(Ticker::ConcurrentMemtableApplies) > 0,
            concurrent
        );
        db.close();
    });
}

/// A held snapshot is repeatable: a key absent at sequence `s` stays absent
/// at `s`, however far the writer has got since. One writer, so every group
/// is a solo group on the serial apply of `DbOptions::default()`; the reader
/// always asks for the writer's *next* key, which puts its snapshot between
/// a group learning its sequences and that group reaching the memtable.
#[test]
fn snapshot_stays_repeatable_while_a_serial_group_commits() {
    const PUTS: u32 = 400;
    Runtime::new().run(|| {
        let fs = SimFs::new(
            SimDevice::shared(profiles::intel_530_sata()),
            FsOptions::default(),
        );
        let db = Arc::new(Db::open(fs, DbOptions::default()).unwrap());
        let key = |i: u32| format!("key{i:05}").into_bytes();
        let writer = xlsm_sim::spawn("writer", {
            let db = Arc::clone(&db);
            move || {
                for i in 0..PUTS {
                    db.put(&key(i), &[b'v'; 1024]).unwrap();
                }
            }
        });
        let (mut next, mut checks, mut appeared) = (0, 0u32, 0u32);
        loop {
            let snap = db.snapshot();
            let s = snap.sequence();
            while next < PUTS && db.get_at(&key(next), s).unwrap().is_some() {
                next += 1;
            }
            if next == PUTS {
                break;
            }
            xlsm_sim::sleep_nanos(30_000);
            checks += 1;
            if db.get_at(&key(next), s).unwrap().is_some() {
                appeared += 1;
            }
        }
        writer.join();
        assert!(checks > 20, "the reader must overlap the writer: {checks}");
        assert_eq!(
            appeared, 0,
            "a key absent at a held snapshot appeared inside it in {appeared} of {checks} checks"
        );
        db.close();
    });
}

/// ≥32 writer threads through the full engine with concurrent memtable
/// writes: nothing lost, everything readable, and the concurrent path was
/// actually exercised.
#[test]
fn many_writer_stress_on_concurrent_path() {
    Runtime::new().run(|| {
        let (db, _fs) = open(db_opts(true));
        fan_out(36, {
            let db = Arc::clone(&db);
            move |w| {
                for i in 0..40u32 {
                    db.put(
                        format!("stress-{w:02}-{i:03}").as_bytes(),
                        format!("value-{w}-{i}-{}", "x".repeat(32)).as_bytes(),
                    )
                    .unwrap();
                }
            }
        });
        for w in 0..36u32 {
            for i in 0..40u32 {
                assert!(
                    db.get(format!("stress-{w:02}-{i:03}").as_bytes())
                        .unwrap()
                        .is_some(),
                    "stress-{w:02}-{i:03} lost"
                );
            }
        }
        let applies = db.stats().ticker(Ticker::ConcurrentMemtableApplies);
        assert!(applies > 0, "concurrent path never taken under 36 writers");
        db.close();
    });
}

/// A `Db::flush` from another thread switches the memtable at the write
/// queue's head, so it never seals the log under a group that has written
/// its WAL record but not yet applied it: a writer's acked keys all survive
/// a power cut, whenever the flush lands among its puts. Each run puts a
/// key, races a writer's 40 synced puts against a flush issued after a
/// swept offset, puts one more key, then cuts power and reopens.
#[test]
fn a_flush_racing_a_put_loses_no_acked_write() {
    let (mut runs, mut losses) = (0, Vec::new());
    for profile in [profiles::optane_900p(), profiles::intel_530_sata()] {
        let device = profile.kind.label();
        for offset_ns in (0..=400_000u64).step_by(10_000) {
            let profile = profile.clone();
            let lost = Runtime::new().run(move || {
                let fs = SimFs::new(SimDevice::shared(profile), FsOptions::default());
                let opts = DbOptions {
                    wal_sync: true,
                    write_buffer_size: 64 << 10,
                    ..DbOptions::default()
                };
                let db = Arc::new(Db::open(Arc::clone(&fs), opts.clone()).unwrap());
                let value = [b'v'; 256];
                db.put(b"before", &value).unwrap();
                let writer = xlsm_sim::spawn("writer", {
                    let db = Arc::clone(&db);
                    move || {
                        (0..40u32)
                            .map(|i| format!("key{i:02}").into_bytes())
                            .filter(|key| db.put(key, &value).is_ok())
                            .collect::<Vec<_>>()
                    }
                });
                xlsm_sim::sleep_nanos(offset_ns);
                db.flush().unwrap();
                let mut acked = writer.join();
                db.put(b"after", &value).unwrap();
                acked.extend([b"before".to_vec(), b"after".to_vec()]);
                fs.power_cut();
                db.close();
                fs.power_restore();
                let db = Db::open(fs, opts).unwrap();
                let lost: Vec<String> = acked
                    .iter()
                    .filter(|key| db.get(key).unwrap().is_none())
                    .map(|key| String::from_utf8_lossy(key).into_owned())
                    .collect();
                db.close();
                lost
            });
            runs += 1;
            if !lost.is_empty() {
                losses.push(format!("{device} at {offset_ns} ns: {lost:?}"));
            }
        }
    }
    assert!(
        losses.is_empty(),
        "acked keys lost at {} of {runs} flush offsets: {losses:#?}",
        losses.len()
    );
}
