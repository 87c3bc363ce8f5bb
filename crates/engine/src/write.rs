//! The writer queue: group commit and the paper's **Algorithm 2**
//! (pipelined write process), plus RocksDB's answer to Finding #3:
//! concurrent memtable writes.
//!
//! RocksDB keeps *one* write-thread queue. The writer at the head becomes
//! the **leader** of a batch group: it merges the queued batches (up to
//! `max_group_bytes`), runs the stall/delay preprocessing, writes
//! one WAL record for the whole group and applies it to the memtable. The
//! leader hands queue leadership to the next writer right after the WAL
//! write, so group *N+1*'s WAL overlaps group *N*'s memtable insertion;
//! memtable insertions themselves stay serialized in group order (a FIFO
//! semaphore).
//!
//! This queue is where the paper's Finding #3 lives: on 3D XPoint, reads
//! complete quickly, client threads come back to write sooner, the queue
//! grows, and write tail latency *exceeds* the SATA flash SSD despite the
//! faster device (Figs. 15–16) — because one leader thread serially inserts
//! the whole merged group. With **concurrent memtable writes** enabled
//! (`allow_concurrent_memtable_write`), the leader still writes one WAL
//! record for the group but does *not* merge follower batches into the
//! memtable stage: each member applies its own sub-batch — with its own
//! pre-allocated sequence range — on its own sim thread, and a
//! `write_done_count` barrier ends the stage once every member finished.
//!
//! Serial or concurrent, there is one sequence rule: a group *reserves* its
//! range before the WAL append and *publishes* its last sequence once its
//! memtable stage succeeded, before it releases the stage. Readers never
//! observe a half-applied group, and a held snapshot never gains a key.
//!
//! The queue owns write order: its whole state sits under one lock, and a
//! memtable switch runs only at its head ([`WriteQueue::at_head`]), where
//! no group is between its WAL append and its memtable apply.

use crate::batch::WriteBatch;
use crate::costs;
use crate::error::{DbError, DbResult};
use crate::stats::{DbStats, Ticker};
use std::collections::VecDeque;
use std::sync::Arc;
use xlsm_sim::sync::{Semaphore, WaitSet};
use xlsm_sim::{Charges, Class, Nanos};

/// Stage callbacks supplied by the database.
pub trait WriteBackend: Send + Sync {
    /// Stall handling (Algorithm 1) and memtable room-making. Runs once per
    /// group, before sequence allocation.
    ///
    /// # Errors
    ///
    /// Shutdown or filesystem failures abort the group.
    fn preprocess(&self, group_bytes: u64) -> DbResult<()>;
    /// Reserves `count` consecutive sequence numbers *without* publishing
    /// them and returns the first. Readers learn the range only through
    /// [`WriteBackend::publish_seq`].
    fn reserve_seq(&self, count: u64) -> u64;
    /// Publishes every sequence up to `last` to readers. The queue calls it
    /// once per group, after the group's memtable stage succeeded and while
    /// it still holds the stage, so a snapshot never names a sequence whose
    /// entry is not in the memtable yet.
    fn publish_seq(&self, last: u64);
    /// Appends the group's WAL record.
    ///
    /// # Errors
    ///
    /// Filesystem failures abort the group.
    fn write_wal(&self, group: &WriteBatch) -> DbResult<()>;
    /// Applies the merged group to the memtable (charging CPU costs) — the
    /// serial memtable stage.
    ///
    /// # Errors
    ///
    /// Corruption in the encoded batch.
    fn write_memtable(&self, group: &WriteBatch) -> DbResult<()>;
    /// Applies *one member's* sub-batch, called on the member's own sim
    /// thread inside the concurrent memtable stage.
    ///
    /// # Errors
    ///
    /// Corruption in the encoded batch.
    fn write_memtable_member(&self, batch: &WriteBatch) -> DbResult<()>;
}

/// What a writer and its leader hand each other.
enum Slot {
    /// Nothing; in the queue, a memtable switch waiting for the head.
    Empty,
    /// A queued writer's batch, for the leader that groups it.
    Queued(WriteBatch),
    /// Concurrent mode: the member's sub-batch to apply on its own thread.
    Apply(WriteBatch),
    /// The group's result, and when its leader started it: the end of this
    /// writer's queue wait.
    Done(DbResult<()>, Nanos),
}

/// A writer, known by its index in [`State::writers`].
struct Writer {
    slot: Slot,
    /// What the leader was charged for the group, set with [`Slot::Done`].
    parts: Charges,
    wake: Arc<WaitSet>,
}

/// One group's working set: its members, their batches and the merged
/// WAL record. A leader takes one from the spares and gives it back
/// empty, so that a group in steady state allocates nothing.
#[derive(Default)]
struct Group {
    members: Vec<usize>,
    batches: Vec<WriteBatch>,
    /// The buffer several batches merge into, kept between groups.
    merged: WriteBatch,
}

/// Member batches a group needs before it applies concurrently; a solo
/// group has nobody to overlap with and stays on the leader's serial apply.
const CONCURRENT_APPLY_MIN_BATCHES: usize = 2;

/// How many committed batches the queue keeps for reuse, and the largest
/// it keeps: enough for every writer of a run, and none of the rare large
/// ones.
const SPARE_BATCHES: usize = 64;
const SPARE_BATCH_BYTES: usize = 64 << 10;

/// Everything the queue's one lock guards. Nothing is held across a wait:
/// a thread takes what it needs out of the lock first.
#[derive(Default)]
struct State {
    /// Queued writers, the head first.
    queue: VecDeque<usize>,
    /// Every writer made so far, and the spares: idle writers, group
    /// working sets and committed batches.
    writers: Vec<Writer>,
    idle: Vec<usize>,
    groups: Vec<Group>,
    batches: Vec<WriteBatch>,
    /// The concurrent group in its memtable stage (RocksDB's
    /// `write_done_count`): members yet to apply, and the first error.
    applying: usize,
    apply_error: Option<DbError>,
}

impl State {
    /// Queues a writer holding `slot`; returns it and its wake-up.
    fn enqueue(&mut self, slot: Slot) -> (usize, Arc<WaitSet>) {
        let id = self.idle.pop().unwrap_or_else(|| {
            self.writers.push(Writer {
                slot: Slot::Empty,
                parts: Charges::default(),
                wake: Arc::new(WaitSet::new("writer")),
            });
            self.writers.len() - 1
        });
        self.writers[id].slot = slot;
        self.queue.push_back(id);
        (id, Arc::clone(&self.writers[id].wake))
    }

    fn wake_head(&self) {
        if let Some(&head) = self.queue.front() {
            self.writers[head].wake.notify_all();
        }
    }

    /// Hands writer `id` its slot and wakes it.
    fn hand(&mut self, id: usize, slot: Slot) {
        self.writers[id].slot = slot;
        self.writers[id].wake.notify_all();
    }

    /// Keeps a committed batch's buffer for [`WriteQueue::batch_for_put`],
    /// unless [`SPARE_BATCHES`] are kept or it is larger than
    /// [`SPARE_BATCH_BYTES`].
    fn keep_batch(&mut self, batch: WriteBatch) {
        if batch.capacity() <= SPARE_BATCH_BYTES && self.batches.len() < SPARE_BATCHES {
            self.batches.push(batch);
        }
    }

    /// Counts one member of the concurrent group applied, keeping its
    /// batch and its first error, and wakes the leader when it is the last.
    fn member_applied(&mut self, r: DbResult<()>, batch: WriteBatch, leader: &WaitSet) {
        if let Err(e) = r {
            self.apply_error.get_or_insert(e);
        }
        self.keep_batch(batch);
        self.applying -= 1;
        if self.applying == 0 {
            leader.notify_all();
        }
    }

    /// Collects the group the queue head leads: the queued batches from the
    /// head on, up to `max_bytes`, stopping at a memtable switch. Batches
    /// move out of their slots; the O(group-bytes) merge happens in
    /// `commit_group`, outside the lock.
    fn take_group(&mut self, max_bytes: usize) -> Group {
        let mut group = self.groups.pop().unwrap_or_default();
        let State { queue, writers, .. } = self;
        let mut bytes = 0;
        for &w in queue.iter() {
            let slot = &mut writers[w].slot;
            // An empty slot in the queue is a memtable switch.
            let Slot::Queued(b) = std::mem::replace(slot, Slot::Empty) else {
                break;
            };
            let size = b.byte_size();
            if !group.members.is_empty() && bytes + size > max_bytes {
                *slot = Slot::Queued(b);
                break;
            }
            group.batches.push(b);
            bytes += size;
            group.members.push(w);
        }
        group
    }
}

/// The single write-thread queue of a database.
pub struct WriteQueue {
    state: parking_lot::Mutex<State>,
    mem_stage: Semaphore,
    /// Where the concurrent group's leader waits for its members.
    applied: WaitSet,
    /// Concurrent memtable writes (`allow_concurrent_memtable_write`).
    concurrent: bool,
    max_group_bytes: usize,
}

impl std::fmt::Debug for WriteQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteQueue")
            .field("queued", &self.queued())
            .field("concurrent", &self.concurrent)
            .finish()
    }
}

impl WriteQueue {
    /// Creates the queue. With `concurrent` (concurrent memtable writes),
    /// groups of at least [`CONCURRENT_APPLY_MIN_BATCHES`] members apply
    /// per-member on their own threads.
    pub fn new(max_group_bytes: usize, concurrent: bool) -> WriteQueue {
        WriteQueue {
            state: parking_lot::Mutex::default(),
            mem_stage: Semaphore::new("memtable-stage", 1),
            applied: WaitSet::new("group-apply-barrier"),
            concurrent,
            max_group_bytes,
        }
    }

    /// A batch holding a put of `key` and `value`, in the buffer of a batch
    /// an earlier group committed when one is spare.
    pub(crate) fn batch_for_put(&self, key: &[u8], value: &[u8]) -> WriteBatch {
        let spare = self.state.lock().batches.pop();
        let mut batch = match spare {
            Some(mut batch) => {
                batch.reset_for_put(key, value);
                batch
            }
            None => WriteBatch::for_put(key, value),
        };
        batch.put(key, value);
        batch
    }

    /// Writers and memtable switches currently queued.
    pub fn queued(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Acquires the memtable-stage permit, excluding every in-flight group
    /// apply, and charges the wait to [`Class::MemtableStage`].
    pub(crate) fn lock_mem_stage(&self) {
        let t0 = xlsm_sim::now_nanos();
        self.mem_stage.acquire(1);
        xlsm_sim::waited(Class::MemtableStage, xlsm_sim::now_nanos() - t0);
    }

    /// Releases the permit taken by [`WriteQueue::lock_mem_stage`].
    pub(crate) fn unlock_mem_stage(&self) {
        self.mem_stage.release(1);
    }

    /// Queues like a writer without a batch and runs `switch` at the head,
    /// after every group ahead has written its WAL record and before any
    /// behind does (LevelDB's `Write(nullptr)`, RocksDB's `EnterUnbatched`).
    /// Its wait is charged to no class; it joins no group and counts in no
    /// write statistic.
    pub(crate) fn at_head<R>(&self, switch: impl FnOnce() -> R) -> R {
        let mut st = self.state.lock();
        let (me, wake) = st.enqueue(Slot::Empty);
        while st.queue.front() != Some(&me) {
            drop(st);
            wake.wait();
            st = self.state.lock();
        }
        drop(st);
        let r = switch();
        let mut st = self.state.lock();
        st.queue.pop_front();
        st.idle.push(me);
        st.wake_head();
        r
    }

    /// Submits `batch` and blocks until it commits (possibly as part of a
    /// group led by another writer). The calling thread is charged its
    /// queue wait under [`Class::WriterQueue`] plus its group's parts.
    ///
    /// # Errors
    ///
    /// Whatever the group leader's commit produced.
    pub fn submit(
        &self,
        batch: WriteBatch,
        backend: &dyn WriteBackend,
        stats: &DbStats,
    ) -> DbResult<()> {
        let entry = xlsm_sim::charges();
        let enqueued = xlsm_sim::now_nanos();
        let mut st = self.state.lock();
        let (me, wake) = st.enqueue(Slot::Queued(batch));
        stats.writer_waiting_inc();

        // Wait until we are committed by a leader, become leader, or get
        // handed our own sub-batch to apply (concurrent memtable mode):
        // the slot and the head are checked under one acquisition per wake.
        loop {
            match std::mem::replace(&mut st.writers[me].slot, Slot::Empty) {
                Slot::Done(result, started) => {
                    // A follower's own concurrent insert ran inside the
                    // group's memtable stage, which the group's parts
                    // already cover.
                    let mut parts = entry + st.writers[me].parts;
                    st.idle.push(me);
                    drop(st);
                    parts.record(Class::WriterQueue, started - enqueued);
                    xlsm_sim::set_charges(parts);
                    stats.bump(Ticker::WritesJoinedGroup);
                    return result;
                }
                Slot::Apply(batch) => {
                    drop(st);
                    let r = backend.write_memtable_member(&batch);
                    st = self.state.lock();
                    st.member_applied(r, batch, &self.applied);
                    continue; // the leader completes us after the barrier
                }
                slot => st.writers[me].slot = slot,
            }
            if st.queue.front() == Some(&me) {
                break;
            }
            drop(st);
            wake.wait();
            st = self.state.lock();
        }

        // --- We are the leader. ---
        let mut group = st.take_group(self.max_group_bytes);
        drop(st);
        let started = xlsm_sim::now_nanos();
        xlsm_sim::waited(Class::WriterQueue, started - enqueued);
        let before = xlsm_sim::charges();
        stats.bump(Ticker::WriteGroupsLed);
        let result = self.commit_group(&mut group, backend, stats);
        let parts = xlsm_sim::charges() - before;
        let mut st = self.state.lock();
        for &m in &group.members[1..] {
            st.writers[m].parts = parts;
            st.hand(m, Slot::Done(result.clone(), started));
        }
        group.members.clear();
        for b in group.batches.drain(..) {
            st.keep_batch(b);
        }
        st.groups.push(group);
        st.idle.push(me);
        drop(st);
        stats.sample_waiting_writers();
        result
    }

    /// Pops `members` off the queue head and wakes the next head.
    fn pop_group(&self, members: &[usize], stats: &DbStats) {
        let mut st = self.state.lock();
        for &m in members {
            debug_assert_eq!(st.queue.front(), Some(&m));
            st.queue.pop_front();
            stats.writer_waiting_dec();
        }
        st.wake_head();
    }

    fn commit_group(
        &self,
        group: &mut Group,
        backend: &dyn WriteBackend,
        stats: &DbStats,
    ) -> DbResult<()> {
        // The group's WAL record, built outside the queue lock: a lone
        // batch is its own; several merge, at the leader's protection
        // width, into the buffer the group keeps for that. The member
        // batches stay, for the concurrent path to apply each its own.
        let Group {
            members,
            batches,
            merged,
        } = group;
        if let [solo] = batches.as_mut_slice() {
            return self.commit_record(solo, members, &mut Vec::new(), backend, stats);
        }
        merged.clear();
        merged.enable_protection(batches[0].protection_width());
        for b in batches.iter() {
            merged.append_batch(b);
        }
        self.commit_record(merged, members, batches, backend, stats)
    }

    /// Commits a group's WAL record `group` and applies it: serially, or
    /// with concurrent memtable writes each member its own of
    /// `member_batches`.
    fn commit_record(
        &self,
        group: &mut WriteBatch,
        members: &[usize],
        member_batches: &mut Vec<WriteBatch>,
        backend: &dyn WriteBackend,
        stats: &DbStats,
    ) -> DbResult<()> {
        let concurrent = self.concurrent && members.len() >= CONCURRENT_APPLY_MIN_BATCHES;
        let group_bytes = group.byte_size();
        if let Err(e) = backend.preprocess(group_bytes as u64) {
            self.pop_group(members, stats);
            return Err(e);
        }
        let total = u64::from(group.count());
        // The range is only *reserved* here; it becomes visible once the
        // memtable stage below is done, so a reader snapshotting while the
        // group is in the WAL or mid-apply cannot observe part of it.
        let first = backend.reserve_seq(total);
        let last = first + total - 1;
        group.set_sequence(first);
        if concurrent {
            let mut next = first;
            for b in member_batches.iter_mut() {
                b.set_sequence(next);
                next += u64::from(b.count());
            }
        }
        // Per-KV protection: the leader re-verifies the merged group before
        // its bytes reach the WAL, so corruption introduced in the merge
        // window is caught here instead of persisted under a fresh record
        // CRC. The sidecar was carried (not recomputed) through the merge.
        if group.protection_width() > 0 {
            xlsm_sim::charge(
                Class::Protection,
                costs::KV_PROTECTION_NS * u64::from(group.count()),
            );
            if let Err(e) = group.verify_protection("wal encode") {
                self.pop_group(members, stats);
                return Err(e);
            }
        }
        if let Err(e) = backend.write_wal(group) {
            self.pop_group(members, stats);
            return Err(e);
        }
        // Algorithm 2: acquire the memtable stage while still at the queue
        // head (guarantees group-ordered memtable writes), then hand queue
        // leadership over right away so the next group's WAL overlaps our
        // memtable insertion.
        self.lock_mem_stage();
        self.pop_group(members, stats);
        let r = if concurrent {
            self.apply_concurrent(member_batches, members, backend, stats)
        } else {
            backend.write_memtable(group)
        };
        if r.is_ok() {
            backend.publish_seq(last);
        }
        self.unlock_mem_stage();
        if r.is_ok() {
            stats.write_group_batches.record(members.len() as u64);
        }
        r
    }

    /// The concurrent memtable stage: hands every follower its own
    /// sequence-stamped sub-batch, applies the leader's on this thread, and
    /// waits on the `write_done_count` barrier. Member insert costs overlap
    /// in virtual time, which is exactly the serialization Finding #3
    /// blames for the XPoint tail-latency inversion.
    fn apply_concurrent(
        &self,
        batches: &mut Vec<WriteBatch>,
        members: &[usize],
        backend: &dyn WriteBackend,
        stats: &DbStats,
    ) -> DbResult<()> {
        debug_assert_eq!(batches.len(), members.len());
        stats.add(Ticker::ConcurrentMemtableApplies, members.len() as u64);
        let mut batches = batches.drain(..);
        let leader_batch = batches.next().expect("group has a leader batch");
        let mut st = self.state.lock();
        st.applying = members.len();
        for (&m, b) in members[1..].iter().zip(batches) {
            st.hand(m, Slot::Apply(b));
        }
        drop(st);
        let r = backend.write_memtable_member(&leader_batch);
        let mut st = self.state.lock();
        st.member_applied(r, leader_batch, &self.applied);
        let t0 = xlsm_sim::now_nanos();
        while st.applying > 0 {
            drop(st);
            self.applied.wait();
            st = self.state.lock();
        }
        xlsm_sim::waited(Class::GroupApply, xlsm_sim::now_nanos() - t0);
        st.apply_error.take().map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::HistogramSummary;
    use crate::memtable::MemTable;
    use std::sync::atomic::{AtomicU64, Ordering};
    use xlsm_sim::Runtime;

    /// Test backend: applies to a memtable, counts WAL writes, optionally
    /// charges time in the WAL and memtable stages to create grouping and
    /// overlap windows. The sequence counter distinguishes reservation from
    /// publication so the barrier tests can observe the reader-visible
    /// watermark.
    struct TestBackend {
        mem: Arc<MemTable>,
        seq: AtomicU64,
        published: AtomicU64,
        wal_records: AtomicU64,
        wal_delay_ns: u64,
        mem_delay_ns: u64,
        wal_bytes: AtomicU64,
        member_applies: AtomicU64,
    }

    impl TestBackend {
        fn new(wal_delay_ns: u64, mem_delay_ns: u64) -> Arc<TestBackend> {
            Arc::new(TestBackend {
                mem: MemTable::new(0),
                seq: AtomicU64::new(0),
                published: AtomicU64::new(0),
                wal_records: AtomicU64::new(0),
                wal_delay_ns,
                mem_delay_ns,
                wal_bytes: AtomicU64::new(0),
                member_applies: AtomicU64::new(0),
            })
        }
    }

    impl WriteBackend for TestBackend {
        fn preprocess(&self, _b: u64) -> DbResult<()> {
            Ok(())
        }
        fn reserve_seq(&self, count: u64) -> u64 {
            self.seq.fetch_add(count, Ordering::Relaxed) + 1
        }
        fn publish_seq(&self, last: u64) {
            self.published.fetch_max(last, Ordering::Relaxed);
        }
        fn write_wal(&self, group: &WriteBatch) -> DbResult<()> {
            self.wal_records.fetch_add(1, Ordering::Relaxed);
            self.wal_bytes
                .fetch_add(group.byte_size() as u64, Ordering::Relaxed);
            if self.wal_delay_ns > 0 {
                xlsm_sim::charge(Class::WalEncode, self.wal_delay_ns);
            }
            Ok(())
        }
        fn write_memtable(&self, group: &WriteBatch) -> DbResult<()> {
            // Per-entry cost: the serial leader pays for the whole group.
            if self.mem_delay_ns > 0 {
                xlsm_sim::charge(
                    Class::MemtableInsert,
                    self.mem_delay_ns * u64::from(group.count()),
                );
            }
            group.apply_to(&self.mem)
        }
        fn write_memtable_member(&self, batch: &WriteBatch) -> DbResult<()> {
            self.member_applies.fetch_add(1, Ordering::Relaxed);
            if self.mem_delay_ns > 0 {
                xlsm_sim::charge(
                    Class::MemtableInsert,
                    self.mem_delay_ns * u64::from(batch.count()),
                );
            }
            for (seq, op) in (batch.sequence()..).zip(batch.iter()) {
                let (t, key, value) = op?;
                self.mem.add(seq, t, key, value);
            }
            Ok(())
        }
    }

    fn batch_with(key: &[u8], value: &[u8]) -> WriteBatch {
        let mut b = WriteBatch::new();
        b.put(key, value);
        b
    }

    /// Spawns writers `w0..w{n-1}`; writer `i` submits `batch(i)`. Each
    /// records its write as `Db::write` does and checks that its parts add
    /// up to its latency exactly.
    fn spawn_writers<B: WriteBackend + 'static>(
        n: u32,
        q: &Arc<WriteQueue>,
        be: &Arc<B>,
        stats: &Arc<DbStats>,
        batch: impl Fn(u32) -> WriteBatch,
    ) -> Vec<xlsm_sim::JoinHandle<DbResult<()>>> {
        (0..n)
            .map(|i| {
                let (q, be, stats) = (Arc::clone(q), Arc::clone(be), Arc::clone(stats));
                let b = batch(i);
                xlsm_sim::spawn(&format!("w{i}"), move || {
                    let (t0, c0) = (xlsm_sim::now_nanos(), xlsm_sim::charges());
                    let r = q.submit(b, be.as_ref(), &stats);
                    let parts = xlsm_sim::charges() - c0;
                    assert_eq!(parts.total(), xlsm_sim::now_nanos() - t0, "w{i}: {parts:?}");
                    if r.is_ok() {
                        stats.writes.record(t0, c0);
                    }
                    r
                })
            })
            .collect()
    }

    /// [`spawn_writers`], joined in spawn order; every writer must succeed.
    fn fan_out<B: WriteBackend + 'static>(
        n: u32,
        q: &Arc<WriteQueue>,
        be: &Arc<B>,
        stats: &Arc<DbStats>,
        batch: impl Fn(u32) -> WriteBatch,
    ) {
        for writer in spawn_writers(n, q, be, stats, batch) {
            writer.join().unwrap();
        }
    }

    #[test]
    fn single_writer_commits() {
        Runtime::new().run(|| {
            let q = WriteQueue::new(1 << 20, false);
            let be = TestBackend::new(0, 0);
            let stats = DbStats::new();
            q.submit(batch_with(b"k", b"v"), be.as_ref(), &stats)
                .unwrap();
            assert_eq!(be.mem.get(b"k", 100).unwrap(), Some(Some(b"v".to_vec())));
            assert_eq!(stats.ticker(Ticker::WriteGroupsLed), 1);
        });
    }

    #[test]
    fn concurrent_writers_group_under_slow_wal() {
        Runtime::new().run(|| {
            let q = Arc::new(WriteQueue::new(1 << 20, false));
            // 50 µs WAL: while the first leader is inside, the rest pile up
            // and the second group should absorb them all.
            let be = TestBackend::new(50_000, 0);
            let stats = Arc::new(DbStats::new());
            fan_out(10, &q, &be, &stats, |i| {
                batch_with(format!("key{i}").as_bytes(), b"v")
            });
            for i in 0..10u32 {
                let key = format!("key{i}");
                assert_eq!(
                    be.mem.get(key.as_bytes(), 1000).unwrap(),
                    Some(Some(b"v".to_vec())),
                    "missing {key}"
                );
            }
            let groups = be.wal_records.load(Ordering::Relaxed);
            assert!(
                groups < 10,
                "grouping should merge batches: {groups} WAL records for 10 writes"
            );
            assert_eq!(
                stats.ticker(Ticker::WriteGroupsLed) + stats.ticker(Ticker::WritesJoinedGroup),
                10
            );
        });
    }

    #[test]
    fn sequences_are_unique_and_ordered() {
        Runtime::new().run(|| {
            let q = Arc::new(WriteQueue::new(1 << 20, false));
            let be = TestBackend::new(10_000, 5_000);
            let stats = Arc::new(DbStats::new());
            // Every writer writes the same key; final value must be the
            // one with the highest sequence.
            fan_out(20, &q, &be, &stats, |i| {
                batch_with(b"shared", format!("{i}").as_bytes())
            });
            // 20 committed ops => last_sequence 20 and a well-defined winner.
            assert_eq!(be.seq.load(Ordering::Relaxed), 20);
            assert!(be.mem.get(b"shared", 1000).unwrap().unwrap().is_some());
            assert_eq!(be.mem.num_entries(), 20);
        });
    }

    #[test]
    fn pipelined_overlaps_wal_and_memtable() {
        // With WAL = 40 µs and memtable = 40 µs per group and grouping
        // disabled (max group = 1 batch), 4 sequential groups take the WAL
        // chain 4 × 40 + the final memtable 40 = 200 µs, not 4 × 80 µs.
        Runtime::new().run(|| {
            let q = Arc::new(WriteQueue::new(1, false)); // no grouping
            let be = TestBackend::new(40_000, 40_000);
            let stats = Arc::new(DbStats::new());
            fan_out(4, &q, &be, &stats, |i| {
                batch_with(format!("k{i}").as_bytes(), b"v")
            });
            assert_eq!(xlsm_sim::now_nanos(), 200_000);
        });
    }

    /// Concurrent memtable mode: a group of members each pays its own
    /// memtable delay *in parallel* (overlapping virtual-time sleeps), so
    /// the group's memtable stage costs ~one member delay instead of the
    /// serial sum.
    #[test]
    fn concurrent_members_overlap_memtable_inserts() {
        fn run(concurrent: bool) -> (u64, u64) {
            Runtime::new().run(move || {
                let q = Arc::new(WriteQueue::new(1 << 20, concurrent));
                // Slow first WAL (one batch alone), then everyone else piles
                // into one group behind it.
                let be = TestBackend::new(50_000, 30_000);
                let stats = Arc::new(DbStats::new());
                fan_out(9, &q, &be, &stats, |i| {
                    batch_with(format!("k{i}").as_bytes(), b"v")
                });
                for i in 0..9u32 {
                    assert_eq!(
                        be.mem.get(format!("k{i}").as_bytes(), 1000).unwrap(),
                        Some(Some(b"v".to_vec())),
                        "missing k{i}"
                    );
                }
                (
                    xlsm_sim::now_nanos(),
                    stats.ticker(Ticker::ConcurrentMemtableApplies),
                )
            })
        }
        let (t_serial, applies_serial) = run(false);
        let (t_conc, applies_conc) = run(true);
        assert_eq!(applies_serial, 0);
        assert!(
            applies_conc >= 8,
            "the 8-member group should apply concurrently: {applies_conc}"
        );
        assert!(
            t_conc < t_serial,
            "concurrent memtable stage must beat serial: {t_conc} vs {t_serial}"
        );
    }

    /// One publication rule for both apply modes: a group's last sequence is
    /// only published once the whole group is in the memtable — never while
    /// the serial leader or a concurrent member is still mid-insert.
    #[test]
    fn barrier_publishes_after_every_member_applied() {
        for concurrent in [false, true] {
            Runtime::new().run(move || {
                let q = Arc::new(WriteQueue::new(1 << 20, concurrent));
                let be = TestBackend::new(50_000, 20_000);
                let stats = Arc::new(DbStats::new());
                let writers = spawn_writers(6, &q, &be, &stats, |i| {
                    batch_with(format!("k{i}").as_bytes(), b"v")
                });
                // Observer: whenever sequences are published, every entry at
                // or below the watermark must already be readable in the
                // memtable.
                let be2 = Arc::clone(&be);
                let obs = xlsm_sim::spawn("observer", move || {
                    for _ in 0..60 {
                        xlsm_sim::sleep_nanos(5_000);
                        let published = be2.published.load(Ordering::Relaxed);
                        let visible = be2.mem.num_entries();
                        assert!(
                            visible >= published,
                            "published watermark {published} ahead of applied entries \
                             {visible}: a reader could observe a half-applied group"
                        );
                    }
                });
                for writer in writers {
                    writer.join().unwrap();
                }
                obs.join();
                assert_eq!(be.published.load(Ordering::Relaxed), 6);
                assert_eq!(be.mem.num_entries(), 6);
            });
        }
    }

    /// Groups smaller than [`CONCURRENT_APPLY_MIN_BATCHES`] stay on the
    /// serial path even with concurrent mode enabled.
    #[test]
    fn small_groups_fall_back_to_serial_apply() {
        Runtime::new().run(|| {
            let q = WriteQueue::new(1 << 20, true);
            let be = TestBackend::new(0, 0);
            let stats = DbStats::new();
            q.submit(batch_with(b"k", b"v"), be.as_ref(), &stats)
                .unwrap();
            assert_eq!(stats.ticker(Ticker::ConcurrentMemtableApplies), 0);
            assert_eq!(be.member_applies.load(Ordering::Relaxed), 0);
            assert_eq!(be.mem.get(b"k", 100).unwrap(), Some(Some(b"v".to_vec())));
            // The serial apply publishes through the same `publish_seq`.
            assert_eq!(be.published.load(Ordering::Relaxed), 1);
        });
    }

    #[test]
    fn leader_error_propagates_to_followers() {
        Runtime::new().run(|| {
            struct FailingBackend;
            impl WriteBackend for FailingBackend {
                fn preprocess(&self, _b: u64) -> DbResult<()> {
                    xlsm_sim::charge(Class::Delay, 20_000); // let followers enqueue
                    Err(DbError::ShuttingDown)
                }
                fn reserve_seq(&self, _c: u64) -> u64 {
                    unreachable!()
                }
                fn publish_seq(&self, _last: u64) {
                    unreachable!()
                }
                fn write_wal(&self, _g: &WriteBatch) -> DbResult<()> {
                    unreachable!()
                }
                fn write_memtable(&self, _g: &WriteBatch) -> DbResult<()> {
                    unreachable!()
                }
                fn write_memtable_member(&self, _b: &WriteBatch) -> DbResult<()> {
                    unreachable!()
                }
            }
            let q = Arc::new(WriteQueue::new(1 << 20, false));
            let stats = Arc::new(DbStats::new());
            let writers = spawn_writers(3, &q, &Arc::new(FailingBackend), &stats, |_| {
                batch_with(b"k", b"v")
            });
            let errors = writers
                .into_iter()
                .map(|w| w.join())
                .filter(Result::is_err)
                .count();
            assert_eq!(errors, 3, "all writers in the failed group see the error");
            assert_eq!(q.queued(), 0);
        });
    }

    /// A member apply failure in the concurrent stage fails the whole
    /// group, and the sequence range is never published.
    #[test]
    fn member_error_fails_group_without_publishing() {
        Runtime::new().run(|| {
            struct MemberFail {
                seq: AtomicU64,
                published: AtomicU64,
            }
            impl WriteBackend for MemberFail {
                fn preprocess(&self, _b: u64) -> DbResult<()> {
                    xlsm_sim::charge(Class::Delay, 20_000); // let followers enqueue
                    Ok(())
                }
                fn reserve_seq(&self, c: u64) -> u64 {
                    self.seq.fetch_add(c, Ordering::Relaxed) + 1
                }
                fn publish_seq(&self, last: u64) {
                    self.published.fetch_max(last, Ordering::Relaxed);
                }
                fn write_wal(&self, _g: &WriteBatch) -> DbResult<()> {
                    Ok(())
                }
                fn write_memtable(&self, _g: &WriteBatch) -> DbResult<()> {
                    Ok(())
                }
                fn write_memtable_member(&self, batch: &WriteBatch) -> DbResult<()> {
                    if batch.sequence() > 1 {
                        Err(DbError::Corruption("member apply failed".into()))
                    } else {
                        Ok(())
                    }
                }
            }
            let q = Arc::new(WriteQueue::new(1 << 20, true));
            let be = Arc::new(MemberFail {
                seq: AtomicU64::new(0),
                published: AtomicU64::new(0),
            });
            let stats = Arc::new(DbStats::new());
            // The first writer always leads a solo group (serial fallback,
            // seq 1, succeeds); the next three pile up during its 20 µs
            // preprocess and form one concurrent group whose members all
            // fail (their sequences are > 1).
            let writers = spawn_writers(4, &q, &be, &stats, |i| {
                batch_with(format!("k{i}").as_bytes(), b"v")
            });
            let results: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
            assert!(results[0].is_ok(), "solo first group succeeds: {results:?}");
            assert!(
                results[1..].iter().all(Result::is_err),
                "every member of the failed group errors: {results:?}"
            );
            assert_eq!(
                be.published.load(Ordering::Relaxed),
                1,
                "the failed group must not publish its reserved sequences"
            );
            assert_eq!(q.queued(), 0);
        });
    }

    /// Protected batches survive grouping: the merged group carries every
    /// member's protection sidecar and the leader's pre-WAL verify passes.
    #[test]
    fn protected_batches_group_and_commit() {
        Runtime::new().run(|| {
            let q = Arc::new(WriteQueue::new(1 << 20, false));
            let be = TestBackend::new(50_000, 0);
            let stats = Arc::new(DbStats::new());
            fan_out(6, &q, &be, &stats, |i| {
                let mut b = WriteBatch::new();
                b.enable_protection(8);
                b.put(format!("k{i}").as_bytes(), b"v");
                b
            });
            for i in 0..6u32 {
                assert_eq!(
                    be.mem.get(format!("k{i}").as_bytes(), 1000).unwrap(),
                    Some(Some(b"v".to_vec())),
                    "missing k{i}"
                );
            }
            let groups = be.wal_records.load(Ordering::Relaxed);
            assert!(groups < 6, "protected batches must still group: {groups}");
        });
    }

    #[test]
    fn breakdowns_reconcile_with_observed_latency() {
        // With no controller stalls, queue-wait + WAL + pipeline-wait +
        // memtable must explain a writer's end-to-end latency exactly:
        // ungrouped, and as one concurrent group whose followers copy the
        // group's parts.
        for (max_group_bytes, concurrent) in [(1, false), (1 << 20, true)] {
            Runtime::new().run(move || {
                let q = Arc::new(WriteQueue::new(max_group_bytes, concurrent));
                let be = TestBackend::new(30_000, 20_000);
                let stats = Arc::new(DbStats::new());
                fan_out(6, &q, &be, &stats, |i| {
                    batch_with(format!("k{i}").as_bytes(), b"v")
                });
                let t = stats.stall.totals(&stats.writes.totals());
                assert_eq!(t.ops, 6);
                assert_eq!(
                    t.accounted_ns(),
                    t.total_write_ns,
                    "breakdown must fully explain observed latency: {t:?}"
                );
                assert!(t.queue_wait_ns > 0, "later groups waited in the queue");
            });
        }
    }

    /// Pipelined mode with the memtable stage slower than the WAL: the
    /// handoff wait lands in `pipeline_wait_ns`, not in
    /// `memtable_insert_ns`, and the totals still reconcile exactly.
    #[test]
    fn pipeline_wait_is_split_from_memtable_insert() {
        Runtime::new().run(|| {
            let q = Arc::new(WriteQueue::new(1, false)); // no grouping
            let be = TestBackend::new(20_000, 50_000); // memtable-bound
            let stats = Arc::new(DbStats::new());
            fan_out(4, &q, &be, &stats, |i| {
                batch_with(format!("k{i}").as_bytes(), b"v")
            });
            let t = stats.stall.totals(&stats.writes.totals());
            assert_eq!(t.ops, 4);
            assert!(
                t.pipeline_wait_ns > 0,
                "memtable-bound pipeline must report handoff wait: {t:?}"
            );
            // Each group's memtable stage proper is exactly 50 µs.
            assert_eq!(t.memtable_insert_ns, 4 * 50_000);
            assert_eq!(
                t.accounted_ns(),
                t.total_write_ns,
                "split components must still reconcile: {t:?}"
            );
        });
    }

    /// Spawns a writer that submits a put of `key` after `delay_ns`.
    fn submit_after(
        (q, be, stats): (&Arc<WriteQueue>, &Arc<TestBackend>, &Arc<DbStats>),
        delay_ns: u64,
        key: &'static [u8],
    ) -> xlsm_sim::JoinHandle<DbResult<()>> {
        let (q, be, stats) = (Arc::clone(q), Arc::clone(be), Arc::clone(stats));
        xlsm_sim::spawn("writer", move || {
            xlsm_sim::sleep_nanos(delay_ns);
            q.submit(batch_with(key, b"v"), be.as_ref(), &stats)
        })
    }

    /// A memtable switch queued behind a group runs at the head once that
    /// group has applied and published, before the writer queued behind it
    /// writes its WAL record, and leaves every write statistic as it would
    /// be without the switch.
    #[test]
    fn a_switch_at_the_head_is_invisible_to_write_statistics() {
        fn run(switch: bool) -> (u64, u64, HistogramSummary, f64) {
            Runtime::new().run(move || {
                let q = Arc::new(WriteQueue::new(1 << 20, false));
                let be = TestBackend::new(50_000, 20_000); // slow WAL
                let stats = Arc::new(DbStats::new());
                // k0 leads alone and sits in its WAL; k1 queues 20 µs in,
                // behind the switch when there is one.
                let writers = [
                    submit_after((&q, &be, &stats), 0, b"k0"),
                    submit_after((&q, &be, &stats), 20_000, b"k1"),
                ];
                xlsm_sim::sleep_nanos(10_000);
                if switch {
                    let seen = q.at_head(|| {
                        // As `switch_memtable` does: behind the group's apply.
                        q.lock_mem_stage();
                        let seen = (
                            be.published.load(Ordering::Relaxed),
                            be.mem.num_entries(),
                            be.wal_records.load(Ordering::Relaxed),
                        );
                        q.unlock_mem_stage();
                        seen
                    });
                    assert_eq!(seen, (1, 1, 1), "(published, applied, WAL records)");
                }
                for w in writers {
                    w.join().unwrap();
                }
                assert_eq!(q.queued(), 0);
                (
                    stats.ticker(Ticker::WriteGroupsLed),
                    stats.ticker(Ticker::WritesJoinedGroup),
                    stats.write_group_batches.summary(),
                    stats.avg_waiting_writers(),
                )
            })
        }
        let with = run(true);
        assert_eq!(with, run(false));
        assert_eq!((with.0, with.1, with.3), (2, 0, 0.5));
    }

    /// A leader's group stops at a queued memtable switch: the writer
    /// queued behind the switch commits in a group of its own after it.
    #[test]
    fn a_group_stops_at_a_queued_switch() {
        Runtime::new().run(|| {
            let q = Arc::new(WriteQueue::new(1 << 20, false));
            let be = TestBackend::new(50_000, 0); // slow WAL
            let stats = Arc::new(DbStats::new());
            // k0 leads alone and sits in its WAL while k1, the switch and
            // k2 queue behind it, in that order.
            let writers = [(0, b"k0"), (10_000, b"k1"), (30_000, b"k2")]
                .map(|(delay_ns, key)| submit_after((&q, &be, &stats), delay_ns, key));
            xlsm_sim::sleep_nanos(20_000);
            let wal_records = q.at_head(|| be.wal_records.load(Ordering::Relaxed));
            for w in writers {
                w.join().unwrap();
            }
            assert_eq!(
                wal_records, 2,
                "the switch runs between k1's and k2's groups"
            );
            assert_eq!(stats.ticker(Ticker::WriteGroupsLed), 3);
            assert_eq!(q.queued(), 0);
        });
    }

    #[test]
    fn waiting_writers_gauge_reflects_queue() {
        Runtime::new().run(|| {
            let q = Arc::new(WriteQueue::new(1, false)); // no grouping
            let be = TestBackend::new(100_000, 0); // slow WAL builds a queue
            let stats = Arc::new(DbStats::new());
            fan_out(8, &q, &be, &stats, |i| {
                batch_with(format!("k{i}").as_bytes(), b"v")
            });
            assert!(
                stats.avg_waiting_writers() > 1.0,
                "queue should have been observed non-trivial: {}",
                stats.avg_waiting_writers()
            );
        });
    }
}
