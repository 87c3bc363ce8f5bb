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

use crate::batch::WriteBatch;
use crate::costs;
use crate::error::{DbError, DbResult};
use crate::stats::{DbStats, Ticker};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtOrd};
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

/// Coordination for one concurrently-applied write group: RocksDB's
/// `write_done_count` barrier. Every member (leader included) decrements
/// once its sub-batch is in the memtable; the leader waits for zero before
/// completing the memtable stage.
struct GroupSync {
    write_done: AtomicUsize,
    done: WaitSet,
    error: parking_lot::Mutex<Option<DbError>>,
}

impl GroupSync {
    fn new(members: usize) -> Arc<GroupSync> {
        Arc::new(GroupSync {
            write_done: AtomicUsize::new(members),
            done: WaitSet::new("group-apply-barrier"),
            error: parking_lot::Mutex::new(None),
        })
    }

    /// Records one member's apply result and trips the barrier when last.
    fn finish(&self, r: DbResult<()>) {
        if let Err(e) = r {
            self.error.lock().get_or_insert(e);
        }
        if self.write_done.fetch_sub(1, AtOrd::AcqRel) == 1 {
            self.done.notify_all();
        }
    }
}

/// A follower's concurrent-apply assignment: its own sequence-stamped
/// sub-batch plus the group barrier to report into.
struct ApplyJob {
    batch: WriteBatch,
    sync: Arc<GroupSync>,
}

/// What a leader hands each follower once the group is done.
struct GroupDone {
    result: DbResult<()>,
    /// When the leader started the group: the end of the follower's queue
    /// wait.
    started: Nanos,
    /// What the leader was charged for the group.
    parts: Charges,
}

struct Writer {
    batch: parking_lot::Mutex<Option<WriteBatch>>,
    /// Set by the leader in concurrent-memtable mode; the follower applies
    /// the job on its own thread instead of idling out the memtable stage.
    apply: parking_lot::Mutex<Option<ApplyJob>>,
    done: parking_lot::Mutex<Option<GroupDone>>,
    wake: WaitSet,
    /// When this writer joined the queue (for queue-wait attribution).
    enqueued_at: AtomicU64,
}

impl Writer {
    fn new() -> Arc<Writer> {
        Arc::new(Writer {
            batch: parking_lot::Mutex::new(None),
            apply: parking_lot::Mutex::new(None),
            done: parking_lot::Mutex::new(None),
            wake: WaitSet::new("writer"),
            enqueued_at: AtomicU64::new(0),
        })
    }

    fn enqueued_at(&self) -> Nanos {
        self.enqueued_at.load(AtOrd::Relaxed)
    }
}

/// One group's working set: its members, their batches and the merged
/// WAL record. A leader takes one from the queue's spares and gives it
/// back empty, so that a group in steady state allocates nothing.
#[derive(Default)]
struct Group {
    members: Vec<Arc<Writer>>,
    batches: Vec<WriteBatch>,
    /// The buffer several batches merge into, kept between groups.
    merged: Option<WriteBatch>,
}

/// Member batches a group needs before it applies concurrently; a solo
/// group has nobody to overlap with and stays on the leader's serial apply.
const CONCURRENT_APPLY_MIN_BATCHES: usize = 2;

/// How many committed batches the queue keeps for reuse, and the largest
/// it keeps: enough for every writer of a run, and none of the rare large
/// ones.
const SPARE_BATCHES: usize = 64;
const SPARE_BATCH_BYTES: usize = 64 << 10;

/// What the queue keeps between uses: idle writers, group working sets and
/// committed batches. Each is taken out of the lock before use, so no
/// guard is held across a wait.
#[derive(Default)]
struct Spares {
    writers: Vec<Arc<Writer>>,
    groups: Vec<Group>,
    batches: Vec<WriteBatch>,
}

impl Spares {
    /// Keeps a committed batch's buffer for [`WriteQueue::batch_for_put`],
    /// unless [`SPARE_BATCHES`] are kept or it is larger than
    /// [`SPARE_BATCH_BYTES`].
    fn keep_batch(&mut self, batch: WriteBatch) {
        if batch.capacity() <= SPARE_BATCH_BYTES && self.batches.len() < SPARE_BATCHES {
            self.batches.push(batch);
        }
    }
}

/// The single write-thread queue of a database.
pub struct WriteQueue {
    queue: parking_lot::Mutex<VecDeque<Arc<Writer>>>,
    mem_stage: Semaphore,
    /// Concurrent memtable writes (`allow_concurrent_memtable_write`).
    concurrent: bool,
    max_group_bytes: usize,
    spares: parking_lot::Mutex<Spares>,
}

impl std::fmt::Debug for WriteQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteQueue")
            .field("queued", &self.queue.lock().len())
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
            queue: parking_lot::Mutex::new(VecDeque::new()),
            mem_stage: Semaphore::new("memtable-stage", 1),
            concurrent,
            max_group_bytes,
            spares: parking_lot::Mutex::default(),
        }
    }

    /// A batch holding a put of `key` and `value`, in the buffer of a batch
    /// an earlier group committed when one is spare.
    pub(crate) fn batch_for_put(&self, key: &[u8], value: &[u8]) -> WriteBatch {
        let spare = self.spares.lock().batches.pop();
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

    /// Writers currently queued (Fig. 16's instantaneous value).
    pub fn queued(&self) -> usize {
        self.queue.lock().len()
    }

    /// Acquires the memtable-stage permit, excluding every in-flight
    /// group apply (serial or concurrent), and charges the wait to
    /// [`Class::MemtableStage`]. `switch_memtable` holds this while rotating
    /// the mutable memtable so a switch can never strand half of a write
    /// group in a memtable that flush already iterates.
    pub(crate) fn lock_mem_stage(&self) {
        let t0 = xlsm_sim::now_nanos();
        self.mem_stage.acquire(1);
        xlsm_sim::waited(Class::MemtableStage, xlsm_sim::now_nanos() - t0);
    }

    /// Releases the permit taken by [`WriteQueue::lock_mem_stage`].
    pub(crate) fn unlock_mem_stage(&self) {
        self.mem_stage.release(1);
    }

    fn is_front(&self, w: &Arc<Writer>) -> bool {
        self.queue.lock().front().is_some_and(|f| Arc::ptr_eq(f, w))
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
        let me = self.spares.lock().writers.pop().unwrap_or_else(Writer::new);
        *me.batch.lock() = Some(batch);
        me.enqueued_at.store(xlsm_sim::now_nanos(), AtOrd::Relaxed);
        self.queue.lock().push_back(Arc::clone(&me));
        stats.writer_waiting_inc();

        // Wait until we are committed by a leader, become leader, or get
        // handed our own sub-batch to apply (concurrent memtable mode).
        loop {
            let done = me.done.lock().take();
            if let Some(done) = done {
                // A follower's own concurrent insert ran inside the group's
                // memtable stage, which the group's parts already cover.
                let mut parts = entry + done.parts;
                parts.record(Class::WriterQueue, done.started - me.enqueued_at());
                xlsm_sim::set_charges(parts);
                stats.bump(Ticker::WritesJoinedGroup);
                self.spares.lock().writers.push(me);
                return done.result;
            }
            let job = me.apply.lock().take();
            if let Some(job) = job {
                job.sync.finish(backend.write_memtable_member(&job.batch));
                self.spares.lock().keep_batch(job.batch);
                continue; // the leader completes us after the barrier
            }
            if self.is_front(&me) {
                break;
            }
            me.wake.wait();
        }

        // --- We are the leader. ---
        let started = xlsm_sim::now_nanos();
        xlsm_sim::waited(Class::WriterQueue, started - me.enqueued_at());
        let before = xlsm_sim::charges();
        stats.bump(Ticker::WriteGroupsLed);
        let mut group = self.spares.lock().groups.pop().unwrap_or_default();
        self.build_group(&me, &mut group);
        let result = self.commit_group(&mut group, backend, stats);
        let parts = xlsm_sim::charges() - before;
        for m in group.members.drain(1..) {
            *m.done.lock() = Some(GroupDone {
                result: result.clone(),
                started,
                parts,
            });
            m.wake.notify_all();
        }
        group.members.clear();
        let mut spares = self.spares.lock();
        for b in group.batches.drain(..) {
            spares.keep_batch(b);
        }
        spares.groups.push(group);
        spares.writers.push(me);
        drop(spares);
        stats.sample_waiting_writers();
        result
    }

    /// Collects the batch group starting at the queue head (which must be
    /// `leader`) into the empty `group`. Batches are *moved out* of the
    /// member writers — cheap pointer moves only — while holding the queue
    /// mutex; the O(group-bytes) merge happens in `commit_group` after the
    /// lock is dropped, so enqueuing writers never serialize behind the
    /// leader's memcpy.
    fn build_group(&self, leader: &Arc<Writer>, group: &mut Group) {
        let queue = self.queue.lock();
        debug_assert!(Arc::ptr_eq(queue.front().unwrap(), leader));
        let lead = leader.batch.lock().take().expect("leader batch taken");
        let mut bytes = lead.byte_size();
        group.batches.push(lead);
        group.members.push(Arc::clone(leader));
        for w in queue.iter().skip(1) {
            let mut slot = w.batch.lock();
            let size = slot.as_ref().map_or(0, WriteBatch::byte_size);
            if bytes + size > self.max_group_bytes {
                break;
            }
            if let Some(b) = slot.take() {
                group.batches.push(b);
                bytes += size;
                group.members.push(Arc::clone(w));
            }
        }
    }

    /// Pops `members` off the queue head and wakes the next leader.
    fn pop_group(&self, members: &[Arc<Writer>], stats: &DbStats) {
        let next = {
            let mut queue = self.queue.lock();
            for m in members {
                debug_assert!(Arc::ptr_eq(queue.front().unwrap(), m));
                queue.pop_front();
                stats.writer_waiting_dec();
            }
            queue.front().cloned()
        };
        if let Some(n) = next {
            n.wake.notify_all();
        }
    }

    fn commit_group(
        &self,
        group: &mut Group,
        backend: &dyn WriteBackend,
        stats: &DbStats,
    ) -> DbResult<()> {
        let Group {
            members,
            batches,
            merged,
        } = group;
        let concurrent = self.concurrent && batches.len() >= CONCURRENT_APPLY_MIN_BATCHES;
        // The group's WAL record, built outside the queue lock: a lone
        // batch is its own; several merge, at the leader's protection
        // width, into the buffer the group keeps for that. The member
        // batches stay, for the concurrent path to apply each its own.
        let solo = batches.len() == 1;
        let mut record = if solo {
            batches.pop().expect("group has a leader batch")
        } else {
            let mut record = merged.take().unwrap_or_default();
            record.clear();
            record.enable_protection(batches[0].protection_width());
            for b in batches.iter() {
                record.append_batch(b);
            }
            record
        };
        let r = self.commit_record(&mut record, members, batches, concurrent, backend, stats);
        if solo {
            batches.push(record);
        } else {
            *merged = Some(record);
        }
        r
    }

    /// Commits a group's WAL record `group` and applies it: serially, or
    /// with `concurrent`, each member its own of `member_batches`.
    fn commit_record(
        &self,
        group: &mut WriteBatch,
        members: &[Arc<Writer>],
        member_batches: &mut Vec<WriteBatch>,
        concurrent: bool,
        backend: &dyn WriteBackend,
        stats: &DbStats,
    ) -> DbResult<()> {
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
        members: &[Arc<Writer>],
        backend: &dyn WriteBackend,
        stats: &DbStats,
    ) -> DbResult<()> {
        debug_assert_eq!(batches.len(), members.len());
        let sync = GroupSync::new(members.len());
        stats.add(Ticker::ConcurrentMemtableApplies, members.len() as u64);
        let mut batches = batches.drain(..);
        let leader_batch = batches.next().expect("group has a leader batch");
        for (m, b) in members[1..].iter().zip(batches) {
            *m.apply.lock() = Some(ApplyJob {
                batch: b,
                sync: Arc::clone(&sync),
            });
            m.wake.notify_all();
        }
        sync.finish(backend.write_memtable_member(&leader_batch));
        self.spares.lock().keep_batch(leader_batch);
        let t0 = xlsm_sim::now_nanos();
        while sync.write_done.load(AtOrd::Acquire) > 0 {
            sync.done.wait();
        }
        xlsm_sim::waited(Class::GroupApply, xlsm_sim::now_nanos() - t0);
        let first_error = sync.error.lock().take();
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                self.mem.add(seq, t, key, value, 0);
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
