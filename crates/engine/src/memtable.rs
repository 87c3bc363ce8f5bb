//! The memtable: an arena-backed concurrent skiplist over internal keys.
//!
//! The paper leans on the skiplist's `O(log N)` insert/search complexity in
//! two findings (Level-0 query overhead, write-latency growth with memtable
//! size), so the memtable here is a real skiplist, not a `BTreeMap` stand-in.
//! Finding #3 adds a third requirement: with
//! `allow_concurrent_memtable_write`, every member of a write group inserts
//! its own sub-batch on its own sim thread, so the structure must tolerate
//! concurrent inserts and lock-free readers:
//!
//! * next-links are `AtomicU32` node indices updated with a per-level CAS
//!   (RocksDB `InlineSkipList` style) — an insert that loses a race at a
//!   level re-locates its splice point and retries;
//! * nodes live in a *chunked* arena: a fixed spine of lazily-allocated,
//!   geometrically-growing chunks. A chunk never moves or grows once
//!   allocated, so a node index handed to a reader stays valid while other
//!   threads allocate — no single `Vec` behind one lock to invalidate it.
//!
//! A node is one arena slot: its links inline, and its internal key and
//! value together in one heap allocation, so a put allocates once and a
//! search that follows a link lands on the node it compares. Once inserted
//! a node's key/value never move, so iterators hold `(Arc<MemTable>,
//! index)` without pinning any lock across blocking operations.
//!
//! CPU time for searches, and for the *serial* insert path
//! ([`MemTable::add`] with `charge_ns == 0`), is charged by the callers via
//! [`crate::costs`], keeping those paths synchronous and cheap to unit test.
//! The *concurrent* path passes its insert cost as `charge_ns` and `add`
//! sleeps it off between locating the splice and publishing the links: that
//! sleep is the yield point where other group members run, which both
//! overlaps their insert costs in virtual time (the point of concurrent
//! memtable writes) and exercises the CAS-retry path under real
//! interleavings.

use crate::bloom::ConcurrentBloom;
use crate::error::{DbError, DbResult};
use crate::integrity;
use crate::iterator::InternalIterator;
use crate::types::{self, compare_internal, SequenceNumber, ValueType};
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering as AtOrd};
use std::sync::{Arc, OnceLock};
use xlsm_sim::{rng::Xoshiro256, Class};

const MAX_HEIGHT: usize = 12;
const BRANCHING: u64 = 4;
const NIL: u32 = u32::MAX;

/// Slots in the first arena chunk; each subsequent chunk doubles.
const BASE_CHUNK: usize = 1 << 10;
/// Spine length. Total capacity `BASE_CHUNK * (2^NUM_CHUNKS - 1)` ≈ 4.3e9
/// slots — every index below that fits in a `u32` and stays below `NIL`.
const NUM_CHUNKS: usize = 22;

struct Node {
    /// The full internal key (`user_key ++ trailer`), then the value.
    /// Immutable once inserted.
    entry: Box<[u8]>,
    /// Where the key ends in `entry`.
    key_len: u32,
    /// Per-entry checksum over (type, user key, value) when the memtable
    /// protects entries at rest; `0` when protection is off.
    prot: u32,
    /// `next[level]` — atomic node indices, linked bottom-up via CAS. A
    /// node of height `h` uses the first `h`.
    next: [AtomicU32; MAX_HEIGHT],
}

impl Node {
    fn key(&self) -> &[u8] {
        &self.entry[..self.key_len as usize]
    }

    fn value(&self) -> &[u8] {
        &self.entry[self.key_len as usize..]
    }
}

/// Chunked node arena. The spine is a fixed array of once-initialized
/// chunks; a chunk is a fixed slice of once-initialized slots. Allocation
/// reserves a slot with a fetch-add and writes the node before any link
/// publishes its index, so readers traversing links never observe an
/// uninitialized slot.
struct Arena {
    spine: [OnceLock<Box<[OnceLock<Node>]>>; NUM_CHUNKS],
    len: AtomicUsize,
}

impl Arena {
    fn new() -> Arena {
        Arena {
            spine: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Maps a global slot index to `(chunk, offset)`.
    fn locate(idx: u32) -> (usize, usize) {
        let q = idx as usize / BASE_CHUNK + 1;
        let chunk = (usize::BITS - 1 - q.leading_zeros()) as usize;
        (chunk, idx as usize - BASE_CHUNK * ((1 << chunk) - 1))
    }

    fn alloc(&self, node: Node) -> u32 {
        let idx = self.len.fetch_add(1, AtOrd::Relaxed);
        assert!(
            idx < BASE_CHUNK * ((1usize << NUM_CHUNKS) - 1),
            "memtable arena exhausted"
        );
        let (chunk, off) = Arena::locate(idx as u32);
        let slots = self.spine[chunk].get_or_init(|| {
            (0..BASE_CHUNK << chunk)
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        assert!(
            slots[off].set(node).is_ok(),
            "arena slot double-initialized"
        );
        idx as u32
    }

    fn node(&self, idx: u32) -> &Node {
        let (chunk, off) = Arena::locate(idx);
        self.spine[chunk].get().expect("chunk allocated")[off]
            .get()
            .expect("slot initialized before being linked")
    }
}

/// An in-memory, sorted write buffer.
pub struct MemTable {
    id: u64,
    arena: Arena,
    /// Head node's next pointers (one per level).
    head: [AtomicU32; MAX_HEIGHT],
    height: AtomicUsize,
    rng: parking_lot::Mutex<Xoshiro256>,
    approx_bytes: AtomicUsize,
    entries: AtomicU64,
    /// Optional whole-key bloom over user keys, populated *before* a node
    /// is linked so readers that can see an entry always see its bits
    /// (no false negatives, including on the concurrent insert path).
    bloom: Option<ConcurrentBloom>,
    /// Whether each node stores (and `get`/flush re-verify) a per-entry
    /// checksum — the memtable leg of the per-key protection chain.
    protect: bool,
}

impl std::fmt::Debug for MemTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTable")
            .field("id", &self.id)
            .field("entries", &self.num_entries())
            .field("approx_bytes", &self.approximate_bytes())
            .finish()
    }
}

impl MemTable {
    /// Creates an empty memtable with the given id (for diagnostics), no
    /// bloom and no entry protection.
    pub fn new(id: u64) -> Arc<MemTable> {
        MemTable::with_options(id, 0, 0, false)
    }

    /// Creates an empty memtable with a whole-key bloom sized for
    /// `expected_entries` at `bits_per_key` (`0` bits disables the filter;
    /// it is fixed-size and atomic, so overshooting the estimate only raises
    /// its false-positive rate) and an entry-protection switch: when
    /// `protect` is on, every node stores a checksum over (type, user key,
    /// value) computed at insert, and [`MemTable::get`] plus flush-side
    /// [`MemTableIter::verify_entry`] re-verify it, so an entry corrupted
    /// while buffered is detected instead of served or persisted.
    pub fn with_options(
        id: u64,
        bits_per_key: usize,
        expected_entries: usize,
        protect: bool,
    ) -> Arc<MemTable> {
        Arc::new(MemTable {
            id,
            arena: Arena::new(),
            head: std::array::from_fn(|_| AtomicU32::new(NIL)),
            height: AtomicUsize::new(1),
            rng: parking_lot::Mutex::new(Xoshiro256::new(0x5EED ^ id)),
            approx_bytes: AtomicUsize::new(0),
            entries: AtomicU64::new(0),
            bloom: (bits_per_key > 0)
                .then(|| ConcurrentBloom::new(bits_per_key, expected_entries.max(1))),
            protect,
        })
    }

    /// Whether this memtable carries a whole-key bloom (callers charge the
    /// filter-probe CPU cost only when it does).
    pub fn bloom_enabled(&self) -> bool {
        self.bloom.is_some()
    }

    /// Whether `user_key` may be present. `false` is definitive (the key
    /// was never inserted); `true` means "search the skiplist". Without a
    /// bloom this is always `true`.
    pub fn may_contain(&self, user_key: &[u8]) -> bool {
        self.bloom.as_ref().is_none_or(|b| b.may_contain(user_key))
    }

    /// The link from `prev` (or the head when `prev == NIL`) at `level`.
    fn link(&self, prev: u32, level: usize) -> &AtomicU32 {
        match prev {
            NIL => &self.head[level],
            p => &self.arena.node(p).next[level],
        }
    }

    fn key_at(&self, idx: u32) -> &[u8] {
        self.arena.node(idx).key()
    }

    /// Finds, per level, the last node whose key is `< key` (`NIL` = head).
    fn find_predecessors(&self, key: &[u8]) -> [u32; MAX_HEIGHT] {
        let mut prev = [NIL; MAX_HEIGHT];
        let mut level = self.height.load(AtOrd::Acquire);
        let mut cur = NIL; // NIL = head
        while level > 0 {
            let l = level - 1;
            loop {
                let next = self.link(cur, l).load(AtOrd::Acquire);
                if next != NIL && compare_internal(self.key_at(next), key) == Ordering::Less {
                    cur = next;
                } else {
                    break;
                }
            }
            prev[l] = cur;
            level -= 1;
        }
        prev
    }

    /// First node with key ≥ `key` (index), or `NIL`.
    fn seek_index(&self, key: &[u8]) -> u32 {
        let prev = self.find_predecessors(key);
        self.link(prev[0], 0).load(AtOrd::Acquire)
    }

    fn random_height(&self) -> usize {
        let mut rng = self.rng.lock();
        let mut h = 1;
        while h < MAX_HEIGHT && rng.next_below(BRANCHING) == 0 {
            h += 1;
        }
        h
    }

    /// Inserts the internal key of `user_key` at `seq` and `t` → `value`.
    /// With `charge_ns > 0` the insert's CPU cost is slept off *between*
    /// splice location and link publication — the concurrent path's yield
    /// point; with `charge_ns == 0` there is no blocking point, so the
    /// insert is atomic under the cooperative runtime (the serial mode's
    /// exclusive path).
    fn insert(
        &self,
        seq: SequenceNumber,
        t: ValueType,
        user_key: &[u8],
        value: &[u8],
        prot: u32,
        charge_ns: u64,
    ) {
        let key_len = user_key.len() + 8;
        let mut entry = Vec::with_capacity(key_len + value.len());
        entry.extend_from_slice(user_key);
        entry.extend_from_slice(&types::pack_seq_type(seq, t).to_le_bytes());
        entry.extend_from_slice(value);
        let entry = entry.into_boxed_slice();
        let h = self.random_height();
        let mut splice = self.find_predecessors(&entry[..key_len]);
        if charge_ns > 0 {
            // Other writers run during this sleep and may insert around our
            // splice point; the CAS loop below recovers, exactly like
            // InlineSkipList's insert-with-hint.
            xlsm_sim::charge(Class::MemtableInsert, charge_ns);
        }
        self.height.fetch_max(h, AtOrd::AcqRel);
        let idx = self.arena.alloc(Node {
            entry,
            key_len: key_len as u32,
            prot,
            next: std::array::from_fn(|_| AtomicU32::new(NIL)),
        });
        let node = self.arena.node(idx);
        for (level, hint) in splice.iter_mut().enumerate().take(h) {
            loop {
                let prev = *hint;
                let link = self.link(prev, level);
                let next = link.load(AtOrd::Acquire);
                if next != NIL && compare_internal(self.key_at(next), node.key()) == Ordering::Less
                {
                    // A concurrent insert landed between `prev` and us;
                    // advance the splice hint along this level.
                    *hint = next;
                    continue;
                }
                node.next[level].store(next, AtOrd::Release);
                if link
                    .compare_exchange(next, idx, AtOrd::AcqRel, AtOrd::Acquire)
                    .is_ok()
                {
                    break;
                }
                // Lost the race on this link: reload and retry from the
                // same predecessor.
            }
        }
    }

    fn record_entry(&self, charge: usize) {
        self.approx_bytes.fetch_add(charge, AtOrd::Relaxed);
        self.entries.fetch_add(1, AtOrd::Relaxed);
    }

    /// Adds an entry. With `charge_ns == 0` this is the exclusive/serial
    /// path: the caller charges the CPU cost and provides external
    /// serialization (e.g. the write queue's memtable stage). With
    /// `charge_ns > 0` it is the concurrent path: that much CPU cost is
    /// slept off mid-insert, so concurrent group members overlap their
    /// insert costs in virtual time and contend on the links.
    pub fn add(
        &self,
        seq: SequenceNumber,
        t: ValueType,
        user_key: &[u8],
        value: &[u8],
        charge_ns: u64,
    ) {
        // Key, value and an estimate of the node overhead.
        let charge = user_key.len() + 8 + value.len() + 48;
        // Bloom bits go in before the node links: anyone who can observe
        // the entry already observes its bits, even mid-insert.
        if let Some(b) = &self.bloom {
            b.insert(user_key);
        }
        let prot = self.checksum_for(t, user_key, value);
        self.insert(seq, t, user_key, value, prot, charge_ns);
        self.record_entry(charge);
    }

    /// The checksum stored with a node (0 when protection is off).
    fn checksum_for(&self, t: ValueType, user_key: &[u8], value: &[u8]) -> u32 {
        if self.protect {
            integrity::entry_checksum(t, user_key, value)
        } else {
            0
        }
    }

    /// Re-verifies the node at `idx` against its stored checksum.
    fn verify_node(&self, idx: u32) -> DbResult<()> {
        if !self.protect {
            return Ok(());
        }
        let node = self.arena.node(idx);
        let (uk, seq, t) = types::parse_internal_key(node.key());
        if integrity::entry_checksum(t, uk, node.value()) != node.prot {
            return Err(DbError::corruption(format!(
                "memtable {} entry checksum mismatch (seq {seq})",
                self.id
            )));
        }
        Ok(())
    }

    /// Looks up `user_key` at `snapshot`. Returns:
    /// * `None` — key not present in this memtable;
    /// * `Some(None)` — newest visible version is a deletion;
    /// * `Some(Some(v))` — newest visible version is `v`.
    ///
    /// # Errors
    ///
    /// [`DbError::Corruption`] when protection is on and the matching
    /// node's stored checksum no longer matches its content.
    pub fn get(
        &self,
        user_key: &[u8],
        snapshot: SequenceNumber,
    ) -> DbResult<Option<Option<Vec<u8>>>> {
        let lookup = types::lookup_key(user_key, snapshot);
        let idx = self.seek_index(&lookup);
        if idx == NIL {
            return Ok(None);
        }
        let node = self.arena.node(idx);
        let (uk, _seq, t) = types::parse_internal_key(node.key());
        if uk != user_key {
            return Ok(None);
        }
        self.verify_node(idx)?;
        Ok(match t {
            ValueType::Value => Some(Some(node.value().to_vec())),
            ValueType::Deletion => Some(None),
        })
    }

    /// Approximate memory footprint in bytes.
    pub fn approximate_bytes(&self) -> usize {
        self.approx_bytes.load(AtOrd::Relaxed)
    }

    /// Number of entries.
    pub fn num_entries(&self) -> u64 {
        self.entries.load(AtOrd::Relaxed)
    }

    /// Whether no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.num_entries() == 0
    }

    /// An iterator positioned before the first entry.
    pub fn iter(self: &Arc<Self>) -> MemTableIter {
        MemTableIter {
            mem: Arc::clone(self),
            cur: NIL,
            started: false,
        }
    }
}

/// Iterator over a memtable's internal entries in internal-key order.
///
/// Holds no lock at all (links are atomic and nodes immutable once
/// linked), so it is safe to interleave with blocking operations (flush
/// uses this). Entries inserted *after* iteration passes their position
/// are not guaranteed to be observed — flush only iterates immutable
/// memtables.
#[derive(Debug)]
pub struct MemTableIter {
    mem: Arc<MemTable>,
    cur: u32,
    started: bool,
}

impl InternalIterator for MemTableIter {
    fn seek_to_first(&mut self) -> DbResult<bool> {
        self.cur = self.mem.head[0].load(AtOrd::Acquire);
        self.started = true;
        Ok(self.cur != NIL)
    }

    fn seek(&mut self, ikey: &[u8]) -> DbResult<bool> {
        self.cur = self.mem.seek_index(ikey);
        self.started = true;
        Ok(self.cur != NIL)
    }

    fn next(&mut self) -> DbResult<bool> {
        debug_assert!(self.started, "call seek_to_first/seek before next");
        if self.cur != NIL {
            self.cur = self.mem.arena.node(self.cur).next[0].load(AtOrd::Acquire);
        }
        Ok(self.cur != NIL)
    }

    fn valid(&self) -> bool {
        self.started && self.cur != NIL
    }

    // Nodes are immutable once inserted, so the entry can be lent as is.
    fn key(&self) -> &[u8] {
        self.mem.arena.node(self.cur).key()
    }

    fn value(&self) -> &[u8] {
        self.mem.arena.node(self.cur).value()
    }
}

impl MemTableIter {
    /// Re-verifies the current entry against its stored per-entry checksum
    /// (no-op when the memtable does not protect entries). Flush calls this
    /// per entry so a corrupted buffered write is caught *before* it is
    /// persisted into an SST with a fresh, valid block checksum.
    ///
    /// # Errors
    ///
    /// [`DbError::Corruption`] on mismatch.
    pub fn verify_entry(&self) -> DbResult<()> {
        debug_assert!(self.valid(), "verify_entry on invalid iterator");
        self.mem.verify_node(self.cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::lookup_key;
    use proptest::prelude::*;
    use xlsm_sim::Runtime;

    #[test]
    fn add_get_roundtrip() {
        let m = MemTable::new(1);
        m.add(1, ValueType::Value, b"alpha", b"1", 0);
        m.add(2, ValueType::Value, b"beta", b"2", 0);
        assert_eq!(m.get(b"alpha", 10).unwrap(), Some(Some(b"1".to_vec())));
        assert_eq!(m.get(b"beta", 10).unwrap(), Some(Some(b"2".to_vec())));
        assert_eq!(m.get(b"gamma", 10).unwrap(), None);
        assert_eq!(m.num_entries(), 2);
        assert!(m.approximate_bytes() > 0);
    }

    #[test]
    fn newest_version_wins() {
        let m = MemTable::new(1);
        m.add(1, ValueType::Value, b"k", b"old", 0);
        m.add(5, ValueType::Value, b"k", b"new", 0);
        assert_eq!(m.get(b"k", 10).unwrap(), Some(Some(b"new".to_vec())));
    }

    #[test]
    fn snapshot_visibility() {
        let m = MemTable::new(1);
        m.add(3, ValueType::Value, b"k", b"v3", 0);
        m.add(7, ValueType::Value, b"k", b"v7", 0);
        assert_eq!(m.get(b"k", 2).unwrap(), None, "nothing visible below seq 3");
        assert_eq!(m.get(b"k", 3).unwrap(), Some(Some(b"v3".to_vec())));
        assert_eq!(m.get(b"k", 6).unwrap(), Some(Some(b"v3".to_vec())));
        assert_eq!(m.get(b"k", 7).unwrap(), Some(Some(b"v7".to_vec())));
    }

    #[test]
    fn deletion_shadows() {
        let m = MemTable::new(1);
        m.add(1, ValueType::Value, b"k", b"v", 0);
        m.add(2, ValueType::Deletion, b"k", b"", 0);
        assert_eq!(m.get(b"k", 10).unwrap(), Some(None));
        assert_eq!(m.get(b"k", 1).unwrap(), Some(Some(b"v".to_vec())));
    }

    #[test]
    fn prefix_keys_do_not_collide() {
        let m = MemTable::new(1);
        m.add(1, ValueType::Value, b"abc", b"1", 0);
        assert_eq!(m.get(b"ab", 10).unwrap(), None);
        assert_eq!(m.get(b"abcd", 10).unwrap(), None);
    }

    #[test]
    fn iterator_yields_sorted_internal_keys() {
        let m = MemTable::new(1);
        for (i, k) in [b"d", b"b", b"a", b"c"].iter().enumerate() {
            m.add(i as u64 + 1, ValueType::Value, *k, b"v", 0);
        }
        let mut it = m.iter();
        assert!(it.seek_to_first().unwrap());
        let mut keys = Vec::new();
        loop {
            keys.push(it.key().to_vec());
            if !it.next().unwrap() {
                break;
            }
        }
        assert_eq!(keys.len(), 4);
        for w in keys.windows(2) {
            assert_eq!(compare_internal(&w[0], &w[1]), Ordering::Less);
        }
    }

    #[test]
    fn iterator_seek() {
        let m = MemTable::new(1);
        m.add(1, ValueType::Value, b"a", b"", 0);
        m.add(2, ValueType::Value, b"c", b"", 0);
        m.add(3, ValueType::Value, b"e", b"", 0);
        let mut it = m.iter();
        assert!(it.seek(&lookup_key(b"b", u64::MAX >> 8)).unwrap());
        let (uk, ..) = types::parse_internal_key(it.key());
        assert_eq!(uk, b"c");
        assert!(!it.seek(&lookup_key(b"z", u64::MAX >> 8)).unwrap());
    }

    #[test]
    fn arena_locate_roundtrips_chunk_boundaries() {
        // First index of every chunk, last index of every chunk, and a few
        // interior points must land in bounds and in order.
        let mut global = 0usize;
        for chunk in 0..6 {
            let size = BASE_CHUNK << chunk;
            assert_eq!(Arena::locate(global as u32), (chunk, 0));
            assert_eq!(Arena::locate((global + size - 1) as u32), (chunk, size - 1));
            global += size;
        }
    }

    #[test]
    fn arena_indices_survive_chunk_growth() {
        // Crossing several chunk boundaries must never invalidate an index
        // taken earlier (the old Vec arena reallocated under growth).
        let m = MemTable::new(7);
        let n = 3 * BASE_CHUNK + 17;
        for i in 0..n {
            m.add(
                i as u64 + 1,
                ValueType::Value,
                format!("k{i:08}").as_bytes(),
                b"v",
                0,
            );
        }
        let mut it = m.iter();
        assert!(it.seek_to_first().unwrap());
        let mut count = 1;
        while it.next().unwrap() {
            count += 1;
        }
        assert_eq!(count, n);
        assert_eq!(
            m.get(b"k00000000", u64::MAX >> 8).unwrap(),
            Some(Some(b"v".to_vec()))
        );
        assert_eq!(
            m.get(format!("k{:08}", n - 1).as_bytes(), u64::MAX >> 8)
                .unwrap(),
            Some(Some(b"v".to_vec()))
        );
    }

    /// ≥32 sim threads hammer the concurrent insert path with interleaved
    /// mid-insert sleeps (the CAS-retry window) on overlapping keys; every
    /// entry must land, sorted, with nothing lost or duplicated.
    #[test]
    fn concurrent_inserts_from_many_threads_preserve_all_entries() {
        const THREADS: u64 = 36;
        const PER_THREAD: u64 = 64;
        Runtime::new().run(|| {
            let m = MemTable::new(3);
            let mut handles = Vec::new();
            for t in 0..THREADS {
                let m = Arc::clone(&m);
                handles.push(xlsm_sim::spawn(&format!("ins-{t}"), move || {
                    for i in 0..PER_THREAD {
                        let seq = t * PER_THREAD + i + 1;
                        // Overlapping key space across threads maximizes
                        // splice-point contention.
                        let key = format!("key{:04}", (seq * 31) % 512);
                        m.add(seq, ValueType::Value, key.as_bytes(), b"v", 750);
                    }
                }));
            }
            for h in handles {
                h.join();
            }
            assert_eq!(m.num_entries(), THREADS * PER_THREAD);
            let mut it = m.iter();
            assert!(it.seek_to_first().unwrap());
            let mut keys = vec![it.key().to_vec()];
            while it.next().unwrap() {
                keys.push(it.key().to_vec());
            }
            assert_eq!(keys.len() as u64, THREADS * PER_THREAD, "entries lost");
            for w in keys.windows(2) {
                assert_eq!(
                    compare_internal(&w[0], &w[1]),
                    Ordering::Less,
                    "ordering violated under concurrent insert"
                );
            }
        });
    }

    #[test]
    fn bloom_filters_absent_keys_and_never_present_ones() {
        let m = MemTable::with_options(11, 10, 1024, false);
        assert!(m.bloom_enabled());
        for i in 0..1000u32 {
            m.add(
                i as u64 + 1,
                ValueType::Value,
                format!("in{i:05}").as_bytes(),
                b"v",
                0,
            );
        }
        for i in 0..1000u32 {
            assert!(m.may_contain(format!("in{i:05}").as_bytes()));
        }
        let mut rejected = 0;
        for i in 0..1000u32 {
            if !m.may_contain(format!("out{i:05}").as_bytes()) {
                rejected += 1;
            }
        }
        assert!(rejected > 900, "memtable bloom too permissive: {rejected}");
        // Without a bloom, everything "may" be present.
        let plain = MemTable::new(12);
        assert!(!plain.bloom_enabled());
        assert!(plain.may_contain(b"whatever"));
    }

    /// Concurrent inserters racing on the bloom + skiplist: a key passes
    /// `may_contain` the instant its insert returns (bits are published
    /// before the skiplist node links in), and a key visible to `get` always
    /// does (no false negatives).
    #[test]
    fn concurrent_bloom_has_no_false_negatives() {
        const THREADS: u64 = 16;
        const PER_THREAD: u64 = 48;
        Runtime::new().run(|| {
            let m = MemTable::with_options(13, 10, (THREADS * PER_THREAD) as usize, false);
            let mut handles = Vec::new();
            for t in 0..THREADS {
                let m = Arc::clone(&m);
                handles.push(xlsm_sim::spawn(&format!("bins-{t}"), move || {
                    for i in 0..PER_THREAD {
                        let seq = t * PER_THREAD + i + 1;
                        let key = format!("key-{t:02}-{i:04}");
                        m.add(seq, ValueType::Value, key.as_bytes(), b"v", 500);
                        assert!(
                            m.may_contain(key.as_bytes()),
                            "bloom lost {key} right after its own insert"
                        );
                        xlsm_sim::sleep_nanos(250);
                    }
                }));
            }
            for h in handles {
                h.join();
            }
            for t in 0..THREADS {
                for i in 0..PER_THREAD {
                    let key = format!("key-{t:02}-{i:04}");
                    assert!(
                        m.may_contain(key.as_bytes()),
                        "false negative for {key} after concurrent insert"
                    );
                    assert!(m.get(key.as_bytes(), u64::MAX >> 8).unwrap().is_some());
                }
            }
        });
    }

    #[test]
    fn protected_get_roundtrip_and_detects_corruption() {
        let m = MemTable::with_options(21, 0, 0, true);
        m.add(1, ValueType::Value, b"good", b"v", 0);
        assert_eq!(m.get(b"good", 10).unwrap(), Some(Some(b"v".to_vec())));
        // Plant an entry whose stored checksum does not match its content —
        // the shape of an in-memory flip between insert and read.
        let wrong = integrity::entry_checksum(ValueType::Value, b"bad", b"v") ^ 1;
        m.insert(2, ValueType::Value, b"bad", b"v", wrong, 0);
        m.record_entry(16);
        let err = m.get(b"bad", 10).unwrap_err();
        assert!(err.is_corruption());
        assert!(err.to_string().contains("memtable 21"), "{err}");
    }

    #[test]
    fn flush_iterator_verifies_entries() {
        let m = MemTable::with_options(22, 0, 0, true);
        m.add(1, ValueType::Value, b"a", b"1", 0);
        let wrong = integrity::entry_checksum(ValueType::Deletion, b"b", b"") ^ 1;
        m.insert(2, ValueType::Deletion, b"b", b"", wrong, 0);
        m.record_entry(16);
        m.add(3, ValueType::Value, b"c", b"3", 0);
        let mut it = m.iter();
        assert!(it.seek_to_first().unwrap());
        let mut bad = 0;
        loop {
            if it.verify_entry().is_err() {
                bad += 1;
            }
            if !it.next().unwrap() {
                break;
            }
        }
        assert_eq!(bad, 1, "exactly the planted entry must fail");
    }

    #[test]
    fn unprotected_memtable_skips_verification() {
        let m = MemTable::new(23);
        m.add(1, ValueType::Value, b"k", b"v", 0);
        let mut it = m.iter();
        assert!(it.seek_to_first().unwrap());
        assert!(it.verify_entry().is_ok());
        assert_eq!(m.get(b"k", 10).unwrap(), Some(Some(b"v".to_vec())));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The memtable agrees with a reference BTreeMap model under random
        /// puts/deletes, at the latest snapshot.
        #[test]
        fn matches_reference_model(ops in prop::collection::vec(
            (prop::collection::vec(1u8..5, 1..4), prop::option::of(0u8..3)), 1..300)
        ) {
            use std::collections::BTreeMap;
            let m = MemTable::new(9);
            let mut model: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
            for (seq, (key, val)) in ops.iter().enumerate() {
                let seq = seq as u64 + 1;
                match val {
                    Some(v) => {
                        m.add(seq, ValueType::Value, key, &[*v], 0);
                        model.insert(key.clone(), Some(vec![*v]));
                    }
                    None => {
                        m.add(seq, ValueType::Deletion, key, b"", 0);
                        model.insert(key.clone(), None);
                    }
                }
            }
            for (key, expect) in &model {
                prop_assert_eq!(m.get(key, u64::MAX >> 8).unwrap(), Some(expect.clone()));
            }
            prop_assert_eq!(m.num_entries(), ops.len() as u64);
        }
    }
}
