//! The memtable: an arena-backed skiplist over internal keys.
//!
//! The paper leans on the skiplist's `O(log N)` insert/search complexity in
//! two findings (Level-0 query overhead, write-latency growth with memtable
//! size), so the memtable here is a real skiplist, not a `BTreeMap` stand-in.
//! Finding #3 adds a third requirement: with
//! `allow_concurrent_memtable_write`, every member of a write group inserts
//! its own sub-batch on its own sim thread, and readers walk the list while
//! writers insert. Callers charge, no method yields: a member charges each
//! entry's insert cost before its [`MemTable::add`] (so the members' costs
//! overlap in virtual time), and `add` itself charges nothing and never
//! gives up the run token. So an insert runs whole between two of another
//! thread's steps, the splice it locates is exact when it links, and:
//!
//! * next-links are `AtomicU32` node indices, published with a load and a
//!   store (atomics only so that readers on other sim threads see whole
//!   values; no insert can race another);
//! * nodes live in a *chunked* arena: a fixed spine of lazily-allocated,
//!   geometrically-growing chunks. A chunk never moves or grows once
//!   allocated, so a node index handed to a reader stays valid while the
//!   arena grows — no single `Vec` behind one lock to invalidate it.
//!
//! A node is one arena slot: its links inline, and its internal key and
//! value together in one heap allocation, so a put allocates once and a
//! search that follows a link lands on the node it compares. Once inserted
//! a node's key/value never move, so iterators hold `(Arc<MemTable>,
//! index)` without pinning any lock across blocking operations.
//!
//! CPU time for searches and inserts is charged by the callers via
//! [`crate::costs`], keeping every method synchronous and cheap to unit
//! test.

use crate::bloom::ConcurrentBloom;
use crate::error::{DbError, DbResult};
use crate::integrity;
use crate::iterator::InternalIterator;
use crate::types::{self, compare_internal, SequenceNumber, ValueType};
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering as AtOrd};
use std::sync::{Arc, OnceLock};
use xlsm_sim::rng::Xoshiro256;

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
    /// `next[level]` — node indices, linked bottom-up. A node of height `h`
    /// uses the first `h`.
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
/// takes the next slot and writes the node before any link publishes its
/// index, so readers traversing links never observe an uninitialized slot.
struct Arena {
    spine: [OnceLock<Box<[OnceLock<Node>]>>; NUM_CHUNKS],
    len: AtomicU64,
}

impl Arena {
    fn new() -> Arena {
        Arena {
            spine: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicU64::new(0),
        }
    }

    /// Maps a global slot index to `(chunk, offset)`.
    fn locate(idx: u32) -> (usize, usize) {
        let q = idx as usize / BASE_CHUNK + 1;
        let chunk = (usize::BITS - 1 - q.leading_zeros()) as usize;
        (chunk, idx as usize - BASE_CHUNK * ((1 << chunk) - 1))
    }

    fn alloc(&self, node: Node) -> u32 {
        let idx = self.len.load(AtOrd::Relaxed) as usize;
        xlsm_sim::sync::add(&self.len, 1);
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
    height: AtomicU64,
    rng: parking_lot::Mutex<Xoshiro256>,
    approx_bytes: AtomicU64,
    entries: AtomicU64,
    /// Optional whole-key bloom over user keys, populated before a node is
    /// linked, in the same insert, so a reader that can see an entry sees
    /// its bits (no false negatives).
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
            height: AtomicU64::new(1),
            rng: parking_lot::Mutex::new(Xoshiro256::new(0x5EED ^ id)),
            approx_bytes: AtomicU64::new(0),
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
        let mut level = self.height.load(AtOrd::Relaxed) as usize;
        let mut cur = NIL; // NIL = head
        while level > 0 {
            let l = level - 1;
            loop {
                let next = self.link(cur, l).load(AtOrd::Relaxed);
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
        self.link(prev[0], 0).load(AtOrd::Relaxed)
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
    /// Nothing here yields, so the splice located is still exact when the
    /// links are published, bottom-up.
    fn insert(&self, seq: SequenceNumber, t: ValueType, user_key: &[u8], value: &[u8], prot: u32) {
        let key_len = user_key.len() + 8;
        let mut entry = Vec::with_capacity(key_len + value.len());
        entry.extend_from_slice(user_key);
        entry.extend_from_slice(&types::pack_seq_type(seq, t).to_le_bytes());
        entry.extend_from_slice(value);
        let entry = entry.into_boxed_slice();
        let h = self.random_height();
        let splice = self.find_predecessors(&entry[..key_len]);
        xlsm_sim::sync::max(&self.height, h as u64);
        let idx = self.arena.alloc(Node {
            entry,
            key_len: key_len as u32,
            prot,
            next: std::array::from_fn(|_| AtomicU32::new(NIL)),
        });
        let node = self.arena.node(idx);
        for (level, &prev) in splice.iter().enumerate().take(h) {
            let link = self.link(prev, level);
            node.next[level].store(link.load(AtOrd::Relaxed), AtOrd::Relaxed);
            link.store(idx, AtOrd::Relaxed);
        }
    }

    fn record_entry(&self, charge: usize) {
        xlsm_sim::sync::add(&self.approx_bytes, charge as u64);
        xlsm_sim::sync::add(&self.entries, 1);
    }

    /// Adds an entry. The caller charges its CPU cost
    /// ([`crate::costs`]), before or after: this charges nothing and never
    /// yields, so no other sim thread runs while the entry goes in.
    pub fn add(&self, seq: SequenceNumber, t: ValueType, user_key: &[u8], value: &[u8]) {
        // Key, value and an estimate of the node overhead.
        let charge = user_key.len() + 8 + value.len() + 48;
        if let Some(b) = &self.bloom {
            b.insert(user_key);
        }
        let prot = self.checksum_for(t, user_key, value);
        self.insert(seq, t, user_key, value, prot);
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
        self.approx_bytes.load(AtOrd::Relaxed) as usize
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
        self.cur = self.mem.head[0].load(AtOrd::Relaxed);
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
            self.cur = self.mem.arena.node(self.cur).next[0].load(AtOrd::Relaxed);
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
    use xlsm_sim::{Class, Runtime};

    #[test]
    fn add_get_roundtrip() {
        let m = MemTable::new(1);
        m.add(1, ValueType::Value, b"alpha", b"1");
        m.add(2, ValueType::Value, b"beta", b"2");
        assert_eq!(m.get(b"alpha", 10).unwrap(), Some(Some(b"1".to_vec())));
        assert_eq!(m.get(b"beta", 10).unwrap(), Some(Some(b"2".to_vec())));
        assert_eq!(m.get(b"gamma", 10).unwrap(), None);
        assert_eq!(m.num_entries(), 2);
        assert!(m.approximate_bytes() > 0);
    }

    #[test]
    fn newest_version_wins() {
        let m = MemTable::new(1);
        m.add(1, ValueType::Value, b"k", b"old");
        m.add(5, ValueType::Value, b"k", b"new");
        assert_eq!(m.get(b"k", 10).unwrap(), Some(Some(b"new".to_vec())));
    }

    #[test]
    fn snapshot_visibility() {
        let m = MemTable::new(1);
        m.add(3, ValueType::Value, b"k", b"v3");
        m.add(7, ValueType::Value, b"k", b"v7");
        assert_eq!(m.get(b"k", 2).unwrap(), None, "nothing visible below seq 3");
        assert_eq!(m.get(b"k", 3).unwrap(), Some(Some(b"v3".to_vec())));
        assert_eq!(m.get(b"k", 6).unwrap(), Some(Some(b"v3".to_vec())));
        assert_eq!(m.get(b"k", 7).unwrap(), Some(Some(b"v7".to_vec())));
    }

    #[test]
    fn deletion_shadows() {
        let m = MemTable::new(1);
        m.add(1, ValueType::Value, b"k", b"v");
        m.add(2, ValueType::Deletion, b"k", b"");
        assert_eq!(m.get(b"k", 10).unwrap(), Some(None));
        assert_eq!(m.get(b"k", 1).unwrap(), Some(Some(b"v".to_vec())));
    }

    #[test]
    fn prefix_keys_do_not_collide() {
        let m = MemTable::new(1);
        m.add(1, ValueType::Value, b"abc", b"1");
        assert_eq!(m.get(b"ab", 10).unwrap(), None);
        assert_eq!(m.get(b"abcd", 10).unwrap(), None);
    }

    #[test]
    fn iterator_yields_sorted_internal_keys() {
        let m = MemTable::new(1);
        for (i, k) in [b"d", b"b", b"a", b"c"].iter().enumerate() {
            m.add(i as u64 + 1, ValueType::Value, *k, b"v");
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
        m.add(1, ValueType::Value, b"a", b"");
        m.add(2, ValueType::Value, b"c", b"");
        m.add(3, ValueType::Value, b"e", b"");
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

    /// ≥32 sim threads insert overlapping keys, each charging its insert
    /// before `add` as the engine's write-group members do, so their
    /// inserts interleave; every entry must land, sorted, with nothing lost
    /// or duplicated.
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
                        // Overlapping key space across threads, so inserts
                        // land between each other's nodes.
                        let key = format!("key{:04}", (seq * 31) % 512);
                        xlsm_sim::charge(Class::MemtableInsert, 750);
                        m.add(seq, ValueType::Value, key.as_bytes(), b"v");
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

    /// `add` gives up the run token nowhere: with another sim thread
    /// runnable all along, a run of inserts moves neither the clock nor the
    /// switch count.
    #[test]
    fn add_neither_charges_nor_yields() {
        Runtime::new().run(|| {
            let m = MemTable::with_options(4, 10, 256, true);
            let other = xlsm_sim::spawn("runnable", xlsm_sim::yield_now);
            let (t0, switches) = (xlsm_sim::now_nanos(), xlsm_sim::runtime::stats().switches);
            for i in 0..256u64 {
                m.add(i + 1, ValueType::Value, format!("k{i:04}").as_bytes(), b"v");
            }
            assert_eq!(xlsm_sim::now_nanos(), t0);
            assert_eq!(xlsm_sim::runtime::stats().switches, switches);
            other.join();
            assert_eq!(m.num_entries(), 256);
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

    /// Interleaved inserters on the bloom + skiplist: a key passes
    /// `may_contain` the instant its insert returns (bits are set before the
    /// skiplist node links in), and a key visible to `get` always does (no
    /// false negatives).
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
                        xlsm_sim::charge(Class::MemtableInsert, 500);
                        m.add(seq, ValueType::Value, key.as_bytes(), b"v");
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
        m.add(1, ValueType::Value, b"good", b"v");
        assert_eq!(m.get(b"good", 10).unwrap(), Some(Some(b"v".to_vec())));
        // Plant an entry whose stored checksum does not match its content —
        // the shape of an in-memory flip between insert and read.
        let wrong = integrity::entry_checksum(ValueType::Value, b"bad", b"v") ^ 1;
        m.insert(2, ValueType::Value, b"bad", b"v", wrong);
        m.record_entry(16);
        let err = m.get(b"bad", 10).unwrap_err();
        assert!(err.is_corruption());
        assert!(err.to_string().contains("memtable 21"), "{err}");
    }

    #[test]
    fn flush_iterator_verifies_entries() {
        let m = MemTable::with_options(22, 0, 0, true);
        m.add(1, ValueType::Value, b"a", b"1");
        let wrong = integrity::entry_checksum(ValueType::Deletion, b"b", b"") ^ 1;
        m.insert(2, ValueType::Deletion, b"b", b"", wrong);
        m.record_entry(16);
        m.add(3, ValueType::Value, b"c", b"3");
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
        m.add(1, ValueType::Value, b"k", b"v");
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
                        m.add(seq, ValueType::Value, key, &[*v]);
                        model.insert(key.clone(), Some(vec![*v]));
                    }
                    None => {
                        m.add(seq, ValueType::Deletion, key, b"");
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
