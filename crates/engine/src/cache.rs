//! Sharded LRU block cache (validated data blocks).
//!
//! Keyed by `(file number, block offset)`. Capacity is charged by the
//! on-disk block size. The recency order is an `Lru`, which the table
//! cache shares.

use crate::coding::get_varint64;
use crate::types::{compare_internal, KeyBuf};
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::hash::Hash;
use std::ops::Range;
use std::sync::Arc;
use xlsm_sim::hash::FxHashMap;
use xlsm_simfs::FileBytes;

/// Cache key: `(file number, block offset within file)`.
pub type BlockKey = (u64, u64);

/// A data block as its frame holds it: the bytes it was read into (the
/// file's own memory, shared, a readahead window, or a decompressed copy),
/// where its entries lie in them, and how many there are. One walk counted
/// them when the block was read and checked every entry's bounds on the
/// way ([`crate::sst::decode_framed`]); a reader parses them again in
/// place, each key rebuilt from the one before it into a [`KeyBuf`].
#[derive(Debug, Default)]
pub struct Block {
    bytes: FileBytes,
    /// Where the entries lie in `bytes` (the restart array follows them).
    at: Range<usize>,
    /// How many entries the walk counted.
    count: usize,
    /// Serialized size (cache charge).
    pub raw_size: usize,
}

/// One parsed entry of a [`Block`]: where its value lies in the block's
/// bytes and where the next entry starts. Its key is in the [`KeyBuf`] it
/// was parsed into.
#[derive(Clone, Debug)]
pub(crate) struct Entry {
    pub(crate) value: Range<usize>,
    pub(crate) next: usize,
}

impl Block {
    /// A block over `bytes[at]`, whose `count` entries the caller has
    /// walked and bounds-checked.
    pub(crate) fn new(bytes: FileBytes, at: Range<usize>, count: usize, raw_size: usize) -> Block {
        Block {
            bytes,
            at,
            count,
            raw_size,
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Parses the entry that starts `at` bytes into the entries (0: the
    /// first), rebuilding its key in `key`, which holds the previous
    /// entry's key (any key for the first). `None` past the last entry.
    pub(crate) fn entry(&self, at: usize, key: &mut KeyBuf) -> Option<Entry> {
        let data = &self.bytes[self.at.clone()];
        let mut off = at;
        if off >= data.len() {
            return None;
        }
        let shared = get_varint64(data, &mut off)? as usize;
        let non_shared = get_varint64(data, &mut off)? as usize;
        let value_len = get_varint64(data, &mut off)? as usize;
        let value_at = off + non_shared;
        key.truncate(shared);
        key.extend_from_slice(&data[off..value_at]);
        let next = value_at + value_len;
        Some(Entry {
            value: self.at.start + value_at..self.at.start + next,
            next,
        })
    }

    /// The bytes of a value [`Block::entry`] found.
    pub(crate) fn value(&self, entry: &Entry) -> &[u8] {
        &self.bytes[entry.value.clone()]
    }

    /// The first entry whose internal key is not less than `ikey`, its key
    /// in `key`. The walk starts at the first entry: the restart array is
    /// not trusted.
    pub(crate) fn seek(&self, ikey: &[u8], key: &mut KeyBuf) -> Option<Entry> {
        let mut at = 0;
        while let Some(entry) = self.entry(at, key) {
            if compare_internal(key, ikey) != Ordering::Less {
                return Some(entry);
            }
            at = entry.next;
        }
        None
    }
}

/// Least-recently-used order over a map, shared by the block-cache shards
/// and the table cache's reader maps. Deterministic: recency is a logical
/// tick, and the eviction queue is invalidated lazily — every touch pushes
/// a `(key, tick)` entry, and only the entry carrying a key's newest tick is
/// live. What an entry costs and when the map is over budget is the
/// caller's business: it calls [`Lru::pop_lru`] until it fits.
pub(crate) struct Lru<K, V> {
    map: FxHashMap<K, (V, u64)>, // value, last tick
    queue: VecDeque<(K, u64)>,
    tick: u64,
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    pub(crate) fn new() -> Lru<K, V> {
        Lru {
            map: FxHashMap::default(),
            queue: VecDeque::new(),
            tick: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn keys(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }

    /// Looks `key` up; a hit makes it the most recently used.
    pub(crate) fn touch(&mut self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let (value, last) = self.map.get_mut(key)?;
        let value = value.clone();
        self.tick += 1;
        *last = self.tick;
        self.queue.push_back((*key, self.tick));
        Self::drain_stale(&mut self.queue, &self.map);
        Some(value)
    }

    /// Stores `value` under `key` as the most recently used entry and
    /// returns the value it displaced, if any.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.tick += 1;
        self.queue.push_back((key, self.tick));
        let old = self.map.insert(key, (value, self.tick));
        Self::drain_stale(&mut self.queue, &self.map);
        old.map(|(value, _)| value)
    }

    /// Removes and returns the least recently used entry.
    pub(crate) fn pop_lru(&mut self) -> Option<(K, V)> {
        while let Some((key, tick)) = self.queue.pop_front() {
            if matches!(self.map.get(&key), Some((_, last)) if *last == tick) {
                return self.map.remove(&key).map(|(value, _)| (key, value));
            }
        }
        None
    }

    /// Removes `key`; its queue entries go stale and are skipped later.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|(value, _)| value)
    }

    /// Compacts the recency queue once stale entries dominate. A hit-heavy
    /// workload would otherwise grow it without bound. Rebuilding keeps
    /// exactly one entry per key and at least halves the queue, so the cost
    /// is amortized O(1) per touch.
    fn drain_stale(queue: &mut VecDeque<(K, u64)>, map: &FxHashMap<K, (V, u64)>) {
        if queue.len() > 2 * map.len() {
            queue.retain(|(k, t)| matches!(map.get(k), Some((_, last)) if last == t));
        }
    }
}

/// One block-cache shard: an [`Lru`] charged by serialized block size.
struct Shard {
    lru: Lru<BlockKey, Arc<Block>>,
    used: usize,
    capacity: usize,
}

impl Shard {
    fn get(&mut self, key: &BlockKey) -> Option<Arc<Block>> {
        self.lru.touch(key)
    }

    fn insert(&mut self, key: BlockKey, block: Arc<Block>) {
        self.used += block.raw_size;
        if let Some(old) = self.lru.insert(key, block) {
            // Replacement: release the displaced entry's charge. The new
            // block may be a different size (e.g. the file was rewritten
            // under the same number by repair), so the charges are not
            // interchangeable.
            self.used -= old.raw_size;
        }
        while self.used > self.capacity {
            match self.lru.pop_lru() {
                Some((_, evicted)) => self.used -= evicted.raw_size,
                None => break,
            }
        }
    }

    fn remove_file(&mut self, file: u64) {
        let keys: Vec<BlockKey> = self.lru.keys().filter(|k| k.0 == file).copied().collect();
        for k in keys {
            if let Some(b) = self.lru.remove(&k) {
                self.used -= b.raw_size;
            }
        }
    }
}

/// The sharded LRU cache.
pub struct BlockCache {
    shards: Vec<parking_lot::Mutex<Shard>>,
}

const SHARDS: usize = 16;

impl BlockCache {
    /// Creates a cache with a total byte capacity.
    pub fn new(capacity_bytes: usize) -> Arc<BlockCache> {
        let per_shard = (capacity_bytes / SHARDS).max(4096);
        Arc::new(BlockCache {
            shards: (0..SHARDS)
                .map(|_| {
                    parking_lot::Mutex::new(Shard {
                        lru: Lru::new(),
                        used: 0,
                        capacity: per_shard,
                    })
                })
                .collect(),
        })
    }

    fn shard_of(key: &BlockKey) -> usize {
        // Cheap deterministic mix of file number and offset.
        let h = key
            .0
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(key.1.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        (h >> 58) as usize % SHARDS
    }

    /// Looks up a block.
    pub fn get(&self, key: &BlockKey) -> Option<Arc<Block>> {
        self.shards[Self::shard_of(key)].lock().get(key)
    }

    /// Inserts a block (evicting LRU entries to fit).
    pub fn insert(&self, key: BlockKey, block: Arc<Block>) {
        self.shards[Self::shard_of(&key)].lock().insert(key, block);
    }

    /// Drops all blocks of a deleted file.
    pub fn remove_file(&self, file: u64) {
        for s in &self.shards {
            s.lock().remove_file(file);
        }
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().used).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: usize) -> Arc<Block> {
        Arc::new(Block {
            raw_size: n,
            ..Block::default()
        })
    }

    #[test]
    fn insert_get_roundtrip() {
        let c = BlockCache::new(1 << 20);
        c.insert((1, 0), block(100));
        assert!(c.get(&(1, 0)).is_some());
        assert!(c.get(&(1, 4096)).is_none());
    }

    #[test]
    fn eviction_respects_capacity() {
        let c = BlockCache::new(SHARDS * 4096); // 4096 per shard
                                                // Insert many blocks mapping to assorted shards.
        for i in 0..512u64 {
            c.insert((i, i * 4096), block(1024));
        }
        assert!(
            c.used_bytes() <= SHARDS * 4096 + 1024,
            "used {} exceeds capacity",
            c.used_bytes()
        );
    }

    #[test]
    fn lru_keeps_recent() {
        let c = BlockCache::new(SHARDS * 4096);
        // Work within a single shard by reusing one key pattern: find two
        // keys in the same shard.
        let mut same_shard = Vec::new();
        let target = BlockCache::shard_of(&(0, 0));
        for i in 0..10_000u64 {
            if BlockCache::shard_of(&(i, 0)) == target {
                same_shard.push((i, 0));
                if same_shard.len() == 5 {
                    break;
                }
            }
        }
        assert!(same_shard.len() >= 4);
        c.insert(same_shard[0], block(2000));
        c.insert(same_shard[1], block(2000));
        // Touch [0] so [1] is LRU.
        assert!(c.get(&same_shard[0]).is_some());
        c.insert(same_shard[2], block(2000)); // must evict [1]
        assert!(c.get(&same_shard[0]).is_some(), "recently used survived");
        assert!(c.get(&same_shard[1]).is_none(), "LRU entry evicted");
    }

    #[test]
    fn hit_heavy_workload_keeps_recency_queue_bounded() {
        let c = BlockCache::new(1 << 20);
        c.insert((1, 0), block(100));
        c.insert((1, 4096), block(100));
        for _ in 0..10_000 {
            assert!(c.get(&(1, 0)).is_some());
            assert!(c.get(&(1, 4096)).is_some());
        }
        let queued: usize = c.shards.iter().map(|s| s.lock().lru.queue.len()).sum();
        let live: usize = c.shards.iter().map(|s| s.lock().lru.len()).sum();
        assert!(
            queued <= 2 * live + 2,
            "recency queue grew unbounded: {queued} entries for {live} blocks"
        );
    }

    #[test]
    fn overwrite_accounting_matches_live_charges() {
        // Regression: re-inserting an existing key at a different size must
        // keep `used` equal to the sum of live entry charges. The old code
        // kept the original charge forever, so shrinking re-inserts pinned
        // phantom bytes (forcing spurious evictions) and growing re-inserts
        // under-counted until the shard overflowed its capacity.
        let c = BlockCache::new(1 << 20);
        for round in 0..8usize {
            for i in 0..32u64 {
                // Sizes vary per round: 100, 3100, 600, ...
                let size = 100 + (round * 3000) % 7000 + i as usize;
                c.insert((i, i * 4096), block(size));
            }
        }
        let live: usize = c
            .shards
            .iter()
            .map(|s| {
                let s = s.lock();
                s.lru.map.values().map(|(b, _)| b.raw_size).sum::<usize>()
            })
            .sum();
        assert_eq!(
            c.used_bytes(),
            live,
            "used bytes diverged from live charges after re-inserts"
        );
    }

    #[test]
    fn shrinking_reinserts_do_not_pin_phantom_bytes() {
        let c = BlockCache::new(1 << 20);
        c.insert((1, 0), block(10_000));
        c.insert((1, 0), block(10));
        assert_eq!(c.used_bytes(), 10, "old charge must be released");
    }

    #[test]
    fn remove_file_drops_blocks() {
        let c = BlockCache::new(1 << 20);
        c.insert((7, 0), block(100));
        c.insert((7, 4096), block(100));
        c.insert((8, 0), block(100));
        c.remove_file(7);
        assert!(c.get(&(7, 0)).is_none());
        assert!(c.get(&(8, 0)).is_some());
    }
}
