//! Clock (second-chance) page cache model.
//!
//! The cache tracks *which* 4-KiB pages are resident and dirty — payloads
//! live in the files themselves — so it is purely a timing/accounting
//! structure. Eviction prefers clean pages; when pressure forces a dirty
//! eviction the caller receives the victims and must charge device writes
//! for them (the "kswapd runs in your context" simplification).
//!
//! A page is found through its file: each file with a resident page owns a
//! vector indexed by page number that holds the page's slot, so a probe is
//! one integer-keyed lookup plus an index, and [`PageCache::clean_file`] /
//! [`PageCache::remove_file`] walk one file's pages instead of every slot.
//! The clock itself — slot order, the hand, which page is the victim — is
//! the slot array alone and knows nothing of the index.

use xlsm_sim::hash::FxHashMap;

/// Identifies one cached page: `(file id, page index within file)`.
pub(crate) type PageKey = (u64, u64);

/// A file's page that holds no slot.
const ABSENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    key: PageKey,
    occupied: bool,
    referenced: bool,
    dirty: bool,
}

/// One file's entry in the index.
#[derive(Debug)]
struct FilePages {
    /// `slots[page]` is the slot holding `page`, or [`ABSENT`].
    slots: Vec<u32>,
    /// No page below this one is dirty: pages are dirtied by appends, at
    /// the end of the file, so a flush walks only what was appended since
    /// the last one.
    dirty_from: usize,
}

impl FilePages {
    fn slot(&self, page: u64) -> Option<usize> {
        match self.slots.get(page as usize) {
            Some(&s) if s != ABSENT => Some(s as usize),
            _ => None,
        }
    }
}

#[derive(Debug)]
pub(crate) struct PageCache {
    capacity: usize,
    files: FxHashMap<u64, FilePages>,
    slots: Vec<Slot>,
    hand: usize,
    resident: usize,
    dirty: usize,
    pub hits: u64,
    pub misses: u64,
    pub dirty_evictions: u64,
}

impl PageCache {
    pub fn new(capacity: usize) -> PageCache {
        assert!(capacity > 0, "page cache needs at least one page");
        assert!(capacity < ABSENT as usize, "slot numbers are u32");
        PageCache {
            capacity,
            files: FxHashMap::default(),
            slots: vec![Slot::default(); capacity],
            hand: 0,
            resident: 0,
            dirty: 0,
            hits: 0,
            misses: 0,
            dirty_evictions: 0,
        }
    }

    pub fn dirty_count(&self) -> usize {
        self.dirty
    }

    pub fn resident_count(&self) -> usize {
        self.resident
    }

    fn slot_of(&self, (file, page): PageKey) -> Option<usize> {
        self.files.get(&file)?.slot(page)
    }

    /// Lookup for a read; marks the page referenced on hit.
    pub fn touch(&mut self, key: PageKey) -> bool {
        if let Some(slot) = self.slot_of(key) {
            self.slots[slot].referenced = true;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Clock sweep: find a victim slot, preferring clean unreferenced pages.
    /// Returns `(slot index, evicted dirty key if any)`.
    fn evict_one(&mut self) -> (usize, Option<PageKey>) {
        // Pass 1..=3: clear reference bits, skip dirty; final pass accepts dirty.
        for pass in 0..4 {
            let allow_dirty = pass == 3;
            for _ in 0..self.capacity {
                let i = self.hand;
                self.hand = (self.hand + 1) % self.capacity;
                let s = &mut self.slots[i];
                if !s.occupied {
                    return (i, None);
                }
                if s.referenced {
                    s.referenced = false;
                    continue;
                }
                if s.dirty && !allow_dirty {
                    continue;
                }
                let (key, was_dirty) = (s.key, s.dirty);
                *s = Slot::default();
                if was_dirty {
                    self.dirty -= 1;
                    self.dirty_evictions += 1;
                }
                self.resident -= 1;
                let pages = self.files.get_mut(&key.0).expect("a resident page's file");
                pages.slots[key.1 as usize] = ABSENT;
                return (i, was_dirty.then_some(key));
            }
        }
        unreachable!("clock sweep must find a victim within four passes");
    }

    /// Inserts a page (no-op if already resident; `dirty` is OR-ed in).
    /// Returns the key of a dirty page that had to be evicted, if any.
    pub fn insert(&mut self, key: PageKey, dirty: bool) -> Option<PageKey> {
        let (file, page) = key;
        if let Some(slot) = self.slot_of(key) {
            let s = &mut self.slots[slot];
            s.referenced = true;
            if dirty && !s.dirty {
                s.dirty = true;
                self.dirty += 1;
                self.mark_dirty(key);
            }
            return None;
        }
        let (slot, victim) = self.evict_one();
        self.slots[slot] = Slot {
            key,
            occupied: true,
            referenced: true,
            dirty,
        };
        self.resident += 1;
        let pages = self.files.entry(file).or_insert_with(|| FilePages {
            slots: Vec::new(),
            dirty_from: usize::MAX,
        });
        let page = page as usize;
        if pages.slots.len() <= page {
            pages.slots.resize(page + 1, ABSENT);
        }
        pages.slots[page] = slot as u32;
        if dirty {
            pages.dirty_from = pages.dirty_from.min(page);
            self.dirty += 1;
        }
        victim
    }

    fn mark_dirty(&mut self, (file, page): PageKey) {
        let pages = self.files.get_mut(&file).expect("a resident page's file");
        pages.dirty_from = pages.dirty_from.min(page as usize);
    }

    /// Clears the dirty bit of every resident page of `file`, returning the
    /// page indices that were dirty (in ascending order, for coalescing).
    pub fn clean_file(&mut self, file: u64) -> Vec<u64> {
        let mut pages = Vec::new();
        let Some(index) = self.files.get_mut(&file) else {
            return pages;
        };
        let from = index.dirty_from.min(index.slots.len());
        for (page, &slot) in index.slots.iter().enumerate().skip(from) {
            if slot == ABSENT {
                continue;
            }
            let s = &mut self.slots[slot as usize];
            if s.dirty {
                s.dirty = false;
                self.dirty -= 1;
                pages.push(page as u64);
            }
        }
        index.dirty_from = usize::MAX;
        pages
    }

    /// Drops every page of `file` (delete); dirty pages of a deleted file
    /// need no writeback. Returns how many pages were resident.
    pub fn remove_file(&mut self, file: u64) -> usize {
        let Some(index) = self.files.remove(&file) else {
            return 0;
        };
        let mut removed = 0;
        for slot in index.slots.into_iter().filter(|&s| s != ABSENT) {
            let s = &mut self.slots[slot as usize];
            if s.dirty {
                self.dirty -= 1;
            }
            *s = Slot::default();
            removed += 1;
        }
        self.resident -= removed;
        removed
    }

    /// Drops every resident page (power cut: RAM contents vanish) while
    /// keeping the hit/miss/eviction counters intact.
    pub fn drop_all(&mut self) {
        self.slots.fill(Slot::default());
        self.files.clear();
        self.resident = 0;
        self.dirty = 0;
        self.hand = 0;
    }

    /// Takes up to `n` dirty pages in clock order (oldest-ish first) for
    /// dirty-ratio writeback, marking them clean. Returns `(file, page)`
    /// pairs.
    pub fn take_dirty_batch(&mut self, n: usize) -> Vec<PageKey> {
        let mut out = Vec::with_capacity(n);
        if self.dirty == 0 {
            return out;
        }
        let start = self.hand;
        for off in 0..self.capacity {
            if out.len() >= n || self.dirty == 0 {
                break;
            }
            let i = (start + off) % self.capacity;
            let s = &mut self.slots[i];
            if s.occupied && s.dirty {
                s.dirty = false;
                self.dirty -= 1;
                out.push(s.key);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn hit_after_insert() {
        let mut c = PageCache::new(4);
        assert!(!c.touch((1, 0)));
        c.insert((1, 0), false);
        assert!(c.touch((1, 0)));
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn eviction_prefers_clean() {
        let mut c = PageCache::new(2);
        c.insert((1, 0), true); // dirty
        c.insert((1, 1), false); // clean
                                 // Next insert must evict the clean page, keeping the dirty one.
        let victim = c.insert((1, 2), false);
        assert_eq!(victim, None);
        assert!(c.touch((1, 0)), "dirty page should survive");
        assert!(!c.touch((1, 1)), "clean page should be evicted");
    }

    #[test]
    fn dirty_eviction_reported_when_unavoidable() {
        let mut c = PageCache::new(2);
        c.insert((1, 0), true);
        c.insert((1, 1), true);
        let victim = c.insert((1, 2), false);
        assert!(victim.is_some(), "all-dirty cache must report a writeback");
        assert_eq!(c.dirty_evictions, 1);
    }

    #[test]
    fn clean_file_returns_sorted_pages() {
        let mut c = PageCache::new(8);
        c.insert((3, 5), true);
        c.insert((3, 1), true);
        c.insert((4, 2), true);
        c.insert((3, 3), false);
        assert_eq!(c.clean_file(3), vec![1, 5]);
        assert_eq!(c.dirty_count(), 1); // file 4's page remains dirty
        assert_eq!(c.clean_file(3), Vec::<u64>::new());
    }

    #[test]
    fn remove_file_drops_everything() {
        let mut c = PageCache::new(8);
        c.insert((7, 0), true);
        c.insert((7, 1), false);
        c.insert((8, 0), false);
        assert_eq!(c.remove_file(7), 2);
        assert_eq!(c.dirty_count(), 0);
        assert!(!c.touch((7, 0)));
        assert!(c.touch((8, 0)));
    }

    #[test]
    fn take_dirty_batch_drains() {
        let mut c = PageCache::new(8);
        for i in 0..6 {
            c.insert((1, i), true);
        }
        let batch = c.take_dirty_batch(4);
        assert_eq!(batch.len(), 4);
        assert_eq!(c.dirty_count(), 2);
        let batch2 = c.take_dirty_batch(10);
        assert_eq!(batch2.len(), 2);
        assert_eq!(c.dirty_count(), 0);
        assert!(c.take_dirty_batch(1).is_empty());
    }

    #[test]
    fn reinsert_dirty_upgrades() {
        let mut c = PageCache::new(4);
        c.insert((1, 0), false);
        assert_eq!(c.dirty_count(), 0);
        c.insert((1, 0), true);
        assert_eq!(c.dirty_count(), 1);
        // Idempotent.
        c.insert((1, 0), true);
        assert_eq!(c.dirty_count(), 1);
    }

    /// The cache as it was before the per-file index: one map from
    /// `(file, page)` to slot, and `clean_file` / `remove_file` scanning
    /// every slot. The reference the indexed [`PageCache`] must agree with.
    struct ScanningCache {
        capacity: usize,
        map: BTreeMap<PageKey, usize>,
        slots: Vec<Slot>,
        hand: usize,
        dirty: usize,
        hits: u64,
        misses: u64,
        dirty_evictions: u64,
    }

    impl ScanningCache {
        fn new(capacity: usize) -> ScanningCache {
            ScanningCache {
                capacity,
                map: BTreeMap::new(),
                slots: vec![Slot::default(); capacity],
                hand: 0,
                dirty: 0,
                hits: 0,
                misses: 0,
                dirty_evictions: 0,
            }
        }

        fn touch(&mut self, key: PageKey) -> bool {
            if let Some(&slot) = self.map.get(&key) {
                self.slots[slot].referenced = true;
                self.hits += 1;
                true
            } else {
                self.misses += 1;
                false
            }
        }

        fn evict_one(&mut self) -> (usize, Option<PageKey>) {
            for pass in 0..4 {
                let allow_dirty = pass == 3;
                for _ in 0..self.capacity {
                    let i = self.hand;
                    self.hand = (self.hand + 1) % self.capacity;
                    let s = &mut self.slots[i];
                    if !s.occupied {
                        return (i, None);
                    }
                    if s.referenced {
                        s.referenced = false;
                        continue;
                    }
                    if s.dirty && !allow_dirty {
                        continue;
                    }
                    let key = s.key;
                    let was_dirty = s.dirty;
                    if was_dirty {
                        self.dirty -= 1;
                        self.dirty_evictions += 1;
                    }
                    s.occupied = false;
                    self.map.remove(&key);
                    return (i, if was_dirty { Some(key) } else { None });
                }
            }
            unreachable!("clock sweep must find a victim within four passes");
        }

        fn insert(&mut self, key: PageKey, dirty: bool) -> Option<PageKey> {
            if let Some(&slot) = self.map.get(&key) {
                let s = &mut self.slots[slot];
                s.referenced = true;
                if dirty && !s.dirty {
                    s.dirty = true;
                    self.dirty += 1;
                }
                return None;
            }
            let (slot, victim) = self.evict_one();
            self.slots[slot] = Slot {
                key,
                occupied: true,
                referenced: true,
                dirty,
            };
            if dirty {
                self.dirty += 1;
            }
            self.map.insert(key, slot);
            victim
        }

        fn clean_file(&mut self, file: u64) -> Vec<u64> {
            let mut pages = Vec::new();
            for s in &mut self.slots {
                if s.occupied && s.dirty && s.key.0 == file {
                    s.dirty = false;
                    self.dirty -= 1;
                    pages.push(s.key.1);
                }
            }
            pages.sort_unstable();
            pages
        }

        fn remove_file(&mut self, file: u64) -> usize {
            let mut removed = 0;
            for s in &mut self.slots {
                if s.occupied && s.key.0 == file {
                    if s.dirty {
                        self.dirty -= 1;
                    }
                    s.occupied = false;
                    self.map.remove(&s.key);
                    removed += 1;
                }
            }
            removed
        }

        fn drop_all(&mut self) {
            for s in &mut self.slots {
                *s = Slot::default();
            }
            self.map.clear();
            self.dirty = 0;
            self.hand = 0;
        }

        fn take_dirty_batch(&mut self, n: usize) -> Vec<PageKey> {
            let mut out = Vec::with_capacity(n);
            if self.dirty == 0 {
                return out;
            }
            let start = self.hand;
            for off in 0..self.capacity {
                if out.len() >= n || self.dirty == 0 {
                    break;
                }
                let i = (start + off) % self.capacity;
                let s = &mut self.slots[i];
                if s.occupied && s.dirty {
                    s.dirty = false;
                    self.dirty -= 1;
                    out.push(s.key);
                }
            }
            out
        }
    }

    /// One step of an equivalence tape; the numbers are reduced modulo the
    /// files, pages and batch sizes in play.
    #[derive(Clone, Debug)]
    enum Op {
        Touch(u64, u64),
        Insert(u64, u64, bool),
        CleanFile(u64),
        RemoveFile(u64),
        TakeDirtyBatch(usize),
        DropAll,
    }

    fn op() -> impl Strategy<Value = Op> {
        // Appends dirty pages at the end of a file and flushes often, as
        // the filesystem does; reads touch any page of any file.
        prop_oneof![
            6 => (0u64..4, 0u64..12).prop_map(|(f, p)| Op::Touch(f, p)),
            8 => (0u64..4, 0u64..12, any::<bool>()).prop_map(|(f, p, d)| Op::Insert(f, p, d)),
            3 => (0u64..4).prop_map(Op::CleanFile),
            1 => (0u64..4).prop_map(Op::RemoveFile),
            2 => (0usize..6).prop_map(Op::TakeDirtyBatch),
            1 => Just(Op::DropAll),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// One tape of probes, inserts, flushes, deletes, write-back
        /// batches and power cuts through the indexed cache and the
        /// scanning reference at a small capacity: every answer — victims,
        /// page lists, removed counts — every dirty and resident count, and
        /// the hit / miss / eviction counters agree after every step.
        #[test]
        fn indexed_cache_matches_the_scanning_reference(
            capacity in 1usize..9,
            tape in prop::collection::vec(op(), 1..200),
        ) {
            let mut new = PageCache::new(capacity);
            let mut reference = ScanningCache::new(capacity);
            for op in tape {
                match op {
                    Op::Touch(f, p) => prop_assert_eq!(new.touch((f, p)), reference.touch((f, p))),
                    Op::Insert(f, p, d) => {
                        prop_assert_eq!(new.insert((f, p), d), reference.insert((f, p), d));
                    }
                    Op::CleanFile(f) => prop_assert_eq!(new.clean_file(f), reference.clean_file(f)),
                    Op::RemoveFile(f) => prop_assert_eq!(new.remove_file(f), reference.remove_file(f)),
                    Op::TakeDirtyBatch(n) => {
                        prop_assert_eq!(new.take_dirty_batch(n), reference.take_dirty_batch(n));
                    }
                    Op::DropAll => {
                        new.drop_all();
                        reference.drop_all();
                    }
                }
                prop_assert_eq!(new.dirty_count(), reference.dirty);
                prop_assert_eq!(new.resident_count(), reference.map.len());
                prop_assert_eq!(
                    (new.hits, new.misses, new.dirty_evictions),
                    (reference.hits, reference.misses, reference.dirty_evictions)
                );
            }
        }
    }
}
