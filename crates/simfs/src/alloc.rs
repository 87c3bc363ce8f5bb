//! First-fit extent allocator for device pages.

/// Allocates contiguous page ranges from the device's logical address space,
/// merging freed neighbors so long-running compaction churn does not
/// fragment the space unboundedly.
#[derive(Debug)]
pub(crate) struct ExtentAllocator {
    /// Sorted, non-adjacent free ranges `(start, len)`.
    free: Vec<(u64, u64)>,
    /// The sum of `free`'s lengths, kept as it changes: sealed files leave
    /// many small holes, and `SimFs::stats` asks for it on every call.
    free_pages: u64,
    capacity: u64,
    /// Ranges carved out of the free pool by a scripted capacity shrink
    /// (fault injection); held here so `restore` can return them.
    shrunk: Vec<(u64, u64)>,
}

impl ExtentAllocator {
    pub fn new(capacity_pages: u64) -> ExtentAllocator {
        ExtentAllocator {
            free: vec![(0, capacity_pages)],
            free_pages: capacity_pages,
            capacity: capacity_pages,
            shrunk: Vec::new(),
        }
    }

    /// First-fit allocation of exactly `pages` contiguous pages.
    pub fn allocate(&mut self, pages: u64) -> Option<u64> {
        debug_assert!(pages > 0);
        for i in 0..self.free.len() {
            let (start, len) = self.free[i];
            if len >= pages {
                if len == pages {
                    self.free.remove(i);
                } else {
                    self.free[i] = (start + pages, len - pages);
                }
                self.free_pages -= pages;
                return Some(start);
            }
        }
        None
    }

    /// Returns a range to the pool, merging with adjacent free ranges.
    pub fn free(&mut self, start: u64, pages: u64) {
        debug_assert!(pages > 0);
        debug_assert!(start + pages <= self.capacity);
        let idx = self.free.partition_point(|&(s, _)| s < start);
        // Check overlap with neighbors in debug builds.
        if idx > 0 {
            let (ps, pl) = self.free[idx - 1];
            debug_assert!(ps + pl <= start, "double free (prev overlap)");
        }
        if idx < self.free.len() {
            debug_assert!(
                start + pages <= self.free[idx].0,
                "double free (next overlap)"
            );
        }
        let merges_prev = idx > 0 && {
            let (ps, pl) = self.free[idx - 1];
            ps + pl == start
        };
        let merges_next = idx < self.free.len() && start + pages == self.free[idx].0;
        self.free_pages += pages;
        match (merges_prev, merges_next) {
            (true, true) => {
                let next_len = self.free[idx].1;
                self.free[idx - 1].1 += pages + next_len;
                self.free.remove(idx);
            }
            (true, false) => self.free[idx - 1].1 += pages,
            (false, true) => {
                self.free[idx].0 = start;
                self.free[idx].1 += pages;
            }
            (false, false) => self.free.insert(idx, (start, pages)),
        }
    }

    /// Total free pages remaining.
    pub fn free_pages(&self) -> u64 {
        self.free_pages
    }

    /// Largest single contiguous free extent, in pages. Distinguishes "no
    /// space" from "no *contiguous* space": an allocation can fail while
    /// `free_pages` still looks healthy.
    pub fn largest_free_extent(&self) -> u64 {
        self.free.iter().map(|&(_, l)| l).max().unwrap_or(0)
    }

    /// Usable capacity in pages: the device's address space minus any
    /// scripted shrink currently in effect.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity - self.shrunk.iter().map(|&(_, l)| l).sum::<u64>()
    }

    /// Carves up to `pages` pages out of the free pool (highest addresses
    /// first), modelling a scripted capacity loss. Returns the pages
    /// actually carved; carved ranges are held aside until [`Self::restore`].
    pub fn shrink(&mut self, mut pages: u64) -> u64 {
        let mut carved = 0;
        while pages > 0 {
            let Some(&(start, len)) = self.free.last() else {
                break;
            };
            let take = len.min(pages);
            let idx = self.free.len() - 1;
            if take == len {
                self.free.remove(idx);
                self.shrunk.push((start, len));
            } else {
                self.free[idx].1 = len - take;
                self.shrunk.push((start + (len - take), take));
            }
            pages -= take;
            carved += take;
            self.free_pages -= take;
        }
        carved
    }

    /// Returns every range carved by [`Self::shrink`] to the free pool,
    /// returning the total pages restored.
    pub fn restore(&mut self) -> u64 {
        let carved = std::mem::take(&mut self.shrunk);
        let mut total = 0;
        for (start, len) in carved {
            total += len;
            self.free(start, len);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn allocate_and_exhaust() {
        let mut a = ExtentAllocator::new(10);
        assert_eq!(a.allocate(4), Some(0));
        assert_eq!(a.allocate(4), Some(4));
        assert_eq!(a.allocate(4), None);
        assert_eq!(a.allocate(2), Some(8));
        assert_eq!(a.free_pages(), 0);
    }

    #[test]
    fn free_merges_neighbors() {
        let mut a = ExtentAllocator::new(12);
        let x = a.allocate(4).unwrap();
        let y = a.allocate(4).unwrap();
        let z = a.allocate(4).unwrap();
        a.free(x, 4);
        a.free(z, 4);
        a.free(y, 4);
        assert_eq!(a.free_pages(), 12);
        // Fully merged back into a single extent.
        assert_eq!(a.allocate(12), Some(0));
    }

    #[test]
    fn largest_extent_tracks_fragmentation() {
        let mut a = ExtentAllocator::new(12);
        assert_eq!(a.largest_free_extent(), 12);
        let x = a.allocate(4).unwrap();
        let _y = a.allocate(4).unwrap();
        let z = a.allocate(4).unwrap();
        a.free(x, 4);
        a.free(z, 4);
        // Two disjoint 4-page holes: total 8 free but nothing bigger than 4.
        assert_eq!(a.free_pages(), 8);
        assert_eq!(a.largest_free_extent(), 4);
        assert_eq!(a.allocate(8), None);
    }

    #[test]
    fn shrink_and_restore_round_trip() {
        let mut a = ExtentAllocator::new(16);
        assert_eq!(a.capacity_pages(), 16);
        assert_eq!(a.shrink(10), 10);
        assert_eq!(a.capacity_pages(), 6);
        assert_eq!(a.free_pages(), 6);
        assert_eq!(a.allocate(8), None, "shrunk pages must not be handed out");
        let s = a.allocate(4).unwrap();
        // Shrinking more than remains carves only what is free.
        assert_eq!(a.shrink(100), 2);
        assert_eq!(a.free_pages(), 0);
        assert_eq!(a.restore(), 12);
        a.free(s, 4);
        assert_eq!(a.free_pages(), 16);
        assert_eq!(a.capacity_pages(), 16);
        // Fully merged back: the whole address space allocates again.
        assert_eq!(a.allocate(16), Some(0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random alloc/free interleavings conserve pages, never hand out
        /// overlapping ranges, and keep the running free total equal to the
        /// free list's sum. Every other free gives back only a held range's
        /// tail, as a seal does, and keeps its head.
        #[test]
        fn conservation(ops in prop::collection::vec(1u64..16, 1..200)) {
            let cap = 256u64;
            let mut a = ExtentAllocator::new(cap);
            let mut held: Vec<(u64, u64)> = Vec::new();
            for (i, n) in ops.into_iter().enumerate() {
                if i % 3 == 2 && !held.is_empty() {
                    let j = i % held.len();
                    let (s, l) = held[j];
                    // A whole free, or a seal keeping `keep < l` pages.
                    let keep = if i % 2 == 0 { 0 } else { n % l };
                    a.free(s + keep, l - keep);
                    if keep == 0 {
                        held.swap_remove(j);
                    } else {
                        held[j].1 = keep;
                    }
                } else if let Some(s) = a.allocate(n) {
                    // No overlap with anything currently held.
                    for &(hs, hl) in &held {
                        prop_assert!(s + n <= hs || hs + hl <= s, "overlap");
                    }
                    held.push((s, n));
                }
                let held_total: u64 = held.iter().map(|&(_, l)| l).sum();
                prop_assert_eq!(a.free_pages() + held_total, cap);
                prop_assert_eq!(a.free_pages(), a.free.iter().map(|&(_, l)| l).sum::<u64>());
            }
        }
    }
}
