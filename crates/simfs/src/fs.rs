//! The namespace: which files exist, where their extents are, what the
//! filesystem has counted, and what a power cut leaves of it. What happens
//! *inside* a file — appends, reads, write-back — is `file.rs`.

use crate::alloc::ExtentAllocator;
use crate::content::ChunkPool;
use crate::error::{FsError, FsResult};
use crate::fault::{FaultPlan, FaultState};
use crate::file::{FileData, FileHandle};
use crate::pagecache::PageCache;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use xlsm_device::Device;
use xlsm_sim::hash::FxHashMap;

/// Tunables for the filesystem and its OS page-cache model.
#[derive(Clone, Debug, PartialEq)]
pub struct FsOptions {
    /// Page-cache capacity in 4-KiB pages. This is the knob that reproduces
    /// the paper's 8 GB RAM vs. 100 GB dataset ratio at scale.
    pub page_cache_pages: usize,
}

impl Default for FsOptions {
    fn default() -> FsOptions {
        FsOptions {
            page_cache_pages: 16_384, // 64 MiB
        }
    }
}

/// Point-in-time filesystem counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FsStats {
    /// Page-cache hits.
    pub cache_hits: u64,
    /// Page-cache misses (device reads incurred).
    pub cache_misses: u64,
    /// Dirty pages written back because of eviction pressure.
    pub dirty_evictions: u64,
    /// Dirty pages written back by the dirty-ratio throttle (appender
    /// stalled at the hard limit).
    pub throttle_writebacks: u64,
    /// Dirty pages written back asynchronously by the writeback daemon.
    pub background_writebacks: u64,
    /// Pages written back by explicit `sync` calls.
    pub sync_writebacks: u64,
    /// Currently resident pages.
    pub resident_pages: u64,
    /// Currently dirty pages.
    pub dirty_pages: u64,
    /// Live files.
    pub files: u64,
    /// I/O errors injected by the fault layer (including torn writes).
    pub injected_errors: u64,
    /// Torn (partially applied) appends injected.
    pub torn_writes: u64,
    /// Bit flips injected into read payloads.
    pub bit_flips: u64,
    /// Power cuts simulated.
    pub power_cuts: u64,
    /// Unallocated device pages remaining.
    pub free_space_pages: u64,
    /// Largest single contiguous free extent, in pages. When this is far
    /// below `free_space_pages`, the space is fragmented: a large extent
    /// allocation can fail while total free space looks healthy.
    pub largest_free_extent_pages: u64,
    /// Usable device capacity in pages (address space minus any scripted
    /// capacity shrink in effect).
    pub capacity_pages: u64,
}

/// A simulated filesystem bound to one device.
pub struct SimFs {
    pub(crate) device: Arc<dyn Device>,
    /// Page-cache capacity, the base of the dirty limits.
    pub(crate) cache_pages: usize,
    files: parking_lot::Mutex<BTreeMap<String, Arc<FileData>>>,
    pub(crate) by_id: parking_lot::Mutex<FxHashMap<u64, Arc<FileData>>>,
    /// The chunks of deleted files' content, for the next appends.
    pub(crate) pool: Arc<ChunkPool>,
    pub(crate) cache: parking_lot::Mutex<PageCache>,
    pub(crate) alloc: parking_lot::Mutex<ExtentAllocator>,
    next_id: AtomicU64,
    pub(crate) throttle_writebacks: AtomicU64,
    pub(crate) sync_writebacks: AtomicU64,
    pub(crate) bg_writebacks: AtomicU64,
    pub(crate) wb_wake: Arc<xlsm_sim::sync::WaitSet>,
    fault: parking_lot::Mutex<Option<FaultState>>,
    /// Set by [`SimFs::power_cut`]; every file operation, `create`, `rename`
    /// and `delete` fail until [`SimFs::power_restore`].
    pub(crate) dead: AtomicBool,
    /// Devices without a volatile write buffer (e.g. 3D XPoint) persist
    /// writes as they land; buffered devices need a barrier.
    pub(crate) write_through: bool,
    pub(crate) injected_errors: AtomicU64,
    pub(crate) torn_writes: AtomicU64,
    pub(crate) bit_flips: AtomicU64,
    power_cuts: AtomicU64,
}

impl fmt::Debug for SimFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimFs")
            .field("device", &self.device.profile().name)
            .field("files", &self.files.lock().len())
            .finish_non_exhaustive()
    }
}

impl SimFs {
    /// Creates a filesystem over `device` and starts its background
    /// writeback daemon (must be called inside a sim runtime).
    pub fn new(device: Arc<dyn Device>, opts: FsOptions) -> Arc<SimFs> {
        let capacity = device.profile().capacity_pages;
        let write_through = device.profile().write_buffer_pages == 0;
        let fs = Arc::new(SimFs {
            device,
            cache_pages: opts.page_cache_pages,
            cache: parking_lot::Mutex::new(PageCache::new(opts.page_cache_pages)),
            alloc: parking_lot::Mutex::new(ExtentAllocator::new(capacity)),
            files: parking_lot::Mutex::new(BTreeMap::new()),
            by_id: parking_lot::Mutex::new(FxHashMap::default()),
            pool: Arc::default(),
            next_id: AtomicU64::new(1),
            throttle_writebacks: AtomicU64::new(0),
            sync_writebacks: AtomicU64::new(0),
            bg_writebacks: AtomicU64::new(0),
            wb_wake: Arc::new(xlsm_sim::sync::WaitSet::new("fs-writeback")),
            fault: parking_lot::Mutex::new(None),
            dead: AtomicBool::new(false),
            write_through,
            injected_errors: AtomicU64::new(0),
            torn_writes: AtomicU64::new(0),
            bit_flips: AtomicU64::new(0),
            power_cuts: AtomicU64::new(0),
        });
        let (weak, wake) = (Arc::downgrade(&fs), Arc::clone(&fs.wb_wake));
        xlsm_sim::spawn_daemon("fs-writeback", move || SimFs::writeback_daemon(weak, wake));
        fs
    }

    /// The device underneath (for stats or direct raw benchmarks).
    pub fn device(&self) -> &Arc<dyn Device> {
        &self.device
    }

    /// Creates a new empty file.
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`] if the path is taken; a hard
    /// [`FsError::Io`] while a power cut is in effect.
    pub fn create(self: &Arc<Self>, path: &str) -> FsResult<FileHandle> {
        self.fail_if_dead("create", || path.to_owned())?;
        let id = self.next_id.load(Ordering::Relaxed);
        xlsm_sim::sync::add(&self.next_id, 1);
        let data = Arc::new(FileData::new(id, path, Arc::clone(&self.pool)));
        {
            let mut files = self.files.lock();
            if files.contains_key(path) {
                return Err(FsError::AlreadyExists(path.to_owned()));
            }
            files.insert(path.to_owned(), Arc::clone(&data));
        }
        self.by_id.lock().insert(data.id, Arc::clone(&data));
        Ok(FileHandle::new(Arc::clone(self), data))
    }

    /// Opens an existing file.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if absent.
    pub fn open(self: &Arc<Self>, path: &str) -> FsResult<FileHandle> {
        let data = self
            .files
            .lock()
            .get(path)
            .cloned()
            .ok_or_else(|| FsError::NotFound(path.to_owned()))?;
        Ok(FileHandle::new(Arc::clone(self), data))
    }

    /// Whether `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.lock().contains_key(path)
    }

    /// Lists paths with the given prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .lock()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Deletes a file: drops cached pages, frees and TRIMs its extents.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if absent; an injected I/O error when the
    /// fault plan's [`FaultPlan::fail_nth_delete`] trigger fires (the file
    /// is left fully intact in that case); a hard [`FsError::Io`] while a
    /// power cut is in effect.
    pub fn delete(&self, path: &str) -> FsResult<()> {
        self.fail_if_dead("delete", || path.to_owned())?;
        if let Some(retryable) = self.ask_plan(|plan| plan.decide_delete(path)).flatten() {
            xlsm_sim::sync::add(&self.injected_errors, 1);
            return Err(FsError::io("delete", path, retryable));
        }
        let data = self
            .files
            .lock()
            .remove(path)
            .ok_or_else(|| FsError::NotFound(path.to_owned()))?;
        self.by_id.lock().remove(&data.id);
        data.deleted.store(true, Ordering::Relaxed);
        self.cache.lock().remove_file(data.id);
        let extents = std::mem::take(&mut *data.extents.lock());
        self.give_back(&extents);
        Ok(())
    }

    /// Returns `extents`, which no file holds any longer, to the allocator
    /// and TRIMs them on the device.
    pub(crate) fn give_back(&self, extents: &[(u64, u64)]) {
        {
            let mut alloc = self.alloc.lock();
            for &(start, len) in extents {
                alloc.free(start, len);
            }
        }
        for &(start, len) in extents {
            self.device.trim(start, len);
        }
    }

    /// Atomically renames a file.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if `from` is absent; [`FsError::AlreadyExists`]
    /// if `to` is taken; a hard [`FsError::Io`] while a power cut is in
    /// effect.
    pub fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        self.fail_if_dead("rename", || from.to_owned())?;
        let mut files = self.files.lock();
        if files.contains_key(to) {
            return Err(FsError::AlreadyExists(to.to_owned()));
        }
        let data = files
            .remove(from)
            .ok_or_else(|| FsError::NotFound(from.to_owned()))?;
        *data.name.lock() = to.to_owned();
        files.insert(to.to_owned(), data);
        Ok(())
    }

    /// Unallocated device pages remaining.
    pub fn free_space_pages(&self) -> u64 {
        self.alloc.lock().free_pages()
    }

    /// Usable device capacity in pages (minus any scripted shrink).
    pub fn capacity_pages(&self) -> u64 {
        self.alloc.lock().capacity_pages()
    }

    /// Carves up to `pages` pages out of the free pool, shrinking usable
    /// capacity — the direct (non-scripted) form of
    /// [`FaultPlan::shrink_at_alloc`]. Returns the pages actually carved.
    pub fn shrink_capacity_pages(&self, pages: u64) -> u64 {
        self.alloc.lock().shrink(pages)
    }

    /// Returns every page carved by [`SimFs::shrink_capacity_pages`] or a
    /// scripted shrink to the free pool; returns the pages restored.
    pub fn restore_capacity(&self) -> u64 {
        self.alloc.lock().restore()
    }

    /// Current counters.
    pub fn stats(&self) -> FsStats {
        let (free_space_pages, largest_free_extent_pages, capacity_pages) = {
            let alloc = self.alloc.lock();
            (
                alloc.free_pages(),
                alloc.largest_free_extent(),
                alloc.capacity_pages(),
            )
        };
        let cache = self.cache.lock();
        FsStats {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            dirty_evictions: cache.dirty_evictions,
            throttle_writebacks: self.throttle_writebacks.load(Ordering::Relaxed),
            background_writebacks: self.bg_writebacks.load(Ordering::Relaxed),
            sync_writebacks: self.sync_writebacks.load(Ordering::Relaxed),
            resident_pages: cache.resident_count() as u64,
            dirty_pages: cache.dirty_count() as u64,
            files: self.files.lock().len() as u64,
            injected_errors: self.injected_errors.load(Ordering::Relaxed),
            torn_writes: self.torn_writes.load(Ordering::Relaxed),
            bit_flips: self.bit_flips.load(Ordering::Relaxed),
            power_cuts: self.power_cuts.load(Ordering::Relaxed),
            free_space_pages,
            largest_free_extent_pages,
            capacity_pages,
        }
    }

    /// Installs a fault-injection plan, replacing any previous one. The
    /// plan's RNG stream and operation counters start fresh.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.fault.lock() = Some(FaultState::new(plan));
    }

    /// Removes the active fault plan; subsequent operations run clean.
    pub fn clear_fault_plan(&self) {
        *self.fault.lock() = None;
    }

    /// Operations counted by the active fault plan so far — the counter
    /// [`FaultPlan::power_cut_at_op`] triggers against. Returns 0 with no
    /// plan installed. A crash harness runs its workload once under an
    /// empty [`FaultPlan`], reads this, and then sweeps cut points over
    /// `1..=fault_ops()` knowing each replay counts identically.
    pub fn fault_ops(&self) -> u64 {
        self.ask_plan(|plan| plan.ops()).unwrap_or(0)
    }

    /// Whether a power cut is in effect (operations fail until
    /// [`SimFs::power_restore`]).
    pub fn is_powered_off(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    /// Simulates a power failure: every file is truncated to its durable
    /// prefix (bytes persisted past the device barrier — or at write time
    /// on write-through devices), all cached pages are dropped, the
    /// device's volatile write buffer is discarded, and every subsequent
    /// file operation, `create`, `rename` and `delete` fails with a hard
    /// [`FsError::Io`] until [`SimFs::power_restore`]: a dead machine
    /// cannot change the disk.
    ///
    /// The namespace itself (file names, allocations) survives, modelling
    /// a journaled-metadata filesystem where only data buffered in RAM or
    /// the device write buffer is lost.
    pub fn power_cut(&self) {
        xlsm_sim::sync::add(&self.power_cuts, 1);
        self.dead.store(true, Ordering::Relaxed);
        self.device.power_cut();
        for data in self.by_id.lock().values() {
            data.lose_volatile();
        }
        self.cache.lock().drop_all();
    }

    /// Restores power after [`SimFs::power_cut`] so files can be reopened
    /// (crash recovery). Any active fault plan is dropped: the restored
    /// incarnation starts clean.
    pub fn power_restore(&self) {
        self.clear_fault_plan();
        self.dead.store(false, Ordering::Relaxed);
    }

    /// Puts one question to the fault plan, if one is installed.
    pub(crate) fn ask_plan<T>(&self, ask: impl FnOnce(&mut FaultState) -> T) -> Option<T> {
        self.fault.lock().as_mut().map(ask)
    }

    /// Fails the operation if a power cut is in effect. `path` is asked for
    /// only to name the file in the error.
    pub(crate) fn fail_if_dead(
        &self,
        op: &'static str,
        path: impl FnOnce() -> String,
    ) -> FsResult<()> {
        if self.dead.load(Ordering::Relaxed) {
            Err(FsError::io(op, &path(), false))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use xlsm_device::{profiles, SimDevice};
    use xlsm_sim::Runtime;

    /// An Optane-backed filesystem with a `cache_pages`-page cache.
    pub(crate) fn fixture(cache_pages: usize) -> (Arc<SimFs>, Arc<SimDevice>) {
        let dev = SimDevice::shared(profiles::optane_900p());
        let fs = SimFs::new(
            Arc::clone(&dev) as Arc<dyn Device>,
            FsOptions {
                page_cache_pages: cache_pages,
            },
        );
        (fs, dev)
    }

    #[test]
    fn namespace_operations() {
        Runtime::new().run(|| {
            let (fs, _) = fixture(64);
            fs.create("db/1.sst").unwrap();
            fs.create("db/2.sst").unwrap();
            fs.create("wal/1.log").unwrap();
            assert!(fs.exists("db/1.sst"));
            assert_eq!(fs.list("db/"), vec!["db/1.sst", "db/2.sst"]);
            assert!(matches!(
                fs.create("db/1.sst"),
                Err(FsError::AlreadyExists(_))
            ));
            fs.rename("db/1.sst", "db/3.sst").unwrap();
            assert!(!fs.exists("db/1.sst"));
            assert_eq!(fs.open("db/3.sst").unwrap().read_at(0, 0).unwrap(), b"");
            fs.delete("db/3.sst").unwrap();
            assert!(matches!(fs.open("db/3.sst"), Err(FsError::NotFound(_))));
        });
    }

    #[test]
    fn delete_trims_device() {
        Runtime::new().run(|| {
            let (fs, dev) = fixture(1024);
            let f = fs.create("f").unwrap();
            f.append(&vec![1u8; 64 * 1024]).unwrap();
            f.sync().unwrap();
            fs.delete("f").unwrap();
            assert!(dev.stats().trims >= 1);
        });
    }

    #[test]
    fn extent_reuse_after_delete() {
        Runtime::new().run(|| {
            // Tiny device: 2 MiB = 512 pages; chunk 256. Two files exhaust
            // it; delete must make room for a third.
            let dev = SimDevice::shared(profiles::optane_900p().with_capacity_bytes(2 << 20));
            let fs = SimFs::new(
                dev as Arc<dyn Device>,
                FsOptions {
                    page_cache_pages: 64,
                },
            );
            let a = fs.create("a").unwrap();
            a.append(&vec![0u8; 1 << 20]).unwrap();
            let b = fs.create("b").unwrap();
            b.append(&vec![0u8; 1 << 20]).unwrap();
            let c = fs.create("c").unwrap();
            assert!(matches!(
                c.append(&vec![0u8; 1 << 20]),
                Err(FsError::DeviceFull)
            ));
            fs.delete("a").unwrap();
            let c2 = fs.create("c2").unwrap();
            c2.append(&vec![0u8; 1 << 20]).unwrap();
        });
    }

    #[test]
    fn power_cut_loses_unsynced_keeps_synced() {
        Runtime::new().run(|| {
            // SATA flash: has a volatile write buffer, so only barriered
            // data survives.
            let dev = SimDevice::shared(profiles::intel_530_sata());
            let fs = SimFs::new(Arc::clone(&dev) as Arc<dyn Device>, FsOptions::default());
            let f = fs.create("f").unwrap();
            f.append(&vec![1u8; 10_000]).unwrap();
            f.sync().unwrap();
            f.append(&vec![2u8; 10_000]).unwrap(); // buffered only
            fs.power_cut();
            assert!(fs.is_powered_off());
            assert!(matches!(
                f.read_at(0, 1),
                Err(FsError::Io {
                    retryable: false,
                    ..
                })
            ));
            fs.power_restore();
            let g = fs.open("f").unwrap();
            assert_eq!(g.len(), 10_000, "synced prefix survives, tail is lost");
            assert_eq!(g.read_at(9_999, 1).unwrap(), vec![1u8]);
            assert_eq!(fs.stats().power_cuts, 1);
        });
    }

    #[test]
    fn power_cut_partial_page_durable_prefix() {
        Runtime::new().run(|| {
            let (fs, _) = fixture(1024);
            let f = fs.create("f").unwrap();
            f.append(&vec![7u8; 5000]).unwrap(); // 1 full + 1 partial page
            f.sync().unwrap();
            f.append(&[8u8; 3]).unwrap(); // extends the partial page
            fs.power_cut();
            fs.power_restore();
            assert_eq!(fs.open("f").unwrap().len(), 5000);
        });
    }

    #[test]
    fn stats_accumulate() {
        Runtime::new().run(|| {
            let (fs, _) = fixture(64);
            let f = fs.create("s").unwrap();
            f.append(&vec![0u8; 4096]).unwrap();
            f.read_at(0, 100).unwrap();
            let s = fs.stats();
            assert_eq!(s.files, 1);
            assert!(s.cache_hits >= 1);
        });
    }

    /// Regression: `create`, `rename` and `delete` used not to look at the
    /// power state, so a caller that kept going after a cut (a WAL purge, an
    /// obsolete-table disposal, a flush creating its output) rewrote the
    /// namespace recovery was about to read — here the one durable file was
    /// gone after the restore.
    #[test]
    fn dead_machine_cannot_change_the_namespace() {
        Runtime::new().run(|| {
            let fs = SimFs::new(
                SimDevice::shared(profiles::intel_530_sata()),
                FsOptions::default(),
            );
            let a = fs.create("a").unwrap();
            a.append(b"durable").unwrap();
            a.sync().unwrap();
            fs.power_cut();
            let hard = |r: FsResult<()>, op| {
                assert_eq!(r, Err(FsError::io(op, "a", false)));
            };
            assert!(matches!(
                fs.create("b"),
                Err(FsError::Io {
                    op: "create",
                    retryable: false,
                    ..
                })
            ));
            hard(fs.rename("a", "c"), "rename");
            hard(fs.delete("a"), "delete");
            fs.power_restore();
            assert_eq!(fs.list(""), vec!["a"]);
            assert_eq!(fs.open("a").unwrap().read_at(0, 7).unwrap(), b"durable");
            // Powered again, the same three calls go through.
            fs.create("b").unwrap();
            fs.rename("a", "c").unwrap();
            fs.delete("c").unwrap();
            assert_eq!(fs.list(""), vec!["b"]);
        });
    }
}
