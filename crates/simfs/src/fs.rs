//! The filesystem proper: namespace, file handles, page-cache integration.

use crate::alloc::ExtentAllocator;
use crate::error::{FsError, FsResult};
use crate::fault::{AllocFault, FaultOp, FaultOutcome, FaultPlan, FaultState};
use crate::pagecache::{PageCache, PageKey};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use xlsm_device::{Device, PAGE_SIZE};

/// Tunables for the filesystem and its OS page-cache model.
#[derive(Clone, Debug, PartialEq)]
pub struct FsOptions {
    /// Page-cache capacity in 4-KiB pages. This is the knob that reproduces
    /// the paper's 8 GB RAM vs. 100 GB dataset ratio at scale.
    pub page_cache_pages: usize,
    /// Fraction of the cache that may be dirty before the *background
    /// writeback daemon* starts draining (Linux `dirty_background_ratio`
    /// analogue). Appenders are only stalled synchronously at twice this
    /// fraction (`dirty_ratio` analogue).
    pub dirty_limit_fraction: f64,
    /// Host-side fixed cost per read call (syscall + VFS), nanoseconds.
    pub host_read_ns: u64,
    /// Host-side fixed cost per append call, nanoseconds.
    pub host_write_ns: u64,
    /// Memcpy cost per KiB moved between user and page cache, nanoseconds.
    pub memcpy_ns_per_kib: u64,
    /// Device pages allocated per extent-growth step.
    pub alloc_chunk_pages: u64,
}

impl Default for FsOptions {
    fn default() -> FsOptions {
        FsOptions {
            page_cache_pages: 16_384, // 64 MiB
            dirty_limit_fraction: 0.25,
            host_read_ns: 1_800,
            host_write_ns: 1_200,
            memcpy_ns_per_kib: 30, // ≈ 33 GB/s
            alloc_chunk_pages: 256,
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

/// Per-file crash-durability bookkeeping. Files are append-only, so a
/// page's "valid bytes" count only ever grows; tracking byte counts per
/// page (rather than whole pages) lets a power cut keep a partially
/// written final page exactly as far as it was persisted.
#[derive(Debug, Default)]
struct Durability {
    /// page index -> bytes of that page pushed to the device (possibly
    /// still in its volatile write buffer, awaiting a barrier).
    device: HashMap<u64, u32>,
    /// page index -> bytes of that page made durable by a device barrier
    /// (or by write-through on devices without a write buffer).
    durable: HashMap<u64, u32>,
}

impl Durability {
    /// Records that `bytes` of `page` reached the device; `write_through`
    /// devices (no volatile buffer) persist immediately.
    fn record_device_write(&mut self, page: u64, bytes: u32, write_through: bool) {
        let e = self.device.entry(page).or_insert(0);
        *e = (*e).max(bytes);
        if write_through {
            let d = self.durable.entry(page).or_insert(0);
            *d = (*d).max(bytes);
        }
    }

    /// A device barrier completed: everything previously pushed to the
    /// device is now durable.
    fn promote(&mut self) {
        for (&page, &bytes) in &self.device {
            let d = self.durable.entry(page).or_insert(0);
            *d = (*d).max(bytes);
        }
    }

    /// Length of the longest durable prefix of the file: full pages until
    /// the first page that is missing or partially durable.
    fn durable_prefix_bytes(&self) -> u64 {
        let mut len = 0u64;
        let mut page = 0u64;
        loop {
            match self.durable.get(&page) {
                Some(&bytes) => {
                    len += bytes as u64;
                    if (bytes as usize) < xlsm_device::PAGE_SIZE {
                        return len;
                    }
                    page += 1;
                }
                None => return len,
            }
        }
    }
}

struct FileData {
    id: u64,
    name: parking_lot::Mutex<String>,
    content: parking_lot::RwLock<Vec<u8>>,
    /// Allocated device extents `(start_lpn, pages)` covering the file.
    extents: parking_lot::Mutex<Vec<(u64, u64)>>,
    deleted: AtomicBool,
    durability: parking_lot::Mutex<Durability>,
}

impl FileData {
    /// Device LPN of the file's `page`-th page, if allocated.
    fn lpn_of(&self, page: u64) -> Option<u64> {
        let extents = self.extents.lock();
        let mut base = 0u64;
        for &(start, len) in extents.iter() {
            if page < base + len {
                return Some(start + (page - base));
            }
            base += len;
        }
        None
    }

    fn allocated_pages(&self) -> u64 {
        self.extents.lock().iter().map(|&(_, l)| l).sum()
    }
}

/// A simulated filesystem bound to one device.
pub struct SimFs {
    device: Arc<dyn Device>,
    opts: FsOptions,
    files: parking_lot::Mutex<BTreeMap<String, Arc<FileData>>>,
    by_id: parking_lot::Mutex<HashMap<u64, Arc<FileData>>>,
    cache: parking_lot::Mutex<PageCache>,
    alloc: parking_lot::Mutex<ExtentAllocator>,
    next_id: AtomicU64,
    throttle_writebacks: AtomicU64,
    sync_writebacks: AtomicU64,
    bg_writebacks: AtomicU64,
    wb_wake: xlsm_sim::sync::WaitSet,
    fault: parking_lot::Mutex<Option<FaultState>>,
    /// Set by [`SimFs::power_cut`]; every operation fails until
    /// [`SimFs::power_restore`].
    dead: AtomicBool,
    /// Devices without a volatile write buffer (e.g. 3D XPoint) persist
    /// writes as they land; buffered devices need a barrier.
    write_through: bool,
    injected_errors: AtomicU64,
    torn_writes: AtomicU64,
    bit_flips: AtomicU64,
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
            cache: parking_lot::Mutex::new(PageCache::new(opts.page_cache_pages)),
            alloc: parking_lot::Mutex::new(ExtentAllocator::new(capacity)),
            files: parking_lot::Mutex::new(BTreeMap::new()),
            by_id: parking_lot::Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            throttle_writebacks: AtomicU64::new(0),
            sync_writebacks: AtomicU64::new(0),
            bg_writebacks: AtomicU64::new(0),
            wb_wake: xlsm_sim::sync::WaitSet::new("fs-writeback"),
            fault: parking_lot::Mutex::new(None),
            dead: AtomicBool::new(false),
            write_through,
            injected_errors: AtomicU64::new(0),
            torn_writes: AtomicU64::new(0),
            bit_flips: AtomicU64::new(0),
            power_cuts: AtomicU64::new(0),
            opts,
        });
        // Background writeback (the pdflush/kworker analogue): drains dirty
        // pages above the soft limit so appenders normally never block on
        // the device. A parked daemon thread per filesystem.
        let fs2 = Arc::clone(&fs);
        xlsm_sim::spawn_daemon("fs-writeback", move || loop {
            fs2.wb_wake.wait();
            loop {
                let batch = {
                    let mut cache = fs2.cache.lock();
                    if cache.dirty_count() <= fs2.soft_dirty_limit() * 4 / 5 {
                        break;
                    }
                    cache.take_dirty_batch(32)
                };
                if batch.is_empty() {
                    break;
                }
                fs2.bg_writebacks
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                fs2.write_back(&batch);
            }
        });
        fs
    }

    fn soft_dirty_limit(&self) -> usize {
        ((self.opts.page_cache_pages as f64) * self.opts.dirty_limit_fraction) as usize
    }

    fn hard_dirty_limit(&self) -> usize {
        self.soft_dirty_limit() * 2
    }

    /// The device underneath (for stats or direct raw benchmarks).
    pub fn device(&self) -> &Arc<dyn Device> {
        &self.device
    }

    /// The options this filesystem was built with.
    pub fn options(&self) -> &FsOptions {
        &self.opts
    }

    /// Creates a new empty file.
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`] if the path is taken.
    pub fn create(self: &Arc<Self>, path: &str) -> FsResult<FileHandle> {
        let data = Arc::new(FileData {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name: parking_lot::Mutex::new(path.to_owned()),
            content: parking_lot::RwLock::new(Vec::new()),
            extents: parking_lot::Mutex::new(Vec::new()),
            deleted: AtomicBool::new(false),
            durability: parking_lot::Mutex::new(Durability::default()),
        });
        {
            let mut files = self.files.lock();
            if files.contains_key(path) {
                return Err(FsError::AlreadyExists(path.to_owned()));
            }
            files.insert(path.to_owned(), Arc::clone(&data));
        }
        self.by_id.lock().insert(data.id, Arc::clone(&data));
        Ok(FileHandle {
            fs: Arc::clone(self),
            data,
        })
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
        Ok(FileHandle {
            fs: Arc::clone(self),
            data,
        })
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
    /// is left fully intact in that case).
    pub fn delete(&self, path: &str) -> FsResult<()> {
        let injected = {
            let mut guard = self.fault.lock();
            guard.as_mut().and_then(|state| state.decide_delete(path))
        };
        if let Some(retryable) = injected {
            self.injected_errors.fetch_add(1, Ordering::Relaxed);
            return Err(FsError::Io {
                op: "delete",
                path: path.to_owned(),
                retryable,
            });
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
        {
            let mut alloc = self.alloc.lock();
            for &(start, len) in &extents {
                alloc.free(start, len);
            }
        }
        for (start, len) in extents {
            self.device.trim(start, len);
        }
        Ok(())
    }

    /// Atomically renames a file.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if `from` is absent; [`FsError::AlreadyExists`]
    /// if `to` is taken.
    pub fn rename(&self, from: &str, to: &str) -> FsResult<()> {
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

    /// Largest single contiguous free extent, in pages — the fragmentation
    /// companion to [`SimFs::free_space_pages`].
    pub fn largest_free_extent_pages(&self) -> u64 {
        self.alloc.lock().largest_free_extent()
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
        self.fault.lock().as_ref().map_or(0, FaultState::ops)
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
    /// operation fails with a hard [`FsError::Io`] until
    /// [`SimFs::power_restore`].
    ///
    /// The namespace itself (file names, allocations) survives, modelling
    /// a journaled-metadata filesystem where only data buffered in RAM or
    /// the device write buffer is lost.
    pub fn power_cut(&self) {
        self.power_cuts.fetch_add(1, Ordering::Relaxed);
        self.dead.store(true, Ordering::Relaxed);
        self.device.power_cut();
        let by_id = self.by_id.lock();
        for data in by_id.values() {
            let mut dur = data.durability.lock();
            dur.device.clear();
            let keep = dur.durable_prefix_bytes() as usize;
            let mut content = data.content.write();
            if content.len() > keep {
                content.truncate(keep);
            }
        }
        drop(by_id);
        self.cache.lock().drop_all();
    }

    /// Restores power after [`SimFs::power_cut`] so files can be reopened
    /// (crash recovery). Any active fault plan is dropped: the restored
    /// incarnation starts clean.
    pub fn power_restore(&self) {
        self.clear_fault_plan();
        self.dead.store(false, Ordering::Relaxed);
    }

    /// Fails the operation if a power cut is in effect.
    fn fail_if_dead(&self, op: &'static str, path: &str) -> FsResult<()> {
        if self.dead.load(Ordering::Relaxed) {
            Err(FsError::Io {
                op,
                path: path.to_owned(),
                retryable: false,
            })
        } else {
            Ok(())
        }
    }

    /// Consults the fault plan for one extent allocation. A scripted
    /// capacity shrink is executed here; a scripted failure bumps the
    /// injection counter and is returned for the caller to surface as
    /// [`FsError::DeviceFull`].
    fn alloc_fault(&self) -> AllocFault {
        let outcome = {
            let mut guard = self.fault.lock();
            match guard.as_mut() {
                Some(state) => state.decide_alloc(),
                None => AllocFault::None,
            }
        };
        match outcome {
            AllocFault::Fail => {
                self.injected_errors.fetch_add(1, Ordering::Relaxed);
            }
            AllocFault::Shrink(pages) => {
                self.alloc.lock().shrink(pages);
            }
            AllocFault::None => {}
        }
        outcome
    }

    /// Consults the fault plan for one operation and bumps the injection
    /// counters. [`FaultOutcome::PowerCut`] is executed here.
    fn fault_decide(&self, op: FaultOp, path: &str, len: usize) -> FaultOutcome {
        let outcome = {
            let mut guard = self.fault.lock();
            match guard.as_mut() {
                Some(state) => state.decide(op, path, len),
                None => FaultOutcome::None,
            }
        };
        match outcome {
            FaultOutcome::Error { .. } => {
                self.injected_errors.fetch_add(1, Ordering::Relaxed);
            }
            FaultOutcome::Torn { .. } => {
                self.injected_errors.fetch_add(1, Ordering::Relaxed);
                self.torn_writes.fetch_add(1, Ordering::Relaxed);
            }
            FaultOutcome::BitFlip { .. } => {
                self.bit_flips.fetch_add(1, Ordering::Relaxed);
            }
            FaultOutcome::PowerCut => self.power_cut(),
            FaultOutcome::None => {}
        }
        outcome
    }

    /// Promotes device-buffered bytes to durable for every file: called
    /// after a device barrier completes.
    fn promote_durable(&self) {
        let by_id = self.by_id.lock();
        for data in by_id.values() {
            data.durability.lock().promote();
        }
    }

    fn memcpy_ns(&self, bytes: usize) -> u64 {
        (bytes as u64 * self.opts.memcpy_ns_per_kib) / 1024
    }

    /// Writes back the given cache victims to the device (coalescing
    /// LPN-contiguous runs). Must be called with no locks held.
    fn write_back(&self, victims: &[PageKey]) {
        if victims.is_empty() {
            return;
        }
        // A dead filesystem writes nothing: pages "pushed" after the cut
        // must not enter the durability ledger, or a later barrier would
        // promote data the cut already destroyed.
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        // Resolve LPNs; skip pages of deleted files. This is the single
        // point where data reaches the device, so durability bookkeeping
        // (for power-cut simulation) is recorded here too.
        let by_id = self.by_id.lock();
        let mut lpns: Vec<u64> = victims
            .iter()
            .filter_map(|&(file, page)| {
                let f = by_id.get(&file)?;
                let lpn = f.lpn_of(page)?;
                let len = f.content.read().len() as u64;
                let valid = len
                    .saturating_sub(page * PAGE_SIZE as u64)
                    .min(PAGE_SIZE as u64) as u32;
                if valid > 0 {
                    f.durability
                        .lock()
                        .record_device_write(page, valid, self.write_through);
                }
                Some(lpn)
            })
            .collect();
        drop(by_id);
        lpns.sort_unstable();
        let mut i = 0;
        while i < lpns.len() {
            let start = lpns[i];
            let mut run = 1u32;
            while i + (run as usize) < lpns.len() && lpns[i + run as usize] == start + run as u64 {
                run += 1;
            }
            self.device.write(start, run);
            i += run as usize;
        }
    }

    /// Dirty-page policy, called by appenders after dirtying pages: above
    /// the soft limit, kick the background daemon; above the hard limit,
    /// the appender writes back synchronously (dirty throttling).
    fn maybe_throttle_dirty(&self) {
        let dirty = self.cache.lock().dirty_count();
        if dirty > self.soft_dirty_limit() {
            self.wb_wake.notify_one();
        }
        let hard = self.hard_dirty_limit();
        loop {
            let batch = {
                let mut cache = self.cache.lock();
                if cache.dirty_count() <= hard {
                    return;
                }
                cache.take_dirty_batch(64)
            };
            if batch.is_empty() {
                return;
            }
            self.throttle_writebacks
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            self.write_back(&batch);
        }
    }
}

/// A handle to one file; clones share the same underlying file.
pub struct FileHandle {
    fs: Arc<SimFs>,
    data: Arc<FileData>,
}

impl Clone for FileHandle {
    fn clone(&self) -> Self {
        FileHandle {
            fs: Arc::clone(&self.fs),
            data: Arc::clone(&self.data),
        }
    }
}

impl fmt::Debug for FileHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileHandle")
            .field("name", &*self.data.name.lock())
            .field("len", &self.len())
            .finish()
    }
}

impl FileHandle {
    /// Current file size in bytes.
    pub fn len(&self) -> u64 {
        self.data.content.read().len() as u64
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The file's current path.
    pub fn name(&self) -> String {
        self.data.name.lock().clone()
    }

    fn check_live(&self) -> FsResult<()> {
        if self.data.deleted.load(Ordering::Relaxed) {
            Err(FsError::Stale(self.name()))
        } else {
            Ok(())
        }
    }

    /// Appends `data`, returning the offset it was written at.
    ///
    /// The append is *buffered*: it lands in the page cache as dirty pages
    /// and reaches the device on [`FileHandle::sync`], eviction pressure, or
    /// the dirty-ratio throttle.
    ///
    /// # Errors
    ///
    /// [`FsError::Stale`] if the file was deleted; [`FsError::DeviceFull`]
    /// if extent allocation fails; [`FsError::Io`] if the fault layer
    /// injects a failure (a torn-write fault applies a strict prefix of
    /// `data` before failing).
    pub fn append(&self, data: &[u8]) -> FsResult<u64> {
        self.check_live()?;
        let name = self.name();
        self.fs.fail_if_dead("append", &name)?;
        match self.fs.fault_decide(FaultOp::Append, &name, data.len()) {
            FaultOutcome::None => self.append_inner(data),
            FaultOutcome::Error { retryable } => Err(FsError::Io {
                op: "append",
                path: name,
                retryable,
            }),
            FaultOutcome::Torn { keep, retryable } => {
                // A torn write: part of the payload lands before the fault.
                let _ = self.append_inner(&data[..keep]);
                Err(FsError::Io {
                    op: "append",
                    path: name,
                    retryable,
                })
            }
            FaultOutcome::PowerCut => Err(FsError::Io {
                op: "append",
                path: name,
                retryable: false,
            }),
            FaultOutcome::BitFlip { .. } => unreachable!("bit flips only target reads"),
        }
    }

    fn append_inner(&self, data: &[u8]) -> FsResult<u64> {
        let fs = &self.fs;
        xlsm_sim::sleep_nanos(fs.opts.host_write_ns + fs.memcpy_ns(data.len()));
        if data.is_empty() {
            return Ok(self.len());
        }
        // Reserve the device extents that cover the new size first, and
        // extend the content only once they exist: an append that fails
        // with `DeviceFull` leaves the file as it was. The content lock is
        // held across both so the size the extents were sized for is the
        // size the file gets.
        let (offset, new_len) = {
            let mut content = self.data.content.write();
            let offset = content.len() as u64;
            let new_len = offset + data.len() as u64;
            let needed_pages = new_len.div_ceil(PAGE_SIZE as u64);
            let have = self.data.allocated_pages();
            if needed_pages > have {
                let grow = (needed_pages - have).max(fs.opts.alloc_chunk_pages);
                if fs.alloc_fault() == AllocFault::Fail {
                    return Err(FsError::DeviceFull);
                }
                let start = fs.alloc.lock().allocate(grow).ok_or(FsError::DeviceFull)?;
                self.data.extents.lock().push((start, grow));
            }
            content.extend_from_slice(data);
            (offset, new_len)
        };
        // Mark the touched pages dirty.
        let first_page = offset / PAGE_SIZE as u64;
        let last_page = (new_len - 1) / PAGE_SIZE as u64;
        let mut victims = Vec::new();
        {
            let mut cache = fs.cache.lock();
            for page in first_page..=last_page {
                if let Some(v) = cache.insert((self.data.id, page), true) {
                    victims.push(v);
                }
            }
        }
        fs.write_back(&victims);
        fs.maybe_throttle_dirty();
        Ok(offset)
    }

    /// Reads `len` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// [`FsError::OutOfRange`] if the range exceeds the file;
    /// [`FsError::Stale`] if the file was deleted; [`FsError::Io`] if the
    /// fault layer injects a failure (a bit-flip fault corrupts one bit of
    /// the returned payload instead of erroring).
    pub fn read_at(&self, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        self.check_live()?;
        let name = self.name();
        self.fs.fail_if_dead("read", &name)?;
        let flip = match self.fs.fault_decide(FaultOp::Read, &name, len) {
            FaultOutcome::None => None,
            FaultOutcome::BitFlip { byte, bit } => Some((byte, bit)),
            FaultOutcome::Error { retryable } => {
                return Err(FsError::Io {
                    op: "read",
                    path: name,
                    retryable,
                })
            }
            FaultOutcome::PowerCut => {
                return Err(FsError::Io {
                    op: "read",
                    path: name,
                    retryable: false,
                })
            }
            FaultOutcome::Torn { .. } => unreachable!("torn faults only target appends"),
        };
        let fs = &self.fs;
        xlsm_sim::sleep_nanos(fs.opts.host_read_ns + fs.memcpy_ns(len));
        let size = self.len();
        if offset + len as u64 > size {
            return Err(FsError::OutOfRange { offset, len, size });
        }
        if len == 0 {
            return Ok(Vec::new());
        }
        let first_page = offset / PAGE_SIZE as u64;
        let last_page = (offset + len as u64 - 1) / PAGE_SIZE as u64;
        // Classify hits/misses and insert the missing pages (clean).
        let mut missing = Vec::new();
        let mut victims = Vec::new();
        {
            let mut cache = fs.cache.lock();
            for page in first_page..=last_page {
                let key = (self.data.id, page);
                if !cache.touch(key) {
                    missing.push(page);
                    if let Some(v) = cache.insert(key, false) {
                        victims.push(v);
                    }
                }
            }
        }
        fs.write_back(&victims);
        // Charge device reads for LPN-contiguous runs of missing pages.
        if !missing.is_empty() {
            let mut lpns: Vec<u64> = missing
                .iter()
                .filter_map(|&p| self.data.lpn_of(p))
                .collect();
            lpns.sort_unstable();
            let mut i = 0;
            while i < lpns.len() {
                let start = lpns[i];
                let mut run = 1u32;
                while i + (run as usize) < lpns.len()
                    && lpns[i + run as usize] == start + run as u64
                {
                    run += 1;
                }
                fs.device.read(start, run);
                i += run as usize;
            }
        }
        let content = self.data.content.read();
        let mut out = content[offset as usize..offset as usize + len].to_vec();
        if let Some((byte, bit)) = flip {
            // Transient corruption: only the returned copy is flipped.
            out[byte] ^= 1u8 << bit;
        }
        Ok(out)
    }

    /// Populates the page cache for `[offset, offset + len)` with coalesced
    /// device reads, without copying any data to the caller — the readahead
    /// primitive (`posix_fadvise(WILLNEED)` analogue) used by compaction's
    /// sequential scans.
    ///
    /// # Errors
    ///
    /// [`FsError::Stale`] if the file was deleted. Ranges beyond EOF are
    /// clamped silently.
    pub fn prefetch(&self, offset: u64, len: usize) -> FsResult<()> {
        self.check_live()?;
        self.fs.fail_if_dead("prefetch", &self.name())?;
        let fs = &self.fs;
        let size = self.len();
        if offset >= size || len == 0 {
            return Ok(());
        }
        let end = (offset + len as u64).min(size);
        xlsm_sim::sleep_nanos(fs.opts.host_read_ns);
        let first_page = offset / PAGE_SIZE as u64;
        let last_page = (end - 1) / PAGE_SIZE as u64;
        let mut missing = Vec::new();
        let mut victims = Vec::new();
        {
            let mut cache = fs.cache.lock();
            for page in first_page..=last_page {
                let key = (self.data.id, page);
                if !cache.touch(key) {
                    missing.push(page);
                    if let Some(v) = cache.insert(key, false) {
                        victims.push(v);
                    }
                }
            }
        }
        fs.write_back(&victims);
        if !missing.is_empty() {
            let mut lpns: Vec<u64> = missing
                .iter()
                .filter_map(|&p| self.data.lpn_of(p))
                .collect();
            lpns.sort_unstable();
            let mut i = 0;
            while i < lpns.len() {
                let start = lpns[i];
                let mut run = 1u32;
                while i + (run as usize) < lpns.len()
                    && lpns[i + run as usize] == start + run as u64
                {
                    run += 1;
                }
                fs.device.read(start, run);
                i += run as usize;
            }
        }
        Ok(())
    }

    /// Writes back this file's dirty pages and issues a device barrier
    /// (waits for the flash write-buffer drain).
    ///
    /// # Errors
    ///
    /// [`FsError::Stale`] if the file was deleted; [`FsError::Io`] if the
    /// fault layer injects a failure (nothing is written back then).
    pub fn sync(&self) -> FsResult<()> {
        self.check_live()?;
        self.fault_check_sync()?;
        let pages = self.fs.cache.lock().clean_file(self.data.id);
        self.fs
            .sync_writebacks
            .fetch_add(pages.len() as u64, Ordering::Relaxed);
        let keys: Vec<PageKey> = pages.into_iter().map(|p| (self.data.id, p)).collect();
        self.fs.write_back(&keys);
        self.fs.device.sync();
        // The write-back above yields to the runtime, so a scripted power
        // cut can land *inside* this sync. A sync that did not complete
        // before power died must fail — the cut has already discarded the
        // device write buffer, so reporting success here would let the
        // caller acknowledge a write that was never durable.
        self.fs.fail_if_dead("sync", &self.name())?;
        // The barrier has completed: everything previously pushed to the
        // device (any file) is now durable.
        self.fs.promote_durable();
        Ok(())
    }

    /// Shared fault hook for [`FileHandle::sync`] / [`FileHandle::flush_data`].
    fn fault_check_sync(&self) -> FsResult<()> {
        let name = self.name();
        self.fs.fail_if_dead("sync", &name)?;
        match self.fs.fault_decide(FaultOp::Sync, &name, 0) {
            FaultOutcome::None => Ok(()),
            FaultOutcome::Error { retryable } => Err(FsError::Io {
                op: "sync",
                path: name,
                retryable,
            }),
            FaultOutcome::PowerCut => Err(FsError::Io {
                op: "sync",
                path: name,
                retryable: false,
            }),
            other => unreachable!("sync faults cannot be {other:?}"),
        }
    }

    /// Like [`FileHandle::sync`] but without the device barrier — pushes the
    /// dirty pages to the device write buffer only (`sync_file_range`
    /// analogue, used for WAL `bytes_per_sync` style background flushing).
    ///
    /// # Errors
    ///
    /// [`FsError::Stale`] if the file was deleted; [`FsError::Io`] if the
    /// fault layer injects a failure.
    pub fn flush_data(&self) -> FsResult<()> {
        self.check_live()?;
        self.fault_check_sync()?;
        let pages = self.fs.cache.lock().clean_file(self.data.id);
        self.fs
            .sync_writebacks
            .fetch_add(pages.len() as u64, Ordering::Relaxed);
        let keys: Vec<PageKey> = pages.into_iter().map(|p| (self.data.id, p)).collect();
        self.fs.write_back(&keys);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlsm_device::{profiles, SimDevice};
    use xlsm_sim::Runtime;

    fn fixture(cache_pages: usize) -> (Arc<SimFs>, Arc<SimDevice>) {
        let dev = SimDevice::shared(profiles::optane_900p());
        let fs = SimFs::new(
            Arc::clone(&dev) as Arc<dyn Device>,
            FsOptions {
                page_cache_pages: cache_pages,
                ..FsOptions::default()
            },
        );
        (fs, dev)
    }

    #[test]
    fn create_append_read_roundtrip() {
        Runtime::new().run(|| {
            let (fs, _dev) = fixture(64);
            let f = fs.create("a/b.sst").unwrap();
            let off = f.append(b"hello").unwrap();
            assert_eq!(off, 0);
            let off2 = f.append(b" world").unwrap();
            assert_eq!(off2, 5);
            assert_eq!(f.read_at(0, 11).unwrap(), b"hello world");
            assert_eq!(f.read_at(6, 5).unwrap(), b"world");
        });
    }

    #[test]
    fn read_past_end_errors() {
        Runtime::new().run(|| {
            let (fs, _) = fixture(64);
            let f = fs.create("x").unwrap();
            f.append(b"abc").unwrap();
            assert!(matches!(f.read_at(2, 5), Err(FsError::OutOfRange { .. })));
        });
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
    fn stale_handle_after_delete() {
        Runtime::new().run(|| {
            let (fs, _) = fixture(64);
            let f = fs.create("gone").unwrap();
            f.append(b"data").unwrap();
            fs.delete("gone").unwrap();
            assert!(matches!(f.append(b"x"), Err(FsError::Stale(_))));
            assert!(matches!(f.read_at(0, 1), Err(FsError::Stale(_))));
        });
    }

    #[test]
    fn cached_read_is_cheaper_than_cold_read() {
        Runtime::new().run(|| {
            let (fs, _) = fixture(1024);
            let f = fs.create("f").unwrap();
            f.append(&vec![7u8; 64 * 1024]).unwrap();
            f.sync().unwrap();
            // Evict by filling the cache with another file's pages? Instead:
            // first read is a hit (pages still dirty-resident from append).
            let t0 = xlsm_sim::now_nanos();
            f.read_at(0, 4096).unwrap();
            let warm = xlsm_sim::now_nanos() - t0;
            // Build a cold read by creating a fresh fs whose cache is tiny.
            let (fs2, _) = fixture(16);
            let f2 = fs2.create("f2").unwrap();
            f2.append(&vec![7u8; 256 * 1024]).unwrap();
            f2.sync().unwrap();
            // Touch later pages to evict page 0, then read page 0 cold.
            f2.read_at(128 * 1024, 64 * 1024).unwrap();
            let t1 = xlsm_sim::now_nanos();
            f2.read_at(0, 4096).unwrap();
            let cold = xlsm_sim::now_nanos() - t1;
            assert!(
                cold > warm + 10_000,
                "cold {cold} should exceed warm {warm} by a device read"
            );
        });
    }

    #[test]
    fn sync_pushes_dirty_pages_to_device() {
        Runtime::new().run(|| {
            let (fs, dev) = fixture(1024);
            let f = fs.create("f").unwrap();
            f.append(&vec![1u8; 40 * 1024]).unwrap();
            assert_eq!(dev.stats().writes, 0, "append must be buffered");
            f.sync().unwrap();
            let s = dev.stats();
            assert!(s.writes >= 1);
            assert_eq!(s.pages_written, 10);
            // Second sync is a no-op.
            f.sync().unwrap();
            assert_eq!(dev.stats().pages_written, 10);
        });
    }

    #[test]
    fn dirty_throttle_forces_writeback() {
        Runtime::new().run(|| {
            let (fs, dev) = fixture(128); // dirty limit = 32 pages
            let f = fs.create("big").unwrap();
            f.append(&vec![0u8; 512 * 1024]).unwrap(); // 128 pages dirty
            let s = fs.stats();
            assert!(
                s.throttle_writebacks > 0,
                "appender should have been throttled: {s:?}"
            );
            assert!(dev.stats().pages_written > 0);
            assert!(s.dirty_pages <= 32);
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
                    ..FsOptions::default()
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
    fn concurrent_appenders_and_readers() {
        Runtime::new().run(|| {
            let (fs, _) = fixture(2048);
            let f = fs.create("shared").unwrap();
            f.append(&vec![9u8; 8192]).unwrap();
            let mut handles = Vec::new();
            for i in 0..4 {
                let f = f.clone();
                handles.push(xlsm_sim::spawn(&format!("w{i}"), move || {
                    for _ in 0..50 {
                        f.append(&[i as u8; 100]).unwrap();
                    }
                }));
            }
            for i in 0..4 {
                let f = f.clone();
                handles.push(xlsm_sim::spawn(&format!("r{i}"), move || {
                    for _ in 0..50 {
                        f.read_at(0, 4096).unwrap();
                    }
                }));
            }
            for h in handles {
                h.join();
            }
            assert_eq!(f.len(), 8192 + 4 * 50 * 100);
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
    fn write_through_device_survives_without_barrier() {
        Runtime::new().run(|| {
            // Optane has no volatile write buffer: anything written back to
            // the device (even without a barrier) is durable.
            let (fs, _) = fixture(16); // tiny cache forces writeback
            let f = fs.create("f").unwrap();
            f.append(&vec![3u8; 256 * 1024]).unwrap(); // evictions push pages out
            let pushed = fs.stats().dirty_evictions + fs.stats().throttle_writebacks;
            assert!(pushed > 0, "tiny cache must have forced writebacks");
            fs.power_cut();
            fs.power_restore();
            let g = fs.open("f").unwrap();
            assert!(
                g.len() >= pushed * 4096,
                "written-back pages must be durable on write-through devices"
            );
        });
    }

    #[test]
    fn injected_append_error_is_reported() {
        Runtime::new().run(|| {
            let (fs, _) = fixture(64);
            let f = fs.create("a.sst").unwrap();
            let g = fs.create("b.log").unwrap();
            fs.set_fault_plan(crate::FaultPlan {
                fail_nth_write: Some(1),
                path_filter: Some(".sst".into()),
                ..crate::FaultPlan::default()
            });
            g.append(b"unaffected").unwrap();
            assert!(matches!(
                f.append(b"doomed"),
                Err(FsError::Io {
                    op: "append",
                    retryable: true,
                    ..
                })
            ));
            assert_eq!(f.len(), 0, "a scripted error applies nothing");
            f.append(b"fine now").unwrap();
            assert_eq!(fs.stats().injected_errors, 1);
            fs.clear_fault_plan();
        });
    }

    #[test]
    fn torn_write_applies_strict_prefix() {
        Runtime::new().run(|| {
            let (fs, _) = fixture(64);
            let f = fs.create("wal.log").unwrap();
            f.append(b"intact-record").unwrap();
            fs.set_fault_plan(crate::FaultPlan {
                torn_write_nth: Some(1),
                seed: 9,
                ..crate::FaultPlan::default()
            });
            let err = f.append(&vec![5u8; 1000]).unwrap_err();
            assert!(matches!(err, FsError::Io { .. }));
            let len = f.len();
            assert!(
                (13..13 + 1000).contains(&len),
                "torn append must keep a strict prefix, len={len}"
            );
            assert_eq!(fs.stats().torn_writes, 1);
        });
    }

    #[test]
    fn bit_flip_corrupts_only_returned_copy() {
        Runtime::new().run(|| {
            let (fs, _) = fixture(64);
            let f = fs.create("f").unwrap();
            f.append(&[0u8; 100]).unwrap();
            fs.set_fault_plan(crate::FaultPlan {
                bit_flip_nth_read: Some(1),
                ..crate::FaultPlan::default()
            });
            let flipped = f.read_at(0, 100).unwrap();
            assert_eq!(
                flipped.iter().filter(|&&b| b != 0).count(),
                1,
                "exactly one byte should differ"
            );
            let clean = f.read_at(0, 100).unwrap();
            assert_eq!(clean, vec![0u8; 100], "stored bytes stay intact");
            assert_eq!(fs.stats().bit_flips, 1);
        });
    }

    #[test]
    fn scripted_power_cut_fires_mid_workload() {
        Runtime::new().run(|| {
            let (fs, _) = fixture(64);
            let f = fs.create("f").unwrap();
            fs.set_fault_plan(crate::FaultPlan {
                power_cut_at_op: Some(3),
                ..crate::FaultPlan::default()
            });
            f.append(b"one").unwrap();
            f.append(b"two").unwrap();
            assert!(matches!(f.append(b"three"), Err(FsError::Io { .. })));
            assert!(fs.is_powered_off());
            assert_eq!(fs.stats().power_cuts, 1);
        });
    }

    #[test]
    fn scripted_alloc_faults_hit_the_capacity_edge() {
        Runtime::new().run(|| {
            let (fs, _) = fixture(64);
            let cap = fs.capacity_pages();
            let f = fs.create("f").unwrap();
            fs.set_fault_plan(crate::FaultPlan {
                fail_nth_alloc: Some(2),
                shrink_at_alloc: Some((1, cap / 2)),
                ..crate::FaultPlan::default()
            });
            // First allocation: capacity halves, then the append succeeds.
            f.append(&vec![1u8; 8 << 10]).unwrap();
            assert_eq!(fs.capacity_pages(), cap - cap / 2);
            // Second allocation is scripted ENOSPC (plenty of space left).
            let chunk = fs.options().alloc_chunk_pages as usize * PAGE_SIZE;
            assert!(matches!(
                f.append(&vec![2u8; chunk + 1]),
                Err(FsError::DeviceFull)
            ));
            assert_eq!(fs.stats().injected_errors, 1);
            // The failed append left the file as it was.
            assert_eq!(f.len(), 8 << 10);
            assert_eq!(f.read_at(0, 8 << 10).unwrap(), vec![1u8; 8 << 10]);
            // Third allocation runs clean again, and a restore returns the
            // carved capacity.
            let at = f.append(&vec![3u8; chunk + 1]).unwrap();
            assert_eq!(at, 8 << 10);
            assert_eq!(f.read_at(at, 1).unwrap(), [3u8]);
            fs.restore_capacity();
            assert_eq!(fs.capacity_pages(), cap);
            let s = fs.stats();
            assert!(s.free_space_pages < s.capacity_pages);
            assert!(s.largest_free_extent_pages <= s.free_space_pages);
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
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use xlsm_device::{profiles, SimDevice};
    use xlsm_sim::Runtime;

    #[test]
    fn prefetch_warms_the_cache_in_one_device_read() {
        Runtime::new().run(|| {
            let dev = SimDevice::shared(profiles::intel_530_sata());
            let fs = SimFs::new(
                Arc::clone(&dev) as Arc<dyn Device>,
                FsOptions {
                    page_cache_pages: 4096,
                    ..FsOptions::default()
                },
            );
            let f = fs.create("big").unwrap();
            f.append(&vec![7u8; 256 << 10]).unwrap();
            f.sync().unwrap();
            // Evict by recreating a cold filesystem? Instead drop residency:
            // pages are resident from the append; delete + rebuild cold.
            let reads_before = dev.stats().reads;
            f.prefetch(0, 256 << 10).unwrap();
            let reads_mid = dev.stats().reads;
            assert_eq!(
                reads_mid, reads_before,
                "already-resident pages need no I/O"
            );
            // Cold path: new fs over same device style — use a fresh file
            // whose pages we explicitly push out with a tiny cache.
            let fs2 = SimFs::new(
                Arc::clone(&dev) as Arc<dyn Device>,
                FsOptions {
                    page_cache_pages: 1024,
                    ..FsOptions::default()
                },
            );
            let g = fs2.create("cold").unwrap();
            g.append(&vec![9u8; 8 << 20]).unwrap(); // far beyond the cache
            g.sync().unwrap();
            let r0 = dev.stats().reads;
            g.prefetch(0, 256 << 10).unwrap();
            let r1 = dev.stats().reads;
            assert!(r1 > r0, "cold prefetch must read the device");
            assert!(
                r1 - r0 <= 4,
                "prefetch must coalesce into few large reads, got {}",
                r1 - r0
            );
            // Now the reads are cache hits (no further device reads).
            let t0 = xlsm_sim::now_nanos();
            g.read_at(0, 64 << 10).unwrap();
            let warm = xlsm_sim::now_nanos() - t0;
            assert_eq!(dev.stats().reads, r1, "post-prefetch read must hit cache");
            assert!(warm < 100_000, "warm read should be CPU-cheap: {warm} ns");
        });
    }

    #[test]
    fn prefetch_clamps_past_eof() {
        Runtime::new().run(|| {
            let fs = SimFs::new(
                SimDevice::shared(profiles::optane_900p()),
                FsOptions::default(),
            );
            let f = fs.create("short").unwrap();
            f.append(b"tiny").unwrap();
            f.prefetch(0, 1 << 20).unwrap(); // way past EOF: fine
            f.prefetch(1 << 30, 4096).unwrap(); // fully past EOF: no-op
        });
    }
    /// Regression: a power cut landing *inside* a sync (the device
    /// write-back yields to the runtime) must fail that sync. Reporting
    /// success would let a WAL writer acknowledge a commit whose bytes the
    /// cut already discarded — an acked write would silently vanish.
    #[test]
    fn sync_straddling_power_cut_fails_instead_of_acking() {
        Runtime::new().run(|| {
            let fs = SimFs::new(
                SimDevice::shared(profiles::intel_530_sata()),
                FsOptions::default(),
            );
            let f = fs.create("db/000007.log").unwrap();
            f.append(&[7u8; 256]).unwrap();
            // Cut power 1 µs into the sync: the device write for the dirty
            // page takes far longer, so the cut interleaves with it.
            let killer = {
                let fs = Arc::clone(&fs);
                xlsm_sim::spawn("killer", move || {
                    xlsm_sim::sleep_nanos(1_000);
                    fs.power_cut();
                })
            };
            let res = f.sync();
            killer.join();
            assert!(res.is_err(), "interrupted sync must not report success");
            fs.power_restore();
            let g = fs.open("db/000007.log").unwrap();
            assert_eq!(g.len(), 0, "nothing unacknowledged may survive the cut");
        });
    }
}
