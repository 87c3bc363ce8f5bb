//! File I/O: what an append, a read and a sync cost, which pages they
//! leave in the cache, and what reaches the device when.
//!
//! Every operation on a [`FileHandle`] starts at one gate (`gate`: live →
//! powered → fault plan), every cache miss goes through one walk
//! (`fault_in`), and every page that reaches the device, in either
//! direction, goes through one run coalescer (`for_each_run`).

use crate::content::{ChunkPool, Content, Durability, FileBytes, FileSpan};
use crate::error::{FsError, FsResult};
use crate::fault::{AllocFault, FaultOp, FaultOutcome, FaultState};
use crate::fs::SimFs;
use crate::pagecache::PageKey;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use xlsm_device::PAGE_SIZE;
use xlsm_sim::{few::Few, sync::WaitSet, Class};

/// Host-side fixed cost per read call (syscall + VFS), ns.
const HOST_READ_NS: u64 = 1_800;
/// Host-side fixed cost per append call, ns.
const HOST_WRITE_NS: u64 = 1_200;
/// Memcpy cost per KiB moved between user and page cache, ns (≈ 33 GB/s).
const MEMCPY_NS_PER_KIB: u64 = 30;
/// Device pages allocated per extent-growth step. A file grows by whole
/// extents while it is written and gives back the unused tail of the last
/// one at [`FileHandle::seal`]. An extent this long is what lets a
/// write-back run reach the device's `SEQ_WRITE_PAGES` and drain at the
/// sequential pace; a smaller one would slow every flush.
const ALLOC_CHUNK_PAGES: u64 = 256;
/// Fraction of the cache that may be dirty before the *background
/// writeback daemon* starts draining (Linux `dirty_background_ratio`
/// analogue). Appenders are only stalled synchronously at twice this
/// fraction (`dirty_ratio` analogue).
const DIRTY_LIMIT_FRACTION: f64 = 0.25;

fn memcpy_ns(bytes: usize) -> u64 {
    (bytes as u64 * MEMCPY_NS_PER_KIB) / 1024
}

/// Sorts `lpns` and issues one `io(start, pages)` per run of adjacent pages:
/// every device read and write is coalesced here.
fn for_each_run(lpns: &mut [u64], mut io: impl FnMut(u64, u32)) {
    lpns.sort_unstable();
    let mut i = 0;
    while i < lpns.len() {
        let start = lpns[i];
        let mut run = 1u32;
        while i + (run as usize) < lpns.len() && lpns[i + run as usize] == start + run as u64 {
            run += 1;
        }
        io(start, run);
        i += run as usize;
    }
}

/// Cuts `extents` down to their first `keep` pages; returns what was cut.
fn cut_extents(extents: &mut Vec<(u64, u64)>, keep: u64) -> Vec<(u64, u64)> {
    let (mut base, mut cut) = (0, Vec::new());
    extents.retain_mut(|(start, len)| {
        let held = keep.saturating_sub(base).min(*len);
        base += *len;
        if held < *len {
            cut.push((*start + held, *len - held));
        }
        *len = held;
        held > 0
    });
    cut
}

/// A byte of a read's result, and the bit of it the fault plan flips.
type BitFlip = (usize, u32);

pub(crate) struct FileData {
    pub(crate) id: u64,
    pub(crate) name: parking_lot::Mutex<String>,
    content: parking_lot::Mutex<Content>,
    /// The filesystem's pool, where the content goes when the file does.
    pool: Arc<ChunkPool>,
    /// Allocated device extents `(start_lpn, pages)` covering the file.
    pub(crate) extents: parking_lot::Mutex<Vec<(u64, u64)>>,
    pub(crate) deleted: AtomicBool,
    durability: parking_lot::Mutex<Durability>,
}

impl FileData {
    pub(crate) fn new(id: u64, path: &str, pool: Arc<ChunkPool>) -> FileData {
        FileData {
            id,
            name: parking_lot::Mutex::new(path.to_owned()),
            content: parking_lot::Mutex::new(Content::default()),
            pool,
            extents: parking_lot::Mutex::new(Vec::new()),
            deleted: AtomicBool::new(false),
            durability: parking_lot::Mutex::new(Durability::default()),
        }
    }

    /// Power is gone: what sat in the device's write buffer is lost, and the
    /// file shrinks to its durable prefix.
    pub(crate) fn lose_volatile(&self) {
        let mut dur = self.durability.lock();
        let keep = dur.lose_volatile() as usize;
        self.content.lock().truncate(keep, &self.pool);
    }

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

impl Drop for FileData {
    fn drop(&mut self) {
        self.content.lock().truncate(0, &self.pool);
    }
}

/// The I/O half of the filesystem: fault decisions, write-back and the
/// dirty-page policy.
impl SimFs {
    /// The background writeback thread (the pdflush/kworker analogue):
    /// drains dirty pages above the soft limit so appenders normally never
    /// block on the device. Parked on `wake` until an appender kicks it, it
    /// holds the filesystem only while it drains: a filesystem nobody else
    /// holds is freed, its daemon left parked on nothing but `wake`.
    pub(crate) fn writeback_daemon(fs: Weak<SimFs>, wake: Arc<WaitSet>) {
        loop {
            wake.wait();
            let Some(fs) = fs.upgrade() else {
                return;
            };
            loop {
                let batch = {
                    let mut cache = fs.cache.lock();
                    if cache.dirty_count() <= fs.soft_dirty_limit() * 4 / 5 {
                        break;
                    }
                    cache.take_dirty_batch(32)
                };
                if batch.is_empty() {
                    break;
                }
                xlsm_sim::sync::add(&fs.bg_writebacks, batch.len() as u64);
                fs.write_back(&batch);
            }
        }
    }

    fn soft_dirty_limit(&self) -> usize {
        ((self.cache_pages as f64) * DIRTY_LIMIT_FRACTION) as usize
    }

    fn hard_dirty_limit(&self) -> usize {
        self.soft_dirty_limit() * 2
    }

    /// Consults the fault plan for one extent allocation. A scripted
    /// capacity shrink is executed here; a scripted failure bumps the
    /// injection counter and is returned for the caller to surface as
    /// [`FsError::DeviceFull`].
    fn alloc_fault(&self) -> AllocFault {
        let outcome = self
            .ask_plan(FaultState::decide_alloc)
            .unwrap_or(AllocFault::None);
        match outcome {
            AllocFault::Fail => {
                xlsm_sim::sync::add(&self.injected_errors, 1);
            }
            AllocFault::Shrink(pages) => {
                self.alloc.lock().shrink(pages);
            }
            AllocFault::None => {}
        }
        outcome
    }

    /// Consults the fault plan for one operation and bumps the injection
    /// counters. [`FaultOutcome::PowerCut`] is executed here. `path` is
    /// asked for only when a plan is installed.
    fn fault_decide(&self, op: FaultOp, path: impl FnOnce() -> String, len: usize) -> FaultOutcome {
        let outcome = self
            .ask_plan(|plan| plan.decide(op, &path(), len))
            .unwrap_or(FaultOutcome::None);
        match outcome {
            FaultOutcome::Error { .. } => {
                xlsm_sim::sync::add(&self.injected_errors, 1);
            }
            FaultOutcome::Torn { .. } => {
                xlsm_sim::sync::add(&self.injected_errors, 1);
                xlsm_sim::sync::add(&self.torn_writes, 1);
            }
            FaultOutcome::BitFlip { .. } => {
                xlsm_sim::sync::add(&self.bit_flips, 1);
            }
            FaultOutcome::PowerCut => self.power_cut(),
            FaultOutcome::None => {}
        }
        outcome
    }

    /// Promotes device-buffered bytes to durable for every file: called
    /// after a device barrier completes. Costs the live files plus the pages
    /// pushed since the previous barrier.
    fn promote_durable(&self) {
        let by_id = self.by_id.lock();
        for data in by_id.values() {
            data.durability.lock().promote();
        }
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
                let len = f.content.lock().len() as u64;
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
        for_each_run(&mut lpns, |start, run| self.device.write(start, run));
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
            xlsm_sim::sync::add(&self.throttle_writebacks, batch.len() as u64);
            self.write_back(&batch);
        }
    }
}

/// A handle to one file; clones share the same underlying file.
#[derive(Clone)]
pub struct FileHandle {
    fs: Arc<SimFs>,
    data: Arc<FileData>,
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
    pub(crate) fn new(fs: Arc<SimFs>, data: Arc<FileData>) -> FileHandle {
        FileHandle { fs, data }
    }

    /// Current file size in bytes.
    pub fn len(&self) -> u64 {
        self.data.content.lock().len() as u64
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The file's current path.
    pub fn name(&self) -> String {
        self.data.name.lock().clone()
    }

    /// The top of every operation: the handle is live, the machine is
    /// powered, and the fault plan lets the call through. An injected error
    /// or a power cut becomes the call's [`FsError::Io`] here; a torn write
    /// or a bit flip is handed back to the one caller that acts on it.
    fn gate(&self, op: FaultOp, len: usize) -> FsResult<FaultOutcome> {
        if self.data.deleted.load(Ordering::Relaxed) {
            return Err(FsError::Stale(self.name()));
        }
        self.fs.fail_if_dead(op.name(), || self.name())?;
        match self.fs.fault_decide(op, || self.name(), len) {
            FaultOutcome::Error { retryable } => {
                Err(FsError::io(op.name(), &self.name(), retryable))
            }
            FaultOutcome::PowerCut => Err(FsError::io(op.name(), &self.name(), false)),
            admitted => Ok(admitted),
        }
    }

    /// Brings pages `first_page..=last_page` into the cache: counts each a
    /// hit or a miss, inserts the missing ones clean, writes back the dirty
    /// pages that made room for them, and reads the missing ones from the
    /// device, one command per run of adjacent LPNs. A block read's few
    /// pages are listed inline; a readahead's spill to the heap.
    fn fault_in(&self, first_page: u64, last_page: u64) {
        let fs = &self.fs;
        let mut missing = Few::<u64, 4>::default();
        let mut victims = Few::<PageKey, 4>::default();
        {
            let mut cache = fs.cache.lock();
            for page in first_page..=last_page {
                let key = (self.data.id, page);
                if !cache.touch(key) {
                    missing.push(page);
                    if let Some(victim) = cache.insert(key, false) {
                        victims.push(victim);
                    }
                }
            }
        }
        fs.write_back(&victims);
        // Each missing page becomes its LPN in place.
        let mut lpns = 0;
        for i in 0..missing.len() {
            if let Some(lpn) = self.data.lpn_of(missing[i]) {
                missing[lpns] = lpn;
                lpns += 1;
            }
        }
        for_each_run(&mut missing[..lpns], |start, run| {
            fs.device.read(start, run)
        });
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
        match self.gate(FaultOp::Append, data.len())? {
            FaultOutcome::None => self.append_inner(data),
            FaultOutcome::Torn { keep, retryable } => {
                // A torn write: part of the payload lands before the fault.
                let _ = self.append_inner(&data[..keep]);
                Err(FsError::io("append", &self.name(), retryable))
            }
            other => unreachable!("append faults cannot be {other:?}"),
        }
    }

    fn append_inner(&self, data: &[u8]) -> FsResult<u64> {
        let fs = &self.fs;
        xlsm_sim::charge(Class::HostCopy, HOST_WRITE_NS + memcpy_ns(data.len()));
        if data.is_empty() {
            return Ok(self.len());
        }
        // Reserve the device extents that cover the new size first, and
        // extend the content only once they exist: an append that fails
        // with `DeviceFull` leaves the file as it was. The content lock is
        // held across both so the size the extents were sized for is the
        // size the file gets.
        let (offset, new_len) = {
            let mut content = self.data.content.lock();
            let offset = content.len() as u64;
            let new_len = offset + data.len() as u64;
            let needed_pages = new_len.div_ceil(PAGE_SIZE as u64);
            let have = self.data.allocated_pages();
            if needed_pages > have {
                let grow = (needed_pages - have).max(ALLOC_CHUNK_PAGES);
                if fs.alloc_fault() == AllocFault::Fail {
                    return Err(FsError::DeviceFull);
                }
                let start = fs.alloc.lock().allocate(grow).ok_or(FsError::DeviceFull)?;
                self.data.extents.lock().push((start, grow));
            }
            content.extend(data, &self.data.pool);
            (offset, new_len)
        };
        // Mark the touched pages dirty.
        let first_page = offset / PAGE_SIZE as u64;
        let last_page = (new_len - 1) / PAGE_SIZE as u64;
        let mut victims = Vec::new();
        {
            let mut cache = fs.cache.lock();
            for page in first_page..=last_page {
                victims.extend(cache.insert((self.data.id, page), true));
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
        let (range, flip) = self.admit_read(offset, len)?;
        let mut out = self.data.content.lock().read(range);
        if let Some((byte, bit)) = flip {
            // Transient corruption: only the returned copy is flipped.
            out[byte] ^= 1u8 << bit;
        }
        Ok(out)
    }

    /// [`FileHandle::read_at`] without the copy: the bytes stay the file's
    /// own, shared (see [`FileSpan`]). Costs, cache traffic and faults are
    /// `read_at`'s.
    ///
    /// # Errors
    ///
    /// As [`FileHandle::read_at`].
    pub fn read_shared(&self, offset: u64, len: usize) -> FsResult<FileSpan> {
        let (range, flip) = self.admit_read(offset, len)?;
        let mut span = self.data.content.lock().read_shared(range);
        if let Some((byte, bit)) = flip {
            span.flip(byte, bit);
        }
        Ok(span)
    }

    /// [`FileHandle::read_shared`] of a range that is read whole, such as a
    /// block's frame: the bytes in one piece, shared where they lie in one
    /// chunk of the file and copied where they span two, with no span
    /// around them. Costs, cache traffic and faults are `read_at`'s.
    ///
    /// # Errors
    ///
    /// As [`FileHandle::read_at`].
    pub fn read_frame(&self, offset: u64, len: usize) -> FsResult<FileBytes> {
        let (range, flip) = self.admit_read(offset, len)?;
        let bytes = self.data.content.lock().read_bytes(range);
        let Some((byte, bit)) = flip else {
            return Ok(bytes);
        };
        // Transient corruption: only this copy is flipped.
        let mut copy = bytes.to_vec();
        copy[byte] ^= 1u8 << bit;
        Ok(FileBytes::from(copy))
    }

    /// Everything a read does before its bytes are taken: the gate, the
    /// host cost, the bounds check and the page-cache walk. Returns the
    /// range to take and the bit to flip, if the fault plan flips one.
    fn admit_read(&self, offset: u64, len: usize) -> FsResult<(Range<usize>, Option<BitFlip>)> {
        let flip = match self.gate(FaultOp::Read, len)? {
            FaultOutcome::None => None,
            FaultOutcome::BitFlip { byte, bit } => Some((byte, bit)),
            other => unreachable!("read faults cannot be {other:?}"),
        };
        xlsm_sim::charge(Class::HostCopy, HOST_READ_NS + memcpy_ns(len));
        let size = self.len();
        let end = offset
            .checked_add(len as u64)
            .filter(|&end| end <= size)
            .ok_or(FsError::OutOfRange { offset, len, size })?;
        if len == 0 {
            return Ok((offset as usize..offset as usize, None));
        }
        self.fault_in(offset / PAGE_SIZE as u64, (end - 1) / PAGE_SIZE as u64);
        Ok((offset as usize..end as usize, flip))
    }

    /// Gives back every device page past the file's last byte: the pages go
    /// back to the allocator and the device gets a TRIM for them, as a
    /// delete does for a whole file. This is the truncate RocksDB does on
    /// `Close` after growing a file by `preallocation_block_size`: a file
    /// grows by whole extents while it is written and is sealed once it is
    /// finished. An append after a seal grows the file again. A seal takes
    /// no virtual time and is not an operation of the fault plan.
    ///
    /// # Errors
    ///
    /// [`FsError::Stale`] if the file was deleted (its pages are already
    /// free); a hard [`FsError::Io`] while a power cut is in effect.
    pub fn seal(&self) -> FsResult<()> {
        if self.data.deleted.load(Ordering::Relaxed) {
            return Err(FsError::Stale(self.name()));
        }
        self.fs.fail_if_dead("seal", || self.name())?;
        // The content lock keeps an append from growing the file between
        // reading its size and cutting its extents.
        let cut = {
            let content = self.data.content.lock();
            let keep = (content.len() as u64).div_ceil(PAGE_SIZE as u64);
            cut_extents(&mut self.data.extents.lock(), keep)
        };
        self.fs.give_back(&cut);
        Ok(())
    }

    /// Pushes this file's dirty pages to the device without a barrier: they
    /// may still sit in its volatile write buffer (`sync_file_range`
    /// analogue, used for WAL `bytes_per_sync` style background flushing).
    ///
    /// # Errors
    ///
    /// [`FsError::Stale`] if the file was deleted; [`FsError::Io`] if the
    /// fault layer injects a failure (nothing is written back then).
    pub fn flush_data(&self) -> FsResult<()> {
        match self.gate(FaultOp::Sync, 0)? {
            FaultOutcome::None => {}
            other => unreachable!("sync faults cannot be {other:?}"),
        }
        let pages = self.fs.cache.lock().clean_file(self.data.id);
        xlsm_sim::sync::add(&self.fs.sync_writebacks, pages.len() as u64);
        let keys: Vec<PageKey> = pages.into_iter().map(|p| (self.data.id, p)).collect();
        self.fs.write_back(&keys);
        Ok(())
    }

    /// [`FileHandle::flush_data`] plus a device barrier (waits for the flash
    /// write-buffer drain): on return the file's bytes are durable.
    ///
    /// # Errors
    ///
    /// As [`FileHandle::flush_data`]; also a hard [`FsError::Io`] if power
    /// died before the barrier completed.
    pub fn sync(&self) -> FsResult<()> {
        self.flush_data()?;
        self.fs.device.sync();
        // The write-back above yields to the runtime, so a scripted power
        // cut can land *inside* this sync. A sync that did not complete
        // before power died must fail — the cut has already discarded the
        // device write buffer, so reporting success here would let the
        // caller acknowledge a write that was never durable.
        self.fs.fail_if_dead("sync", || self.name())?;
        // The barrier has completed: everything previously pushed to the
        // device (any file) is now durable.
        self.fs.promote_durable();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::tests::fixture;
    use crate::{FaultPlan, FsOptions};
    use xlsm_device::{profiles, Device, DeviceProfile, DeviceSnapshot, SimDevice};
    use xlsm_sim::Runtime;

    /// An Optane device that logs every TRIM it is sent.
    #[derive(Debug)]
    struct TrimLog {
        dev: SimDevice,
        trims: parking_lot::Mutex<Vec<(u64, u64)>>,
    }

    impl Device for TrimLog {
        fn profile(&self) -> &DeviceProfile {
            self.dev.profile()
        }
        fn read(&self, lpn: u64, pages: u32) {
            self.dev.read(lpn, pages);
        }
        fn write(&self, lpn: u64, pages: u32) {
            self.dev.write(lpn, pages);
        }
        fn trim(&self, lpn: u64, pages: u64) {
            self.trims.lock().push((lpn, pages));
            self.dev.trim(lpn, pages);
        }
        fn sync(&self) {
            self.dev.sync();
        }
        fn stats(&self) -> DeviceSnapshot {
            self.dev.stats()
        }
    }

    /// The device pages a file holds, in file order.
    fn pages_of(f: &FileHandle) -> Vec<u64> {
        let extents = f.data.extents.lock();
        extents.iter().flat_map(|&(s, l)| s..s + l).collect()
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
            // Regression: `offset + len` used to overflow (a panic under the
            // dev profile, a slice index out of range under `--release`).
            assert_eq!(
                f.read_at(u64::MAX, 1),
                Err(FsError::OutOfRange {
                    offset: u64::MAX,
                    len: 1,
                    size: 3
                })
            );
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
            fs.set_fault_plan(FaultPlan {
                fail_nth_write: Some(1),
                path_filter: Some(".sst".into()),
                ..FaultPlan::default()
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
            fs.set_fault_plan(FaultPlan {
                torn_write_nth: Some(1),
                seed: 9,
                ..FaultPlan::default()
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
            fs.set_fault_plan(FaultPlan {
                bit_flip_nth_read: Some(1),
                ..FaultPlan::default()
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
    fn a_shared_read_flips_only_its_own_copy() {
        Runtime::new().run(|| {
            let (fs, _) = fixture(64);
            let f = fs.create("f").unwrap();
            f.append(&[0u8; 100]).unwrap();
            let earlier = f.read_shared(0, 100).unwrap().get(0..100);
            fs.set_fault_plan(FaultPlan {
                bit_flip_nth_read: Some(1),
                ..FaultPlan::default()
            });
            let flipped = f.read_shared(0, 100).unwrap().get(0..100);
            assert_eq!(flipped.iter().filter(|&&b| b != 0).count(), 1);
            assert_eq!(&earlier[..], &[0u8; 100][..]);
            assert_eq!(f.read_at(0, 100).unwrap(), vec![0u8; 100]);
            fs.set_fault_plan(FaultPlan {
                bit_flip_nth_read: Some(1),
                ..FaultPlan::default()
            });
            let framed = f.read_frame(0, 100).unwrap();
            assert_eq!(framed.iter().filter(|&&b| b != 0).count(), 1);
            assert_eq!(&earlier[..], &[0u8; 100][..]);
            assert_eq!(&f.read_frame(0, 100).unwrap()[..], &[0u8; 100][..]);
        });
    }

    #[test]
    fn scripted_power_cut_fires_mid_workload() {
        Runtime::new().run(|| {
            let (fs, _) = fixture(64);
            let f = fs.create("f").unwrap();
            fs.set_fault_plan(FaultPlan {
                power_cut_at_op: Some(3),
                ..FaultPlan::default()
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
            fs.set_fault_plan(FaultPlan {
                fail_nth_alloc: Some(2),
                shrink_at_alloc: Some((1, cap / 2)),
                ..FaultPlan::default()
            });
            // First allocation: capacity halves, then the append succeeds.
            f.append(&vec![1u8; 8 << 10]).unwrap();
            assert_eq!(fs.capacity_pages(), cap - cap / 2);
            // Second allocation is scripted ENOSPC (plenty of space left).
            let chunk = ALLOC_CHUNK_PAGES as usize * PAGE_SIZE;
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

    /// What makes a barrier cheap: a sync of one file promotes every file's
    /// pushed pages, so afterwards no live file has anything pending.
    #[test]
    fn sync_leaves_no_live_file_pending() {
        Runtime::new().run(|| {
            let fs = SimFs::new(
                SimDevice::shared(profiles::intel_530_sata()),
                FsOptions::default(),
            );
            let files: Vec<FileHandle> = (0..3)
                .map(|i| fs.create(&format!("f{i}")).unwrap())
                .collect();
            for f in &files {
                f.append(&[1u8; 10_000]).unwrap();
                f.flush_data().unwrap();
            }
            let pending = |data: &FileData| data.durability.lock().pending_pages();
            assert!(files.iter().all(|f| pending(&f.data) > 0));
            files[0].sync().unwrap();
            assert!(fs.by_id.lock().values().all(|data| pending(data) == 0));
        });
    }

    #[test]
    fn power_cut_keeps_the_barriered_length_of_a_repushed_page() {
        Runtime::new().run(|| {
            let fs = SimFs::new(
                SimDevice::shared(profiles::intel_530_sata()),
                FsOptions::default(),
            );
            let f = fs.create("f").unwrap();
            f.append(&[7u8; 5000]).unwrap(); // 1 full + 1 partial page
            f.sync().unwrap();
            f.append(&[8u8; 3]).unwrap(); // grows the partial page
            f.flush_data().unwrap(); // re-pushed, no barrier
            fs.power_cut();
            fs.power_restore();
            assert_eq!(fs.open("f").unwrap().len(), 5000);
        });
    }

    #[test]
    fn seal_gives_back_and_trims_the_tail() {
        Runtime::new().run(|| {
            let dev = Arc::new(TrimLog {
                dev: SimDevice::new(profiles::optane_900p()),
                trims: parking_lot::Mutex::default(),
            });
            let fs = SimFs::new(
                Arc::clone(&dev) as Arc<dyn Device>,
                FsOptions {
                    page_cache_pages: 1024,
                },
            );
            let f = fs.create("f").unwrap();
            // Two appends grow two extents; the file ends 10 bytes into its
            // 300th page.
            f.append(&vec![1u8; 200 * PAGE_SIZE]).unwrap();
            f.append(&vec![2u8; 99 * PAGE_SIZE + 10]).unwrap();
            let before = pages_of(&f);
            assert_eq!(before.len() as u64, 2 * ALLOC_CHUNK_PAGES);
            let free = fs.free_space_pages();
            f.seal().unwrap();
            let kept = pages_of(&f);
            assert_eq!(kept.len() as u64, f.len().div_ceil(PAGE_SIZE as u64));
            assert_eq!(kept[..], before[..300]);
            assert_eq!(fs.free_space_pages(), free + 212);
            let trimmed = |dev: &TrimLog| -> Vec<u64> {
                let trims = dev.trims.lock();
                trims.iter().flat_map(|&(s, l)| s..s + l).collect()
            };
            assert_eq!(trimmed(&dev)[..], before[300..]);
            // A second seal has nothing left to give back.
            f.seal().unwrap();
            assert_eq!(dev.trims.lock().len(), 1);
            assert_eq!(f.read_at(0, PAGE_SIZE).unwrap(), vec![1u8; PAGE_SIZE]);
            assert_eq!(
                f.read_at(299 * PAGE_SIZE as u64, 10).unwrap(),
                vec![2u8; 10]
            );
        });
    }

    #[test]
    fn append_after_seal_grows_the_file_again() {
        Runtime::new().run(|| {
            let (fs, _) = fixture(16); // tiny cache: reads come from the device
            let f = fs.create("f").unwrap();
            f.append(&[1u8; 5000]).unwrap();
            f.sync().unwrap();
            f.seal().unwrap();
            assert_eq!(f.data.allocated_pages(), 2);
            assert_eq!(f.append(&vec![2u8; 40 * PAGE_SIZE]).unwrap(), 5000);
            assert_eq!(f.data.allocated_pages(), 2 + ALLOC_CHUNK_PAGES);
            f.sync().unwrap();
            f.seal().unwrap();
            assert_eq!(f.data.allocated_pages(), 42);
            assert_eq!(f.read_at(0, 5000).unwrap(), vec![1u8; 5000]);
            let tail = f.read_at(5000, 40 * PAGE_SIZE).unwrap();
            assert_eq!(tail, vec![2u8; 40 * PAGE_SIZE]);
        });
    }

    #[test]
    fn seal_of_a_deleted_file_frees_nothing_twice() {
        Runtime::new().run(|| {
            let (fs, dev) = fixture(64);
            let f = fs.create("f").unwrap();
            f.append(&[1u8; 5000]).unwrap();
            fs.delete("f").unwrap();
            assert_eq!(fs.free_space_pages(), fs.capacity_pages());
            let trims = dev.stats().trims;
            assert!(matches!(f.seal(), Err(FsError::Stale(_))));
            assert_eq!(fs.free_space_pages(), fs.capacity_pages());
            assert_eq!(dev.stats().trims, trims);
        });
    }

    #[test]
    fn seal_after_power_cut_keeps_the_durable_pages() {
        Runtime::new().run(|| {
            let fs = SimFs::new(
                SimDevice::shared(profiles::intel_530_sata()),
                FsOptions::default(),
            );
            let f = fs.create("f").unwrap();
            let durable = 3 * PAGE_SIZE + 100;
            f.append(&vec![1u8; durable]).unwrap();
            f.sync().unwrap();
            // Buffered only, and grows a second extent.
            f.append(&vec![2u8; 300 * PAGE_SIZE]).unwrap();
            let before = pages_of(&f);
            // Every file loses its volatile bytes, and a dead machine
            // cannot change the disk.
            fs.power_cut();
            assert!(matches!(f.seal(), Err(FsError::Io { op: "seal", .. })));
            assert_eq!(pages_of(&f), before);
            fs.power_restore();
            let g = fs.open("f").unwrap();
            assert_eq!(g.len(), durable as u64);
            g.seal().unwrap();
            assert_eq!(pages_of(&g)[..], before[..4]);
            assert_eq!(g.read_at(0, durable).unwrap(), vec![1u8; durable]);
        });
    }
}
