//! Device counters, written only by the run-token holder.

use std::sync::atomic::AtomicU64;

/// Internal atomic counter block (one per device).
#[derive(Debug, Default)]
pub(crate) struct Stats {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub pages_read: AtomicU64,
    pub pages_written: AtomicU64,
    pub read_queue_ns: AtomicU64,
    pub read_service_ns: AtomicU64,
    pub write_queue_ns: AtomicU64,
    pub write_service_ns: AtomicU64,
    pub write_stall_ns: AtomicU64,
    pub syncs: AtomicU64,
    pub sync_wait_ns: AtomicU64,
    pub trims: AtomicU64,
    pub power_cuts: AtomicU64,
}

impl Stats {
    pub(crate) fn add(&self, counter: &AtomicU64, v: u64) {
        xlsm_sim::sync::add(counter, v);
    }
}

/// Point-in-time copy of a device's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeviceSnapshot {
    /// Read commands served.
    pub reads: u64,
    /// Write commands served.
    pub writes: u64,
    /// 4-KiB pages read.
    pub pages_read: u64,
    /// 4-KiB pages written.
    pub pages_written: u64,
    /// Total virtual time read commands spent queued for a channel.
    pub read_queue_ns: u64,
    /// Total read service time (media + bus).
    pub read_service_ns: u64,
    /// Total virtual time direct (unbuffered) writes spent queued for a
    /// channel.
    pub write_queue_ns: u64,
    /// Total write service time (bus + buffer insert or media).
    pub write_service_ns: u64,
    /// Total time writers stalled on a full write buffer.
    pub write_stall_ns: u64,
    /// `sync` commands served.
    pub syncs: u64,
    /// Total time spent waiting in `sync` for the buffer to drain.
    pub sync_wait_ns: u64,
    /// TRIM commands served.
    pub trims: u64,
    /// Power cuts simulated (volatile write buffer discarded).
    pub power_cuts: u64,
    /// Host pages written as seen by the FTL (flash only).
    pub ftl_host_pages: u64,
    /// GC-relocated pages (flash only).
    pub gc_moved_pages: u64,
    /// Block erases (flash only).
    pub erases: u64,
    /// Cumulative write amplification (1.0 for non-flash).
    pub write_amp: f64,
}

impl DeviceSnapshot {
    /// Mean read latency (queue + service) in nanoseconds, or 0 if no reads.
    pub fn mean_read_ns(&self) -> u64 {
        (self.read_queue_ns + self.read_service_ns)
            .checked_div(self.reads)
            .unwrap_or(0)
    }

    /// Mean write latency (queue + service + stall) in nanoseconds, or 0 if
    /// none.
    pub fn mean_write_ns(&self) -> u64 {
        (self.write_queue_ns + self.write_service_ns + self.write_stall_ns)
            .checked_div(self.writes)
            .unwrap_or(0)
    }

    /// Difference of two snapshots (for interval measurements).
    pub fn delta_since(&self, earlier: &DeviceSnapshot) -> DeviceSnapshot {
        DeviceSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            pages_read: self.pages_read - earlier.pages_read,
            pages_written: self.pages_written - earlier.pages_written,
            read_queue_ns: self.read_queue_ns - earlier.read_queue_ns,
            read_service_ns: self.read_service_ns - earlier.read_service_ns,
            write_queue_ns: self.write_queue_ns - earlier.write_queue_ns,
            write_service_ns: self.write_service_ns - earlier.write_service_ns,
            write_stall_ns: self.write_stall_ns - earlier.write_stall_ns,
            syncs: self.syncs - earlier.syncs,
            sync_wait_ns: self.sync_wait_ns - earlier.sync_wait_ns,
            trims: self.trims - earlier.trims,
            power_cuts: self.power_cuts - earlier.power_cuts,
            ftl_host_pages: self.ftl_host_pages - earlier.ftl_host_pages,
            gc_moved_pages: self.gc_moved_pages - earlier.gc_moved_pages,
            erases: self.erases - earlier.erases,
            write_amp: self.write_amp,
        }
    }
}
