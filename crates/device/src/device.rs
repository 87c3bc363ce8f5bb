//! The simulated device: timing model composition.
//!
//! Each command composes up to four costs:
//!
//! 1. **Bus reservation** — a serial host-interface timeline (`next_free`
//!    bookkeeping); SATA's narrow bus makes this matter, PCIe barely notices.
//! 2. **Channel queueing** — a FIFO semaphore bounding in-flight media
//!    commands; this is where deep (XPoint) vs. shallow (SATA) internal
//!    parallelism shows up.
//! 3. **Media time** — read or program latency from the profile.
//! 4. **Write-buffer drain** (flash writes only) — writes land in the DRAM
//!    buffer quickly and the *drain server* (a reserved timeline paced at
//!    `prog_lat / drain_ways` per page, inflated by FTL garbage-collection
//!    work) retires them in the background; writers only stall when the
//!    buffered backlog exceeds the buffer capacity, which is exactly how
//!    sustained random writes degrade on real flash.

use crate::ftl::{Ftl, FtlConfig, GcWork};
use crate::profiles::DeviceProfile;
use crate::stats::{DeviceSnapshot, Stats};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use xlsm_sim::sync::Semaphore;
use xlsm_sim::{Class, Nanos};

/// Writes at least this many pages long drain at the sequential pace.
pub const SEQ_WRITE_PAGES: u64 = 32;

/// Behavioral interface of a simulated storage device.
///
/// All methods that perform I/O block the calling sim thread in virtual
/// time. Addresses are logical 4-KiB page numbers (LPNs).
pub trait Device: Send + Sync + fmt::Debug {
    /// The parameter set this device was built from.
    fn profile(&self) -> &DeviceProfile;
    /// Reads `pages` pages starting at `lpn`.
    fn read(&self, lpn: u64, pages: u32);
    /// Writes `pages` pages starting at `lpn`.
    fn write(&self, lpn: u64, pages: u32);
    /// Drops mappings for `pages` pages at `lpn` (TRIM); near-instant.
    fn trim(&self, lpn: u64, pages: u64);
    /// Blocks until all buffered writes have reached the media.
    fn sync(&self);
    /// Point-in-time counters.
    fn stats(&self) -> DeviceSnapshot;
    /// Simulates a power failure at the device: writes still queued in the
    /// volatile write buffer (not yet drained to media) are discarded.
    /// Devices without a volatile buffer treat this as a no-op.
    fn power_cut(&self) {}
}

struct BufState {
    /// Virtual time at which the drain server finishes currently-queued work.
    drain_next_free: Nanos,
}

/// A simulated SSD/NVM built from a [`DeviceProfile`].
pub struct SimDevice {
    profile: DeviceProfile,
    channels: Semaphore,
    bus: parking_lot::Mutex<Nanos>,
    buf: parking_lot::Mutex<BufState>,
    ftl: Option<parking_lot::Mutex<Ftl>>,
    stats: Stats,
}

impl fmt::Debug for SimDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimDevice")
            .field("profile", &self.profile.name)
            .finish_non_exhaustive()
    }
}

impl SimDevice {
    /// Builds a device from `profile`. Must be called inside a sim runtime
    /// only if it will be used there (construction itself is sim-free).
    pub fn new(profile: DeviceProfile) -> SimDevice {
        let ftl = if profile.has_ftl() {
            Some(parking_lot::Mutex::new(Ftl::new(FtlConfig {
                logical_pages: profile.capacity_pages,
                pages_per_block: profile.pages_per_block,
                overprovision: profile.overprovision,
                seed: 0x0DEC_0DE5,
            })))
        } else {
            None
        };
        SimDevice {
            channels: Semaphore::new("device-channels", profile.channels),
            bus: parking_lot::Mutex::new(0),
            buf: parking_lot::Mutex::new(BufState { drain_next_free: 0 }),
            ftl,
            stats: Stats::default(),
            profile,
        }
    }

    /// Convenience: build and wrap in an [`Arc`].
    pub fn shared(profile: DeviceProfile) -> Arc<SimDevice> {
        Arc::new(SimDevice::new(profile))
    }

    /// Reserves the host bus for `pages` pages of data transfer; returns the
    /// delay the caller must serve (wait-for-bus + transfer + the per-command
    /// controller overhead, which adds latency but does not occupy the bus).
    fn reserve_bus(&self, pages: u32) -> Nanos {
        let now = xlsm_sim::now_nanos();
        let busy = pages as u64 * self.profile.bus_ns_per_page;
        let mut bus = self.bus.lock();
        let start = (*bus).max(now);
        *bus = start + busy;
        (start - now) + busy + self.profile.bus_fixed_ns
    }

    /// Drain-server pacing: time to retire one buffered host page. Large
    /// writes (≥ [`SEQ_WRITE_PAGES`]) program full stripes and drain at the
    /// sequential pace; small random writes drain at the partial-stripe
    /// pace.
    fn drain_ns_per_page(&self, host_pages: u32) -> Nanos {
        let ways = if host_pages as u64 >= SEQ_WRITE_PAGES {
            self.profile.drain_ways_seq.max(self.profile.drain_ways)
        } else {
            self.profile.drain_ways
        };
        self.profile.prog_lat_ns / ways.max(1)
    }

    /// Charges `work` (host pages + GC) to the drain timeline; returns the
    /// stall the *caller* must absorb because the buffer is full.
    fn reserve_drain(&self, host_pages: u32, gc: GcWork) -> Nanos {
        let per_page = self.drain_ns_per_page(host_pages);
        // GC relocations are internal random traffic: partial-stripe pace.
        let gc_page = self.profile.prog_lat_ns / self.profile.drain_ways.max(1);
        let media_ns = host_pages as u64 * per_page
            + gc.moved_pages
                * (self.profile.read_lat_ns / self.profile.drain_ways.max(1) + gc_page)
            + gc.erases * self.profile.erase_lat_ns / self.profile.drain_ways.max(1);
        let capacity_ns = self.profile.write_buffer_pages
            * (self.profile.prog_lat_ns / self.profile.drain_ways.max(1));
        let now = xlsm_sim::now_nanos();
        let mut buf = self.buf.lock();
        let start = buf.drain_next_free.max(now);
        buf.drain_next_free = start + media_ns;
        let backlog = buf.drain_next_free - now;
        backlog.saturating_sub(capacity_ns)
    }

    /// Takes a media channel, charging the wait for it; returns the wait.
    fn acquire_channel(&self) -> Nanos {
        let t0 = xlsm_sim::now_nanos();
        self.channels.acquire(1);
        let queued = xlsm_sim::now_nanos() - t0;
        xlsm_sim::waited(Class::DeviceQueue, queued);
        queued
    }

    fn ftl_write(&self, lpn: u64, pages: u32) -> GcWork {
        let mut total = GcWork::default();
        if let Some(ftl) = &self.ftl {
            let mut ftl = ftl.lock();
            let cap = self.profile.capacity_pages;
            for p in 0..pages as u64 {
                total.add(ftl.write((lpn + p) % cap));
            }
        }
        total
    }
}

impl Device for SimDevice {
    fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    fn read(&self, _lpn: u64, pages: u32) {
        let queued = self.acquire_channel();
        let bus = self.reserve_bus(pages);
        let service = self.profile.read_lat_ns + bus;
        xlsm_sim::charge(Class::DeviceService, service);
        self.channels.release(1);
        self.stats.add(&self.stats.reads, 1);
        self.stats.add(&self.stats.pages_read, pages as u64);
        self.stats.add(&self.stats.read_queue_ns, queued);
        self.stats.add(&self.stats.read_service_ns, service);
    }

    fn write(&self, lpn: u64, pages: u32) {
        if self.profile.write_buffer_pages > 0 {
            // Flash: buffered write path. The writer pays bus + buffer
            // insert, and stalls only when the drain backlog exceeds the
            // buffer.
            let gc = self.ftl_write(lpn, pages);
            let stall = self.reserve_drain(pages, gc);
            let bus = self.reserve_bus(pages);
            let service = bus + self.profile.buf_insert_ns;
            xlsm_sim::charge_split(&[
                (Class::DeviceService, service),
                (Class::DeviceBufferStall, stall),
            ]);
            self.stats.add(&self.stats.write_service_ns, service);
            self.stats.add(&self.stats.write_stall_ns, stall);
        } else {
            // XPoint / NVM: direct write through a channel.
            let queued = self.acquire_channel();
            let bus = self.reserve_bus(pages);
            let service = self.profile.prog_lat_ns + bus;
            xlsm_sim::charge(Class::DeviceService, service);
            self.channels.release(1);
            self.stats.add(&self.stats.write_queue_ns, queued);
            self.stats.add(&self.stats.write_service_ns, service);
        }
        self.stats.add(&self.stats.writes, 1);
        self.stats.add(&self.stats.pages_written, pages as u64);
    }

    fn trim(&self, lpn: u64, pages: u64) {
        if let Some(ftl) = &self.ftl {
            let mut ftl = ftl.lock();
            let cap = self.profile.capacity_pages;
            for p in 0..pages {
                ftl.trim((lpn + p) % cap);
            }
        }
        self.stats.add(&self.stats.trims, 1);
    }

    fn sync(&self) {
        self.stats.add(&self.stats.syncs, 1);
        if self.profile.write_buffer_pages == 0 {
            return;
        }
        let now = xlsm_sim::now_nanos();
        let target = self.buf.lock().drain_next_free;
        if target > now {
            let wait = target - now;
            xlsm_sim::charge(Class::DeviceSyncWait, wait);
            self.stats.add(&self.stats.sync_wait_ns, wait);
        }
    }

    fn power_cut(&self) {
        self.stats.add(&self.stats.power_cuts, 1);
        if self.profile.write_buffer_pages == 0 {
            return;
        }
        // The drain backlog *is* the volatile buffer contents: clearing it
        // models those writes vanishing, so a later sync has nothing to
        // wait for.
        self.buf.lock().drain_next_free = xlsm_sim::now_nanos();
    }

    fn stats(&self) -> DeviceSnapshot {
        let s = &self.stats;
        let (ftl_host_pages, gc_moved_pages, erases, write_amp) = match &self.ftl {
            Some(ftl) => {
                let snap = ftl.lock().snapshot();
                (
                    snap.host_pages_written,
                    snap.gc_moved_pages,
                    snap.erases,
                    snap.write_amp,
                )
            }
            None => (0, 0, 0, 1.0),
        };
        DeviceSnapshot {
            reads: s.reads.load(Ordering::Relaxed),
            writes: s.writes.load(Ordering::Relaxed),
            pages_read: s.pages_read.load(Ordering::Relaxed),
            pages_written: s.pages_written.load(Ordering::Relaxed),
            read_queue_ns: s.read_queue_ns.load(Ordering::Relaxed),
            read_service_ns: s.read_service_ns.load(Ordering::Relaxed),
            write_queue_ns: s.write_queue_ns.load(Ordering::Relaxed),
            write_service_ns: s.write_service_ns.load(Ordering::Relaxed),
            write_stall_ns: s.write_stall_ns.load(Ordering::Relaxed),
            syncs: s.syncs.load(Ordering::Relaxed),
            sync_wait_ns: s.sync_wait_ns.load(Ordering::Relaxed),
            trims: s.trims.load(Ordering::Relaxed),
            power_cuts: s.power_cuts.load(Ordering::Relaxed),
            ftl_host_pages,
            gc_moved_pages,
            erases,
            write_amp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use xlsm_sim::Runtime;

    #[test]
    fn single_read_costs_media_plus_bus() {
        Runtime::new().run(|| {
            let p = profiles::optane_900p();
            let expect = p.read_lat_ns + p.bus_fixed_ns + p.bus_ns_per_page;
            let dev = SimDevice::new(p);
            dev.read(0, 1);
            assert_eq!(xlsm_sim::now_nanos(), expect);
            let s = dev.stats();
            assert_eq!(s.reads, 1);
            assert_eq!(s.pages_read, 1);
            assert_eq!(s.read_queue_ns, 0);
        });
    }

    #[test]
    fn channels_bound_read_concurrency() {
        Runtime::new().run(|| {
            let p = DeviceProfile {
                channels: 2,
                ..profiles::optane_900p()
            };
            let svc = p.read_lat_ns + p.bus_fixed_ns + p.bus_ns_per_page;
            let dev = Arc::new(SimDevice::new(p));
            let mut handles = Vec::new();
            for i in 0..4 {
                let dev = Arc::clone(&dev);
                handles.push(xlsm_sim::spawn(&format!("r{i}"), move || dev.read(i, 1)));
            }
            for h in handles {
                h.join();
            }
            // 4 reads over 2 channels take at least 2 serialized services
            // (bus adds a bit more on the queued pair).
            assert!(xlsm_sim::now_nanos() >= 2 * svc);
            assert!(dev.stats().read_queue_ns > 0);
        });
    }

    /// A direct write's wait for a channel is queue time, as a read's is,
    /// not service time, in the snapshot and in the writer's charges.
    #[test]
    fn direct_write_queue_is_apart_from_service() {
        Runtime::new().run(|| {
            let p = DeviceProfile {
                channels: 2,
                ..profiles::optane_900p()
            };
            let dev = Arc::new(SimDevice::new(p));
            let before = dev.stats();
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let dev = Arc::clone(&dev);
                    xlsm_sim::spawn(&format!("w{i}"), move || {
                        dev.write(i, 1);
                        let c = xlsm_sim::charges();
                        assert_eq!(c.total(), xlsm_sim::now_nanos());
                        c.get(Class::DeviceQueue)
                    })
                })
                .collect();
            let queued: u64 = handles.into_iter().map(|h| h.join()).sum();
            let s = dev.stats().delta_since(&before);
            assert!(s.write_queue_ns > 0);
            assert_eq!(s.write_queue_ns, queued);
            assert_eq!(
                s.mean_write_ns(),
                (s.write_queue_ns + s.write_service_ns) / 4
            );
        });
    }

    #[test]
    fn xpoint_writes_are_symmetric_with_reads() {
        Runtime::new().run(|| {
            let dev = SimDevice::new(profiles::optane_900p());
            dev.read(0, 1);
            let t_read = xlsm_sim::now_nanos();
            dev.write(0, 1);
            let t_write = xlsm_sim::now_nanos() - t_read;
            assert_eq!(t_read, t_write);
        });
    }

    #[test]
    fn flash_write_is_fast_until_buffer_fills() {
        Runtime::new().run(|| {
            let p = profiles::intel_530_sata();
            let burst_cost = p.bus_fixed_ns + p.bus_ns_per_page + p.buf_insert_ns;
            let dev = SimDevice::new(p.clone());
            // A single write: just bus + buffer insert; no stall.
            dev.write(0, 1);
            assert_eq!(xlsm_sim::now_nanos(), burst_cost);
            assert_eq!(dev.stats().write_stall_ns, 0);
            // Hammer far more pages than the buffer; stalls must appear and
            // sustained cost per page must approach the drain pace.
            let pages = p.write_buffer_pages * 3;
            let t0 = xlsm_sim::now_nanos();
            for i in 0..pages {
                dev.write(i % p.capacity_pages, 1);
            }
            let elapsed = xlsm_sim::now_nanos() - t0;
            let drain_pace = p.prog_lat_ns / p.drain_ways;
            assert!(dev.stats().write_stall_ns > 0, "buffer should fill");
            assert!(
                elapsed >= pages * drain_pace / 2,
                "sustained writes must be drain-paced: {elapsed} vs {}",
                pages * drain_pace
            );
        });
    }

    #[test]
    fn power_cut_discards_buffered_writes() {
        Runtime::new().run(|| {
            let dev = SimDevice::new(profiles::intel_530_sata());
            dev.write(0, 256); // queued into the volatile buffer
            dev.power_cut();
            let t0 = xlsm_sim::now_nanos();
            dev.sync();
            assert_eq!(
                xlsm_sim::now_nanos(),
                t0,
                "after a power cut there is no backlog left to drain"
            );
            assert_eq!(dev.stats().power_cuts, 1);
        });
    }

    #[test]
    fn sync_waits_for_drain() {
        Runtime::new().run(|| {
            let p = profiles::intel_530_sata();
            let dev = SimDevice::new(p);
            for i in 0..64 {
                dev.write(i, 1);
            }
            let before = xlsm_sim::now_nanos();
            dev.sync();
            assert!(xlsm_sim::now_nanos() > before, "sync must wait for drain");
            // A second sync immediately after is free.
            let t = xlsm_sim::now_nanos();
            dev.sync();
            assert_eq!(xlsm_sim::now_nanos(), t);
        });
    }

    #[test]
    fn sync_on_xpoint_is_free() {
        Runtime::new().run(|| {
            let dev = SimDevice::new(profiles::optane_900p());
            dev.write(0, 8);
            let t = xlsm_sim::now_nanos();
            dev.sync();
            assert_eq!(xlsm_sim::now_nanos(), t);
        });
    }

    #[test]
    fn sustained_random_overwrite_amplifies_on_flash() {
        Runtime::new().run(|| {
            // Small device so the test converges quickly.
            let p = profiles::intel_530_sata().with_capacity_bytes(8 << 20);
            let dev = SimDevice::new(p.clone());
            let mut rng = xlsm_sim::rng::Xoshiro256::new(11);
            // Fill once, then overwrite randomly.
            for i in 0..p.capacity_pages {
                dev.write(i, 1);
            }
            for _ in 0..(p.capacity_pages * 3) {
                dev.write(rng.next_below(p.capacity_pages), 1);
            }
            let s = dev.stats();
            assert!(
                s.write_amp > 1.3,
                "expected GC amplification, got {}",
                s.write_amp
            );
            assert!(s.erases > 0);
        });
    }

    #[test]
    fn trim_then_rewrite_avoids_gc() {
        Runtime::new().run(|| {
            let p = profiles::intel_530_sata().with_capacity_bytes(8 << 20);
            let dev = SimDevice::new(p.clone());
            for i in 0..p.capacity_pages {
                dev.write(i, 1);
            }
            dev.trim(0, p.capacity_pages);
            let moved_before = dev.stats().gc_moved_pages;
            for i in 0..p.capacity_pages / 2 {
                dev.write(i, 1);
            }
            let moved_after = dev.stats().gc_moved_pages;
            assert_eq!(
                moved_before, moved_after,
                "rewriting TRIMmed space must not relocate"
            );
        });
    }

    #[test]
    fn raw_mixed_throughput_ordering_matches_paper() {
        // Scaled-down Fig. 1 shape check: 4-KiB random 1:1 mix, 8 threads.
        fn mixed_kops(p: crate::DeviceProfile) -> f64 {
            Runtime::new().run(move || {
                let span = p.capacity_pages / 8; // "first 10 GB of 280 GB"
                let dev = Arc::new(SimDevice::new(p));
                let mut handles = Vec::new();
                let run_ns = 200_000_000u64; // 200 ms simulated
                for t in 0..8u64 {
                    let dev = Arc::clone(&dev);
                    handles.push(xlsm_sim::spawn(&format!("cl{t}"), move || {
                        let mut rng = xlsm_sim::rng::Xoshiro256::new(t + 1);
                        let mut ops = 0u64;
                        while xlsm_sim::now_nanos() < run_ns {
                            let lpn = rng.next_below(span);
                            if ops.is_multiple_of(2) {
                                dev.read(lpn, 1);
                            } else {
                                dev.write(lpn, 1);
                            }
                            ops += 1;
                        }
                        ops
                    }));
                }
                let total: u64 = handles.into_iter().map(|h| h.join()).sum();
                total as f64 / (run_ns as f64 / 1e9) / 1e3
            })
        }
        let sata = mixed_kops(profiles::intel_530_sata());
        let pcie = mixed_kops(profiles::intel_750_pcie());
        let xp = mixed_kops(profiles::optane_900p());
        assert!(
            sata < pcie && pcie < xp,
            "raw ordering must be SATA < PCIe < XPoint: {sata:.1} {pcie:.1} {xp:.1}"
        );
        assert!(
            xp / sata > 8.0,
            "XPoint should beat SATA by ~15x raw (paper), got {:.1}x",
            xp / sata
        );
    }

    #[test]
    fn multi_page_read_pays_bus_per_page() {
        Runtime::new().run(|| {
            let p = profiles::intel_750_pcie();
            let dev = SimDevice::new(p.clone());
            dev.read(0, 256); // 1 MiB compaction-style read
            let t = xlsm_sim::now_nanos();
            assert_eq!(t, p.read_lat_ns + p.bus_fixed_ns + 256 * p.bus_ns_per_page);
        });
    }

    #[test]
    fn snapshot_delta() {
        Runtime::new().run(|| {
            let dev = SimDevice::new(profiles::optane_900p());
            dev.read(0, 1);
            let a = dev.stats();
            dev.read(0, 1);
            dev.write(0, 1);
            let b = dev.stats();
            let d = b.delta_since(&a);
            assert_eq!(d.reads, 1);
            assert_eq!(d.writes, 1);
        });
    }

    #[test]
    fn mean_latency_helpers() {
        Runtime::new().run(|| {
            let dev = SimDevice::new(profiles::optane_900p());
            assert_eq!(dev.stats().mean_read_ns(), 0);
            dev.read(0, 1);
            assert!(dev.stats().mean_read_ns() > 0);
            dev.write(0, 1);
            assert!(dev.stats().mean_write_ns() > 0);
        });
    }

    #[test]
    fn nvm_is_orders_faster_than_sata() {
        Runtime::new().run(|| {
            let nvm = SimDevice::new(profiles::nvm_dram());
            nvm.write(0, 1);
            let t_nvm = xlsm_sim::now_nanos();
            assert!(t_nvm < 2_000, "NVM write should be sub-2µs, got {t_nvm}");
        });
    }
}

#[cfg(test)]
mod calib {
    use super::*;
    use crate::profiles;
    use xlsm_sim::Runtime;

    #[test]
    #[ignore]
    fn print_raw_numbers() {
        fn mixed_kops(p: crate::DeviceProfile, precondition: bool) -> f64 {
            Runtime::new().run(move || {
                let span = p.capacity_pages / 8;
                let dev = Arc::new(SimDevice::new(p));
                if precondition {
                    for i in 0..span {
                        dev.trim(i, 1);
                    }
                }
                let mut handles = Vec::new();
                let run_ns = 400_000_000u64;
                for t in 0..8u64 {
                    let dev = Arc::clone(&dev);
                    handles.push(xlsm_sim::spawn(&format!("cl{t}"), move || {
                        let mut rng = xlsm_sim::rng::Xoshiro256::new(t + 1);
                        let mut ops = 0u64;
                        while xlsm_sim::now_nanos() < run_ns {
                            let lpn = rng.next_below(span);
                            if ops.is_multiple_of(2) {
                                dev.read(lpn, 1);
                            } else {
                                dev.write(lpn, 1);
                            }
                            ops += 1;
                        }
                        ops
                    }));
                }
                let total: u64 = handles.into_iter().map(|h| h.join()).sum();
                let s = dev.stats();
                eprintln!(
                    "  amp={:.2} stall_ms={} mean_read_us={} mean_write_us={}",
                    s.write_amp,
                    s.write_stall_ns / 1_000_000,
                    s.mean_read_ns() / 1000,
                    s.mean_write_ns() / 1000
                );
                total as f64 / (run_ns as f64 / 1e9) / 1e3
            })
        }
        for p in [
            profiles::intel_530_sata(),
            profiles::intel_750_pcie(),
            profiles::optane_900p(),
        ] {
            let name = p.name;
            let k = mixed_kops(p, false);
            eprintln!("{name}: {k:.1} kop/s");
        }
    }
}
