//! Calibrated device parameter sets.
//!
//! Each profile is fit to the paper's own reported measurements, not to
//! datasheets alone. The two hard anchors come from Fig. 1 (raw 4-KiB random
//! I/O, 8 threads, 1:1 read/write over the first fraction of the device):
//! **26 kop/s** on the Intel 530 SATA flash SSD and **408 kop/s** on the
//! Optane 900P. Secondary anchors are the read/write tail-latency orderings
//! of Figs. 6–7 and 14–15, and the NAND timing constants quoted in the
//! paper's background section (read ≈ 50 µs, program ≈ 500 µs – 1 ms,
//! erase ≈ 2.5 ms).
//!
//! Capacities are scaled ~32× below the physical devices so that scaled
//! experiments (see `DESIGN.md`) keep the same utilization ratios.

use crate::PAGE_SIZE;

/// Broad device family; selects the timing code path in [`crate::SimDevice`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// NAND flash behind a SATA interface (Intel 530-class).
    SataFlash,
    /// NAND flash behind a PCIe/NVMe interface (Intel 750-class).
    PcieFlash,
    /// 3D XPoint behind PCIe/NVMe (Optane 900P-class).
    XPoint,
    /// Byte-addressable non-volatile memory (DRAM-emulated in the paper).
    Nvm,
}

impl DeviceKind {
    /// Short label used in reports and figure output.
    pub fn label(self) -> &'static str {
        match self {
            DeviceKind::SataFlash => "sata-flash",
            DeviceKind::PcieFlash => "pcie-flash",
            DeviceKind::XPoint => "3d-xpoint",
            DeviceKind::Nvm => "nvm",
        }
    }
}

/// Full parameter set for one simulated device.
///
/// Construct via the functions in this module and tweak with the builder
/// methods; all fields are public for inspection.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable model name.
    pub name: &'static str,
    /// Device family.
    pub kind: DeviceKind,
    /// Logical capacity in 4-KiB pages.
    pub capacity_pages: u64,
    /// Independent internal units serving media reads (and direct writes).
    pub channels: u64,
    /// Media read latency per command, nanoseconds.
    pub read_lat_ns: u64,
    /// Media program/write latency per page, nanoseconds.
    pub prog_lat_ns: u64,
    /// Block erase latency, nanoseconds (flash only; 0 otherwise).
    pub erase_lat_ns: u64,
    /// Pages per erase block (flash only; 0 disables the FTL).
    pub pages_per_block: u32,
    /// Physical over-provisioning fraction (flash only).
    pub overprovision: f64,
    /// DRAM write-buffer capacity in pages (flash only; 0 = direct writes).
    pub write_buffer_pages: u64,
    /// Latency to accept one buffered write into the DRAM buffer, ns.
    pub buf_insert_ns: u64,
    /// Effective parallelism of the background program path for small
    /// random writes (partial-stripe programming); the drain server retires
    /// one page every `prog_lat_ns / drain_ways` ns.
    pub drain_ways: u64,
    /// Effective parallelism for large sequential writes (full-stripe
    /// programming) — flush/compaction traffic drains at this pace.
    pub drain_ways_seq: u64,
    /// Host interface transfer time per 4-KiB page, nanoseconds.
    pub bus_ns_per_page: u64,
    /// Fixed per-command interface/controller overhead, nanoseconds.
    pub bus_fixed_ns: u64,
}

impl DeviceProfile {
    /// Overrides the capacity (in bytes, rounded down to whole pages).
    pub fn with_capacity_bytes(mut self, bytes: u64) -> DeviceProfile {
        self.capacity_pages = bytes / PAGE_SIZE as u64;
        self
    }

    /// Whether this profile carries an FTL (i.e., is NAND flash).
    pub fn has_ftl(&self) -> bool {
        self.pages_per_block > 0
    }
}

/// Intel 530-class SATA flash SSD.
///
/// Anchors: raw mixed 4-KiB throughput ≈ 26 kop/s @ 8 threads (Fig. 1);
/// RocksDB read p90 ≈ 839 µs under 90 % writes (Fig. 6); low-queue-depth
/// write latency similar to Optane because of the DRAM write buffer (Fig. 7).
pub fn intel_530_sata() -> DeviceProfile {
    DeviceProfile {
        name: "intel-530-sata",
        kind: DeviceKind::SataFlash,
        capacity_pages: 8 << 18, // 8 GiB simulated (240 GB physical / ~32)
        channels: 6,
        read_lat_ns: 105_000,
        prog_lat_ns: 1_000_000,
        erase_lat_ns: 2_500_000,
        pages_per_block: 64,
        overprovision: 0.07,
        write_buffer_pages: 2048, // 8 MiB DRAM buffer
        buf_insert_ns: 4_000,
        drain_ways: 9,          // sustained 4 KiB random ≈ 36 MB/s
        drain_ways_seq: 48,     // sustained sequential ≈ 200 MB/s
        bus_ns_per_page: 7_400, // ~550 MB/s SATA III
        bus_fixed_ns: 20_000,   // AHCI/SATA command overhead
    }
}

/// Intel 750-class PCIe (NVMe) flash SSD.
///
/// Anchors: RocksDB throughput 32 → 41.3 kop/s as insertion ratio rises
/// (Fig. 3); tail latencies strictly between the SATA flash and the Optane.
pub fn intel_750_pcie() -> DeviceProfile {
    DeviceProfile {
        name: "intel-750-pcie",
        kind: DeviceKind::PcieFlash,
        capacity_pages: 12 << 18, // 12 GiB simulated (400 GB physical / ~32)
        channels: 18,
        read_lat_ns: 75_000,
        prog_lat_ns: 900_000,
        erase_lat_ns: 2_500_000,
        pages_per_block: 64,
        overprovision: 0.20,
        write_buffer_pages: 8192, // 32 MiB DRAM buffer
        buf_insert_ns: 3_000,
        drain_ways: 64,         // sustained 4 KiB random ≈ 280 MB/s
        drain_ways_seq: 220,    // sustained sequential ≈ 900 MB/s
        bus_ns_per_page: 1_400, // ~2.9 GB/s PCIe 3.0 x4
        bus_fixed_ns: 3_000,    // NVMe command overhead
    }
}

/// Intel Optane 900P-class 3D XPoint SSD.
///
/// Anchors: raw mixed 4-KiB throughput ≈ 408 kop/s @ 8 threads (Fig. 1);
/// read ≈ write latency ≈ 10–20 µs; no GC, no erase, no write buffer.
pub fn optane_900p() -> DeviceProfile {
    DeviceProfile {
        name: "optane-900p",
        kind: DeviceKind::XPoint,
        capacity_pages: 9 << 18, // 9 GiB simulated (280 GB physical / ~32)
        channels: 7,
        read_lat_ns: 12_000,
        prog_lat_ns: 12_000,
        erase_lat_ns: 0,
        pages_per_block: 0,
        overprovision: 0.0,
        write_buffer_pages: 0,
        buf_insert_ns: 0,
        drain_ways: 0,
        drain_ways_seq: 0,
        bus_ns_per_page: 1_400,
        bus_fixed_ns: 3_000,
    }
}

/// Byte-addressable NVM (the paper emulates this with tmpfs in DRAM for the
/// WAL-relocation case study, Section V-C).
pub fn nvm_dram() -> DeviceProfile {
    DeviceProfile {
        name: "nvm-dram",
        kind: DeviceKind::Nvm,
        capacity_pages: 1 << 18, // 1 GiB
        channels: 16,
        read_lat_ns: 200,
        prog_lat_ns: 300,
        erase_lat_ns: 0,
        pages_per_block: 0,
        overprovision: 0.0,
        write_buffer_pages: 0,
        buf_insert_ns: 0,
        drain_ways: 0,
        drain_ways_seq: 0,
        bus_ns_per_page: 400, // ~10 GB/s
        bus_fixed_ns: 100,
    }
}

/// The three SSD profiles the paper compares, in presentation order
/// (SATA flash, PCIe flash, 3D XPoint).
pub fn paper_devices() -> Vec<DeviceProfile> {
    vec![intel_530_sata(), intel_750_pcie(), optane_900p()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_invariants() {
        for p in paper_devices().into_iter().chain([nvm_dram()]) {
            assert!(p.capacity_pages > 0, "{}", p.name);
            assert!(p.channels > 0, "{}", p.name);
            assert!(p.read_lat_ns > 0, "{}", p.name);
            if p.has_ftl() {
                assert!(p.write_buffer_pages > 0, "{}", p.name);
                assert!(p.drain_ways > 0, "{}", p.name);
                assert!(p.erase_lat_ns > 0, "{}", p.name);
                assert!(p.overprovision > 0.0, "{}", p.name);
            }
        }
    }

    #[test]
    fn latency_orderings_match_paper() {
        let sata = intel_530_sata();
        let pcie = intel_750_pcie();
        let xp = optane_900p();
        let nvm = nvm_dram();
        // Read latency: SATA > PCIe > XPoint > NVM.
        assert!(sata.read_lat_ns + sata.bus_fixed_ns > pcie.read_lat_ns + pcie.bus_fixed_ns);
        assert!(pcie.read_lat_ns > xp.read_lat_ns);
        assert!(xp.read_lat_ns > nvm.read_lat_ns);
        // XPoint has no read/write disparity; flash does.
        assert_eq!(xp.read_lat_ns, xp.prog_lat_ns);
        assert!(sata.prog_lat_ns > 5 * sata.read_lat_ns);
    }

    #[test]
    fn capacity_override_rounds_to_pages() {
        let p = optane_900p().with_capacity_bytes(1 << 30);
        assert_eq!(p.capacity_pages, 1 << 18);
    }
}
