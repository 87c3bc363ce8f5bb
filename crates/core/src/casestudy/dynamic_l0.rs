//! Case study V-B: **dynamic Level-0 management**.
//!
//! Finding #2's tradeoff: fewer/larger Level-0 files reduce READ latency
//! (fewer per-file probes), while smaller files reduce WRITE latency
//! (cheaper skiplist inserts into a smaller memtable). With the aggregate
//! Level-0 volume held constant, this manager watches the read/write ratio
//! online and retargets the memtable size (which sets the L0 file size):
//!
//! * write-intensive (> `write_intensive_threshold` writes) → many small
//!   files (`aggregate / files_when_write_heavy`);
//! * read-intensive → few large files (`aggregate / files_when_read_heavy`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xlsm_engine::{Db, Ticker};
use xlsm_sim::JoinHandle;

/// Configuration for [`DynamicL0Manager`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DynamicL0Config {
    /// Total Level-0 volume to split into files (bytes).
    pub aggregate_l0_bytes: u64,
    /// File count when the workload is write-intensive (paper: 24).
    pub files_when_write_heavy: u64,
    /// File count when the workload is read-intensive (paper: 6).
    pub files_when_read_heavy: u64,
    /// A workload is write-intensive when its write fraction exceeds this
    /// (paper: 0.25).
    pub write_intensive_threshold: f64,
    /// Sampling interval in virtual nanoseconds.
    pub sample_interval_nanos: u64,
}

impl Default for DynamicL0Config {
    fn default() -> DynamicL0Config {
        DynamicL0Config {
            aggregate_l0_bytes: 24 * (2 << 20) / 4, // 24 quarter-scale files
            files_when_write_heavy: 24,
            files_when_read_heavy: 6,
            write_intensive_threshold: 0.25,
            sample_interval_nanos: 200_000_000, // 200 ms
        }
    }
}

/// The online manager: a background sim thread that watches the observed
/// read/write mix and retargets [`Db::set_write_buffer_size`].
pub struct DynamicL0Manager {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Vec<(u64, usize)>>>,
}

impl std::fmt::Debug for DynamicL0Manager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicL0Manager").finish_non_exhaustive()
    }
}

impl DynamicL0Manager {
    /// Computes the target memtable size for an observed write fraction.
    pub fn target_bytes(cfg: &DynamicL0Config, write_fraction: f64) -> usize {
        let files = if write_fraction > cfg.write_intensive_threshold {
            cfg.files_when_write_heavy
        } else {
            cfg.files_when_read_heavy
        };
        (cfg.aggregate_l0_bytes / files.max(1)) as usize
    }

    /// The target L0 file-count (and compaction trigger) for an observed
    /// write fraction.
    pub fn target_files(cfg: &DynamicL0Config, write_fraction: f64) -> u64 {
        if write_fraction > cfg.write_intensive_threshold {
            cfg.files_when_write_heavy
        } else {
            cfg.files_when_read_heavy
        }
    }

    /// Starts managing `db`. Returns the manager handle; call
    /// [`DynamicL0Manager::stop`] before closing the database.
    ///
    /// The manager holds the *aggregate* Level-0 volume constant: a
    /// write-intensive phase gets many small files (cheap memtable inserts,
    /// fewer compaction runs), a read-intensive phase gets few large files
    /// (fewer per-file probes on the read path) — Section V-B.
    ///
    /// The file count it installs as the compaction trigger never exceeds
    /// the database's `level0_slowdown_writes_trigger`: a trigger above it
    /// would delay writes while no Level-0 compaction is eligible yet.
    pub fn start(db: Arc<Db>, cfg: DynamicL0Config) -> DynamicL0Manager {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = xlsm_sim::spawn("dynamic-l0", move || {
            let mut decisions = Vec::new();
            let mut last_gets = db.stats().ticker(Ticker::Gets);
            let mut last_puts = db.stats().ticker(Ticker::Puts);
            let max_files = db.options().level0_slowdown_writes_trigger;
            // What the manager last asked for; the database's own values
            // until its first decision.
            let mut asked = (db.write_buffer_size(), db.l0_compaction_trigger());
            while !stop2.load(Ordering::Relaxed) {
                xlsm_sim::sleep_nanos(cfg.sample_interval_nanos);
                let gets = db.stats().ticker(Ticker::Gets);
                let puts = db.stats().ticker(Ticker::Puts);
                let dg = gets - last_gets;
                let dp = puts - last_puts;
                last_gets = gets;
                last_puts = puts;
                if dg + dp == 0 {
                    continue;
                }
                let wf = dp as f64 / (dg + dp) as f64;
                let target = Self::target_bytes(&cfg, wf);
                let files = (Self::target_files(&cfg, wf) as usize).min(max_files);
                if (target, files) != asked {
                    db.set_write_buffer_size(target);
                    db.set_l0_compaction_trigger(files);
                    decisions.push((xlsm_sim::now_nanos(), target));
                    asked = (target, files);
                }
            }
            decisions
        });
        DynamicL0Manager {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the manager; returns the `(time, target_bytes)` decision log.
    pub fn stop(mut self) -> Vec<(u64, usize)> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.take().expect("stopped twice").join()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlsm_device::{profiles, SimDevice};
    use xlsm_engine::DbOptions;
    use xlsm_sim::Runtime;
    use xlsm_simfs::{FsOptions, SimFs};

    #[test]
    fn target_bytes_follows_ratio() {
        let cfg = DynamicL0Config {
            aggregate_l0_bytes: 24 << 20,
            ..DynamicL0Config::default()
        };
        let write_heavy = DynamicL0Manager::target_bytes(&cfg, 0.9);
        let read_heavy = DynamicL0Manager::target_bytes(&cfg, 0.1);
        assert_eq!(write_heavy, 1 << 20); // 24 MiB / 24 files
        assert_eq!(read_heavy, 4 << 20); // 24 MiB / 6 files
                                         // Boundary: exactly at the threshold counts as read-intensive.
        assert_eq!(DynamicL0Manager::target_bytes(&cfg, 0.25), read_heavy);
    }

    #[test]
    fn manager_adapts_live_database() {
        Runtime::new().run(|| {
            let fs = SimFs::new(
                SimDevice::shared(profiles::optane_900p()),
                FsOptions::default(),
            );
            let db = Arc::new(
                Db::open(
                    fs,
                    DbOptions {
                        write_buffer_size: 256 << 10,
                        ..DbOptions::default()
                    },
                )
                .unwrap(),
            );
            let cfg = DynamicL0Config {
                aggregate_l0_bytes: 24 << 20,
                sample_interval_nanos: 50_000_000,
                ..DynamicL0Config::default()
            };
            let mgr = DynamicL0Manager::start(Arc::clone(&db), cfg);
            // Read-heavy phase: mostly gets.
            db.put(b"k", b"v").unwrap();
            for _ in 0..50 {
                let _ = db.get(b"k").unwrap();
            }
            xlsm_sim::sleep_nanos(60_000_000);
            assert_eq!(
                db.write_buffer_size(),
                4 << 20,
                "read-heavy → large memtable"
            );
            // Write-heavy phase.
            for i in 0..60u32 {
                db.put(format!("w{i}").as_bytes(), b"v").unwrap();
            }
            xlsm_sim::sleep_nanos(60_000_000);
            assert_eq!(
                db.write_buffer_size(),
                1 << 20,
                "write-heavy → small memtable"
            );
            let log = mgr.stop();
            assert!(log.len() >= 2);
            db.close();
        });
    }

    /// The paper's 24 write-heavy files sit above the default slowdown
    /// trigger (20): installed unclamped, writes would be delayed from 20
    /// files while no Level-0 compaction is eligible before 24.
    #[test]
    fn compaction_trigger_stays_at_or_below_the_slowdown_trigger() {
        Runtime::new().run(|| {
            let fs = SimFs::new(
                SimDevice::shared(profiles::optane_900p()),
                FsOptions::default(),
            );
            let db = Arc::new(Db::open(fs, DbOptions::default()).unwrap());
            let cfg = DynamicL0Config::default();
            let mgr = DynamicL0Manager::start(Arc::clone(&db), cfg);
            // Three write-heavy sampling intervals.
            for round in 0..3u32 {
                for i in 0..60u32 {
                    db.put(format!("w{round}-{i}").as_bytes(), b"v").unwrap();
                }
                xlsm_sim::sleep_nanos(cfg.sample_interval_nanos);
            }
            assert_eq!(db.write_buffer_size(), 512 << 10, "write-heavy target");
            assert!(
                db.l0_compaction_trigger() <= db.options().level0_slowdown_writes_trigger,
                "compaction trigger {} parked behind the slowdown trigger {}",
                db.l0_compaction_trigger(),
                db.options().level0_slowdown_writes_trigger
            );
            // The clamped target is one standing decision, not one per tick.
            assert_eq!(mgr.stop().len(), 1);
            db.close();
        });
    }
}
