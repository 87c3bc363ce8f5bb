//! Snapshot/compaction interaction and iterator behaviors that need a full
//! database to exercise.

use std::sync::Arc;
use xlsm_device::{profiles, SimDevice};
use xlsm_engine::{Db, DbOptions, Ticker};
use xlsm_sim::Runtime;
use xlsm_simfs::{FsOptions, SimFs};

fn small_opts() -> DbOptions {
    DbOptions {
        write_buffer_size: 64 << 10,
        target_file_size_base: 64 << 10,
        max_bytes_for_level_base: 256 << 10,
        level0_file_num_compaction_trigger: 2,
        ..DbOptions::default()
    }
}

fn open_db() -> (Db, Arc<SimFs>) {
    let fs = SimFs::new(
        SimDevice::shared(profiles::optane_900p()),
        FsOptions::default(),
    );
    let db = Db::open(Arc::clone(&fs), small_opts()).unwrap();
    (db, fs)
}

#[test]
fn snapshot_survives_flush_and_compaction() {
    Runtime::new().run(|| {
        let (db, _fs) = open_db();
        db.put(b"pinned", b"v1").unwrap();
        let snap = db.snapshot();
        // Overwrite and churn enough to force flushes and compactions.
        for round in 0..4u32 {
            db.put(b"pinned", format!("v{}", round + 2).as_bytes())
                .unwrap();
            for i in 0..400u32 {
                db.put(format!("fill{round}-{i:04}").as_bytes(), &[b'x'; 200])
                    .unwrap();
            }
            db.flush().unwrap();
        }
        db.wait_for_compactions();
        assert!(db.stats().ticker(Ticker::CompactionCount) > 0);
        // The snapshot still sees the original version...
        assert_eq!(
            db.get_at(b"pinned", snap.sequence()).unwrap(),
            Some(b"v1".to_vec()),
            "compaction must not drop versions visible to a live snapshot"
        );
        // ...and the head sees the newest.
        assert_eq!(db.get(b"pinned").unwrap(), Some(b"v5".to_vec()));
        drop(snap);
        db.close();
    });
}

#[test]
fn scanner_pins_files_against_compaction_deletes() {
    Runtime::new().run(|| {
        let (db, _fs) = open_db();
        for i in 0..800u32 {
            db.put(format!("k{i:05}").as_bytes(), &[b'a'; 128]).unwrap();
        }
        db.flush().unwrap();
        // Open a scanner positioned mid-way, then force compactions that
        // delete the underlying files.
        let mut scan = db.scan().unwrap();
        assert!(scan.seek(b"k00400").unwrap());
        for i in 0..800u32 {
            db.put(format!("k{i:05}").as_bytes(), &[b'b'; 128]).unwrap();
        }
        db.flush().unwrap();
        db.wait_for_compactions();
        // The scanner still walks its pinned version without errors.
        let mut n = 0;
        while scan.valid() {
            n += 1;
            scan.next().unwrap();
        }
        assert_eq!(n, 400, "scanner should see keys k00400..k00799");
        drop(scan);
        db.close();
    });
}

#[test]
fn bloom_filters_cut_l0_block_reads() {
    // Same workload with and without blooms: the bloom run must burn far
    // fewer block-cache misses on absent keys.
    fn misses(bloom_bits: usize) -> (u64, u64) {
        Runtime::new().run(move || {
            let fs = SimFs::new(
                SimDevice::shared(profiles::optane_900p()),
                FsOptions::default(),
            );
            let db = Db::open(
                fs,
                DbOptions {
                    bloom_bits_per_key: bloom_bits,
                    // Keep several L0 files alive so absent-key probes cost.
                    level0_file_num_compaction_trigger: 64,
                    level0_slowdown_writes_trigger: 128,
                    level0_stop_writes_trigger: 256,
                    ..small_opts()
                },
            )
            .unwrap();
            for i in 0..600u32 {
                db.put(format!("present{i:05}").as_bytes(), &[b'v'; 128])
                    .unwrap();
            }
            db.flush().unwrap();
            for i in 0..600u32 {
                // Absent keys *inside* the present key range, so L0 files
                // cover them and only a bloom can skip the probe.
                assert_eq!(db.get(format!("present{i:05}x").as_bytes()).unwrap(), None);
            }
            let useful = db.stats().ticker(Ticker::BloomUseful);
            let (_, cache_misses) = db.block_cache_counters();
            db.close();
            (useful, cache_misses)
        })
    }
    let (useful_off, misses_off) = misses(0);
    let (useful_on, misses_on) = misses(10);
    assert_eq!(useful_off, 0);
    assert!(useful_on > 400, "blooms should reject most absent probes");
    assert!(
        misses_on < misses_off / 2,
        "blooms should cut block reads: {misses_on} vs {misses_off}"
    );
}
