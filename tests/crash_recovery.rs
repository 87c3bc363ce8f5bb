//! Crash-consistency and background-error harness.
//!
//! Drives the engine through injected filesystem faults ([`FaultPlan`]) and
//! power cuts, then asserts the durability contract on recovery:
//!
//! * every synced (acknowledged) write is present after reopen;
//! * no unsynced suffix is resurrected;
//! * recovery itself never errors on torn tails;
//! * transient background I/O errors are retried with backoff and
//!   auto-resume — no worker panics;
//! * hard errors flip the database to read-only (writes fail fast, reads
//!   keep serving) until an explicit `Db::resume`.
//!
//! The same faults, crossed with every option axis, are values of the fault
//! axis of `crates/engine/tests/oracle.rs`; these are their named cases.

use std::collections::HashMap;
use std::sync::Arc;
use xlsm_suite::device::{profiles, SimDevice};
use xlsm_suite::engine::{Db, DbError, DbOptions, ErrorSeverity, Ticker};
use xlsm_suite::sim::Runtime;
use xlsm_suite::simfs::{FaultPlan, FsOptions, SimFs};

/// A buffered (SATA) device, so unsynced writes really are lost on power
/// cut, with small memtables/files to exercise flush + compaction quickly.
fn crash_fs() -> Arc<SimFs> {
    SimFs::new(
        SimDevice::shared(profiles::intel_530_sata()),
        FsOptions::default(),
    )
}

fn crash_opts() -> DbOptions {
    DbOptions {
        write_buffer_size: 64 << 10,
        target_file_size_base: 64 << 10,
        max_bytes_for_level_base: 256 << 10,
        level0_file_num_compaction_trigger: 2,
        // Acknowledged writes must be durable for the power-cut contract.
        wal_sync: true,
        ..DbOptions::default()
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(12))]

    /// The tentpole contract: run a randomized workload, cut power at an
    /// arbitrary scripted operation (mid-WAL-append, mid-flush,
    /// mid-compaction, mid-MANIFEST-write — wherever the counter lands),
    /// reopen, and check that every acknowledged write survived, nothing
    /// unacknowledged beyond the single in-flight operation resurfaced,
    /// and recovery reported no corruption.
    #[test]
    fn power_cut_preserves_every_acked_write(
        seed in 0u64..10_000u64,
        cut_op in 1u64..6_000u64,
    ) {
        Runtime::new().run(move || {
            let fs = crash_fs();
            let db = Db::open(Arc::clone(&fs), crash_opts()).unwrap();
            // Arm the plan after open so the operation counter starts at
            // the workload, not at recovery I/O.
            fs.set_fault_plan(FaultPlan {
                seed,
                power_cut_at_op: Some(cut_op),
                ..FaultPlan::default()
            });
            let mut acked: HashMap<String, String> = HashMap::new();
            let mut in_flight: Option<(String, String)> = None;
            for i in 0..600u32 {
                let key = format!("k{:02}", i % 32);
                let value = format!("v{i:08}");
                in_flight = Some((key.clone(), value.clone()));
                match db.put(key.as_bytes(), value.as_bytes()) {
                    Ok(()) => {
                        acked.insert(key, value);
                        in_flight = None;
                    }
                    Err(_) => break,
                }
            }
            if !fs.is_powered_off() {
                // The scripted cut never fired; pull the plug now.
                fs.power_cut();
            }
            db.close();
            fs.power_restore();

            let db2 = Db::open(Arc::clone(&fs), crash_opts())
                .expect("recovery after power cut must not error");
            for (k, v) in &acked {
                let got = db2.get(k.as_bytes()).unwrap();
                // The one in-flight (unacknowledged) write may have become
                // durable before the cut; its key may hold either value.
                let in_flight_ok = in_flight.as_ref().is_some_and(|(ik, iv)| {
                    ik == k && got == Some(iv.clone().into_bytes())
                });
                assert!(
                    got == Some(v.clone().into_bytes()) || in_flight_ok,
                    "acked write lost or corrupted after power cut: \
                     key={k} expected={v} got={got:?} (seed={seed} cut={cut_op})"
                );
            }
            if let Some((ik, iv)) = &in_flight {
                if !acked.contains_key(ik) {
                    let got = db2.get(ik.as_bytes()).unwrap();
                    assert!(
                        got.is_none() || got == Some(iv.clone().into_bytes()),
                        "unsynced data resurrected for in-flight key {ik}: {got:?}"
                    );
                }
            }
            db2.close();
        });
    }
}

#[test]
fn transient_flush_error_retries_and_auto_resumes() {
    Runtime::new().run(|| {
        let fs = crash_fs();
        let db = Db::open(Arc::clone(&fs), crash_opts()).unwrap();
        for i in 0..100u32 {
            db.put(format!("key{i:04}").as_bytes(), &[b'v'; 100])
                .unwrap();
        }
        // Fail the first SST write; the flush worker must back off, retry,
        // and auto-resume instead of panicking or going read-only.
        fs.set_fault_plan(FaultPlan {
            fail_nth_write: Some(1),
            path_filter: Some(".sst".into()),
            retryable: true,
            ..FaultPlan::default()
        });
        db.flush()
            .expect("transient flush fault must be retried, not surfaced");
        assert!(db.stats().ticker(Ticker::BackgroundErrors) >= 1);
        assert!(db.stats().ticker(Ticker::BackgroundErrorRetries) >= 1);
        assert!(db.stats().ticker(Ticker::BackgroundAutoResumes) >= 1);
        let m = db.metrics();
        assert!(!m.read_only, "transient fault must not enter read-only");
        assert!(m.background_error.is_none(), "auto-resume clears the error");
        fs.clear_fault_plan();
        db.put(b"after", b"ok").unwrap();
        assert_eq!(db.get(b"after").unwrap(), Some(b"ok".to_vec()));
        assert_eq!(db.get(b"key0042").unwrap(), Some(vec![b'v'; 100]));
        db.close();
    });
}

#[test]
fn hard_flush_error_enters_read_only_and_resume_recovers() {
    Runtime::new().run(|| {
        let fs = crash_fs();
        let db = Db::open(Arc::clone(&fs), crash_opts()).unwrap();
        for i in 0..100u32 {
            db.put(format!("key{i:04}").as_bytes(), b"durable").unwrap();
        }
        db.flush().unwrap();
        for i in 100..200u32 {
            db.put(format!("key{i:04}").as_bytes(), b"pending").unwrap();
        }
        // A hard SST write fault: the retry budget does not apply, so the
        // database must transition to read-only.
        fs.set_fault_plan(FaultPlan {
            fail_nth_write: Some(1),
            path_filter: Some(".sst".into()),
            retryable: false,
            ..FaultPlan::default()
        });
        let err = db.flush().expect_err("hard fault must surface");
        assert!(matches!(err, DbError::ReadOnly(_)), "got {err:?}");
        assert_eq!(fs.stats().injected_errors, 1, "the fault fired");
        // Writes fail fast...
        assert!(matches!(db.put(b"x", b"y"), Err(DbError::ReadOnly(_))));
        // ...while reads keep serving, from SSTs and the stuck memtable.
        assert_eq!(db.get(b"key0000").unwrap(), Some(b"durable".to_vec()));
        assert_eq!(db.get(b"key0150").unwrap(), Some(b"pending".to_vec()));
        let m = db.metrics();
        assert!(m.read_only);
        assert!(m.tickers.get(Ticker::ReadOnlyTransitions) >= 1);
        let be = m.background_error.expect("error state must be surfaced");
        assert_eq!(be.severity, ErrorSeverity::Hard);

        // Clear the fault and resume: the failed flush re-runs, read-only
        // lifts, and writes work again.
        fs.clear_fault_plan();
        db.resume().unwrap();
        let m = db.metrics();
        assert!(!m.read_only);
        assert!(m.background_error.is_none());
        db.put(b"post", b"resume").unwrap();
        assert_eq!(db.get(b"post").unwrap(), Some(b"resume".to_vec()));
        assert_eq!(db.get(b"key0150").unwrap(), Some(b"pending".to_vec()));
        db.close();
    });
}

/// Builds several L0 files with compaction held back, then releases the
/// compaction with a bit flip in its first SST data-block read.
#[test]
fn bit_flipped_compaction_reads_are_detected_and_escalate() {
    Runtime::new().run(|| {
        let fs = crash_fs();
        let opts = DbOptions {
            level0_file_num_compaction_trigger: 4,
            ..crash_opts()
        };
        let db = Db::open(Arc::clone(&fs), opts).unwrap();
        db.set_l0_compaction_trigger(100); // hold compaction back
        for round in 0..4u32 {
            for i in 0..100u32 {
                db.put(
                    format!("key{i:04}").as_bytes(),
                    format!("r{round}").as_bytes(),
                )
                .unwrap();
            }
            db.flush().unwrap();
        }
        assert_eq!(db.num_l0_files(), 4);
        // The compaction opens all four L0 readers first (footer + index +
        // properties = 3 raw reads each, bloom disabled), then starts on
        // data blocks. Flip a bit in the first data-block read — data
        // blocks are CRC-framed, so the flip must surface as checksum
        // corruption.
        fs.set_fault_plan(FaultPlan {
            bit_flip_nth_read: Some(13),
            path_filter: Some(".sst".into()),
            retryable: false,
            ..FaultPlan::default()
        });
        db.set_l0_compaction_trigger(2); // release the compaction

        // Detected corruption is a hard error: wait for the read-only
        // transition.
        let mut spins = 0u32;
        while !db.metrics().read_only {
            xlsm_suite::sim::sleep_nanos(200_000);
            spins += 1;
            assert!(spins < 50_000, "compaction corruption never escalated");
        }
        let m = db.metrics();
        assert!(m.tickers.get(Ticker::CorruptionDetected) >= 1);
        let be = m.background_error.expect("corruption must be recorded");
        assert_eq!(be.severity, ErrorSeverity::Hard);
        assert!(matches!(be.error, DbError::Corruption(_)), "{:?}", be.error);
        // The flips were transient (returned copy only): with the plan
        // cleared, the stored bytes read back clean.
        fs.clear_fault_plan();
        assert_eq!(db.get(b"key0000").unwrap(), Some(b"r3".to_vec()));
        assert!(matches!(db.put(b"x", b"y"), Err(DbError::ReadOnly(_))));
        db.resume().unwrap();
        db.put(b"x", b"y").unwrap();
        db.close();
    });
}
