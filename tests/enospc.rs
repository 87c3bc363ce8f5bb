//! Full-disk survival suite.
//!
//! * **Legacy** (space subsystem off): real capacity exhaustion flips the
//!   database read-only — clients get errors, nothing panics, and an
//!   explicit [`Db::resume`] after space returns makes it writable again.
//! * **Soft ENOSPC** (watcher + cap on): a capacity overrun *stalls*
//!   writers — no client ever sees an error — and the `SpaceWatcher`
//!   auto-resumes them within one poll interval of headroom returning,
//!   on every device profile the study models.
//! * Obsolete SSTs ride through `trash/` and are reaped at the configured
//!   rate; the backlog drains to zero and every queued byte is accounted
//!   as reclaimed.
//! * A failed trash delete is cleared by the next delete: the reaper's,
//!   or with the reaper off, the next purge's.
//! * A write refused for lack of space leaves no bytes behind for a later
//!   recovery to replay, and the database read-only until `Db::resume`.
//! * With the space subsystem off, a device four times the dataset (the
//!   paper's PCIe ratio) holds a fill and a write-heavy window: finished
//!   files give back their unused extent tails.
//! * `Db::wait_for_compactions` returns on a compaction the cap defers
//!   for good, and still waits out one that the reaper's draining lets
//!   fit.
//!
//! Scripted ENOSPC with and without the watcher, a failed WAL purge, a
//! power cut at the capacity edge, a retried scrub under a stall and a
//! failed trash delete under the reaper are also cases of
//! `tests/oracle.rs`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xlsm_suite::device::{profiles, DeviceProfile, SimDevice};
use xlsm_suite::engine::{BackgroundOp, Db, DbError, DbOptions, ErrorSeverity, Ticker};
use xlsm_suite::sim::{now_nanos, sleep_nanos, spawn, Runtime};
use xlsm_suite::simfs::{FaultPlan, FsOptions, SimFs};
use xlsm_suite::study::experiment::Testbed;
use xlsm_suite::workload::{fill_db, run_workload, WorkloadSpec};

/// SpaceWatcher poll interval used throughout: 2ms of virtual time.
const POLL_NS: u64 = 2_000_000;
/// Engine-enforced space cap: small enough that a few flushes overrun it.
const CAP_BYTES: u64 = 256 << 10;

/// A named device profile constructor, one per paper device.
type NamedProfile = (&'static str, fn() -> DeviceProfile);

const PROFILES: [NamedProfile; 3] = [
    ("intel_530_sata", profiles::intel_530_sata),
    ("intel_750_pcie", profiles::intel_750_pcie),
    ("optane_900p", profiles::optane_900p),
];

fn fs_on(profile: DeviceProfile) -> Arc<SimFs> {
    SimFs::new(SimDevice::shared(profile), FsOptions::default())
}

/// Options with the full space subsystem armed: cap, watcher, small
/// buffers so flushes come quickly.
fn space_opts() -> DbOptions {
    DbOptions {
        write_buffer_size: 64 << 10,
        target_file_size_base: 64 << 10,
        max_bytes_for_level_base: 256 << 10,
        max_allowed_space_bytes: CAP_BYTES,
        space_poll_interval_ns: POLL_NS,
        ..DbOptions::default()
    }
}

/// Small buffers and a compaction at every second Level-0 file, so
/// overwrite rounds obsolete tables; trash reaped at `reap_rate` (0: the
/// reaper off).
fn churn_opts(reap_rate: u64) -> DbOptions {
    DbOptions {
        write_buffer_size: 64 << 10,
        target_file_size_base: 64 << 10,
        max_bytes_for_level_base: 256 << 10,
        level0_file_num_compaction_trigger: 2,
        sst_delete_rate_bytes_per_sec: reap_rate,
        ..DbOptions::default()
    }
}

fn key(i: usize) -> String {
    format!("key{i:05}")
}

/// Polls `cond` every `step` nanos until it holds; panics with `what` if
/// `deadline` nanos elapse first.
fn wait_until(what: &str, deadline: u64, step: u64, mut cond: impl FnMut() -> bool) {
    let t0 = now_nanos();
    while !cond() {
        assert!(
            now_nanos() - t0 <= deadline,
            "timed out after {deadline}ns waiting for {what}"
        );
        sleep_nanos(step);
    }
}

/// Legacy contract: with `max_allowed_space_bytes` unset and the watcher
/// disabled, running the device out of space flips the database read-only
/// (no panic, no stall), and `resume` after the space returns recovers it.
#[test]
fn legacy_device_full_flips_read_only_and_resume_recovers() {
    Runtime::new().run(|| {
        let fs = fs_on(profiles::intel_530_sata());
        let opts = DbOptions {
            write_buffer_size: 64 << 10,
            enable_wal: false,
            ..DbOptions::default()
        };
        let db = Db::open(Arc::clone(&fs), opts).unwrap();
        // Leave 16 pages (64 KiB) free: far less than one allocation chunk,
        // so the next SST build hits genuine DeviceFull.
        let free = fs.free_space_pages();
        fs.shrink_capacity_pages(free - 16);

        let mut first_error = None;
        for i in 0..2000 {
            if let Err(e) = db.put(key(i).as_bytes(), &[b'v'; 100]) {
                first_error = Some(e);
                break;
            }
        }
        let err = match first_error {
            Some(e) => e,
            // All puts fit in memtables before the flush failed; the flush
            // barrier must surface the error instead.
            None => db.flush().expect_err("flush must fail on a full disk"),
        };
        assert!(
            matches!(err, DbError::ReadOnly(_)),
            "clients see the read-only fail-fast error, got {err:?}"
        );
        let m = db.metrics();
        assert!(m.read_only, "legacy DeviceFull means read-only");
        assert_eq!(
            m.tickers.get(Ticker::EnospcStalls),
            0,
            "no soft stall without the watcher"
        );
        assert!(m.tickers.get(Ticker::ReadOnlyTransitions) >= 1);

        // Space returns; an explicit resume re-runs the failed flush.
        assert!(fs.restore_capacity() > 0);
        db.resume().unwrap();
        assert!(!db.metrics().read_only);
        db.put(b"after-resume", b"ok").unwrap();
        assert_eq!(db.get(key(0).as_bytes()).unwrap(), Some(vec![b'v'; 100]));
        db.close();
    });
}

/// The tentpole acceptance loop: on every device profile, fill past the
/// space cap. Writers stall (zero client errors), `EnospcStalls` fires,
/// and raising the cap auto-resumes them within one watcher poll. Every
/// acknowledged write is readable afterwards.
#[test]
fn fill_to_capacity_stalls_never_errors_and_auto_resumes_on_all_profiles() {
    for (name, profile) in PROFILES {
        Runtime::new().run(|| {
            let fs = fs_on(profile());
            let db = Arc::new(Db::open(Arc::clone(&fs), space_opts()).unwrap());

            const N: usize = 3000; // ~330 KiB of unique keys, cap is 256 KiB
            let writer = {
                let db = Arc::clone(&db);
                spawn("filler", move || {
                    let mut acked = 0usize;
                    for i in 0..N {
                        match db.put(key(i).as_bytes(), &[b'v'; 100]) {
                            Ok(()) => acked += 1,
                            Err(e) => return (acked, Some(format!("{e}"))),
                        }
                    }
                    (acked, None)
                })
            };

            wait_until("the capacity stall", 30_000_000_000, 200_000, || {
                db.metrics().tickers.get(Ticker::EnospcStalls) >= 1
            });
            let m = db.metrics();
            assert!(!m.read_only, "[{name}] a soft stall is not read-only");
            assert!(
                m.background_error.is_some(),
                "[{name}] the stall is visible as a background error"
            );

            // Headroom returns: raise the cap, then the watcher must
            // auto-resume within one poll interval.
            let resumes0 = m.tickers.get(Ticker::BackgroundAutoResumes);
            let t_raise = now_nanos();
            db.set_max_allowed_space_bytes(1 << 30);
            wait_until("the auto-resume", 10_000_000_000, 50_000, || {
                db.metrics().tickers.get(Ticker::BackgroundAutoResumes) > resumes0
            });
            let resume_latency = now_nanos() - t_raise;
            assert!(
                resume_latency <= 2 * POLL_NS,
                "[{name}] auto-resume took {resume_latency}ns, bound is one poll ({POLL_NS}ns)"
            );

            let (acked, error) = writer.join();
            assert_eq!(error, None, "[{name}] stalled writers never see errors");
            assert_eq!(acked, N, "[{name}] every write completes after resume");

            let m = db.metrics();
            assert_eq!(m.tickers.get(Ticker::ReadOnlyTransitions), 0, "[{name}]");
            assert!(m.enospc_stall.count >= 1, "[{name}] stall time is recorded");
            assert!(m.enospc_stall.max_ns > 0, "[{name}]");
            for i in 0..N {
                assert_eq!(
                    db.get(key(i).as_bytes()).unwrap(),
                    Some(vec![b'v'; 100]),
                    "[{name}] key {i} must be readable"
                );
            }
            db.close();
        });
    }
}

/// Obsolete SSTs are renamed into `trash/` and reaped at the configured
/// rate: the backlog is visible while it lasts, drains to zero, every
/// queued byte is counted as reclaimed, and no file leaks.
#[test]
fn trash_reclamation_is_paced_and_drains_to_zero() {
    Runtime::new().run(|| {
        let fs = fs_on(profiles::optane_900p());
        let db = Db::open(Arc::clone(&fs), churn_opts(256 << 10)).unwrap();

        // Overwrite churn: every round rewrites the same keyspace, so each
        // compaction obsoletes its inputs.
        for round in 0..6u32 {
            for i in 0..300usize {
                let v = format!("round{round:02}-{i:04}");
                db.put(key(i).as_bytes(), v.as_bytes()).unwrap();
            }
            db.flush().unwrap();
        }
        db.wait_for_compactions();

        let queued = db.metrics().tickers.get(Ticker::TrashQueueBytes);
        assert!(queued > 0, "compaction churn must have trashed inputs");

        // Drained means the counters converge: a zero backlog alone can
        // still have one popped entry in the reaper's pacing sleep.
        wait_until(
            "the trash backlog to drain",
            120_000_000_000,
            5_000_000,
            || {
                let t = db.metrics().tickers;
                t.get(Ticker::SpaceReclaimedBytes) == t.get(Ticker::TrashQueueBytes)
            },
        );
        let m = db.metrics();
        assert_eq!(m.trash_queue_bytes, 0);
        assert_eq!(db.trash_queued_bytes(), 0);
        let trash_prefix = format!("{}/trash/", db.options().db_path);
        assert!(
            fs.list(&trash_prefix).is_empty(),
            "trash/ must be empty after the drain"
        );

        // The live data is untouched by reclamation.
        for i in 0..300usize {
            let want = format!("round05-{i:04}");
            assert_eq!(db.get(key(i).as_bytes()).unwrap(), Some(want.into_bytes()));
        }
        db.close();
    });
}

/// A failed trash delete is the reaper's own error, and its next successful
/// delete clears it: once the backlog drains the database reports no error,
/// and `resume` on it has nothing to do (no memtable switch, no flush).
/// With the reaper off, a trash file whose delete failed at open is retried
/// by the next compaction's purge, which clears the error the same way.
#[test]
fn a_failed_trash_delete_clears_at_the_reapers_next_delete() {
    /// Overwrite rounds: each compaction obsoletes its inputs.
    fn churn(db: &Db, rounds: u32) {
        for round in 0..rounds {
            for i in 0..300usize {
                let v = format!("round{round:02}-{i:04}");
                db.put(key(i).as_bytes(), v.as_bytes()).unwrap();
            }
            db.flush().unwrap();
        }
        db.wait_for_compactions();
    }
    /// No error, no backlog, and `resume` leaves the database as it is.
    fn assert_healthy(db: &Db) {
        let m = db.metrics();
        assert!(!m.read_only);
        assert!(
            m.background_error.is_none(),
            "a later delete cleared the reaper's error, got {:?}",
            m.background_error
        );
        assert_eq!(m.trash_queue_bytes, 0);
        db.put(b"unflushed", b"v").unwrap();
        db.resume().unwrap();
        assert_eq!(
            db.metrics().tickers.get(Ticker::FlushCount),
            m.tickers.get(Ticker::FlushCount),
            "resume on a healthy database flushes nothing"
        );
        assert!(db.shape().mutable_bytes > 0, "nor switches the memtable");
    }
    let trash_fault = || FaultPlan {
        path_filter: Some("trash".to_owned()),
        fail_nth_delete: Some(1),
        ..FaultPlan::default()
    };
    Runtime::new().run(|| {
        let fs = fs_on(profiles::optane_900p());
        let opts = churn_opts(256 << 10);
        let db = Db::open(Arc::clone(&fs), opts).unwrap();
        fs.set_fault_plan(trash_fault());
        churn(&db, 6);
        wait_until(
            "the trash backlog to drain",
            120_000_000_000,
            5_000_000,
            || {
                let t = db.metrics().tickers;
                t.get(Ticker::SpaceReclaimedBytes) == t.get(Ticker::TrashQueueBytes)
            },
        );
        assert_eq!(fs.stats().injected_errors, 1, "one trash delete failed");
        assert_healthy(&db);
        let trash = format!("{}/trash/", db.options().db_path);
        db.close();

        // The reaper off: a file a reaper-on run left in trash/ fails its
        // first delete at open.
        let left = fs.create(&format!("{trash}999999.sst")).unwrap();
        left.append(&[0u8; 4096]).unwrap();
        left.sync().unwrap();
        fs.set_fault_plan(trash_fault());
        let db = Db::open(Arc::clone(&fs), churn_opts(0)).unwrap();
        let m = db.metrics();
        let failed = m.background_error.map(|e| (e.op, e.severity));
        assert_eq!(
            failed,
            Some((BackgroundOp::TrashReap, ErrorSeverity::Retryable))
        );
        assert_eq!(m.trash_queue_bytes, 4096, "the failed file stays queued");
        churn(&db, 2);
        assert!(fs.list(&trash).is_empty(), "the purge retried it");
        assert_healthy(&db);
        db.close();
    });
}

/// A write the WAL refused (`DeviceFull` on its first extent) is not in the
/// database — not now, and not after a reopen replays the log: the refused
/// record must not have reached the file. No phantom.
#[test]
fn refused_wal_append_leaves_no_phantom_after_reopen() {
    Runtime::new().run(|| {
        let fs = fs_on(profiles::intel_750_pcie());
        let db = Db::open(Arc::clone(&fs), DbOptions::default()).unwrap();
        fs.set_fault_plan(FaultPlan {
            fail_nth_alloc: Some(1),
            ..FaultPlan::default()
        });
        let err = db.put(b"a", b"1").expect_err("the WAL's first extent");
        assert!(err.to_string().contains("device is full"), "got {err}");
        assert_eq!(fs.stats().injected_errors, 1, "the fault fired");
        assert_eq!(db.get(b"a").unwrap(), None);
        // A failed WAL write makes the database read-only until `resume`
        // retires the log it failed in.
        assert!(matches!(db.put(b"b", b"2"), Err(DbError::ReadOnly(_))));
        db.resume().unwrap();
        db.put(b"b", b"2").expect("the fault was one-shot");
        db.close();

        let db = Db::open(Arc::clone(&fs), DbOptions::default()).unwrap();
        assert_eq!(db.get(b"a").unwrap(), None, "never acked, so never there");
        assert_eq!(db.get(b"b").unwrap(), Some(b"2".to_vec()));
        db.close();
    });
}

/// The free-space and fragmentation gauges surface through `Db::metrics`
/// and move in the right directions.
#[test]
fn space_gauges_surface_fragmentation_in_metrics() {
    Runtime::new().run(|| {
        let fs = fs_on(profiles::intel_530_sata());
        let db = Db::open(
            Arc::clone(&fs),
            DbOptions {
                write_buffer_size: 64 << 10,
                ..DbOptions::default()
            },
        )
        .unwrap();
        for i in 0..500usize {
            db.put(key(i).as_bytes(), &[b'v'; 100]).unwrap();
        }
        db.flush().unwrap();

        let m = db.metrics();
        assert!(m.live_sst_bytes > 0, "a flushed SST shows up as live bytes");
        assert!(m.free_space_bytes > 0);
        assert!(m.largest_free_extent_bytes > 0);
        assert!(
            m.largest_free_extent_bytes <= m.free_space_bytes,
            "one extent cannot exceed the total free space"
        );
        let st = fs.stats();
        assert!(st.free_space_pages <= st.capacity_pages);
        assert_eq!(
            st.largest_free_extent_pages * 4096,
            m.largest_free_extent_bytes
        );

        // A scripted shrink moves the gauge; restore brings it back.
        let before = m.free_space_bytes;
        fs.shrink_capacity_pages(1024);
        assert!(db.metrics().free_space_bytes < before);
        fs.restore_capacity();
        assert_eq!(db.metrics().free_space_bytes, before);
        db.close();
    });
}

/// On every device profile sized to four times the dataset, with the space
/// watcher off, a 48 MiB fill and two seconds of 90 %-write churn never run
/// the device out of space. A finished file gives back the unused tail of
/// its last 1 MiB extent, so the device peaks near 2–2.6× the dataset; when
/// every file kept that tail, use reached the 4× capacity and the database
/// turned read-only ("simulated device is full").
#[test]
fn a_device_four_times_the_dataset_holds_fill_and_churn() {
    const KEYS: u64 = 48 << 10;
    const VALUE: usize = 1024;
    let dataset = KEYS * (VALUE as u64 + 16);
    for (name, profile) in PROFILES {
        Runtime::new().run(|| {
            let device = profile().with_capacity_bytes(4 * dataset);
            let tb = Testbed::new(device, DbOptions::default(), dataset).unwrap();
            fill_db(&tb.db, KEYS, VALUE, 46).unwrap();
            let spec = WorkloadSpec {
                key_count: KEYS,
                value_size: VALUE,
                write_fraction: 0.9,
                duration: Duration::from_secs(2),
                seed: 46,
                ..WorkloadSpec::default()
            };
            // The driver panics on a refused put.
            run_workload(&tb.db, &spec);
            let m = tb.db.metrics();
            assert!(
                !m.read_only && m.background_error.is_none(),
                "[{name}] the device ran out of space: {:?}",
                m.background_error
            );
            tb.close();
        });
    }
}

/// Puts `count` 512-byte values under keys `key000000`, `key000001`, …
fn put_512(db: &Db, count: u32) {
    for i in 0..count {
        db.put(format!("key{i:06}").as_bytes(), &[b'v'; 512])
            .unwrap();
    }
}

/// Live SST bytes: what the space cap counts besides the trash backlog.
fn live_bytes(db: &Db) -> u64 {
    db.shape().bytes_per_level.iter().sum()
}

/// 4,000 puts settled into [0, 4, 31] files per level on Optane, a space
/// cap 150,000 bytes over the live set, then two flushes of 110 puts each:
/// the L0→L1 compaction they warrant needs more headroom than the cap
/// leaves, with no trash (the reaper is off) and no flush reservation that
/// could free any.
fn db_with_a_deferred_compaction() -> Arc<Db> {
    let db = Db::open(fs_on(profiles::optane_900p()), churn_opts(0)).unwrap();
    put_512(&db, 4_000);
    db.flush().unwrap();
    db.wait_for_compactions();
    assert_eq!(db.shape().files_per_level[..3], [0, 4, 31]);
    assert_eq!(live_bytes(&db), 2_126_267);
    db.set_max_allowed_space_bytes(live_bytes(&db) + 150_000);
    for _ in 0..2 {
        put_512(&db, 110);
        db.flush().unwrap();
    }
    assert_eq!(db.num_l0_files(), 2);
    Arc::new(db)
}

/// The wait used to re-pick every 200 µs forever once the cap deferred
/// every eligible compaction with nothing left to free headroom. After it
/// returns, a raised cap lets the next wait compact.
#[test]
fn a_compaction_the_cap_defers_for_good_ends_the_wait() {
    Runtime::new().run(|| {
        let db = db_with_a_deferred_compaction();
        let compactions = db.stats().ticker(Ticker::CompactionCount);
        let returned = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (db, returned) = (Arc::clone(&db), Arc::clone(&returned));
            spawn("waiter", move || {
                db.wait_for_compactions();
                returned.store(true, Ordering::Relaxed);
            })
        };
        sleep_nanos(10_000_000_000);
        assert!(
            returned.load(Ordering::Relaxed),
            "the wait still spins on a deferred compaction after 10 s"
        );
        waiter.join();
        assert_eq!(db.num_l0_files(), 2, "nothing could compact");
        let deferred = db.stats().ticker(Ticker::SpaceCompactionsDeferred);
        assert!((1..100).contains(&deferred), "{deferred} deferrals");

        db.set_max_allowed_space_bytes(4 * live_bytes(&db));
        db.wait_for_compactions();
        assert_eq!(db.num_l0_files(), 0);
        assert!(db.stats().ticker(Ticker::CompactionCount) > compactions);
        db.close();
    });
}

#[test]
fn a_deferral_the_reaper_drains_still_compacts_before_the_wait_returns() {
    Runtime::new().run(|| {
        let db = Db::open(fs_on(profiles::optane_900p()), churn_opts(256 << 10)).unwrap();
        put_512(&db, 4_000);
        db.flush().unwrap();
        db.wait_for_compactions();
        // Hold the next L0 compaction until the cap is in place.
        db.set_l0_compaction_trigger(100);
        for _ in 0..2 {
            put_512(&db, 110);
            db.flush().unwrap();
        }
        let shape = db.shape();
        let trash = db.trash_queued_bytes();
        let most_input = shape.bytes_per_level[0] + shape.bytes_per_level[1];
        assert!(
            trash > 2 * most_input,
            "{trash} B of trash, {most_input} B of input"
        );
        // With the trash the compaction cannot fit; once half of it is
        // reaped, it can.
        db.set_max_allowed_space_bytes(live_bytes(&db) + trash / 2);
        db.set_l0_compaction_trigger(2);
        let compactions = db.stats().ticker(Ticker::CompactionCount);
        db.wait_for_compactions();
        assert!(db.stats().ticker(Ticker::SpaceCompactionsDeferred) > 0);
        assert_eq!(db.num_l0_files(), 0);
        assert!(db.stats().ticker(Ticker::CompactionCount) > compactions);
        db.close();
    });
}
