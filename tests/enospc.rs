//! Full-disk survival suite.
//!
//! The contract under test, from both directions:
//!
//! * **Legacy** (space subsystem off): real capacity exhaustion flips the
//!   database read-only — clients get errors, nothing panics, and an
//!   explicit [`Db::resume`] after space returns makes it writable again.
//! * **Soft ENOSPC** (watcher + cap on): a capacity overrun *stalls*
//!   writers — no client ever sees an error — and the `SpaceWatcher`
//!   auto-resumes them within one poll interval of headroom returning,
//!   on every device profile the study models.
//! * A power cut at the capacity edge loses no acknowledged write: the
//!   stall escalates so parked writers fail fast instead of hanging, and
//!   the reopened database holds exactly the acked prefix (plus at most
//!   the one in-flight key).
//! * Obsolete SSTs ride through `trash/` and are reaped at the configured
//!   rate; the backlog drains to zero and every queued byte is accounted
//!   as reclaimed.
//! * A failed WAL purge is counted and retried instead of being silently
//!   swallowed, and never makes the database read-only.
//! * A write refused for lack of space leaves no bytes behind for a later
//!   recovery to replay, and the database read-only until `Db::resume`.
//!
//! Scripted ENOSPC with and without the watcher, and a failed WAL purge,
//! are also values of the fault axis of `crates/engine/tests/oracle.rs`.

use std::sync::Arc;
use xlsm_suite::device::{profiles, DeviceProfile, SimDevice};
use xlsm_suite::engine::{BackgroundOp, Db, DbError, DbOptions, ErrorSeverity, Ticker};
use xlsm_suite::sim::{now_nanos, sleep_nanos, spawn, Runtime};
use xlsm_suite::simfs::{FaultPlan, FsOptions, SimFs};

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

/// Power cut at the capacity edge, on every profile: the database is
/// mid-stall when the lights go out. Parked writers fail fast (the stall
/// escalates — no hang), and after restore + reopen the store holds every
/// acknowledged write and nothing beyond the one in-flight key.
#[test]
fn power_cut_at_the_capacity_edge_loses_no_acked_write() {
    for (name, profile) in PROFILES {
        Runtime::new().run(|| {
            let fs = fs_on(profile());
            let opts = DbOptions {
                wal_sync: true, // acked ⇒ durable, so the shadow model is exact
                ..space_opts()
            };
            let db = Arc::new(Db::open(Arc::clone(&fs), opts.clone()).unwrap());

            const N: usize = 4000;
            let writer = {
                let db = Arc::clone(&db);
                spawn("edge-filler", move || {
                    let mut acked = 0usize;
                    for i in 0..N {
                        if db.put(key(i).as_bytes(), &[b'v'; 100]).is_err() {
                            return acked;
                        }
                        acked += 1;
                    }
                    acked
                })
            };

            wait_until("the capacity stall", 60_000_000_000, 200_000, || {
                db.metrics().tickers.get(Ticker::EnospcStalls) >= 1
            });
            fs.power_cut();
            // Liveness: the watcher observes the dead device and escalates,
            // so the parked writer errors out instead of hanging forever.
            let acked = writer.join();
            assert!(acked < N, "[{name}] the cut must interrupt the workload");
            db.close();

            fs.power_restore();
            let reopened = DbOptions {
                max_allowed_space_bytes: 1 << 30, // space "freed" while down
                ..opts
            };
            let db2 = Db::open(Arc::clone(&fs), reopened).unwrap();
            for i in 0..acked {
                assert_eq!(
                    db2.get(key(i).as_bytes()).unwrap(),
                    Some(vec![b'v'; 100]),
                    "[{name}] acked key {i} lost across the capacity-edge cut"
                );
            }
            // Nothing beyond the acked prefix plus the single in-flight op.
            let mut scan = db2.scan().unwrap();
            if scan.seek_to_first().unwrap() {
                loop {
                    let k = String::from_utf8(scan.key().to_vec()).unwrap();
                    let i: usize = k.trim_start_matches("key").parse().unwrap();
                    assert!(
                        i <= acked,
                        "[{name}] phantom key {k} beyond the in-flight frontier"
                    );
                    if !scan.next().unwrap() {
                        break;
                    }
                }
            }
            db2.put(b"post-recovery", b"ok").unwrap();
            db2.close();
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
        let opts = DbOptions {
            write_buffer_size: 64 << 10,
            target_file_size_base: 64 << 10,
            max_bytes_for_level_base: 256 << 10,
            level0_file_num_compaction_trigger: 2,
            sst_delete_rate_bytes_per_sec: 256 << 10,
            ..DbOptions::default()
        };
        let db = Db::open(Arc::clone(&fs), opts).unwrap();

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
        let opts = DbOptions {
            write_buffer_size: 64 << 10,
            target_file_size_base: 64 << 10,
            max_bytes_for_level_base: 256 << 10,
            level0_file_num_compaction_trigger: 2,
            sst_delete_rate_bytes_per_sec: 256 << 10,
            ..DbOptions::default()
        };
        let db = Db::open(Arc::clone(&fs), opts.clone()).unwrap();
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
        let inline = DbOptions {
            sst_delete_rate_bytes_per_sec: 0,
            ..opts
        };
        let db = Db::open(Arc::clone(&fs), inline).unwrap();
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

/// A job's success clears only its own error. One scripted ENOSPC stalls a
/// flush, then one retryable read fails under the scrubber, whose retry
/// succeeds while the flush is still stalled. The stall must still end at
/// the watcher's next poll: the flush lands within two polls of the stall,
/// a later write is acknowledged, and the database ends with no error.
#[test]
fn a_retried_scrub_leaves_an_enospc_stall_to_the_watcher() {
    const SLOW_POLL_NS: u64 = 200_000_000;
    Runtime::new().run(|| {
        let fs = fs_on(profiles::intel_750_pcie());
        let opts = DbOptions {
            write_buffer_size: 64 << 10,
            enable_wal: false, // the next allocation is the SST build's
            scrub_rate_bytes_per_sec: 64 << 20,
            space_poll_interval_ns: SLOW_POLL_NS,
            ..DbOptions::default()
        };
        let db = Arc::new(Db::open(Arc::clone(&fs), opts).unwrap());
        for i in 0..400usize {
            db.put(key(i).as_bytes(), &[b'v'; 100]).unwrap();
            if i == 199 {
                db.flush().unwrap(); // a table for the scrubber to read
            }
        }
        fs.set_fault_plan(FaultPlan {
            path_filter: Some(".sst".to_owned()),
            fail_nth_alloc: Some(1),
            fail_nth_read: Some(1),
            ..FaultPlan::default()
        });
        let flusher = {
            let db = Arc::clone(&db);
            spawn("flusher", move || db.flush())
        };
        wait_until("the capacity stall", SLOW_POLL_NS, 100_000, || {
            db.metrics().tickers.get(Ticker::EnospcStalls) == 1
        });
        wait_until(
            "the stalled flush to land",
            2 * SLOW_POLL_NS,
            1_000_000,
            || db.shape().immutables == 0,
        );
        flusher.join().expect("a transient ENOSPC must not surface");
        let m = db.metrics();
        assert_eq!(fs.stats().injected_errors, 2, "both faults fired");
        assert!(
            m.tickers.get(Ticker::BackgroundErrorRetries) >= 1,
            "the scrub retried"
        );
        db.put(b"after-the-stall", b"ok").unwrap();
        let m = db.metrics();
        assert!(!m.read_only);
        assert!(m.background_error.is_none(), "got {:?}", m.background_error);
        db.close();
    });
}

/// A scripted `DeviceFull` on the flush path takes the soft route when the
/// watcher is on: the flush stalls, the watcher sees the device actually
/// has space, and the retried flush completes — the client-visible
/// `Db::flush` returns `Ok` and the database was never read-only.
#[test]
fn scripted_device_full_takes_the_soft_path_and_auto_resumes() {
    Runtime::new().run(|| {
        let fs = fs_on(profiles::intel_750_pcie());
        let opts = DbOptions {
            write_buffer_size: 64 << 10,
            enable_wal: false, // the next allocation is the SST build's
            space_poll_interval_ns: POLL_NS,
            ..DbOptions::default()
        };
        let db = Db::open(Arc::clone(&fs), opts).unwrap();
        for i in 0..200usize {
            db.put(key(i).as_bytes(), &[b'v'; 100]).unwrap();
        }
        fs.set_fault_plan(FaultPlan {
            fail_nth_alloc: Some(1),
            ..FaultPlan::default()
        });
        db.flush()
            .expect("a transient ENOSPC must not surface to clients");

        let m = db.metrics();
        assert_eq!(fs.stats().injected_errors, 1, "the fault fired");
        assert_eq!(m.tickers.get(Ticker::EnospcStalls), 1);
        assert!(m.tickers.get(Ticker::BackgroundAutoResumes) >= 1);
        assert_eq!(m.tickers.get(Ticker::ReadOnlyTransitions), 0);
        assert!(!m.read_only);
        assert!(m.background_error.is_none(), "the stall was cleared");
        for i in 0..200usize {
            assert_eq!(db.get(key(i).as_bytes()).unwrap(), Some(vec![b'v'; 100]));
        }
        db.close();
    });
}

/// The same scripted `DeviceFull` without the watcher preserves the legacy
/// contract: hard error, read-only, explicit resume required.
#[test]
fn scripted_device_full_is_hard_without_the_watcher() {
    Runtime::new().run(|| {
        let fs = fs_on(profiles::intel_750_pcie());
        let opts = DbOptions {
            write_buffer_size: 64 << 10,
            enable_wal: false,
            ..DbOptions::default()
        };
        let db = Db::open(Arc::clone(&fs), opts).unwrap();
        for i in 0..200usize {
            db.put(key(i).as_bytes(), &[b'v'; 100]).unwrap();
        }
        fs.set_fault_plan(FaultPlan {
            fail_nth_alloc: Some(1),
            ..FaultPlan::default()
        });
        let err = db
            .flush()
            .expect_err("DeviceFull is hard without the watcher");
        assert!(matches!(err, DbError::ReadOnly(_)), "got {err:?}");
        let m = db.metrics();
        assert!(m.read_only);
        assert_eq!(m.tickers.get(Ticker::EnospcStalls), 0);
        assert!(m.tickers.get(Ticker::ReadOnlyTransitions) >= 1);

        db.resume().unwrap(); // the fault was one-shot; the retry succeeds
        assert!(!db.metrics().read_only);
        for i in 0..200usize {
            assert_eq!(db.get(key(i).as_bytes()).unwrap(), Some(vec![b'v'; 100]));
        }
        db.put(b"after-resume", b"ok").unwrap();
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

/// A failed WAL purge is no longer silently swallowed: it bumps
/// `WalPurgeFailures`, records a background error, leaves the database
/// writable, and the next purge pass retries the delete and clears the
/// error.
#[test]
fn wal_purge_failures_are_counted_and_retried() {
    Runtime::new().run(|| {
        let fs = fs_on(profiles::optane_900p());
        let wal_fs = fs_on(profiles::nvm_dram());
        let opts = DbOptions {
            write_buffer_size: 64 << 10,
            wal_fs: Some(Arc::clone(&wal_fs)),
            ..DbOptions::default()
        };
        let db = Db::open(Arc::clone(&fs), opts).unwrap();
        wal_fs.set_fault_plan(FaultPlan {
            path_filter: Some(".log".to_owned()),
            fail_nth_delete: Some(1),
            retryable: false,
            ..FaultPlan::default()
        });

        db.put(b"k1", b"v1").unwrap();
        db.flush().unwrap(); // rotates the WAL, then fails to purge the old one
        let m = db.metrics();
        assert_eq!(m.tickers.get(Ticker::WalPurgeFailures), 1);
        assert!(
            matches!(&m.background_error, Some(b) if b.op == BackgroundOp::WalPurge),
            "the purge failure is recorded, got {:?}",
            m.background_error
        );
        assert!(!m.read_only, "a failed WAL purge never blocks writes");
        db.put(b"k2", b"v2").unwrap();

        db.flush().unwrap(); // the purge pass retries and succeeds
        let m = db.metrics();
        assert_eq!(m.tickers.get(Ticker::WalPurgeFailures), 1, "no new failure");
        assert!(
            m.background_error.is_none(),
            "a clean pass clears the error"
        );
        let prefix = format!("{}/", db.options().db_path);
        let logs: Vec<String> = wal_fs
            .list(&prefix)
            .into_iter()
            .filter(|p| p.ends_with(".log"))
            .collect();
        assert_eq!(logs.len(), 1, "only the active WAL remains: {logs:?}");
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
