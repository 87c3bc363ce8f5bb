//! Every client op's parts add up to its virtual latency.
//!
//! `get`, `multi_get`, a scan (open, seek, then `next`s) and `put` run on the
//! SATA, PCIe and XPoint profiles, over a deep Level-0 and through an
//! 8-writer group commit applied serially and concurrently. An op's parts
//! are what its thread was charged while it ran (`xlsm_sim::charges`); a
//! follower's are its queue wait plus a copy of its group's. Each op's parts
//! must sum to within 2 % of its latency, and so must the per-kind totals
//! `Db::metrics` records.

use std::sync::Arc;
use xlsm_device::{profiles, DeviceProfile, SimDevice};
use xlsm_engine::{Db, DbOptions, Ticker};
use xlsm_sim::{charges, now_nanos, spawn, Charges, Class, Nanos, Runtime};
use xlsm_simfs::{FsOptions, SimFs};

fn assert_reconciles(what: &str, latency: Nanos, parts: Charges) {
    let accounted = parts.total();
    assert!(
        latency.abs_diff(accounted) * 50 <= latency,
        "{what}: latency {latency} ns, parts {accounted} ns: {parts:?}"
    );
}

/// Runs `op` on this thread and checks its parts against its latency.
fn measured<T>(what: &str, op: impl FnOnce() -> T) -> T {
    let (t0, c0) = (now_nanos(), charges());
    let out = op();
    assert_reconciles(what, now_nanos() - t0, charges() - c0);
    out
}

fn key(k: u64) -> Vec<u8> {
    format!("key{k:06}").into_bytes()
}

fn run(profile: DeviceProfile, concurrent: bool) {
    let name = profile.name;
    Runtime::new().run(move || {
        let fs = SimFs::new(SimDevice::shared(profile), FsOptions::default());
        let opts = DbOptions {
            write_buffer_size: 64 << 10,
            // No compaction: every flush stays a Level-0 file.
            level0_file_num_compaction_trigger: 64,
            level0_slowdown_writes_trigger: 64,
            level0_stop_writes_trigger: 128,
            block_size: 1 << 10,
            block_cache_capacity: 32 << 10,
            allow_concurrent_memtable_write: concurrent,
            ..DbOptions::default()
        };
        let db = Arc::new(Db::open(fs, opts).unwrap());
        let value = vec![b'v'; 200];
        for round in 0..6 {
            for i in 0..300 {
                let k = (i * 7 + round) % 1_000;
                measured("put", || db.put(&key(k), &value).unwrap());
            }
            db.flush().unwrap();
        }
        assert!(db.num_l0_files() >= 6, "{name}: Level-0 is not deep");

        let writers: Vec<_> = (0..8)
            .map(|w| {
                let db = Arc::clone(&db);
                spawn(&format!("writer-{w}"), move || {
                    for i in 0..40 {
                        let k = 2_000 + w * 100 + i;
                        measured("grouped put", || db.put(&key(k), b"grouped").unwrap());
                    }
                })
            })
            .collect();
        for w in writers {
            w.join();
        }

        for i in 0..200 {
            measured("get", || db.get(&key(i * 11)).unwrap());
        }
        for b in 0..20 {
            let keys: Vec<Vec<u8>> = (0..8).map(|j| key(b * 37 + j * 101)).collect();
            let keys: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            measured("multi_get", || db.multi_get(&keys).unwrap());
        }
        for start in [0, 500, 2_300] {
            measured("scan", || {
                let mut scan = db.scan().unwrap();
                let mut more = scan.seek(&key(start)).unwrap();
                for _ in 0..64 {
                    if !more {
                        break;
                    }
                    more = scan.next().unwrap();
                }
            });
        }

        let m = db.metrics();
        for (what, t) in [
            ("gets", m.gets),
            ("multi_gets", m.multi_gets),
            ("writes", m.writes),
        ] {
            assert!(t.ops > 0, "{name}: no {what} recorded");
            assert_reconciles(what, t.total_ns, t.parts);
        }
        assert!(
            m.tickers.get(Ticker::WritesJoinedGroup) > 0,
            "{name}: no group formed"
        );
        assert!(m.writes.parts.get(Class::WriterQueue) > 0);
        let applies = m.tickers.get(Ticker::ConcurrentMemtableApplies);
        assert_eq!(
            applies > 0,
            concurrent,
            "{name}: {applies} concurrent applies"
        );
        assert!(
            m.gets.parts.get(Class::TableLookup) > 0,
            "{name}: gets never reached a table"
        );
        assert!(m.multi_gets.parts.get(Class::MultiGetJoin) > 0);
        db.close();
    });
}

#[test]
fn every_op_reconciles_on_every_profile() {
    for profile in [
        profiles::intel_530_sata(),
        profiles::intel_750_pcie(),
        profiles::optane_900p(),
    ] {
        for concurrent in [false, true] {
            run(profile.clone(), concurrent);
        }
    }
}
