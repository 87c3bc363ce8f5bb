//! The parallelism layer's fan-out: range-partitioned subcompactions launch
//! (or fall back to one range when there is nothing to cut), and a batched
//! MultiGet is not slower in virtual time than the same keys as sequential
//! gets. That both leave answers unchanged is `oracle.rs`'s job.

use std::sync::Arc;
use xlsm_device::{profiles, SimDevice};
use xlsm_engine::{Db, DbOptions, Ticker};
use xlsm_sim::Runtime;
use xlsm_simfs::{FsOptions, SimFs};

fn key(k: u16) -> Vec<u8> {
    format!("key{k:05}").into_bytes()
}

fn value(k: u16, v: u8) -> Vec<u8> {
    format!("val{k:05}-{v:03}-{}", "x".repeat(64)).into_bytes()
}

fn opts(max_subcompactions: usize) -> DbOptions {
    DbOptions {
        write_buffer_size: 64 << 10,
        target_file_size_base: 64 << 10,
        max_bytes_for_level_base: 256 << 10,
        block_cache_capacity: 256 << 10,
        max_subcompactions,
        ..DbOptions::default()
    }
}

fn open(opts: DbOptions) -> (Arc<Db>, Arc<SimFs>) {
    let fs = SimFs::new(
        SimDevice::shared(profiles::optane_900p()),
        FsOptions::default(),
    );
    let db = Db::open(Arc::clone(&fs), opts).unwrap();
    (Arc::new(db), fs)
}

/// Deterministic heavy-write run that must actually fan out: with four
/// subcompactions configured and several megabytes of overlapping updates,
/// at least one compaction gets range-partitioned, and every key stays
/// readable afterwards.
#[test]
fn subcompactions_launch_and_preserve_data() {
    Runtime::new().run(|| {
        let (db, _fs) = open(opts(4));
        let value = vec![b'x'; 512];
        for i in 0..8000u32 {
            db.put(format!("key{:06}", i % 2000).as_bytes(), &value)
                .unwrap();
        }
        db.flush().unwrap();
        db.wait_for_compactions();
        assert!(
            db.stats().ticker(Ticker::SubcompactionsLaunched) > 0,
            "no compaction fanned out despite max_subcompactions=4"
        );
        for i in 0..2000u32 {
            assert_eq!(
                db.get(format!("key{i:06}").as_bytes()).unwrap(),
                Some(value.clone()),
                "key{i:06} lost after subcompacted compaction"
            );
        }
        db.close();
    });
}

/// Two single-block files that end on the same key offer no boundary to cut
/// at: the fan-out has one range, which is the serial merge, counted as a
/// fallback.
#[test]
fn inputs_without_a_cut_point_merge_as_one_range() {
    Runtime::new().run(|| {
        let (db, _fs) = open(DbOptions {
            level0_file_num_compaction_trigger: 2,
            block_size: 1 << 20,
            ..opts(4)
        });
        for round in 0..2u8 {
            for i in 0..20u16 {
                db.put(&key(i), &value(i, round)).unwrap();
            }
            db.flush().unwrap();
        }
        db.wait_for_compactions();
        let stats = db.stats();
        assert_eq!(stats.ticker(Ticker::CompactionCount), 1);
        assert_eq!(stats.ticker(Ticker::SubcompactionFallbacks), 1);
        assert_eq!(stats.ticker(Ticker::SubcompactionsLaunched), 0);
        assert_eq!(db.get(&key(7)).unwrap(), Some(value(7, 1)));
        db.close();
    });
}

/// Batched MultiGet of N keys must not take longer (virtual time) than the
/// same N keys issued as sequential gets once the data lives in SSTs.
#[test]
fn multi_get_batch_beats_sequential_gets() {
    Runtime::new().run(|| {
        let (db, _fs) = open(opts(1));
        for i in 0..2000u16 {
            db.put(&key(i), &value(i, 1)).unwrap();
        }
        db.flush().unwrap();
        db.wait_for_compactions();

        let keys: Vec<Vec<u8>> = (0..16u16).map(|i| key(i * 113)).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();

        let t0 = xlsm_sim::now_nanos();
        for k in &refs {
            db.get(k).unwrap();
        }
        let sequential_ns = xlsm_sim::now_nanos() - t0;

        let t1 = xlsm_sim::now_nanos();
        let batched = db.multi_get(&refs).unwrap();
        let batched_ns = xlsm_sim::now_nanos() - t1;

        assert_eq!(batched.len(), refs.len());
        assert!(batched.iter().all(Option::is_some));
        assert!(
            batched_ns <= sequential_ns,
            "multi_get ({batched_ns} ns) slower than {} sequential gets ({sequential_ns} ns)",
            refs.len()
        );
        assert!(db.stats().ticker(Ticker::MultiGetBatches) > 0);
        db.close();
    });
}
