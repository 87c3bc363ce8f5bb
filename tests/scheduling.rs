//! Cross-crate integration: the compaction-scheduling subsystem.
//!
//! Three properties the scheduler PR promises:
//!
//! * **equivalence** — which level the compactor services next (and how
//!   fast the background I/O runs) must never change the *logical*
//!   database: every policy ends a fixed workload with byte-identical
//!   contents, including deletions (a policy that resurrects a tombstoned
//!   key by compacting levels in the wrong order fails this);
//! * **fairness** — the deficit-based picker bounds per-level starvation:
//!   an eligible level is serviced within a bounded number of picks no
//!   matter how hot another level runs;
//! * **budget** — the shared background-I/O token bucket never admits more
//!   bytes than `rate × elapsed` virtual time, under any interleaving of
//!   flush- and compaction-priority acquires.

use std::sync::Arc;
use xlsm_suite::device::{profiles, SimDevice};
use xlsm_suite::engine::{
    BgIoLimiter, BgIoPriority, CompactionScheduler, Db, DbOptions, LevelPicker,
};
use xlsm_suite::sim::Runtime;
use xlsm_suite::simfs::{FsOptions, SimFs};

const KEYS: u64 = 400;
const OPS: u64 = 4000;

fn key(k: u64) -> Vec<u8> {
    format!("sched-{k:06}").into_bytes()
}

/// Deterministic xorshift so every policy replays the exact same op tape.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Applies a fixed operation sequence — puts whose value depends on the op
/// index (so the final value per key is decided by the tape, not by
/// scheduling), deletions, and periodic explicit flushes to pile up
/// Level-0 files — then settles compactions and dumps the logical state.
fn final_state(opts: DbOptions) -> Vec<u8> {
    Runtime::new().run(move || {
        let device = SimDevice::shared(profiles::optane_900p());
        let fs = SimFs::new(device as _, FsOptions::default());
        let db = Arc::new(Db::open(Arc::clone(&fs), opts).unwrap());
        let mut rng = 0x5EEDu64;
        for i in 0..OPS {
            let k = xorshift(&mut rng) % KEYS;
            if xorshift(&mut rng).is_multiple_of(10) {
                db.delete(&key(k)).unwrap();
            } else {
                let value = format!("v-{k}-{i}-{}", "x".repeat((i % 40) as usize));
                db.put(&key(k), value.as_bytes()).unwrap();
            }
            if i % 250 == 249 {
                db.flush().unwrap();
            }
        }
        db.flush().unwrap();
        db.wait_for_compactions();
        let mut dump = Vec::new();
        for k in 0..KEYS {
            dump.extend_from_slice(&key(k));
            match db.get(&key(k)).unwrap() {
                Some(v) => {
                    dump.push(b'=');
                    dump.extend_from_slice(&v);
                }
                None => dump.push(b'!'),
            }
            dump.push(b'\n');
        }
        db.close();
        dump
    })
}

/// A geometry small enough that the op tape drives multi-level compaction
/// (so the policies genuinely diverge in *which* compactions run when).
fn tight_opts(scheduler: CompactionScheduler) -> DbOptions {
    DbOptions {
        compaction_scheduler: scheduler,
        write_buffer_size: 64 << 10,
        target_file_size_base: 64 << 10,
        max_bytes_for_level_base: 256 << 10,
        level0_file_num_compaction_trigger: 2,
        ..DbOptions::default()
    }
}

#[test]
fn every_policy_yields_byte_identical_final_state() {
    let greedy = final_state(tight_opts(CompactionScheduler::Greedy));
    let greedy_again = final_state(tight_opts(CompactionScheduler::Greedy));
    assert_eq!(
        greedy, greedy_again,
        "same policy, same tape must be deterministic"
    );
    let round_robin = final_state(tight_opts(CompactionScheduler::RoundRobin));
    assert_eq!(
        greedy, round_robin,
        "round-robin scheduling changed the logical database"
    );
    let fair = final_state(DbOptions {
        bg_io_rate_bytes_per_sec: 8 << 20,
        bg_io_auto_tune: true,
        ..tight_opts(CompactionScheduler::Fair)
    });
    assert_eq!(
        greedy, fair,
        "fair scheduling + I/O budget changed the logical database"
    );
}

#[test]
fn fair_picker_bounds_per_level_starvation() {
    // Level 1 stays pinned far hotter than level 2; greedy would starve
    // level 2 forever. The deficit picker must service every eligible
    // level within K consecutive picks.
    const K: usize = 8;
    let mut fair = LevelPicker::new(CompactionScheduler::Fair);
    let mut since_l2 = 0usize;
    let mut l2_picks = 0usize;
    for round in 0..200 {
        // Scores wobble so the test is not a fixed-point special case.
        let hot = 5.0 + (round % 3) as f64;
        let scores = [0.0, hot, 1.2, 0.0];
        let picked = fair.pick_level(&scores).expect("eligible levels exist");
        assert!(picked == 1 || picked == 2, "only eligible levels");
        if picked == 2 {
            since_l2 = 0;
            l2_picks += 1;
        } else {
            since_l2 += 1;
            assert!(
                since_l2 < K,
                "level 2 (score 1.2) starved for {since_l2} consecutive picks"
            );
        }
    }
    assert!(l2_picks >= 200 / K, "level 2 serviced implausibly rarely");

    // Greedy, for contrast, starves level 2 on the same score stream.
    let mut greedy = LevelPicker::new(CompactionScheduler::Greedy);
    assert!((0..200).all(|_| greedy.pick_level(&[0.0, 5.0, 1.2, 0.0]) == Some(1)));
}

#[test]
fn limiter_never_admits_more_than_budget_times_elapsed() {
    const RATE: u64 = 4 << 20; // 4 MiB per virtual second
    Runtime::new().run(|| {
        let limiter = BgIoLimiter::new(RATE, None);
        assert!(limiter.enabled());
        let t0 = xlsm_suite::sim::now_nanos();
        let mut admitted: u64 = 0;
        let mut rng = 0xB06E7u64;
        for i in 0..64 {
            let bytes = 1 + xorshift(&mut rng) % (2 << 20);
            let pri = if i % 3 == 0 {
                BgIoPriority::Flush
            } else {
                BgIoPriority::Compaction
            };
            limiter.acquire(bytes, pri);
            admitted += bytes;
            let elapsed = (xlsm_suite::sim::now_nanos() - t0) as u128;
            assert!(
                (admitted as u128) * 1_000_000_000 <= (RATE as u128) * elapsed,
                "admitted {admitted} B after {elapsed} ns exceeds the {RATE} B/s budget"
            );
            // Idle gaps must not bank more than one burst of credit.
            if i % 16 == 15 {
                xlsm_suite::sim::sleep_nanos(3_000_000_000);
            }
        }
    });
}
