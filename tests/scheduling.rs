//! Cross-crate integration: the compaction-scheduling subsystem.
//!
//! Two properties a sequential op tape cannot express (that no policy
//! changes the logical database is `tests/oracle.rs`'s job):
//!
//! * **fairness** — the deficit-based picker bounds per-level starvation:
//!   an eligible level is serviced within a bounded number of picks no
//!   matter how hot another level runs;
//! * **budget** — the shared background-I/O token bucket never admits more
//!   bytes than `rate × elapsed` virtual time, under any interleaving of
//!   flush- and compaction-priority acquires.

use xlsm_suite::engine::{BgIoLimiter, BgIoPriority, CompactionScheduler, LevelPicker};
use xlsm_suite::sim::Runtime;

/// Deterministic xorshift for the limiter's request sizes.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
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
