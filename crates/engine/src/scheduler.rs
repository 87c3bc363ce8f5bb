//! Compaction scheduling and the shared background-I/O budget.
//!
//! The paper's Finding #1 blames write throttling — not the device — for the
//! throughput collapse on fast storage, and its case studies only tune the
//! *reaction* to compaction debt. Luo & Carey ("On Performance Stability in
//! LSM-based Storage Systems") show the other lever: *which* compaction runs
//! next, and how much device bandwidth background work may consume. This
//! module provides both halves:
//!
//! * [`CompactionScheduler`] — the closed choice of which level the next
//!   compaction should service, given the per-level scores from
//!   [`Version::level_scores`](crate::version::Version::level_scores):
//!   `Greedy` (the classic max-score picker, RocksDB's default
//!   `kByCompensatedSize` spirit), `RoundRobin` (RocksDB's `kRoundRobin`
//!   `CompactionPri`) and `Fair` (a deficit-based picker that banks
//!   unserved score so low-pressure levels cannot starve behind a
//!   perpetually hot one). The option is a plain value; the rotation cursor
//!   and the banked credits live in the [`LevelPicker`] each database
//!   builds for itself at open.
//! * [`BgIoLimiter`] — a token bucket in **virtual time** shared by flushes
//!   and compactions (RocksDB's `rate_limiter`), with flush priority and an
//!   optional auto-tuned mode that scales the budget with measured
//!   compaction debt.

use xlsm_sim::Class;

use parking_lot::Mutex;

/// Which level the next compaction services.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CompactionScheduler {
    /// The classic picker: always service the level with the highest score.
    /// Ties break toward the shallower level.
    #[default]
    Greedy,
    /// Rotates through eligible levels in level order, one pick per lap.
    ///
    /// The analogue of RocksDB's `CompactionPri::kRoundRobin`, lifted from
    /// within-level file choice to across-level choice: every level with
    /// debt gets serviced in turn regardless of how its score compares to
    /// the hottest level's.
    RoundRobin,
    /// Deficit-based picker: banks unserved score so no eligible level
    /// starves.
    ///
    /// Each consultation adds every eligible level's current score to its
    /// credit balance, zeroes the balance of levels that dropped below 1.0
    /// (their debt is gone), then services the eligible level with the
    /// largest balance and resets it. A level whose score stays pinned at
    /// `s ≥ 1.0` is therefore picked at least once every `⌈s_max / s⌉ + 1`
    /// consultations no matter how hot another level runs — the starvation
    /// bound `tests/scheduling.rs` asserts.
    Fair,
}

/// One database's level picker: a [`CompactionScheduler`] with the state
/// its policy keeps between picks.
#[derive(Debug)]
pub struct LevelPicker {
    policy: CompactionScheduler,
    /// Round-robin: level picked last; the scan for the next pick starts
    /// just after it.
    last: usize,
    /// Fair: accumulated unserved score per level.
    credits: Vec<f64>,
}

impl LevelPicker {
    /// A picker for `policy` with no history.
    pub fn new(policy: CompactionScheduler) -> LevelPicker {
        LevelPicker {
            policy,
            last: 0,
            credits: Vec::new(),
        }
    }

    /// Returns the level to compact next, or `None` if no level is eligible.
    ///
    /// `scores` holds one entry per LSM level (index = level): L0 is
    /// `files / level0_file_num_compaction_trigger`, deeper levels are
    /// `bytes / target_bytes`, and the last level is always `0.0` (it only
    /// receives). A level is *eligible* iff its score is ≥ 1.0.
    ///
    /// When the chosen level's compaction does not fit under the space cap,
    /// the caller zeroes that level's score and asks again, so the picker is
    /// re-consulted at most once per level per pick.
    pub fn pick_level(&mut self, scores: &[f64]) -> Option<usize> {
        match self.policy {
            CompactionScheduler::Greedy => {
                let mut best = None;
                let mut best_score = 0.0f64;
                for (level, &score) in scores.iter().enumerate() {
                    if score >= 1.0 && score > best_score {
                        best = Some(level);
                        best_score = score;
                    }
                }
                best
            }
            CompactionScheduler::RoundRobin => {
                let n = scores.len();
                let level = (1..=n)
                    .map(|offset| (self.last + offset) % n)
                    .find(|&level| scores[level] >= 1.0)?;
                self.last = level;
                Some(level)
            }
            CompactionScheduler::Fair => {
                self.credits.resize(scores.len(), 0.0);
                let mut best = None;
                let mut best_banked = 0.0f64;
                for (level, &score) in scores.iter().enumerate() {
                    if score >= 1.0 {
                        self.credits[level] += score;
                        if self.credits[level] > best_banked {
                            best = Some(level);
                            best_banked = self.credits[level];
                        }
                    } else {
                        self.credits[level] = 0.0;
                    }
                }
                let level = best?;
                self.credits[level] = 0.0;
                Some(level)
            }
        }
    }
}

/// Which background stream is asking the limiter for bandwidth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BgIoPriority {
    /// Flushes unblock the write path; they are served first.
    Flush,
    /// Compactions yield to any flush waiting on the bucket.
    Compaction,
}

/// Token bucket state under the lock.
#[derive(Debug)]
struct BucketState {
    /// Bytes currently available.
    tokens: u64,
    /// Current refill rate, bytes per (virtual) second.
    rate: u64,
    /// Virtual timestamp of the last refill.
    last_refill_ns: u64,
    /// Bytes flushes have registered but not yet drawn; compactions must
    /// leave this many tokens untouched so a flush never queues behind them.
    flush_pending: u64,
}

/// A shared background-I/O budget: token bucket in virtual time.
///
/// Flushes and compactions draw bytes from one bucket before touching the
/// device, so their combined bandwidth never exceeds the configured budget —
/// the RocksDB `rate_limiter` idea. Flush priority is implemented by
/// *reservation*: a flush registers its bytes up front and compactions must
/// leave that many tokens in the bucket, so the flush overtakes any queued
/// compaction without ever borrowing tokens (the admission bound
/// `admitted ≤ rate × elapsed` holds for the two streams combined).
///
/// With auto-tune enabled, [`retune`](Self::retune) scales the rate with the
/// measured compaction debt: `rate = base × (1 + min(debt / reference, 3))`,
/// i.e. an idle tree gets the base budget and a deeply indebted tree up to
/// 4× — spend bandwidth when debt is building, hoard it when the tree is
/// healthy so foreground reads/writes see steady device latency.
#[derive(Debug)]
pub struct BgIoLimiter {
    /// Base budget in bytes per virtual second; 0 disables the limiter.
    base_rate: u64,
    /// Debt level at which the budget reaches 2× base (cap at 4×).
    auto_tune_reference: Option<u64>,
    state: Mutex<BucketState>,
}

impl BgIoLimiter {
    /// Creates a limiter with the given base budget. `base_rate == 0`
    /// disables throttling entirely; `auto_tune_reference = Some(ref)`
    /// enables debt-scaled budgets via [`retune`](Self::retune).
    pub fn new(base_rate: u64, auto_tune_reference: Option<u64>) -> Self {
        Self {
            base_rate,
            auto_tune_reference: auto_tune_reference.filter(|&r| r > 0 && base_rate > 0),
            state: Mutex::new(BucketState {
                tokens: 0,
                rate: base_rate,
                last_refill_ns: xlsm_sim::now_nanos(),
                flush_pending: 0,
            }),
        }
    }

    /// Whether the limiter throttles at all.
    pub fn enabled(&self) -> bool {
        self.base_rate > 0
    }

    /// The budget currently in effect, bytes per virtual second
    /// (0 = unthrottled).
    #[cfg(test)]
    fn current_rate(&self) -> u64 {
        if self.enabled() {
            self.state.lock().rate
        } else {
            0
        }
    }

    /// Largest single draw; bigger requests are split so one stream cannot
    /// monopolize the bucket for a long burst.
    fn burst(rate: u64) -> u64 {
        (rate / 4).max(256 << 10)
    }

    /// Re-scales the budget from the measured compaction debt (no-op unless
    /// auto-tune is enabled). Deterministic: driven only by virtual-time
    /// call sites, never the wall clock.
    pub fn retune(&self, debt_bytes: u64) {
        let Some(reference) = self.auto_tune_reference else {
            return;
        };
        let bonus = ((self.base_rate as u128 * debt_bytes.min(3 * reference) as u128)
            / reference as u128) as u64;
        let new_rate = self.base_rate + bonus;
        let mut st = self.state.lock();
        if st.rate != new_rate {
            // Settle the bucket at the old rate before switching.
            Self::refill(&mut st);
            st.rate = new_rate;
        }
    }

    /// Accrue tokens for the virtual time elapsed since the last refill.
    fn refill(st: &mut BucketState) {
        let now = xlsm_sim::now_nanos();
        let elapsed = now.saturating_sub(st.last_refill_ns);
        if elapsed == 0 {
            return;
        }
        let earned = (st.rate as u128 * elapsed as u128 / 1_000_000_000) as u64;
        if earned == 0 {
            // Don't advance the clock for a sub-token interval, or short
            // sleeps would round the accrual down to zero forever.
            return;
        }
        st.tokens = (st.tokens + earned).min(Self::burst(st.rate).max(st.tokens));
        st.last_refill_ns = now;
    }

    /// Draws `bytes` from the shared budget, sleeping in virtual time until
    /// the bucket can cover them. Returns the nanoseconds spent waiting.
    /// A disabled limiter admits immediately.
    pub fn acquire(&self, bytes: u64, pri: BgIoPriority) -> u64 {
        if !self.enabled() || bytes == 0 {
            return 0;
        }
        if pri == BgIoPriority::Flush {
            self.state.lock().flush_pending += bytes;
        }
        let started = xlsm_sim::now_nanos();
        let mut remaining = bytes;
        while remaining > 0 {
            let wait_ns = {
                let mut st = self.state.lock();
                Self::refill(&mut st);
                let chunk = remaining.min(Self::burst(st.rate));
                // Compactions must leave the flush reservation untouched.
                let reserved = if pri == BgIoPriority::Compaction {
                    st.flush_pending
                } else {
                    0
                };
                let need = chunk + reserved;
                if st.tokens >= need {
                    st.tokens -= chunk;
                    if pri == BgIoPriority::Flush {
                        st.flush_pending = st.flush_pending.saturating_sub(chunk);
                    }
                    remaining -= chunk;
                    0
                } else {
                    // Sleep long enough to cover the deficit, but no longer
                    // than one burst of accrual: a compaction queued behind a
                    // big flush reservation re-checks once the reservation
                    // has had time to drain instead of oversleeping it.
                    let deficit = (need - st.tokens).min(Self::burst(st.rate));
                    ((deficit as u128 * 1_000_000_000).div_ceil(st.rate as u128) as u64).max(1)
                }
            };
            if wait_ns > 0 {
                xlsm_sim::charge(Class::BgIoBudget, wait_ns);
            }
        }
        xlsm_sim::now_nanos() - started
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn greedy_picks_max_score_ties_to_shallow() {
        let mut s = LevelPicker::new(CompactionScheduler::Greedy);
        assert_eq!(s.pick_level(&[0.5, 0.9, 0.0]), None);
        assert_eq!(s.pick_level(&[1.2, 3.0, 0.0]), Some(1));
        assert_eq!(s.pick_level(&[2.0, 2.0, 0.0]), Some(0));
    }

    #[test]
    fn round_robin_rotates_across_eligible_levels() {
        let mut s = LevelPicker::new(CompactionScheduler::RoundRobin);
        let scores = [1.5, 2.0, 1.1, 0.0];
        let picks: Vec<_> = (0..6).map(|_| s.pick_level(&scores).unwrap()).collect();
        assert_eq!(picks, vec![1, 2, 0, 1, 2, 0]);
        assert_eq!(s.pick_level(&[0.0, 0.0]), None);
    }

    #[test]
    fn fair_services_low_score_level_within_bound() {
        let mut s = LevelPicker::new(CompactionScheduler::Fair);
        // L0 pinned at 5.0, L2 pinned at 1.2: L2 must still be picked
        // roughly every ⌈5/1.2⌉ + 1 = 6 consultations.
        let scores = [5.0, 0.0, 1.2, 0.0];
        let mut since_l2 = 0usize;
        let mut saw_l2 = false;
        for _ in 0..100 {
            let level = s.pick_level(&scores).unwrap();
            if level == 2 {
                since_l2 = 0;
                saw_l2 = true;
            } else {
                since_l2 += 1;
                assert!(since_l2 <= 6, "L2 starved for {since_l2} rounds");
            }
        }
        assert!(saw_l2);
    }

    #[test]
    fn fair_resets_credit_when_level_becomes_ineligible() {
        let mut s = LevelPicker::new(CompactionScheduler::Fair);
        // Bank credit for level 1, then drop it below 1.0: the stale credit
        // must not buy a pick once the level recovers.
        assert_eq!(s.pick_level(&[9.0, 1.5]), Some(0));
        assert_eq!(s.pick_level(&[9.0, 1.5]), Some(0));
        assert_eq!(s.pick_level(&[0.0, 0.9]), None);
        assert_eq!(s.pick_level(&[1.0, 1.0]), Some(0));
    }

    #[test]
    fn limiter_never_admits_more_than_rate_times_elapsed() {
        xlsm_sim::Runtime::new().run(|| {
            let rate = 1 << 20; // 1 MiB/s
            let limiter = BgIoLimiter::new(rate, None);
            let t0 = xlsm_sim::now_nanos();
            let mut admitted = 0u64;
            for i in 0..32u64 {
                let req = 17 << 10 << (i % 3);
                limiter.acquire(req, BgIoPriority::Compaction);
                admitted += req;
                let elapsed = xlsm_sim::now_nanos() - t0;
                let earned = (rate as u128 * elapsed as u128 / 1_000_000_000) as u64;
                assert!(
                    admitted <= earned,
                    "admitted {admitted} > earned {earned} after {elapsed} ns"
                );
            }
        });
    }

    #[test]
    fn limiter_flush_overtakes_queued_compaction() {
        xlsm_sim::Runtime::new().run(|| {
            let limiter = Arc::new(BgIoLimiter::new(1 << 20, None));
            let done: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
            let (l1, d1) = (Arc::clone(&limiter), Arc::clone(&done));
            xlsm_sim::spawn("compaction", move || {
                l1.acquire(1 << 20, BgIoPriority::Compaction);
                d1.lock().push("compaction");
            });
            let (l2, d2) = (Arc::clone(&limiter), Arc::clone(&done));
            xlsm_sim::spawn("flush", move || {
                // Arrive after the compaction is already queued.
                xlsm_sim::sleep_nanos(10_000);
                l2.acquire(256 << 10, BgIoPriority::Flush);
                d2.lock().push("flush");
            });
            xlsm_sim::sleep_nanos(5_000_000_000);
            assert_eq!(*done.lock(), vec!["flush", "compaction"]);
        });
    }

    #[test]
    fn retune_scales_budget_with_debt_and_caps_at_4x() {
        xlsm_sim::Runtime::new().run(|| {
            let base = 8 << 20;
            let reference = 64 << 20;
            let limiter = BgIoLimiter::new(base, Some(reference));
            assert_eq!(limiter.current_rate(), base);
            limiter.retune(reference);
            assert_eq!(limiter.current_rate(), 2 * base);
            limiter.retune(10 * reference);
            assert_eq!(limiter.current_rate(), 4 * base);
            limiter.retune(0);
            assert_eq!(limiter.current_rate(), base);
        });
    }

    #[test]
    fn disabled_limiter_is_free() {
        xlsm_sim::Runtime::new().run(|| {
            let limiter = BgIoLimiter::new(0, Some(1 << 20));
            assert!(!limiter.enabled());
            assert_eq!(limiter.current_rate(), 0);
            assert_eq!(limiter.acquire(u64::MAX, BgIoPriority::Flush), 0);
        });
    }
}
