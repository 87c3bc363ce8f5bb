//! The write controller — the paper's **Algorithm 1** (write control
//! process) plus the stall-condition evaluation that feeds it.
//!
//! RocksDB slows incoming writes when flush/compaction falls behind:
//!
//! * too many memtables → **stop**;
//! * L0 file count ≥ `level0_stop_writes_trigger` → **stop**;
//! * L0 file count ≥ `level0_slowdown_writes_trigger` → **delay**, paced by
//!   `delayed_write_rate`, which adapts by ×0.8 / ×1.25 depending on whether
//!   compaction is keeping up (Algorithm 1 lines 7–11);
//! * each delayed write sleeps per `DELAYWRITE` (Algorithm 1 lines 17–31)
//!   with `refill_interval = 1024 µs`.
//!
//! *Which* stall level applies is the closed choice [`ThrottlePolicy`]:
//! the original single-stage policy or the paper's case study V-A
//! (**two-stage throttling**, which removes the near-stop situation). No
//! Level-0 throttling at all is the original policy with both Level-0
//! triggers out of reach. The original policy jumps straight from "no
//! throttling" to the full adaptive Algorithm 1 at
//! `level0_slowdown_writes_trigger`, letting the adaptive rate spiral down
//! to a few kop/s during periodic write bursts (the "flash of crowd"
//! near-stop in Fig. 5/18). The two-stage variant:
//!
//! * **Stage 1 — slight throttling**: at the slowdown trigger, rate-limit
//!   conservatively, never below a user-set floor (`min_rate`).
//! * **Stage 2 — aggressive throttling**: only when L0 grows past
//!   `(slowdown_threshold + stop_threshold) / 2` does the full Algorithm 1
//!   adaptation apply.

use crate::bgerror::ErrorHandler;
use crate::options::DbOptions;
use crate::stall::{StallAccounting, StallCause, StallEvent};
use std::fmt;
use std::sync::Arc;
use xlsm_sim::sync::WaitSet;
use xlsm_sim::{Class, Nanos};

/// Refill interval of Algorithm 1 (1024 µs).
pub const REFILL_INTERVAL_NS: Nanos = 1_024_000;
/// Rate decrease factor when compaction is keeping up poorly.
pub const RATE_DEC: f64 = 0.8;
/// Rate increase factor when compaction catches up.
pub const RATE_INC: f64 = 1.25;
/// Floor for the adaptive rate (bytes/s).
pub const MIN_RATE: u64 = 1 << 20;

/// Inputs to stall evaluation, gathered from the LSM state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallSignals {
    /// Current number of Level-0 files.
    pub l0_files: usize,
    /// Memtables counted against `max_write_buffer_number`: the immutables
    /// plus the mutable one once it is full (switching it would then exceed
    /// the budget). Writes stop when this *reaches* the configured maximum,
    /// matching RocksDB's unflushed-memtable stop condition.
    pub memtables: usize,
    /// Estimated bytes awaiting compaction (Algorithm 1's `Esti_Bytes`).
    pub pending_compaction_bytes: u64,
    /// Cumulative bytes processed by flush + compaction (the source of
    /// Algorithm 1's per-interval `Prev_Bytes`).
    pub compacted_bytes: u64,
}

/// The stall level a policy selects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallLevel {
    /// No throttling.
    Clear,
    /// Rate-limited, but the adaptive rate is floored at `min_rate`
    /// (stage 1 of the two-stage case study).
    GentleDelay {
        /// Lowest allowed write rate in bytes/s.
        min_rate: u64,
    },
    /// Full Algorithm 1 adaptive delay.
    Delay,
    /// Writes blocked until conditions clear.
    Stop,
}

impl StallLevel {
    /// Short label for reports and stall timelines.
    pub fn name(&self) -> &'static str {
        match self {
            StallLevel::Clear => "clear",
            StallLevel::GentleDelay { .. } => "gentle-delay",
            StallLevel::Delay => "delay",
            StallLevel::Stop => "stop",
        }
    }
}

/// Chooses a [`StallLevel`] from the signals — the one decision the
/// paper's case study V-A changes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ThrottlePolicy {
    /// RocksDB 5.17's original single-stage policy.
    #[default]
    Original,
    /// The two-stage policy of Section V-A.
    TwoStage {
        /// Stage-1 rate floor in bytes/s ("the maximum acceptable
        /// delayed_write_rate").
        min_rate: u64,
    },
}

impl ThrottlePolicy {
    /// The stage-2 threshold of [`ThrottlePolicy::TwoStage`]:
    /// `(slowdown + stop) / 2`.
    pub fn stage2_threshold(opts: &DbOptions) -> usize {
        (opts.level0_slowdown_writes_trigger + opts.level0_stop_writes_trigger) / 2
    }

    /// Evaluates the current stall level.
    pub fn evaluate(self, sig: &StallSignals, opts: &DbOptions) -> StallLevel {
        // Memtable stop cannot be disabled: the write path has nowhere to
        // put data without a mutable memtable.
        if sig.memtables >= opts.max_write_buffer_number {
            return StallLevel::Stop;
        }
        let l0 = sig.l0_files;
        if l0 >= opts.level0_stop_writes_trigger {
            return StallLevel::Stop;
        }
        if l0 < opts.level0_slowdown_writes_trigger {
            return StallLevel::Clear;
        }
        match self {
            ThrottlePolicy::TwoStage { min_rate } if l0 < Self::stage2_threshold(opts) => {
                StallLevel::GentleDelay { min_rate }
            }
            _ => StallLevel::Delay,
        }
    }
}

struct CtlState {
    level: StallLevel,
    rate: u64,
    last_refill: Nanos,
    /// Reservation timeline for the smooth (stage-1) pacer.
    gentle_next: Nanos,
    prev_compacted: u64,
    /// When the current level was entered (for event durations).
    level_since: Nanos,
    /// Transition sink; attached by the database after open.
    sink: Option<Arc<StallAccounting>>,
}

/// Snapshot of controller state, for analysis and figures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControllerSnapshot {
    /// Current stall level.
    pub level: StallLevel,
    /// Current adaptive `delayed_write_rate` in bytes/s.
    pub delayed_write_rate: u64,
}

/// The write controller instance owned by a database.
pub struct WriteController {
    init_rate: u64,
    state: parking_lot::Mutex<CtlState>,
    /// Writers stopped by the stall level or held by the database's health
    /// (`ErrorHandler::holds_writers`), which wakes them too.
    stopped: Arc<WaitSet>,
}

impl fmt::Debug for WriteController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state.lock();
        f.debug_struct("WriteController")
            .field("level", &s.level)
            .field("rate", &s.rate)
            .finish()
    }
}

impl WriteController {
    /// Creates a controller with the initial rate from `opts`.
    pub fn new(opts: &DbOptions) -> WriteController {
        WriteController {
            init_rate: opts.delayed_write_rate,
            state: parking_lot::Mutex::new(CtlState {
                level: StallLevel::Clear,
                rate: opts.delayed_write_rate,
                last_refill: 0,
                gentle_next: 0,
                prev_compacted: 0,
                level_since: 0,
                sink: None,
            }),
            stopped: Arc::new(WaitSet::new("write-stopped")),
        }
    }

    /// The stop wait, for the `ErrorHandler` to wake.
    pub(crate) fn stop_wait(&self) -> Arc<WaitSet> {
        Arc::clone(&self.stopped)
    }

    /// Attaches the stall registry that receives a [`StallEvent`] on every
    /// level transition (and on rate adaptations while delayed).
    pub fn attach_accounting(&self, sink: Arc<StallAccounting>) {
        self.state.lock().sink = Some(sink);
    }

    /// Re-evaluates stall conditions; called whenever LSM shape changes
    /// (memtable switch, flush installed, compaction installed).
    ///
    /// Returns the new level.
    pub fn update(&self, sig: &StallSignals, opts: &DbOptions) -> StallLevel {
        let new_level = opts.throttle_policy.evaluate(sig, opts);
        let mut wake = false;
        let mut event = None;
        {
            let mut st = self.state.lock();
            let prev_level = st.level;
            let prev_rate = st.rate;
            let was_delay = matches!(st.level, StallLevel::Delay | StallLevel::GentleDelay { .. });
            let now_delay = matches!(
                new_level,
                StallLevel::Delay | StallLevel::GentleDelay { .. }
            );
            match new_level {
                StallLevel::Delay | StallLevel::GentleDelay { .. } => {
                    if was_delay {
                        // Algorithm 1 lines 7–11: Prev_Bytes (processed
                        // since the previous interval) vs. Esti_Bytes (the
                        // outstanding backlog). While compaction processes
                        // less than the backlog, keep slowing down — this
                        // is what compounds the rate toward the near-stop
                        // floor during bursts.
                        let prev_bytes = sig.compacted_bytes.saturating_sub(st.prev_compacted);
                        let esti_bytes = sig.pending_compaction_bytes;
                        if prev_bytes <= esti_bytes {
                            st.rate = ((st.rate as f64) * RATE_DEC) as u64;
                        } else {
                            st.rate = ((st.rate as f64) * RATE_INC) as u64;
                        }
                    } else {
                        st.rate = self.init_rate;
                        // A fresh delay episode starts with an empty token
                        // bucket: credit must not carry over from the
                        // unthrottled period before it.
                        st.last_refill = xlsm_sim::now_nanos();
                    }
                    let floor = match new_level {
                        StallLevel::GentleDelay { min_rate } => min_rate.max(MIN_RATE),
                        _ => MIN_RATE,
                    };
                    st.rate = st.rate.clamp(floor, self.init_rate.max(floor));
                }
                StallLevel::Clear | StallLevel::Stop => {}
            }
            if matches!(st.level, StallLevel::Stop) && !matches!(new_level, StallLevel::Stop) {
                wake = true;
            }
            st.prev_compacted = sig.compacted_bytes;
            st.level = new_level;
            if let Some(sink) = st.sink.clone() {
                let level_changed = prev_level != new_level;
                // Rate adaptations while delayed are transitions too: they
                // are what the paper's Fig. 6 rate timeline plots.
                if level_changed || (now_delay && st.rate != prev_rate) {
                    let now = xlsm_sim::now_nanos();
                    event = Some((
                        sink,
                        StallEvent {
                            at: now,
                            cause: cause_of(new_level, sig, opts),
                            level: new_level,
                            prev_level,
                            duration: now.saturating_sub(st.level_since),
                            l0_files: sig.l0_files,
                            memtables: sig.memtables,
                            rate: st.rate,
                        },
                    ));
                    if level_changed {
                        st.level_since = now;
                    }
                }
            }
        }
        if let Some((sink, ev)) = event {
            sink.record_event(ev);
        }
        if wake {
            self.stopped.notify_all();
        }
        new_level
    }

    /// Current state.
    pub fn snapshot(&self) -> ControllerSnapshot {
        let st = self.state.lock();
        ControllerSnapshot {
            level: st.level,
            delayed_write_rate: st.rate,
        }
    }

    /// Whether the stall level stops writes.
    pub fn is_stopped(&self) -> bool {
        matches!(self.state.lock().level, StallLevel::Stop)
    }

    /// Blocks the caller while `health` holds writers: while the stall
    /// level stops them or the database is stalled on ENOSPC, and never
    /// once it is read-only. Returns the nanoseconds spent waiting, which it
    /// charges to [`Class::Stop`].
    pub(crate) fn wait_while_stopped(&self, health: &ErrorHandler) -> Nanos {
        let t0 = xlsm_sim::now_nanos();
        while health.holds_writers(self.is_stopped()) {
            self.stopped.wait();
        }
        let waited = xlsm_sim::now_nanos() - t0;
        xlsm_sim::waited(Class::Stop, waited);
        waited
    }

    /// How long the writer of `num_bytes` must sleep under the current
    /// stall level. Returns 0 when not delayed.
    ///
    /// * `Delay` follows Algorithm 1's `DELAYWRITE` verbatim — note that a
    ///   back-to-back stream of small writes sleeps one full
    ///   `refill_interval` per group regardless of the rate, which is
    ///   exactly the paper's Eq. 2 near-stop behavior.
    /// * `GentleDelay` (the two-stage case study's stage 1) paces writes on
    ///   a smooth reservation timeline at the floored rate, with no
    ///   mandatory interval sleep.
    pub fn delay_for_write(&self, num_bytes: u64) -> Nanos {
        let mut st = self.state.lock();
        let rate = match st.level {
            StallLevel::Clear | StallLevel::Stop => return 0,
            StallLevel::Delay | StallLevel::GentleDelay { .. } => st.rate.max(1),
        };
        if matches!(st.level, StallLevel::GentleDelay { .. }) {
            let now = xlsm_sim::now_nanos();
            let needed = (num_bytes as u128 * 1_000_000_000 / rate as u128) as Nanos;
            let start = st.gentle_next.max(now);
            st.gentle_next = start + needed;
            return start - now;
        }
        let now = xlsm_sim::now_nanos();
        let time_slice = now.saturating_sub(st.last_refill);
        let bytes_refilled = (time_slice as u128 * rate as u128 / 1_000_000_000) as u64;
        if bytes_refilled > num_bytes && time_slice > REFILL_INTERVAL_NS {
            // Free pass: consume only this write's share of the accrued
            // credit; the surplus stays banked so a burst of writes after a
            // quiet period is not throttled below `delayed_write_rate`.
            st.last_refill += (num_bytes as u128 * 1_000_000_000 / rate as u128) as Nanos;
            return 0;
        }
        let single_ref = (REFILL_INTERVAL_NS as u128 * rate as u128 / 1_000_000_000) as u64;
        st.last_refill = now;
        if bytes_refilled + single_ref > num_bytes {
            REFILL_INTERVAL_NS
        } else {
            (num_bytes as u128 * 1_000_000_000 / rate as u128) as Nanos
        }
    }
}

/// Classifies the dominant reason for `level` given the triggering signals.
fn cause_of(level: StallLevel, sig: &StallSignals, opts: &DbOptions) -> StallCause {
    match level {
        StallLevel::Stop => {
            if sig.memtables >= opts.max_write_buffer_number {
                StallCause::MemtableLimit
            } else {
                StallCause::L0Stop
            }
        }
        StallLevel::Delay | StallLevel::GentleDelay { .. } => StallCause::L0Slowdown,
        StallLevel::Clear => StallCause::Cleared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlsm_sim::Runtime;

    fn sig(l0: usize, mems: usize, pending: u64) -> StallSignals {
        StallSignals {
            l0_files: l0,
            memtables: mems,
            pending_compaction_bytes: pending,
            ..StallSignals::default()
        }
    }

    #[test]
    fn original_policy_thresholds() {
        let opts = DbOptions::default(); // max_write_buffer_number = 2
        let p = ThrottlePolicy::Original;
        assert_eq!(p.evaluate(&sig(0, 0, 0), &opts), StallLevel::Clear);
        assert_eq!(p.evaluate(&sig(19, 1, 0), &opts), StallLevel::Clear);
        assert_eq!(p.evaluate(&sig(20, 1, 0), &opts), StallLevel::Delay);
        assert_eq!(p.evaluate(&sig(36, 1, 0), &opts), StallLevel::Stop);
        // RocksDB stops when the unflushed memtable count *reaches* the
        // maximum, not only once it exceeds it.
        assert_eq!(p.evaluate(&sig(0, 2, 0), &opts), StallLevel::Stop);
        assert_eq!(p.evaluate(&sig(0, 3, 0), &opts), StallLevel::Stop);
    }

    #[test]
    fn stages_follow_thresholds() {
        let opts = DbOptions::default(); // slowdown 20, stop 36 → stage2 at 28
        let p = ThrottlePolicy::TwoStage { min_rate: 8 << 20 };
        assert_eq!(p.evaluate(&sig(10, 1, 0), &opts), StallLevel::Clear);
        assert_eq!(
            p.evaluate(&sig(20, 1, 0), &opts),
            StallLevel::GentleDelay { min_rate: 8 << 20 }
        );
        assert_eq!(
            p.evaluate(&sig(27, 1, 0), &opts),
            StallLevel::GentleDelay { min_rate: 8 << 20 }
        );
        assert_eq!(p.evaluate(&sig(28, 1, 0), &opts), StallLevel::Delay);
        assert_eq!(p.evaluate(&sig(36, 1, 0), &opts), StallLevel::Stop);
    }

    #[test]
    fn memtable_pressure_still_stops() {
        let opts = DbOptions::default();
        let p = ThrottlePolicy::TwoStage { min_rate: 1 };
        // Stops when the unflushed memtable count reaches the maximum.
        assert_eq!(p.evaluate(&sig(0, 2, 0), &opts), StallLevel::Stop);
    }

    #[test]
    fn stage2_threshold_matches_paper_formula() {
        let opts = DbOptions::default();
        assert_eq!(ThrottlePolicy::stage2_threshold(&opts), 28);
    }

    #[test]
    fn rate_adapts_with_compaction_progress() {
        Runtime::new().run(|| {
            let opts = DbOptions::default();
            let c = WriteController::new(&opts);
            let sig_p = |pending: u64, compacted: u64| StallSignals {
                l0_files: 21,
                memtables: 1,
                pending_compaction_bytes: pending,
                compacted_bytes: compacted,
            };
            c.update(&sig_p(100 << 20, 0), &opts); // enter Delay at init rate
            let r0 = c.snapshot().delayed_write_rate;
            assert_eq!(r0, opts.delayed_write_rate);
            // Processed 1 MiB while 100 MiB is pending → slow down.
            c.update(&sig_p(100 << 20, 1 << 20), &opts);
            let r1 = c.snapshot().delayed_write_rate;
            assert!((r1 as f64 - r0 as f64 * RATE_DEC).abs() < 2.0);
            // Processed 200 MiB more while only 1 KiB pending → speed up.
            c.update(&sig_p(1 << 10, 201 << 20), &opts);
            let r2 = c.snapshot().delayed_write_rate;
            assert!(r2 > r1);
            // Sustained backlog compounds down to the floor, never below.
            for i in 0..40u64 {
                c.update(&sig_p(100 << 20, (202 + i) << 20), &opts);
            }
            let floor = c.snapshot().delayed_write_rate;
            assert_eq!(
                floor, MIN_RATE,
                "sustained backlog hits the near-stop floor"
            );
        });
    }

    #[test]
    fn delay_write_token_bucket() {
        Runtime::new().run(|| {
            let opts = DbOptions {
                delayed_write_rate: 1 << 20, // 1 MiB/s
                ..DbOptions::default()
            };
            let c = WriteController::new(&opts);
            c.update(&sig(20, 1, 0), &opts);
            // Small write relative to one refill: exactly one interval.
            let d = c.delay_for_write(1024);
            assert_eq!(d, REFILL_INTERVAL_NS);
            // Huge write: paced at num_bytes / rate.
            let d2 = c.delay_for_write(1 << 20);
            assert_eq!(d2, 1_000_000_000);
            // After enough virtual time passes, credit accrues and the next
            // small write passes free.
            xlsm_sim::sleep_nanos(REFILL_INTERVAL_NS * 4);
            let d3 = c.delay_for_write(128);
            assert_eq!(d3, 0);
        });
    }

    #[test]
    fn delay_credit_carries_across_free_passes() {
        // Regression for the free-pass branch discarding surplus credit:
        // it used to reset `last_refill = now`, so only the FIRST write of
        // a post-idle burst passed free and the rest were charged a full
        // refill interval each, throttling the effective rate below the
        // configured `delayed_write_rate`.
        Runtime::new().run(|| {
            let rate = 1u64 << 20; // 1 MiB/s
            let opts = DbOptions {
                delayed_write_rate: rate,
                ..DbOptions::default()
            };
            let c = WriteController::new(&opts);
            c.update(&sig(20, 1, 0), &opts);
            // Accrue ~100 ms of credit (≈102400 bytes at 1 MiB/s).
            xlsm_sim::sleep_nanos(100_000_000);
            let t0 = xlsm_sim::now_nanos();
            let mut bytes = 0u64;
            for _ in 0..8 {
                let nb = 8 << 10; // 64 KiB total, well inside the credit
                let d = c.delay_for_write(nb);
                assert_eq!(d, 0, "burst within accrued credit must pass free");
                xlsm_sim::sleep_nanos(d);
                bytes += nb;
            }
            let elapsed = xlsm_sim::now_nanos() - t0;
            // Effective throughput of the burst window must be at least the
            // configured rate (the whole burst drains banked credit).
            let ideal_ns = bytes * 1_000_000_000 / rate;
            assert!(
                elapsed < ideal_ns,
                "burst should beat the configured rate using banked credit: \
                 elapsed={elapsed}ns ideal={ideal_ns}ns"
            );
            // The credit is bounded: once the bank is drained, pacing
            // resumes (no unlimited debt-free writing).
            let mut paid = 0u64;
            for _ in 0..8 {
                paid += c.delay_for_write(8 << 10);
            }
            assert!(paid > 0, "drained bucket must resume pacing");
        });
    }

    #[test]
    fn fresh_delay_episode_starts_without_credit() {
        // Entering Delay after a long unthrottled stretch must not grant
        // phantom credit accrued while the controller was Clear.
        Runtime::new().run(|| {
            let opts = DbOptions {
                delayed_write_rate: 1 << 20,
                ..DbOptions::default()
            };
            let c = WriteController::new(&opts);
            xlsm_sim::sleep_nanos(10_000_000_000); // 10 s idle while Clear
            c.update(&sig(20, 1, 0), &opts);
            let d = c.delay_for_write(1024);
            assert_eq!(
                d, REFILL_INTERVAL_NS,
                "first delayed write of a fresh episode is paced"
            );
        });
    }

    #[test]
    fn transitions_emit_stall_events() {
        Runtime::new().run(|| {
            use crate::stall::{StallAccounting, StallCause};
            let opts = DbOptions::default();
            let c = WriteController::new(&opts);
            let acc = Arc::new(StallAccounting::default());
            c.attach_accounting(Arc::clone(&acc));
            xlsm_sim::sleep_nanos(1_000);
            c.update(&sig(20, 1, 0), &opts); // Clear -> Delay
            xlsm_sim::sleep_nanos(2_000);
            c.update(&sig(36, 1, 0), &opts); // Delay -> Stop (L0)
            xlsm_sim::sleep_nanos(3_000);
            c.update(&sig(0, 2, 0), &opts); // Stop (memtable limit)
            c.update(&sig(0, 0, 0), &opts); // -> Clear
            c.update(&sig(0, 0, 0), &opts); // no transition: no event
            let events = acc.drain_events();
            assert_eq!(events.len(), 3, "one event per transition: {events:?}");
            assert_eq!(events[0].level, StallLevel::Delay);
            assert_eq!(events[0].prev_level, StallLevel::Clear);
            assert_eq!(events[0].cause, StallCause::L0Slowdown);
            assert_eq!(events[0].at, 1_000);
            assert_eq!(events[0].duration, 1_000);
            assert_eq!(events[0].rate, opts.delayed_write_rate);
            assert_eq!(events[1].level, StallLevel::Stop);
            assert_eq!(events[1].cause, StallCause::L0Stop);
            assert_eq!(events[1].duration, 2_000, "time spent in Delay");
            assert_eq!(events[1].l0_files, 36);
            // Stop -> Stop with a different trigger is not a level change
            // and not a rate change, so only the final clear is logged.
            assert_eq!(events[2].level, StallLevel::Clear);
            assert_eq!(events[2].cause, StallCause::Cleared);
            assert_eq!(events[2].duration, 3_000, "time spent in Stop");
        });
    }

    #[test]
    fn rate_adaptation_emits_events_while_delayed() {
        Runtime::new().run(|| {
            use crate::stall::StallAccounting;
            let opts = DbOptions::default();
            let c = WriteController::new(&opts);
            let acc = Arc::new(StallAccounting::default());
            c.attach_accounting(Arc::clone(&acc));
            let sig_p = |pending: u64, compacted: u64| StallSignals {
                l0_files: 21,
                memtables: 1,
                pending_compaction_bytes: pending,
                compacted_bytes: compacted,
            };
            c.update(&sig_p(100 << 20, 0), &opts); // enter Delay
            c.update(&sig_p(100 << 20, 1 << 20), &opts); // rate ×0.8
            let events = acc.drain_events();
            assert_eq!(events.len(), 2);
            assert_eq!(events[1].level, StallLevel::Delay);
            assert_eq!(events[1].prev_level, StallLevel::Delay);
            assert!(
                events[1].rate < events[0].rate,
                "adaptation event carries the new rate: {events:?}"
            );
        });
    }

    /// A controller and the health its stop wait asks, with the space
    /// watcher on (`DeviceFull` stalls); a writer parked in the stop wait.
    fn parked_writer() -> (
        Arc<WriteController>,
        Arc<ErrorHandler>,
        xlsm_sim::JoinHandle<Nanos>,
    ) {
        let c = Arc::new(WriteController::new(&DbOptions::default()));
        let stats = crate::stats::DbStats::shared();
        let health = Arc::new(ErrorHandler::new(true, stats, c.stop_wait()));
        let (c2, health2) = (Arc::clone(&c), Arc::clone(&health));
        let writer = xlsm_sim::spawn("writer", move || c2.wait_while_stopped(&health2));
        (c, health, writer)
    }

    #[test]
    fn stop_blocks_until_cleared() {
        Runtime::new().run(|| {
            let opts = DbOptions::default();
            let (c, _health, writer) = parked_writer();
            c.update(&sig(36, 1, 0), &opts);
            xlsm_sim::sleep_nanos(5_000_000);
            c.update(&sig(10, 1, 0), &opts);
            let waited = writer.join();
            assert!(waited >= 5_000_000, "writer should have waited: {waited}");
            assert!(!c.is_stopped());
        });
    }

    #[test]
    fn a_stall_blocks_writers_whatever_the_policy_level() {
        Runtime::new().run(|| {
            use crate::bgerror::BackgroundOp;
            use xlsm_simfs::FsError;
            let opts = DbOptions::default();
            let (c, health, writer) = parked_writer();
            // Policy says Clear, yet the ENOSPC stall holds.
            health.fail(BackgroundOp::Flush, FsError::DeviceFull.into(), 0);
            c.update(&sig(0, 1, 0), &opts);
            assert!(!c.is_stopped());
            xlsm_sim::sleep_nanos(3_000_000);
            // A stop and its clearing do not lift the stall either.
            c.update(&sig(36, 1, 0), &opts);
            c.update(&sig(0, 1, 0), &opts);
            xlsm_sim::sleep_nanos(2_000_000);
            health.resume();
            let waited = writer.join();
            assert!(waited >= 5_000_000, "writer should have waited: {waited}");
        });
    }

    #[test]
    fn read_only_releases_stopped_writers() {
        Runtime::new().run(|| {
            use crate::bgerror::BackgroundOp;
            let opts = DbOptions::default();
            let (c, health, writer) = parked_writer();
            c.update(&sig(36, 1, 0), &opts);
            xlsm_sim::sleep_nanos(1_000_000);
            health.fail(BackgroundOp::Compaction, crate::DbError::corruption("x"), 0);
            assert_eq!(writer.join(), 1_000_000, "woken to fail, not to wait on");
            assert!(c.is_stopped());
        });
    }

    #[test]
    fn gentle_delay_respects_floor() {
        Runtime::new().run(|| {
            let opts = DbOptions::default();
            let c = WriteController::new(&opts);
            let min_rate = 4 << 20;
            let gentle = StallSignals {
                l0_files: 20,
                memtables: 1,
                ..StallSignals::default()
            };
            let opts_g = DbOptions {
                throttle_policy: ThrottlePolicy::TwoStage { min_rate },
                ..DbOptions::default()
            };
            let cg = WriteController::new(&opts_g);
            cg.update(&gentle, &opts_g);
            // Drive the backlog up repeatedly: rate must not fall below floor.
            for i in 0..50 {
                cg.update(
                    &StallSignals {
                        l0_files: 20,
                        memtables: 1,
                        pending_compaction_bytes: 1 << 30,
                        compacted_bytes: 1000 * (i + 1),
                    },
                    &opts_g,
                );
            }
            assert!(cg.snapshot().delayed_write_rate >= min_rate);
            // The plain controller (full Delay) would have gone far lower.
            c.update(&gentle, &opts);
            for i in 0..50 {
                c.update(
                    &StallSignals {
                        l0_files: 20,
                        memtables: 1,
                        pending_compaction_bytes: 1 << 30,
                        compacted_bytes: 1000 * (i + 1),
                    },
                    &opts,
                );
            }
            assert!(c.snapshot().delayed_write_rate < min_rate);
        });
    }
}
