//! Cross-layer write-stall accounting.
//!
//! The paper's analysis (Figs. 6/7, 15/16) attributes write latency to the
//! software mechanisms that generate it: queueing in the batch group, WAL
//! appends, memtable insertion, and the two faces of Algorithm 1 throttling
//! (delay pacing and full stops). This module is the registry those
//! attributions land in:
//!
//! * every committed write records a [`WriteBreakdown`] — one duration per
//!   mechanism — via [`StallAccounting::record_op`], alongside the observed
//!   end-to-end latency, so the totals *self-reconcile*: summed components
//!   must approximately equal total observed write time (asserted in the
//!   engine's tests);
//! * every [`WriteController`](crate::controller::WriteController) level or
//!   rate transition appends a [`StallEvent`] to a bounded ring buffer,
//!   preserving the stall *timeline* the paper plots, drained cheaply via
//!   [`StallAccounting::drain_events`] (exposed through `Db::metrics()`).
//!
//! All durations are passed in by the instrumented call sites; nothing here
//! reads the virtual clock, so the registry works outside a sim runtime.

use crate::controller::StallLevel;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use xlsm_sim::Nanos;

/// Default capacity of the stall-event ring buffer.
pub const EVENT_LOG_CAPACITY: usize = 4096;

/// Why the controller moved to (or stayed at) a stall level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallCause {
    /// Unflushed memtable count reached `max_write_buffer_number`.
    MemtableLimit,
    /// L0 file count reached `level0_stop_writes_trigger`.
    L0Stop,
    /// L0 file count reached `level0_slowdown_writes_trigger`.
    L0Slowdown,
    /// Conditions cleared; writes run unthrottled again.
    Cleared,
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StallCause::MemtableLimit => "memtable-limit",
            StallCause::L0Stop => "l0-stop",
            StallCause::L0Slowdown => "l0-slowdown",
            StallCause::Cleared => "cleared",
        })
    }
}

/// One write-controller transition, as logged into the ring buffer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StallEvent {
    /// Virtual time of the transition.
    pub at: Nanos,
    /// Why the controller is (now) at `level`.
    pub cause: StallCause,
    /// The level after the transition.
    pub level: StallLevel,
    /// The level before the transition.
    pub prev_level: StallLevel,
    /// Time spent at `prev_level` before this transition.
    pub duration: Nanos,
    /// L0 file count at the transition.
    pub l0_files: usize,
    /// Memtables counted against the write-buffer budget at the transition.
    pub memtables: usize,
    /// The adaptive delayed-write rate (bytes/s) after the transition.
    pub rate: u64,
}

/// Per-operation attribution of a write's end-to-end latency.
///
/// Each field is the nanoseconds one mechanism contributed to this write.
/// The wait to *enter* the serialized memtable stage (Algorithm 2's
/// pipeline handoff) is reported separately as `pipeline_wait_ns`, so
/// queue pressure is never misattributed to memtable insert cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteBreakdown {
    /// Queued behind other writers before this write's group committed.
    pub queue_wait_ns: u64,
    /// WAL append (group-level; shared by every member of the group).
    pub wal_append_ns: u64,
    /// Waiting to enter the memtable stage behind the previous group
    /// (Algorithm 2's pipeline handoff semaphore).
    pub pipeline_wait_ns: u64,
    /// Memtable insertion proper (the stage itself, pipeline wait excluded).
    pub memtable_insert_ns: u64,
    /// Algorithm 1 delay pacing (`DELAYWRITE` sleeps).
    pub delay_sleep_ns: u64,
    /// Fully stopped, waiting for flush/compaction to clear the condition.
    pub stop_wait_ns: u64,
}

impl WriteBreakdown {
    /// Sum of every attributed component.
    pub fn accounted_ns(&self) -> u64 {
        self.queue_wait_ns
            + self.wal_append_ns
            + self.pipeline_wait_ns
            + self.memtable_insert_ns
            + self.delay_sleep_ns
            + self.stop_wait_ns
    }
}

/// Controller-induced waiting observed during group preprocessing,
/// returned by the write backend so the queue can fold it into each
/// member's [`WriteBreakdown`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PreprocessStalls {
    /// Time fully stopped (Algorithm 1 stop conditions).
    pub stop_wait_ns: u64,
    /// Time sleeping in delay pacing (Algorithm 1 `DELAYWRITE`).
    pub delay_sleep_ns: u64,
}

/// Aggregate totals of everything recorded so far (cheap copy).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallTotals {
    /// Writes recorded.
    pub ops: u64,
    /// Summed observed end-to-end write latency.
    pub total_write_ns: u64,
    /// Summed queue wait.
    pub queue_wait_ns: u64,
    /// Summed WAL append time.
    pub wal_append_ns: u64,
    /// Summed pipeline-stage (memtable-stage handoff) wait.
    pub pipeline_wait_ns: u64,
    /// Summed memtable insertion (pipeline wait excluded).
    pub memtable_insert_ns: u64,
    /// Summed delay-pacing sleep.
    pub delay_sleep_ns: u64,
    /// Summed stop wait.
    pub stop_wait_ns: u64,
    /// Stall events ever pushed to the ring buffer.
    pub events_pushed: u64,
    /// Stall events evicted because the ring buffer was full.
    pub events_dropped: u64,
}

impl StallTotals {
    /// Sum of all attributed components.
    pub fn accounted_ns(&self) -> u64 {
        self.queue_wait_ns
            + self.wal_append_ns
            + self.pipeline_wait_ns
            + self.memtable_insert_ns
            + self.delay_sleep_ns
            + self.stop_wait_ns
    }

    /// Fraction of observed end-to-end write time the components explain
    /// (1.0 when nothing has been recorded).
    pub fn coverage(&self) -> f64 {
        if self.total_write_ns == 0 {
            1.0
        } else {
            self.accounted_ns() as f64 / self.total_write_ns as f64
        }
    }
}

/// Reconstructs stall-*episode* durations from a drained event log.
///
/// An episode is a maximal contiguous span in which the controller sat at
/// any non-`Clear` level (transitions between `GentleDelay`/`Delay`/`Stop`
/// and rate adaptations do not break it). Events must be in `at` order, as
/// [`StallAccounting::drain_events`] returns them. An episode still open at
/// `window_end` is closed there; an episode already open before the first
/// event is reconstructed from that event's `duration` and clamped to
/// `window_start`. This is the quantity behind the stability bench's
/// stall-episode CDFs: per-*transition* durations understate tails because
/// one long episode can span many transitions.
pub fn episode_durations(
    events: &[StallEvent],
    window_start: Nanos,
    window_end: Nanos,
) -> Vec<Nanos> {
    let mut episodes = Vec::new();
    let mut open: Option<Nanos> = None;
    for ev in events {
        if open.is_none() && ev.prev_level != StallLevel::Clear {
            // Already stalled before this event: recover the episode start
            // from the time spent at prev_level.
            open = Some(ev.at.saturating_sub(ev.duration).max(window_start));
        }
        match (open, ev.level) {
            (Some(start), StallLevel::Clear) => {
                episodes.push(ev.at.saturating_sub(start));
                open = None;
            }
            (None, level) if level != StallLevel::Clear => {
                open = Some(ev.at);
            }
            _ => {}
        }
    }
    if let Some(start) = open {
        episodes.push(window_end.saturating_sub(start));
    }
    episodes
}

/// The registry: per-op component totals plus the stall-event ring buffer.
pub struct StallAccounting {
    ops: AtomicU64,
    total_write_ns: AtomicU64,
    queue_wait_ns: AtomicU64,
    wal_append_ns: AtomicU64,
    pipeline_wait_ns: AtomicU64,
    memtable_insert_ns: AtomicU64,
    delay_sleep_ns: AtomicU64,
    stop_wait_ns: AtomicU64,
    events_pushed: AtomicU64,
    events_dropped: AtomicU64,
    events: parking_lot::Mutex<VecDeque<StallEvent>>,
    capacity: usize,
}

impl fmt::Debug for StallAccounting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.snapshot();
        f.debug_struct("StallAccounting")
            .field("ops", &t.ops)
            .field("coverage", &t.coverage())
            .field("events_pushed", &t.events_pushed)
            .finish_non_exhaustive()
    }
}

impl Default for StallAccounting {
    fn default() -> Self {
        StallAccounting::new(EVENT_LOG_CAPACITY)
    }
}

impl StallAccounting {
    /// Creates a registry whose event log holds at most `capacity` events
    /// (oldest evicted first).
    pub fn new(capacity: usize) -> StallAccounting {
        StallAccounting {
            ops: AtomicU64::new(0),
            total_write_ns: AtomicU64::new(0),
            queue_wait_ns: AtomicU64::new(0),
            wal_append_ns: AtomicU64::new(0),
            pipeline_wait_ns: AtomicU64::new(0),
            memtable_insert_ns: AtomicU64::new(0),
            delay_sleep_ns: AtomicU64::new(0),
            stop_wait_ns: AtomicU64::new(0),
            events_pushed: AtomicU64::new(0),
            events_dropped: AtomicU64::new(0),
            events: parking_lot::Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Records one committed write: its observed end-to-end latency and the
    /// per-mechanism attribution.
    pub fn record_op(&self, end_to_end_ns: u64, bd: &WriteBreakdown) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.total_write_ns
            .fetch_add(end_to_end_ns, Ordering::Relaxed);
        self.queue_wait_ns
            .fetch_add(bd.queue_wait_ns, Ordering::Relaxed);
        self.wal_append_ns
            .fetch_add(bd.wal_append_ns, Ordering::Relaxed);
        self.pipeline_wait_ns
            .fetch_add(bd.pipeline_wait_ns, Ordering::Relaxed);
        self.memtable_insert_ns
            .fetch_add(bd.memtable_insert_ns, Ordering::Relaxed);
        self.delay_sleep_ns
            .fetch_add(bd.delay_sleep_ns, Ordering::Relaxed);
        self.stop_wait_ns
            .fetch_add(bd.stop_wait_ns, Ordering::Relaxed);
    }

    /// Appends a controller transition to the ring buffer, evicting the
    /// oldest event when full.
    pub fn record_event(&self, ev: StallEvent) {
        self.events_pushed.fetch_add(1, Ordering::Relaxed);
        let mut log = self.events.lock();
        if log.len() >= self.capacity {
            log.pop_front();
            self.events_dropped.fetch_add(1, Ordering::Relaxed);
        }
        log.push_back(ev);
    }

    /// Takes every buffered event, oldest first, leaving the log empty.
    pub fn drain_events(&self) -> Vec<StallEvent> {
        self.events.lock().drain(..).collect()
    }

    /// Cheap copy of the aggregate totals.
    pub fn snapshot(&self) -> StallTotals {
        StallTotals {
            ops: self.ops.load(Ordering::Relaxed),
            total_write_ns: self.total_write_ns.load(Ordering::Relaxed),
            queue_wait_ns: self.queue_wait_ns.load(Ordering::Relaxed),
            wal_append_ns: self.wal_append_ns.load(Ordering::Relaxed),
            pipeline_wait_ns: self.pipeline_wait_ns.load(Ordering::Relaxed),
            memtable_insert_ns: self.memtable_insert_ns.load(Ordering::Relaxed),
            delay_sleep_ns: self.delay_sleep_ns.load(Ordering::Relaxed),
            stop_wait_ns: self.stop_wait_ns.load(Ordering::Relaxed),
            events_pushed: self.events_pushed.load(Ordering::Relaxed),
            events_dropped: self.events_dropped.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the per-op totals (the event log and its pushed/dropped
    /// counters are left alone) — used with `DbStats::reset_window` to
    /// discard warm-up effects.
    pub fn reset_window(&self) {
        self.ops.store(0, Ordering::Relaxed);
        self.total_write_ns.store(0, Ordering::Relaxed);
        self.queue_wait_ns.store(0, Ordering::Relaxed);
        self.wal_append_ns.store(0, Ordering::Relaxed);
        self.pipeline_wait_ns.store(0, Ordering::Relaxed);
        self.memtable_insert_ns.store(0, Ordering::Relaxed);
        self.delay_sleep_ns.store(0, Ordering::Relaxed);
        self.stop_wait_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: Nanos) -> StallEvent {
        StallEvent {
            at,
            cause: StallCause::L0Slowdown,
            level: StallLevel::Delay,
            prev_level: StallLevel::Clear,
            duration: 10,
            l0_files: 21,
            memtables: 1,
            rate: 1 << 20,
        }
    }

    #[test]
    fn totals_accumulate_and_reconcile() {
        let acc = StallAccounting::default();
        let bd = WriteBreakdown {
            queue_wait_ns: 10,
            wal_append_ns: 20,
            pipeline_wait_ns: 12,
            memtable_insert_ns: 18,
            delay_sleep_ns: 40,
            stop_wait_ns: 0,
        };
        acc.record_op(100, &bd);
        acc.record_op(110, &bd);
        let t = acc.snapshot();
        assert_eq!(t.ops, 2);
        assert_eq!(t.total_write_ns, 210);
        assert_eq!(t.accounted_ns(), 200);
        assert_eq!(bd.accounted_ns(), 100);
        assert!((t.coverage() - 200.0 / 210.0).abs() < 1e-12);
    }

    #[test]
    fn ring_buffer_bounds_and_drains() {
        let acc = StallAccounting::new(3);
        for i in 0..5u64 {
            acc.record_event(ev(i));
        }
        let t = acc.snapshot();
        assert_eq!(t.events_pushed, 5);
        assert_eq!(t.events_dropped, 2);
        let drained = acc.drain_events();
        assert_eq!(
            drained.iter().map(|e| e.at).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest events evicted, order preserved"
        );
        assert_eq!(acc.events.lock().len(), 0);
        assert!(acc.drain_events().is_empty());
    }

    #[test]
    fn episodes_span_internal_transitions() {
        let mk = |at, prev, level, duration| StallEvent {
            at,
            cause: StallCause::L0Slowdown,
            level,
            prev_level: prev,
            duration,
            l0_files: 21,
            memtables: 1,
            rate: 1 << 20,
        };
        use StallLevel::{Clear, Delay, Stop};
        // Clear→Delay at 100, Delay→Stop at 250, Stop→Clear at 400:
        // one 300 ns episode. Then Clear→Delay at 900, still open at 1000.
        let events = vec![
            mk(100, Clear, Delay, 100),
            mk(250, Delay, Stop, 150),
            mk(400, Stop, Clear, 150),
            mk(900, Clear, Delay, 500),
        ];
        assert_eq!(episode_durations(&events, 0, 1000), vec![300, 100]);
        // A window that opens mid-episode: the first event's duration
        // back-dates the start, clamped to the window.
        let tail = vec![mk(400, Stop, Clear, 150)];
        assert_eq!(episode_durations(&tail, 300, 1000), vec![100]);
        assert_eq!(episode_durations(&[], 0, 1000), Vec::<Nanos>::new());
    }

    #[test]
    fn reset_window_clears_totals_not_events() {
        let acc = StallAccounting::default();
        acc.record_op(50, &WriteBreakdown::default());
        acc.record_event(ev(1));
        acc.reset_window();
        let t = acc.snapshot();
        assert_eq!(t.ops, 0);
        assert_eq!(t.total_write_ns, 0);
        assert_eq!(t.events_pushed, 1);
        assert_eq!(acc.events.lock().len(), 1);
        assert_eq!(t.coverage(), 1.0, "empty totals count as fully covered");
    }
}
