//! The write-stall view and the controller's event log.
//!
//! The paper's analysis (Figs. 6/7, 15/16) attributes write latency to the
//! software mechanisms that generate it: queueing in the batch group, WAL
//! appends, memtable insertion, and the two faces of Algorithm 1 throttling
//! (delay pacing and full stops). A write's parts are its class totals from
//! the one charge path ([`xlsm_sim::charge`]), recorded per op in
//! [`DbStats::writes`](crate::stats::DbStats::writes); [`StallTotals`] is a
//! fixed mapping of those classes onto the mechanisms. Every
//! [`WriteController`](crate::controller::WriteController) level or rate
//! transition appends a [`StallEvent`] to a bounded ring buffer, preserving
//! the stall *timeline* the paper plots, drained cheaply via
//! [`StallAccounting::drain_events`] (exposed through `Db::metrics()`).

use crate::controller::StallLevel;
use crate::stats::OpTotals;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use xlsm_sim::{Class, Nanos};

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

/// The recorded writes by mechanism, plus the event log's counters: see
/// [`StallAccounting::totals`] for which classes each field sums.
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
    /// Summed write setup and per-key protection CPU.
    pub setup_ns: u64,
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
            + self.setup_ns
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

/// The stall-event ring buffer.
#[derive(Debug)]
pub struct StallAccounting {
    events_pushed: AtomicU64,
    events_dropped: AtomicU64,
    events: parking_lot::Mutex<VecDeque<StallEvent>>,
    capacity: usize,
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
            events_pushed: AtomicU64::new(0),
            events_dropped: AtomicU64::new(0),
            events: parking_lot::Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
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

    /// The write view of `writes`. Each mechanism sums fixed classes; a
    /// write's file-system and device time is its WAL append (at a memtable
    /// switch, also the sealed log's MANIFEST record). A wait for another
    /// MANIFEST install stays unattributed.
    pub fn totals(&self, writes: &OpTotals) -> StallTotals {
        use Class::*;
        let sum = |classes: &[Class]| classes.iter().map(|&c| writes.parts.get(c)).sum();
        StallTotals {
            ops: writes.ops,
            total_write_ns: writes.total_ns,
            queue_wait_ns: sum(&[WriterQueue]),
            wal_append_ns: sum(&[
                WalEncode,
                HostCopy,
                DeviceQueue,
                DeviceService,
                DeviceBufferStall,
                DeviceSyncWait,
            ]),
            pipeline_wait_ns: sum(&[MemtableStage]),
            memtable_insert_ns: sum(&[MemtableInsert, GroupApply]),
            delay_sleep_ns: sum(&[Delay]),
            stop_wait_ns: sum(&[Stop]),
            setup_ns: sum(&[Setup, Protection]),
            events_pushed: self.events_pushed.load(Ordering::Relaxed),
            events_dropped: self.events_dropped.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DbStats;
    use xlsm_sim::Charges;

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
        let mut parts = Charges::default();
        for (class, ns) in [
            (Class::WriterQueue, 10),
            (Class::WalEncode, 5),
            (Class::DeviceService, 15),
            (Class::MemtableStage, 12),
            (Class::MemtableInsert, 18),
            (Class::Delay, 40),
            (Class::Setup, 5),
            (Class::Install, 5),
        ] {
            parts.record(class, ns);
        }
        let writes = OpTotals {
            ops: 2,
            total_ns: 220,
            parts: parts + parts,
        };
        let t = acc.totals(&writes);
        assert_eq!(t.ops, 2);
        assert_eq!(t.total_write_ns, 220);
        assert_eq!(
            (t.queue_wait_ns, t.wal_append_ns, t.pipeline_wait_ns),
            (20, 40, 24)
        );
        assert_eq!(
            (t.memtable_insert_ns, t.delay_sleep_ns, t.stop_wait_ns),
            (36, 80, 0)
        );
        assert_eq!(t.setup_ns, 10);
        assert_eq!(t.accounted_ns(), 210, "install waits stay unattributed");
        assert!((t.coverage() - 210.0 / 220.0).abs() < 1e-12);
    }

    #[test]
    fn ring_buffer_bounds_and_drains() {
        let acc = StallAccounting::new(3);
        for i in 0..5u64 {
            acc.record_event(ev(i));
        }
        let t = acc.totals(&OpTotals::default());
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
        xlsm_sim::Runtime::new().run(|| {
            let stats = DbStats::new();
            let c0 = xlsm_sim::charges();
            xlsm_sim::charge(Class::Setup, 50);
            stats.writes.record(0, c0);
            stats.stall.record_event(ev(1));
            assert_eq!(
                stats.stall.totals(&stats.writes.totals()).total_write_ns,
                50
            );
            stats.reset_window();
            let t = stats.stall.totals(&stats.writes.totals());
            assert_eq!(t.ops, 0);
            assert_eq!(t.total_write_ns, 0);
            assert_eq!(t.events_pushed, 1);
            assert_eq!(stats.stall.events.lock().len(), 1);
            assert_eq!(t.coverage(), 1.0, "empty totals count as fully covered");
        });
    }
}
