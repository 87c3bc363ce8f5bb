//! The cooperative virtual-time scheduler.
//!
//! See the crate docs for the execution model and the hand-off protocol. In
//! short: every sim thread is an OS thread, exactly one holds the *run token*
//! at a time, and the global clock advances to the earliest timer whenever no
//! thread is runnable.

use crate::charge::Charges;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

/// Virtual time in nanoseconds since the start of the simulation.
pub type Nanos = u64;

type Tid = usize;

// ---------------------------------------------------------------------------
// Thread-local context
// ---------------------------------------------------------------------------

pub(crate) struct Ctx {
    sched: Arc<Scheduler>,
    tid: Tid,
    /// This thread's own parker, so that parking never touches scheduler state.
    parker: Arc<Parker>,
    /// What this thread has been charged ([`crate::charge`]).
    pub(crate) charges: RefCell<Charges>,
}

thread_local! {
    static CURRENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

pub(crate) fn with_ctx<T>(f: impl FnOnce(&Ctx) -> T) -> T {
    CURRENT.with(|c| {
        let b = c.borrow();
        let ctx = b
            .as_ref()
            .expect("this operation must be called from inside a sim thread (Runtime::run)");
        f(ctx)
    })
}

/// Returns `true` when the calling OS thread is a sim thread.
fn in_sim() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Every operation that can give up the run token starts here. The count is
/// kept by the lock shim itself, one per live guard on this thread, so it
/// sees every `Mutex` and `RwLock` the workspace takes.
pub(crate) fn assert_not_in_critical_section(op: &str) {
    let held = parking_lot::guards_held();
    assert!(
        held == 0,
        "sim-blocking operation `{op}` called while holding {held} parking_lot (shim) lock \
         guard(s); the next thread to take that lock would block on an OS mutex with the run \
         token in hand and stall the simulation"
    );
}

// ---------------------------------------------------------------------------
// Parker
// ---------------------------------------------------------------------------

/// Where a sim thread waits for the run token: one flag plus the OS thread's
/// own park/unpark. The woken thread takes no lock, so it cannot be woken into
/// one its waker still holds.
struct Parker {
    granted: AtomicBool,
    /// The OS thread to wake. Empty only between registering a spawned thread
    /// and its OS thread existing, and the spawner holds the run token for
    /// all of that time, so no grant can find it empty.
    thread: OnceLock<Thread>,
}

impl Parker {
    fn new(thread: Option<Thread>) -> Arc<Parker> {
        Arc::new(Parker {
            granted: AtomicBool::new(false),
            thread: thread.map(OnceLock::from).unwrap_or_default(),
        })
    }

    /// Waits for a grant and consumes it. A grant that arrived before this
    /// call (the successor ran and handed the token back before its
    /// predecessor got here) returns at once; the loop absorbs the stale
    /// `unpark` token that leaves behind, and spurious wake-ups.
    fn park(&self) {
        // Acquire pairs with the Release in `unpark`: everything the granting
        // thread did while it held the token is visible to this one.
        while !self.granted.swap(false, Ordering::Acquire) {
            std::thread::park();
        }
    }

    /// Grants the run token. Call with no lock held.
    fn unpark(&self) {
        self.granted.store(true, Ordering::Release);
        self.thread
            .get()
            .expect("a thread is granted only after its OS thread was spawned")
            .unpark();
    }
}

// ---------------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------------

/// Why a thread is not currently running; used in deadlock diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Running,
    Runnable,
    Sleeping,
    Blocked(&'static str),
    Dead,
}

struct ThreadInfo {
    name: String,
    parker: Arc<Parker>,
    status: Status,
    daemon: bool,
    joiners: Vec<Tid>,
    /// Hand-offs that gave this thread the run token.
    switched_to: u64,
}

struct Timer {
    wake_at: Nanos,
    seq: u64,
    tid: Tid,
}

impl PartialEq for Timer {
    fn eq(&self, other: &Self) -> bool {
        self.wake_at == other.wake_at && self.seq == other.seq
    }
}
impl Eq for Timer {}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (deadline, seq) pops first.
        (other.wake_at, other.seq).cmp(&(self.wake_at, self.seq))
    }
}

struct State {
    run_queue: VecDeque<Tid>,
    timers: BinaryHeap<Timer>,
    threads: Vec<ThreadInfo>,
    live: usize,
    seq: u64,
    switches: u64,
    timer_events: u64,
}

struct Scheduler {
    state: Mutex<State>,
    /// The virtual clock. Written only under the `state` lock, by the thread
    /// that holds the run token; read without it by `now_nanos`. Relaxed is
    /// enough: a reader holds the run token, and the hand-off that gave it
    /// the token (state lock, then `Parker` Release/Acquire) orders every
    /// earlier write before it.
    now: AtomicU64,
}

/// What [`Scheduler::pick_next`] decided.
enum Next {
    /// The pick landed on the caller, which keeps the run token.
    Caller,
    /// Wake this thread once the state lock is released.
    Wake(Arc<Parker>),
    /// No live thread is left; only the last thread to exit sees this.
    Drained,
}

impl Scheduler {
    fn new() -> Arc<Scheduler> {
        Arc::new(Scheduler {
            now: AtomicU64::new(0),
            state: Mutex::new(State {
                run_queue: VecDeque::new(),
                timers: BinaryHeap::new(),
                threads: Vec::new(),
                live: 0,
                seq: 0,
                switches: 0,
                timer_events: 0,
            }),
        })
    }

    fn now(&self) -> Nanos {
        self.now.load(Ordering::Relaxed)
    }

    /// Picks the next thread to run and marks it running, advancing the clock
    /// to the earliest timer if nobody is runnable. `me` is the calling
    /// thread if it intends to park. Wakes nobody: the caller does that after
    /// releasing the state lock.
    fn pick_next(&self, st: &mut State, me: Option<Tid>) -> Next {
        let next = if let Some(next) = st.run_queue.pop_front() {
            next
        } else if let Some(t) = st.timers.pop() {
            debug_assert!(t.wake_at >= self.now(), "timer in the past");
            self.now.store(self.now().max(t.wake_at), Ordering::Relaxed);
            st.timer_events += 1;
            t.tid
        } else if st.live == 0 {
            return Next::Drained;
        } else {
            let mut report = String::new();
            for (i, th) in st.threads.iter().enumerate() {
                if th.status != Status::Dead {
                    report.push_str(&format!("\n  [{}] {:?} — {:?}", i, th.name, th.status));
                }
            }
            panic!(
                "xlsm-sim deadlock at t={} ns: no runnable threads and no pending timers; live threads:{report}",
                self.now()
            );
        };
        st.threads[next].status = Status::Running;
        if Some(next) == me {
            return Next::Caller;
        }
        st.switches += 1;
        st.threads[next].switched_to += 1;
        Next::Wake(Arc::clone(&st.threads[next].parker))
    }

    /// Retires the calling thread and hands the token on; its OS thread is
    /// about to finish.
    fn exit_current(&self, tid: Tid) {
        let mut st = self.state.lock();
        st.threads[tid].status = Status::Dead;
        st.live -= 1;
        let joiners = std::mem::take(&mut st.threads[tid].joiners);
        for j in joiners {
            st.threads[j].status = Status::Runnable;
            st.run_queue.push_back(j);
        }
        let next = self.pick_next(&mut st, None);
        drop(st);
        match next {
            Next::Caller => unreachable!("exiting thread cannot be rescheduled"),
            Next::Wake(successor) => successor.unpark(),
            Next::Drained => {}
        }
    }
}

impl Ctx {
    /// Gives up the run token: pick the successor under the lock, release the
    /// lock, wake the successor, then park. Waking first and unlocking second
    /// would schedule the successor straight into the held lock.
    fn grant_and_park(&self, mut st: parking_lot::MutexGuard<'_, State>) {
        let next = self.sched.pick_next(&mut st, Some(self.tid));
        drop(st);
        match next {
            Next::Caller => {}
            Next::Wake(successor) => {
                successor.unpark();
                self.parker.park();
            }
            Next::Drained => unreachable!("the calling thread is alive"),
        }
    }
}

// ---------------------------------------------------------------------------
// Public API: Runtime
// ---------------------------------------------------------------------------

/// Aggregate scheduler counters, useful for meta-observability of experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Number of run-token handoffs between distinct threads.
    pub switches: u64,
    /// Number of timer firings (clock advances).
    pub timer_events: u64,
    /// Final virtual time in nanoseconds.
    pub now: Nanos,
}

/// A deterministic virtual-time runtime.
///
/// Create one per experiment and call [`Runtime::run`] with the simulation
/// body. See the crate-level docs for an example.
pub struct Runtime {
    sched: Arc<Scheduler>,
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime").finish_non_exhaustive()
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

impl Runtime {
    /// Creates a fresh runtime with the clock at zero.
    pub fn new() -> Runtime {
        Runtime {
            sched: Scheduler::new(),
        }
    }

    /// Runs `f` as the root sim thread on the calling OS thread and returns
    /// its result once it completes.
    ///
    /// # Panics
    ///
    /// * if called from inside another sim thread (no nesting);
    /// * if non-daemon sim threads are still alive when `f` returns (thread
    ///   leak — join your workers);
    /// * if the simulation deadlocks (no runnable thread and no timer).
    pub fn run<T>(self, f: impl FnOnce() -> T) -> T {
        assert!(!in_sim(), "nested Runtime::run is not supported");
        let sched = self.sched;
        let parker = Parker::new(Some(std::thread::current()));
        {
            let mut st = sched.state.lock();
            st.threads.push(ThreadInfo {
                name: "root".to_owned(),
                parker: Arc::clone(&parker),
                status: Status::Running,
                daemon: false,
                joiners: Vec::new(),
                switched_to: 0,
            });
            st.live = 1;
        }
        CURRENT.with(|c| {
            *c.borrow_mut() = Some(Ctx {
                sched: Arc::clone(&sched),
                tid: 0,
                parker,
                charges: RefCell::default(),
            })
        });
        let result = catch_unwind(AssertUnwindSafe(f));
        CURRENT.with(|c| *c.borrow_mut() = None);
        let leaked: Vec<String> = {
            let st = sched.state.lock();
            st.threads
                .iter()
                .skip(1)
                .filter(|t| t.status != Status::Dead && !t.daemon)
                .map(|t| t.name.clone())
                .collect()
        };
        match result {
            Ok(v) => {
                assert!(
                    leaked.is_empty(),
                    "sim threads leaked past Runtime::run: {leaked:?}; join them before returning"
                );
                v
            }
            Err(payload) => resume_unwind(payload),
        }
    }
}

/// Scheduler counters for the current simulation.
pub fn stats() -> RuntimeStats {
    with_ctx(|ctx| {
        let st = ctx.sched.state.lock();
        RuntimeStats {
            switches: st.switches,
            timer_events: st.timer_events,
            now: ctx.sched.now(),
        }
    })
}

/// The run-token hand-offs of the current simulation so far, by whom they
/// woke: one `(name, hand-offs)` row per thread name with its trailing
/// number cut (`client-3` counts as `client-`, `root` as `root`), threads
/// that have exited included, sorted by name. The rows sum to
/// [`RuntimeStats::switches`].
pub fn switches_by_thread() -> Vec<(String, u64)> {
    with_ctx(|ctx| {
        let st = ctx.sched.state.lock();
        let mut by_name = std::collections::BTreeMap::<String, u64>::new();
        for th in &st.threads {
            let group = th.name.trim_end_matches(|c: char| c.is_ascii_digit());
            *by_name.entry(group.to_owned()).or_default() += th.switched_to;
        }
        by_name.into_iter().collect()
    })
}

// ---------------------------------------------------------------------------
// Public API: free functions (std::thread-style)
// ---------------------------------------------------------------------------

/// Current virtual time in nanoseconds since simulation start.
pub fn now_nanos() -> Nanos {
    with_ctx(|ctx| ctx.sched.now())
}

/// Advances the calling thread's virtual time by `d` nanoseconds, yielding
/// to other runnable threads in the meantime. `sleep_nanos(0)` still yields.
pub fn sleep_nanos(d: Nanos) {
    assert_not_in_critical_section("sleep_nanos");
    with_ctx(|ctx| {
        let mut st = ctx.sched.state.lock();
        st.seq += 1;
        let timer = Timer {
            wake_at: ctx.sched.now().saturating_add(d),
            seq: st.seq,
            tid: ctx.tid,
        };
        // Nobody is runnable and every pending timer is due later (an equal
        // deadline has the smaller sequence number and goes first): the
        // pick would pop this very timer and hand the token back to the
        // caller. Do what that pick does without the round trip through
        // the heap.
        if st.run_queue.is_empty()
            && st
                .timers
                .peek()
                .is_none_or(|next| next.wake_at > timer.wake_at)
        {
            ctx.sched.now.store(timer.wake_at, Ordering::Relaxed);
            st.timer_events += 1;
            return;
        }
        st.timers.push(timer);
        st.threads[ctx.tid].status = Status::Sleeping;
        ctx.grant_and_park(st);
    });
}

/// Cooperatively yields to other runnable threads without advancing time.
pub fn yield_now() {
    assert_not_in_critical_section("yield_now");
    with_ctx(|ctx| {
        let mut st = ctx.sched.state.lock();
        st.threads[ctx.tid].status = Status::Runnable;
        st.run_queue.push_back(ctx.tid);
        ctx.grant_and_park(st);
    });
}

pub(crate) fn current_tid() -> Tid {
    with_ctx(|ctx| ctx.tid)
}

/// Blocks the calling thread for `reason` (shown in deadlock reports) until
/// another thread calls [`unblock`] on it. The caller must already have
/// registered itself with whatever object will later wake it.
pub(crate) fn block_current(reason: &'static str) {
    with_ctx(|ctx| {
        let mut st = ctx.sched.state.lock();
        st.threads[ctx.tid].status = Status::Blocked(reason);
        ctx.grant_and_park(st);
    });
}

/// Makes a blocked thread runnable again (FIFO order).
pub(crate) fn unblock(tid: Tid) {
    with_ctx(|ctx| {
        let mut st = ctx.sched.state.lock();
        debug_assert!(
            matches!(st.threads[tid].status, Status::Blocked(_)),
            "unblock() on a thread that is not blocked: {:?} is {:?}",
            st.threads[tid].name,
            st.threads[tid].status
        );
        st.threads[tid].status = Status::Runnable;
        st.run_queue.push_back(tid);
    });
}

/// Result slot shared between a sim thread and its join handle.
type ResultSlot<T> = Arc<Mutex<Option<std::thread::Result<T>>>>;

/// Owner handle for a spawned sim thread; join to retrieve its result.
pub struct JoinHandle<T> {
    tid: Tid,
    slot: ResultSlot<T>,
    os_handle: Option<std::thread::JoinHandle<()>>,
}

impl<T> fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinHandle")
            .field("tid", &self.tid)
            .finish()
    }
}

impl<T> JoinHandle<T> {
    /// Blocks (in virtual time) until the thread finishes; returns its result.
    ///
    /// # Panics
    ///
    /// Re-raises the thread's panic, like [`std::thread::JoinHandle::join`]
    /// followed by `unwrap`.
    pub fn join(mut self) -> T {
        assert_not_in_critical_section("join");
        with_ctx(|ctx| {
            let mut st = ctx.sched.state.lock();
            if st.threads[self.tid].status != Status::Dead {
                st.threads[self.tid].joiners.push(ctx.tid);
                st.threads[ctx.tid].status = Status::Blocked("join");
                ctx.grant_and_park(st);
            }
        });
        // Reap the OS thread so nothing leaks past the runtime.
        if let Some(h) = self.os_handle.take() {
            let _ = h.join();
        }
        let result = self
            .slot
            .lock()
            .take()
            .expect("sim thread result already taken");
        match result {
            Ok(v) => v,
            Err(payload) => resume_unwind(payload),
        }
    }
}

fn spawn_inner<T: Send + 'static>(
    name: &str,
    daemon: bool,
    f: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    assert_not_in_critical_section("spawn");
    let sched = with_ctx(|ctx| Arc::clone(&ctx.sched));
    let slot: ResultSlot<T> = Arc::new(Mutex::new(None));
    let parker = Parker::new(None);

    let tid = {
        let mut st = sched.state.lock();
        let tid = st.threads.len();
        st.threads.push(ThreadInfo {
            name: name.to_owned(),
            parker: Arc::clone(&parker),
            status: Status::Runnable,
            daemon,
            joiners: Vec::new(),
            switched_to: 0,
        });
        st.live += 1;
        st.run_queue.push_back(tid);
        tid
    };

    let slot2 = Arc::clone(&slot);
    let parker2 = Arc::clone(&parker);
    let os_handle = std::thread::Builder::new()
        .name(name.to_owned())
        .spawn(move || {
            // Wait to be granted the run token for the first time.
            parker2.park();
            CURRENT.with(|c| {
                *c.borrow_mut() = Some(Ctx {
                    sched: Arc::clone(&sched),
                    tid,
                    parker: parker2,
                    charges: RefCell::default(),
                })
            });
            let result = catch_unwind(AssertUnwindSafe(f));
            *slot2.lock() = Some(result);
            CURRENT.with(|c| *c.borrow_mut() = None);
            sched.exit_current(tid);
        })
        .expect("failed to spawn OS thread for sim thread");
    // The spawner still holds the run token, so nobody has tried to wake the
    // new thread yet.
    parker
        .thread
        .set(os_handle.thread().clone())
        .expect("set once, here");

    JoinHandle {
        tid,
        slot,
        os_handle: Some(os_handle),
    }
}

/// Spawns a named sim thread. It becomes runnable immediately (the spawner
/// keeps running; no implicit yield).
pub fn spawn<T: Send + 'static>(
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    spawn_inner(name, false, f)
}

/// Spawns a *daemon* sim thread: it is allowed to still be blocked when the
/// root returns. Prefer joinable threads; use this only for per-process
/// background services.
pub fn spawn_daemon<T: Send + 'static>(
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    spawn_inner(name, true, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero_and_sleep_advances() {
        Runtime::new().run(|| {
            assert_eq!(now_nanos(), 0);
            sleep_nanos(5_000);
            assert_eq!(now_nanos(), 5_000);
            sleep_nanos(10);
            assert_eq!(now_nanos(), 5_010);
        });
    }

    #[test]
    fn spawn_and_join_returns_value() {
        let v = Runtime::new().run(|| {
            let h = spawn("child", || 41 + 1);
            h.join()
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn concurrent_sleeps_interleave_by_deadline() {
        Runtime::new().run(|| {
            let log = Arc::new(Mutex::new(Vec::new()));
            let l1 = Arc::clone(&log);
            let h1 = spawn("a", move || {
                sleep_nanos(30_000);
                l1.lock().push(('a', now_nanos()));
            });
            let l2 = Arc::clone(&log);
            let h2 = spawn("b", move || {
                sleep_nanos(10_000);
                l2.lock().push(('b', now_nanos()));
                sleep_nanos(40_000);
                l2.lock().push(('b', now_nanos()));
            });
            h1.join();
            h2.join();
            let got = log.lock().clone();
            assert_eq!(got, vec![('b', 10_000), ('a', 30_000), ('b', 50_000)]);
        });
    }

    #[test]
    fn same_deadline_fires_in_registration_order() {
        Runtime::new().run(|| {
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut handles = Vec::new();
            for i in 0..8 {
                let l = Arc::clone(&log);
                handles.push(spawn(&format!("t{i}"), move || {
                    sleep_nanos(100_000);
                    l.lock().push(i);
                }));
            }
            for h in handles {
                h.join();
            }
            assert_eq!(log.lock().clone(), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        });
    }

    #[test]
    fn determinism_across_runs() {
        fn once() -> Vec<(u32, Nanos)> {
            Runtime::new().run(|| {
                let log = Arc::new(Mutex::new(Vec::new()));
                let mut handles = Vec::new();
                for i in 0..5u32 {
                    let l = Arc::clone(&log);
                    handles.push(spawn(&format!("w{i}"), move || {
                        for k in 0..20u64 {
                            sleep_nanos(100 + (i as u64 * 37 + k * 13) % 91);
                            l.lock().push((i, now_nanos()));
                        }
                    }));
                }
                for h in handles {
                    h.join();
                }
                Arc::try_unwrap(log).unwrap().into_inner()
            })
        }
        assert_eq!(once(), once());
    }

    #[test]
    fn child_panic_propagates_on_join() {
        let result = std::panic::catch_unwind(|| {
            Runtime::new().run(|| {
                let h = spawn("boom", || panic!("exploded"));
                h.join()
            })
        });
        assert!(result.is_err());
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        Runtime::new().run(|| {
            let ws = crate::sync::WaitSet::new("never");
            ws.wait(); // nobody will ever notify
        });
    }

    #[test]
    fn yield_now_round_robins() {
        Runtime::new().run(|| {
            let log = Arc::new(Mutex::new(Vec::new()));
            let l1 = Arc::clone(&log);
            let h = spawn("other", move || {
                l1.lock().push("other");
            });
            yield_now();
            log.lock().push("root");
            h.join();
            assert_eq!(log.lock().clone(), vec!["other", "root"]);
        });
    }

    #[test]
    fn grant_before_park_is_kept_and_consumed_once() {
        let parker = Parker::new(Some(std::thread::current()));
        // The early wake: the grant lands before its target has parked.
        parker.unpark();
        parker.park();
        // That park consumed the grant but not the OS-level unpark token; the
        // stale token must not satisfy the next park on its own.
        let granted_again = Arc::new(AtomicBool::new(false));
        let waker = {
            let (parker, granted_again) = (Arc::clone(&parker), Arc::clone(&granted_again));
            std::thread::spawn(move || {
                granted_again.store(true, Ordering::SeqCst);
                parker.unpark();
            })
        };
        parker.park();
        assert!(granted_again.load(Ordering::SeqCst));
        waker.join().unwrap();
    }

    #[test]
    fn runtime_stats_count_switches() {
        let s = Runtime::new().run(|| {
            let h = spawn("w", || sleep_nanos(1_000));
            h.join();
            stats()
        });
        assert!(s.switches >= 2);
        assert_eq!(s.now, 1_000);
    }

    #[test]
    fn switches_are_counted_for_the_thread_they_wake() {
        let (by_thread, total) = Runtime::new().run(|| {
            let workers: Vec<_> = (0..3)
                .map(|i| spawn(&format!("client-{i}"), || sleep_nanos(1_000)))
                .collect();
            let flusher = spawn("flush-0", yield_now);
            for w in workers {
                w.join();
            }
            flusher.join();
            (switches_by_thread(), stats().switches)
        });
        // Each client is woken to start and again after its sleep. The
        // flusher is woken once: when it yields nobody else is runnable, so
        // it keeps the token. Root is woken by each client's exit, one per
        // join it parked in.
        assert_eq!(
            by_thread,
            vec![
                ("client-".to_owned(), 6),
                ("flush-".to_owned(), 1),
                ("root".to_owned(), 3),
            ]
        );
        assert_eq!(by_thread.iter().map(|(_, n)| n).sum::<u64>(), total);
    }

    #[test]
    #[should_panic(expected = "leaked")]
    fn leaked_thread_panics() {
        Runtime::new().run(|| {
            let _h = spawn("stuck", || {
                sleep_nanos(1_000_000_000_000_000);
            });
            // root returns without joining
        });
    }

    #[test]
    fn daemon_thread_may_outlive_root() {
        Runtime::new().run(|| {
            let _h = spawn_daemon("bg", || {
                crate::sync::WaitSet::new("forever").wait();
            });
            sleep_nanos(1_000);
        });
    }
}
