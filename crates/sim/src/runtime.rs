//! The cooperative virtual-time scheduler.
//!
//! See the crate docs for the execution model and the hand-off protocol. In
//! short: exactly one sim thread holds the *run token* at a time, and the
//! global clock advances to the earliest timer whenever no thread is runnable.
//! This module decides which thread runs and when; how a sim thread runs on
//! the host is its [`Body`]'s business.

use crate::charge::{Charges, Class, Ledger};
use crate::Host;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Virtual time in nanoseconds since the start of the simulation.
pub type Nanos = u64;

type Tid = usize;

/// The thread that runs the body of [`Runtime::run`], on the caller's stack:
/// the first, and the one running when a scheduler is made.
const ROOT: Tid = 0;

// ---------------------------------------------------------------------------
// Thread-local context
// ---------------------------------------------------------------------------

/// What a sim thread finds on its OS thread: its runtime's scheduler, its
/// lock domain and its charges. The fibers of a runtime share one; an
/// OS-thread body has its own.
pub(crate) struct Ctx {
    sched: Arc<Scheduler>,
    /// The lock domain of root's OS thread, which every sim thread of the
    /// runtime takes its locks in: the run token is the only lock
    /// (`parking_lot`'s crate docs).
    domain: parking_lot::Domain,
    /// What the running thread has been charged ([`mod@crate::charge`]). A
    /// thread starts at zero, keeps its own on its stack while another runs
    /// and puts them back when it gets the token again ([`hand_over`]).
    pub(crate) charges: RefCell<Charges>,
}

impl Ctx {
    fn new(sched: Arc<Scheduler>, domain: parking_lot::Domain) -> Ctx {
        Ctx {
            sched,
            domain,
            charges: RefCell::default(),
        }
    }

    /// Runs `f` on the runtime's host-time books, if it keeps them.
    #[inline(always)]
    pub(crate) fn host(&self, f: impl FnOnce(&mut Ledger)) {
        self.sched.host(f);
    }

    /// Runs `f` with this context installed on the calling OS thread, in
    /// the runtime's lock domain: root's OS thread is in it already, and an
    /// OS-thread body's thread enters it here (and passes it on at each
    /// hand-off, `threads.rs`).
    pub(crate) fn enter<T>(self, f: impl FnOnce() -> T) -> T {
        let domain = self.domain.clone();
        domain.enter(|| {
            CURRENT.with(|c| *c.borrow_mut() = Some(self));
            let result = f();
            CURRENT.with(|c| *c.borrow_mut() = None);
            result
        })
    }
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

/// Every operation that can give up the run token starts here. The count is
/// kept by the lock shim itself, one per live guard on this thread, so it
/// sees every `Mutex` the workspace takes.
pub(crate) fn assert_not_in_critical_section(op: &str) {
    let held = parking_lot::guards_held();
    assert!(
        held == 0,
        "sim-blocking operation `{op}` called while holding {held} parking_lot (shim) lock \
         guard(s); the next thread to take that lock would find it held"
    );
}

// ---------------------------------------------------------------------------
// The body: what a sim thread is on the host
// ---------------------------------------------------------------------------

/// What a sim thread is on the host, and all that the scheduler leaves to
/// it: how a thread starts, how the run token passes to the next thread, and
/// how a thread exits. Implemented by a fiber (`crate::fiber`) and an OS
/// thread (`crate::threads`); `crate::Host` is the one a [`Runtime`] uses.
pub(crate) trait Body: Sized + Send {
    /// A hand-off, decided under the state lock and made once it is released.
    type Swap;

    /// The body of root, on the OS thread that calls [`Runtime::run`].
    fn root() -> Self;

    /// The body of a thread that this one spawns, which calls
    /// [`run_spawned`] once it is first handed the token. `idle` is the body
    /// of a thread that has exited, for a body that can run another thread;
    /// `ctx` makes a context for a new OS thread of this runtime.
    fn start(&self, idle: Option<Self>, name: &str, ctx: impl FnOnce() -> Ctx) -> Self;

    /// The hand-off from this thread, which holds the token, to `next`.
    fn swap_to(&self, next: &Self) -> Self::Swap;

    /// Makes `swap`; returns once a later hand-off gives the token back.
    /// Called with no lock guard and no context borrow alive.
    fn switch(swap: Self::Swap);

    /// Makes `swap` from a thread that has exited; returns once the body is
    /// free. By default that is a switch, which returns when a spawn hands
    /// the body its next thread; an OS thread returns at once, and ends.
    fn exit(swap: Self::Swap) {
        Self::switch(swap);
    }
}

type Swap = <Host as Body>::Swap;

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

/// A spawned thread's body, run under `catch_unwind` with its result stored
/// for the join.
type Start = Box<dyn FnOnce() + Send>;

struct ThreadInfo {
    name: String,
    status: Status,
    daemon: bool,
    joiners: Vec<Tid>,
    /// Hand-offs that gave this thread the run token.
    switched_to: u64,
    /// The closure a spawned thread runs, until its first run takes it.
    start: Option<Start>,
    /// What the thread runs on, until it exits and leaves it to the next
    /// spawn ([`State::idle`]).
    body: Option<Host>,
}

impl ThreadInfo {
    fn new(name: &str, status: Status, daemon: bool, start: Option<Start>, body: Host) -> Self {
        ThreadInfo {
            name: name.to_owned(),
            status,
            daemon,
            joiners: Vec::new(),
            switched_to: 0,
            start,
            body: Some(body),
        }
    }

    fn body(&self) -> &Host {
        self.body.as_ref().expect("a live thread's body")
    }
}

/// A sleeper's wake-up, `(deadline, sequence, tid)`, reversed so that the
/// max-heap pops the earliest deadline first and, of equal deadlines, the
/// first registered. Sequence numbers are unique: the tid never decides.
type Timer = Reverse<(Nanos, u64, Tid)>;

#[derive(Default)]
struct State {
    run_queue: VecDeque<Tid>,
    timers: BinaryHeap<Timer>,
    threads: Vec<ThreadInfo>,
    seq: u64,
    switches: u64,
    timer_events: u64,
    /// A deadlock found by a thread other than root, which handed root the
    /// token for root to raise it from [`Runtime::run`]
    /// ([`Scheduler::deadlocked`]).
    deadlock: Option<String>,
    /// Bodies of exited threads, for the next spawns.
    idle: Vec<Host>,
}

#[derive(Default)]
struct Scheduler {
    state: Mutex<State>,
    /// The virtual clock. Written only under the `state` lock, by the thread
    /// that holds the run token; read without it by `now_nanos`. Relaxed is
    /// enough: a reader holds the run token, and the hand-off that gave it
    /// the token (state lock, then the body's switch, which orders memory
    /// like a lock hand-over) orders every earlier write before it.
    now: AtomicU64,
    /// The thread that holds the run token, [`ROOT`] at first: set by every
    /// hand-off to the thread the pick chose, and read, like `now`, by the
    /// token holder.
    running: AtomicUsize,
    /// Whether `State::deadlock` holds a report. Root reads it at every
    /// resume, so it is kept outside the lock; the hand-off orders it.
    deadlocked: AtomicBool,
    /// The host-time books ([`Runtime::attribute_host_time`]), written by
    /// the token holder at its charges, waits, picks and resumes.
    host: Option<Mutex<Ledger>>,
}

/// What [`Scheduler::pick_next`] decided.
enum Next {
    /// The pick landed on the caller, which keeps the run token.
    Caller,
    /// Hand the token to this thread once the state lock is released.
    Wake(Tid),
    /// Nothing is runnable and no timer is pending: the report.
    Deadlock(String),
}

impl Scheduler {
    fn now(&self) -> Nanos {
        self.now.load(Ordering::Relaxed)
    }

    fn running(&self) -> Tid {
        self.running.load(Ordering::Relaxed)
    }

    /// Runs `f` on the host-time books, if this runtime keeps them: with
    /// attribution off, a hook is this one branch.
    #[inline(always)]
    fn host(&self, f: impl FnOnce(&mut Ledger)) {
        if let Some(h) = &self.host {
            f(&mut h.lock());
        }
    }

    /// Runs `decide`, which picks who runs next, as thread `me`'s stop to
    /// charge `parts` (none: a wait): the books close `me`'s run before it
    /// and the scheduler's work after it.
    #[inline(always)]
    fn attributed(
        &self,
        me: Tid,
        parts: &[(Class, Nanos)],
        decide: impl FnOnce() -> Option<Swap>,
    ) -> Option<Swap> {
        let Some(h) = &self.host else {
            return decide();
        };
        h.lock().ran(me, parts);
        let swap = decide();
        h.lock().picked();
        swap
    }

    /// Picks the next thread to run and marks it running, advancing the clock
    /// to the earliest timer if nobody is runnable. `me` is the calling
    /// thread if it intends to wait. Hands nothing over: the caller does that.
    fn pick_next(&self, st: &mut State, me: Option<Tid>) -> Next {
        let next = if let Some(next) = st.run_queue.pop_front() {
            next
        } else if let Some(Reverse((wake_at, _, tid))) = st.timers.pop() {
            debug_assert!(wake_at >= self.now(), "timer in the past");
            self.now.store(self.now().max(wake_at), Ordering::Relaxed);
            st.timer_events += 1;
            tid
        } else {
            let mut report = String::new();
            for (i, th) in st.threads.iter().enumerate() {
                if th.status != Status::Dead {
                    report.push_str(&format!("\n  [{}] {:?} — {:?}", i, th.name, th.status));
                }
            }
            return Next::Deadlock(format!(
                "xlsm-sim deadlock at t={} ns: no runnable threads and no pending timers; live threads:{report}",
                self.now()
            ));
        };
        st.threads[next].status = Status::Running;
        if Some(next) == me {
            return Next::Caller;
        }
        st.switches += 1;
        st.threads[next].switched_to += 1;
        Next::Wake(next)
    }

    /// Gives up the run token: `me`, the caller, has queued, timed or blocked
    /// itself under `st`. Returns the hand-off to the successor, to be made
    /// once the lock and the context borrow are released, or `None` when
    /// the pick lands on the caller.
    ///
    /// # Panics
    ///
    /// If root finds the simulation deadlocked. Another thread that finds it
    /// hands root the token with the report, for root to raise.
    fn give_up(&self, st: &mut State, me: Tid) -> Option<Swap> {
        match self.pick_next(st, Some(me)) {
            Next::Caller => None,
            Next::Wake(next) => Some(self.hand_to(st, me, next)),
            Next::Deadlock(report) if me == ROOT => panic!("{report}"),
            Next::Deadlock(report) => Some(self.hand_deadlock_to_root(st, me, report)),
        }
    }

    /// The hand-off that gives root the token and `report` to raise.
    fn hand_deadlock_to_root(&self, st: &mut State, me: Tid, report: String) -> Swap {
        st.deadlock = Some(report);
        self.deadlocked.store(true, Ordering::Relaxed);
        self.hand_to(st, me, ROOT)
    }

    /// The hand-off from `me` to `next`, which holds the token from here on.
    fn hand_to(&self, st: &State, me: Tid, next: Tid) -> Swap {
        self.running.store(next, Ordering::Relaxed);
        st.threads[me].body().swap_to(st.threads[next].body())
    }
}

/// Makes `swap`, if there is one, and returns once the calling thread holds
/// the token again. Call with no lock guard and no context borrow alive.
/// Inlined, so that a sleep that keeps the token pays one branch for it.
///
/// # Panics
///
/// When root gets the token back from a thread that found the simulation
/// deadlocked, with that thread's report.
#[inline(always)]
fn switch(swap: Option<Swap>) {
    if let Some(swap) = swap {
        hand_over(swap);
    }
}

/// The out-of-line half of [`switch`]. The caller's charges wait on its own
/// stack while other threads run, so no thread writes another's.
fn hand_over(swap: Swap) {
    let mine = crate::charges();
    Host::switch(swap);
    let deadlock = with_ctx(|ctx| {
        ctx.host(Ledger::resumed);
        *ctx.charges.borrow_mut() = mine;
        if !ctx.sched.deadlocked.load(Ordering::Relaxed) {
            return None;
        }
        debug_assert_eq!(ctx.sched.running(), ROOT, "a deadlock is handed to root");
        ctx.sched.deadlocked.store(false, Ordering::Relaxed);
        ctx.sched.state.lock().deadlock.take()
    });
    if let Some(report) = deadlock {
        panic!("{report}");
    }
}

/// The life of a spawned thread, on a body just handed the token for it: run
/// the closure registered for its tid from zero charges, then retire and
/// leave the body to the next spawn. Returns once the body is free
/// ([`Body::exit`]).
pub(crate) fn run_spawned() {
    let start = with_ctx(|ctx| {
        ctx.host(Ledger::resumed);
        *ctx.charges.borrow_mut() = Charges::default();
        ctx.sched.state.lock().threads[ctx.sched.running()]
            .start
            .take()
    });
    start.expect("a spawned thread runs its closure once")();
    let swap = with_ctx(|ctx| {
        let sched = &ctx.sched;
        let mut st = sched.state.lock();
        let me = sched.running();
        sched.host(|h| h.exited(me));
        st.threads[me].status = Status::Dead;
        for j in std::mem::take(&mut st.threads[me].joiners) {
            st.threads[j].status = Status::Runnable;
            st.run_queue.push_back(j);
        }
        let swap = match sched.pick_next(&mut st, None) {
            Next::Caller => unreachable!("an exiting thread cannot be rescheduled"),
            Next::Wake(next) => sched.hand_to(&st, me, next),
            Next::Deadlock(report) => sched.hand_deadlock_to_root(&mut st, me, report),
        };
        sched.host(Ledger::picked);
        // The swap already holds what it needs of the body, and nothing
        // reuses the body before the swap: only this thread runs until then.
        let body = st.threads[me].body.take();
        st.idle.extend(body);
        swap
    });
    Host::exit(swap);
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
            sched: Arc::default(),
        }
    }

    /// Makes the runtime attribute host time to charge classes, read with
    /// [`host_times`](crate::charge::host_times). It costs two clock reads
    /// per charge or wait and one per hand-off; without it, each of those
    /// hooks is one branch. Every virtual number is the same either way.
    pub fn attribute_host_time(mut self) -> Runtime {
        Arc::get_mut(&mut self.sched)
            .expect("a runtime that has not run")
            .host = Some(Mutex::new(Ledger::new()));
        self
    }

    /// Runs `f` as the root sim thread on the calling OS thread and returns
    /// its result once it completes.
    ///
    /// A daemon still waiting when `f` returns never runs again: its body
    /// goes with the scheduler, and what its frames own leaks. (A fiber's
    /// stack is unmapped here; an OS thread stays parked.)
    ///
    /// # Panics
    ///
    /// * if called from inside another sim thread (no nesting);
    /// * if non-daemon sim threads are still alive when `f` returns (thread
    ///   leak — join your workers);
    /// * if the simulation deadlocks (no runnable thread and no timer), with
    ///   the report, whichever thread found it.
    pub fn run<T>(self, f: impl FnOnce() -> T) -> T {
        let nested = CURRENT.with(|c| c.borrow().is_some());
        assert!(!nested, "nested Runtime::run is not supported");
        let sched = self.sched;
        let root = ThreadInfo::new("root", Status::Running, false, None, Host::root());
        sched.state.lock().threads.push(root);
        sched.host(|h| *h = Ledger::new());
        let ctx = Ctx::new(Arc::clone(&sched), parking_lot::Domain::current());
        let result = ctx.enter(|| catch_unwind(AssertUnwindSafe(f)));
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
    sleep_charged(d, &[]);
}

/// [`sleep_nanos`] as a charge of `parts` (none: a bare sleep), for the
/// host-time books.
pub(crate) fn sleep_charged(d: Nanos, parts: &[(Class, Nanos)]) {
    assert_not_in_critical_section("sleep_nanos");
    switch(with_ctx(|ctx| {
        let sched = &ctx.sched;
        let mut st = sched.state.lock();
        let me = sched.running();
        sched.attributed(me, parts, || {
            st.seq += 1;
            let wake_at = sched.now().saturating_add(d);
            // Nobody is runnable and every pending timer is due later (an
            // equal deadline has the smaller sequence number and goes
            // first): the pick would pop this very timer and hand the token
            // back to the caller. Do what that pick does without the round
            // trip through the heap.
            if st.run_queue.is_empty()
                && st
                    .timers
                    .peek()
                    .is_none_or(|Reverse((next, ..))| *next > wake_at)
            {
                sched.now.store(wake_at, Ordering::Relaxed);
                st.timer_events += 1;
                return None;
            }
            let seq = st.seq;
            st.timers.push(Reverse((wake_at, seq, me)));
            st.threads[me].status = Status::Sleeping;
            sched.give_up(&mut st, me)
        })
    }));
}

/// Cooperatively yields to other runnable threads without advancing time.
pub fn yield_now() {
    assert_not_in_critical_section("yield_now");
    switch(with_ctx(|ctx| {
        let mut st = ctx.sched.state.lock();
        let me = ctx.sched.running();
        st.threads[me].status = Status::Runnable;
        st.run_queue.push_back(me);
        ctx.sched
            .attributed(me, &[], || ctx.sched.give_up(&mut st, me))
    }));
}

pub(crate) fn current_tid() -> Tid {
    with_ctx(|ctx| ctx.sched.running())
}

/// Blocks the calling thread for `reason` (shown in deadlock reports) until
/// another thread calls [`unblock`] on it. The caller must already have
/// registered itself with whatever object will later wake it.
pub(crate) fn block_current(reason: &'static str) {
    switch(with_ctx(|ctx| {
        let mut st = ctx.sched.state.lock();
        let me = ctx.sched.running();
        st.threads[me].status = Status::Blocked(reason);
        ctx.sched
            .attributed(me, &[], || ctx.sched.give_up(&mut st, me))
    }));
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
    pub fn join(self) -> T {
        assert_not_in_critical_section("join");
        switch(with_ctx(|ctx| {
            let mut st = ctx.sched.state.lock();
            if st.threads[self.tid].status == Status::Dead {
                return None;
            }
            let me = ctx.sched.running();
            st.threads[self.tid].joiners.push(me);
            st.threads[me].status = Status::Blocked("join");
            ctx.sched
                .attributed(me, &[], || ctx.sched.give_up(&mut st, me))
        }));
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
    let slot: ResultSlot<T> = Arc::new(Mutex::new(None));
    let slot2 = Arc::clone(&slot);
    let start: Start = Box::new(move || {
        let result = catch_unwind(AssertUnwindSafe(f));
        *slot2.lock() = Some(result);
    });
    let tid = with_ctx(|ctx| {
        let mut st = ctx.sched.state.lock();
        let tid = st.threads.len();
        let idle = st.idle.pop();
        let body = st.threads[ctx.sched.running()]
            .body()
            .start(idle, name, || {
                Ctx::new(Arc::clone(&ctx.sched), ctx.domain.clone())
            });
        st.threads.push(ThreadInfo::new(
            name,
            Status::Runnable,
            daemon,
            Some(start),
            body,
        ));
        st.run_queue.push_back(tid);
        tid
    });
    JoinHandle { tid, slot }
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
    use crate::sync::WaitSet;

    use crate::tests::each_body;

    /// Runs `test` once on a runtime of each body. All must pass, or all
    /// must panic; the first panic is raised again once all have run.
    fn on_each_body(test: impl Fn(Runtime)) {
        let outcomes = each_body(|| catch_unwind(AssertUnwindSafe(|| test(Runtime::new()))));
        let panicked = outcomes.iter().filter(|o| o.is_err()).count();
        let bodies = outcomes.len();
        if let Some(Err(payload)) = outcomes.into_iter().find(Result::is_err) {
            assert_eq!(panicked, bodies, "the bodies disagree on panicking");
            resume_unwind(payload);
        }
    }

    #[test]
    fn clock_starts_at_zero_and_sleep_advances() {
        on_each_body(|rt| {
            rt.run(|| {
                assert_eq!(now_nanos(), 0);
                sleep_nanos(5_000);
                assert_eq!(now_nanos(), 5_000);
                sleep_nanos(10);
                assert_eq!(now_nanos(), 5_010);
            })
        });
    }

    #[test]
    fn spawn_and_join_returns_value() {
        on_each_body(|rt| {
            let v = rt.run(|| {
                let h = spawn("child", || 41 + 1);
                h.join()
            });
            assert_eq!(v, 42);
        });
    }

    #[test]
    fn concurrent_sleeps_interleave_by_deadline() {
        on_each_body(|rt| {
            rt.run(|| {
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
            })
        });
    }

    #[test]
    fn same_deadline_fires_in_registration_order() {
        on_each_body(|rt| {
            rt.run(|| {
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
            })
        });
    }

    #[test]
    fn determinism_across_runs() {
        fn once(rt: Runtime) -> Vec<(u32, Nanos)> {
            rt.run(|| {
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
        let runs = each_body(|| (once(Runtime::new()), once(Runtime::new())));
        for (a, b) in &runs {
            assert_eq!(a, b);
            assert_eq!(a, &runs[0].0, "every body, one schedule");
        }
    }

    /// Panics from `depth` frames down.
    #[inline(never)]
    fn explode(depth: u32) -> u32 {
        if depth == 0 {
            panic!("exploded deep");
        }
        explode(std::hint::black_box(depth - 1)) + 1
    }

    #[test]
    fn child_panic_propagates_on_join() {
        on_each_body(|rt| {
            let result = catch_unwind(AssertUnwindSafe(|| {
                rt.run(|| {
                    let h = spawn("boom", || panic!("exploded"));
                    h.join()
                })
            }));
            assert!(result.is_err());
        });
        // Several frames deep, in a thread that has already switched out and
        // back, while another thread is alive; the runtime's other threads
        // carry on and root re-raises it at the join.
        on_each_body(|rt| {
            let payload = catch_unwind(AssertUnwindSafe(|| {
                rt.run(|| {
                    let other = spawn("other", || sleep_nanos(2_000));
                    let deep = spawn("deep", || {
                        sleep_nanos(1_000);
                        explode(8)
                    });
                    other.join();
                    deep.join()
                })
            }))
            .expect_err("the panic reaches the joiner");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"exploded deep"));
        });
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        on_each_body(|rt| {
            rt.run(|| {
                let ws = WaitSet::new("never");
                ws.wait(); // nobody will ever notify
            })
        });
    }

    /// Found by a spawned thread: root waits on one set, the spawned thread on
    /// another. The report comes out of `Runtime::run`, once.
    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_found_on_a_spawned_thread_panics_run() {
        on_each_body(|rt| {
            rt.run(|| {
                let _spawned = spawn("waits-on-b", || WaitSet::new("b").wait());
                WaitSet::new("a").wait();
            })
        });
    }

    #[test]
    fn yield_now_round_robins() {
        on_each_body(|rt| {
            rt.run(|| {
                let log = Arc::new(Mutex::new(Vec::new()));
                let l1 = Arc::clone(&log);
                let h = spawn("other", move || {
                    l1.lock().push("other");
                });
                yield_now();
                log.lock().push("root");
                h.join();
                assert_eq!(log.lock().clone(), vec!["other", "root"]);
            })
        });
    }

    #[test]
    fn runtime_stats_count_switches() {
        on_each_body(|rt| {
            let s = rt.run(|| {
                let h = spawn("w", || sleep_nanos(1_000));
                h.join();
                stats()
            });
            assert!(s.switches >= 2);
            assert_eq!(s.now, 1_000);
        });
    }

    #[test]
    fn switches_are_counted_for_the_thread_they_wake() {
        on_each_body(|rt| {
            let (by_thread, total) = rt.run(|| {
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
            // flusher is woken once: when it yields nobody else is runnable,
            // so it keeps the token. Root is woken by each client's exit, one
            // per join it parked in.
            assert_eq!(
                by_thread,
                vec![
                    ("client-".to_owned(), 6),
                    ("flush-".to_owned(), 1),
                    ("root".to_owned(), 3),
                ]
            );
            assert_eq!(by_thread.iter().map(|(_, n)| n).sum::<u64>(), total);
        });
    }

    /// A thread's charges survive every switch, and a thread that reuses an
    /// exited thread's fiber starts at zero.
    #[test]
    fn charges_follow_their_thread_across_switches() {
        use crate::charge::{charge, charges, Class};
        on_each_body(|rt| {
            rt.run(|| {
                let first = spawn("first", || {
                    charge(Class::Setup, 10);
                    charge(Class::Search, 5);
                    charges().total()
                });
                charge(Class::Flush, 7);
                assert_eq!(first.join(), 15);
                let second = spawn("second", || {
                    let fresh = charges().total();
                    charge(Class::Merge, 3);
                    (fresh, charges().total())
                });
                yield_now();
                assert_eq!(second.join(), (0, 3));
                assert_eq!(charges().total(), 7);
                assert_eq!(charges().get(Class::Flush), 7);
            })
        });
    }

    /// An exiting thread hands the token straight to one that has never run
    /// (on fibers, a fresh one, while the exited fiber goes idle): the
    /// newcomer starts at zero under its own tid, and the exit leaves the
    /// joiner's charges as they were.
    #[test]
    fn an_exit_hands_a_fresh_thread_a_clean_context() {
        use crate::charge::{charge, charges, waited, Class};
        on_each_body(|rt| {
            rt.run(|| {
                charge(Class::Flush, 7);
                let a = spawn("a", || {
                    waited(Class::Search, 5);
                    current_tid()
                });
                let b = spawn("b", || (charges().total(), current_tid()));
                assert_eq!(a.join(), 1);
                assert_eq!(charges().total(), 7);
                assert_eq!(charges().get(Class::Flush), 7);
                assert_eq!(b.join(), (0, 2));
                assert_eq!(stats().switches, 3, "root -> a -> b -> root");
            })
        });
    }

    #[test]
    #[should_panic(expected = "leaked")]
    fn leaked_thread_panics() {
        on_each_body(|rt| {
            rt.run(|| {
                let _h = spawn("stuck", || {
                    sleep_nanos(1_000_000_000_000_000);
                });
                // root returns without joining
            })
        });
    }

    /// Every sim thread of a runtime takes its locks in root's domain, on
    /// OS threads too: a lock passes between them, and between runtimes that
    /// run one after another on one OS thread.
    #[test]
    fn sim_threads_share_locks_with_root() {
        let shared = Arc::new(Mutex::new(Vec::new()));
        *shared.lock() = vec!["before"];
        on_each_body(|rt| {
            let lock = Arc::clone(&shared);
            rt.run(move || {
                lock.lock().push("root");
                let children: Vec<_> = (0..2)
                    .map(|_| {
                        let lock = Arc::clone(&lock);
                        spawn("child", move || {
                            lock.lock().push("child");
                            sleep_nanos(10);
                            lock.lock().push("child");
                        })
                    })
                    .collect();
                yield_now();
                lock.lock().push("root");
                children.into_iter().for_each(JoinHandle::join);
            });
        });
        let runs = shared.lock().len();
        assert_eq!(runs, 1 + 6 * crate::tests::each_body(|| ()).len());
    }

    /// Two runtimes alive at once on two OS threads are two domains: a lock
    /// one has taken panics in the other, and is left as it was.
    #[test]
    fn live_runtimes_on_two_os_threads_do_not_share_a_lock() {
        use std::sync::mpsc;
        on_each_body(|_| {
            let shared = Arc::new(Mutex::new(0));
            let (taken, finish) = (mpsc::channel(), mpsc::channel::<()>());
            let first = {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    Runtime::new().run(|| {
                        *shared.lock() += 1;
                        taken.0.send(()).unwrap();
                        finish.1.recv().unwrap();
                    })
                })
            };
            taken.1.recv().unwrap();
            let second = catch_unwind(AssertUnwindSafe(|| {
                Runtime::new().run(|| *shared.lock() += 1);
            }));
            finish.0.send(()).unwrap();
            first.join().unwrap();
            let msg = second.expect_err("a second live domain's take panics");
            let msg = msg.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("taken from another"), "{msg}");
            assert_eq!(
                *shared.lock(),
                1,
                "the first domain ended: the lock passes on"
            );
        });
    }

    #[test]
    fn daemon_thread_may_outlive_root() {
        on_each_body(|rt| {
            rt.run(|| {
                let _h = spawn_daemon("bg", || {
                    WaitSet::new("forever").wait();
                });
                sleep_nanos(1_000);
            })
        });
    }
}
