//! Simulation-aware synchronization primitives.
//!
//! All blocking here is *virtual-time blocking*: the waiting thread hands the
//! run token back to the scheduler, and wakers move it to the runnable queue.
//! Because exactly one sim thread executes at a time, a check-then-wait
//! sequence with no intervening blocking call is atomic with respect to other
//! sim threads — the primitives below rely on that property and therefore
//! need no lost-wakeup dance.
//!
//! There is no lock type here: shared state sits behind the `parking_lot`
//! shim's `Mutex`, the workspace's one lock kind, which can never be
//! contended while one thread runs at a time, and every wait below first
//! checks that the caller holds none of its guards (see the crate docs,
//! "Sim-safety"). For the same reason nothing here retries: no
//! compare-exchange loop, no atomic read-modify-write. A counter only the
//! run-token holder writes adds with [`add`] and [`max`], a load and a store.

use crate::hash::FxHashSet;
use crate::runtime::{self, assert_not_in_critical_section, current_tid};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Single-writer counters
// ---------------------------------------------------------------------------

/// Adds `n` to a counter that only the run-token holder writes, wrapping like
/// `fetch_add`. It is a load and a store: one sim thread runs at a time, so no
/// write can land between them, and a `fetch_add` would pay a `lock`-prefixed
/// read-modify-write for an atomicity the run token already gives. Readers
/// anywhere see whole values; the counter stays an atomic for them.
#[inline]
pub fn add(counter: &AtomicU64, n: u64) {
    let sum = counter.load(Ordering::Relaxed).wrapping_add(n);
    counter.store(sum, Ordering::Relaxed);
}

/// Raises a counter that only the run-token holder writes to `v`, if `v` is
/// larger: [`add`]'s load and store in place of `fetch_max`.
#[inline]
pub fn max(counter: &AtomicU64, v: u64) {
    if v > counter.load(Ordering::Relaxed) {
        counter.store(v, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// WaitSet: the condition-variable analogue
// ---------------------------------------------------------------------------

/// A set of parked threads, the building block for higher-level blocking.
///
/// `WaitSet` replaces the condition variable in the cooperative world: a
/// thread checks its predicate, and if unsatisfied calls [`WaitSet::wait`];
/// wakers call [`WaitSet::notify_one`] / [`WaitSet::notify_all`]. There are
/// no spurious wakeups, but callers should still re-check predicates in a
/// loop, since another woken thread may consume the state first.
pub struct WaitSet {
    name: &'static str,
    waiters: parking_lot::Mutex<VecDeque<usize>>,
}

impl fmt::Debug for WaitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WaitSet")
            .field("name", &self.name)
            .field("waiters", &self.waiters.lock().len())
            .finish()
    }
}

impl WaitSet {
    /// Creates a wait set; `name` shows up in deadlock diagnostics.
    pub fn new(name: &'static str) -> WaitSet {
        WaitSet {
            name,
            waiters: parking_lot::Mutex::new(VecDeque::new()),
        }
    }

    /// Parks the calling thread until notified.
    pub fn wait(&self) {
        assert_not_in_critical_section("WaitSet::wait");
        let tid = current_tid();
        self.waiters.lock().push_back(tid);
        runtime::block_current(self.name);
    }

    /// Wakes the longest-waiting thread; returns whether one was woken.
    pub fn notify_one(&self) -> bool {
        let woken = self.waiters.lock().pop_front();
        if let Some(tid) = woken {
            runtime::unblock(tid);
            true
        } else {
            false
        }
    }

    /// Wakes every waiting thread (FIFO); returns how many were woken.
    pub fn notify_all(&self) -> usize {
        let drained: Vec<usize> = self.waiters.lock().drain(..).collect();
        let n = drained.len();
        for tid in drained {
            runtime::unblock(tid);
        }
        n
    }

    /// Number of threads currently parked here.
    pub fn len(&self) -> usize {
        self.waiters.lock().len()
    }

    /// Whether no thread is parked here.
    pub fn is_empty(&self) -> bool {
        self.waiters.lock().is_empty()
    }
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

struct SemInner {
    permits: u64,
    queue: VecDeque<(usize, u64)>,
    granted: FxHashSet<usize>,
}

/// A FIFO counting semaphore; models bounded resources such as a device's
/// internal channels or a bandwidth token pool.
pub struct Semaphore {
    name: &'static str,
    inner: parking_lot::Mutex<SemInner>,
}

impl fmt::Debug for Semaphore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Semaphore")
            .field("name", &self.name)
            .field("permits", &inner.permits)
            .field("queued", &inner.queue.len())
            .finish()
    }
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(name: &'static str, permits: u64) -> Semaphore {
        Semaphore {
            name,
            inner: parking_lot::Mutex::new(SemInner {
                permits,
                queue: VecDeque::new(),
                granted: FxHashSet::default(),
            }),
        }
    }

    /// Acquires `n` permits, blocking in FIFO order until available.
    pub fn acquire(&self, n: u64) {
        assert_not_in_critical_section("Semaphore::acquire");
        let tid = current_tid();
        {
            let mut inner = self.inner.lock();
            if inner.queue.is_empty() && inner.permits >= n {
                inner.permits -= n;
                return;
            }
            inner.queue.push_back((tid, n));
        }
        loop {
            runtime::block_current(self.name);
            if self.inner.lock().granted.remove(&tid) {
                return;
            }
        }
    }

    /// Releases `n` permits and hands them to queued waiters in FIFO order.
    pub fn release(&self, n: u64) {
        let mut to_wake = Vec::new();
        {
            let mut inner = self.inner.lock();
            inner.permits += n;
            while let Some(&(tid, need)) = inner.queue.front() {
                if inner.permits >= need {
                    inner.permits -= need;
                    inner.queue.pop_front();
                    inner.granted.insert(tid);
                    to_wake.push(tid);
                } else {
                    break;
                }
            }
        }
        for tid in to_wake {
            runtime::unblock(tid);
        }
    }

    /// Currently available permits (diagnostic).
    pub fn available(&self) -> u64 {
        self.inner.lock().permits
    }
}

// ---------------------------------------------------------------------------
// Channel
// ---------------------------------------------------------------------------

struct ChanInner<T> {
    queue: VecDeque<T>,
    closed: bool,
}

struct Chan<T> {
    inner: parking_lot::Mutex<ChanInner<T>>,
    recv_wait: WaitSet,
}

/// Sending half of an unbounded MPSC channel; cloneable.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender").finish_non_exhaustive()
    }
}

/// Receiving half of an unbounded channel. Clones share the same queue, so
/// multiple worker threads can `recv` from one channel (MPMC work-queue
/// semantics; each value is delivered to exactly one receiver).
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver").finish_non_exhaustive()
    }
}

/// Creates an unbounded channel for handing work between sim threads.
///
/// `send` never blocks; `recv` blocks in virtual time until a value or
/// [`Sender::close`] arrives.
pub fn channel<T>(name: &'static str) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        inner: parking_lot::Mutex::new(ChanInner {
            queue: VecDeque::new(),
            closed: false,
        }),
        recv_wait: WaitSet::new(name),
    });
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

impl<T> Sender<T> {
    /// Enqueues `v`. Returns `Err(v)` if the channel was closed.
    pub fn send(&self, v: T) -> Result<(), T> {
        {
            let mut inner = self.chan.inner.lock();
            if inner.closed {
                return Err(v);
            }
            inner.queue.push_back(v);
        }
        self.chan.recv_wait.notify_one();
        Ok(())
    }

    /// Closes the channel; pending values remain receivable, after which
    /// `recv` returns `None`.
    pub fn close(&self) {
        self.chan.inner.lock().closed = true;
        self.chan.recv_wait.notify_all();
    }
}

impl<T> Receiver<T> {
    /// Receives the next value, blocking in virtual time. Returns `None` once
    /// the channel is closed and drained.
    pub fn recv(&self) -> Option<T> {
        loop {
            {
                let mut inner = self.chan.inner.lock();
                if let Some(v) = inner.queue.pop_front() {
                    return Some(v);
                }
                if inner.closed {
                    return None;
                }
            }
            self.chan.recv_wait.wait();
        }
    }

    /// Number of queued values (diagnostic).
    pub fn len(&self) -> usize {
        self.chan.inner.lock().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.chan.inner.lock().queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sleep_nanos, spawn, yield_now, JoinHandle, Runtime};
    use parking_lot::Mutex;
    use std::cell::Cell;
    use std::panic::catch_unwind;

    struct Waitables {
        ws: WaitSet,
        sem: Semaphore,
        rx: Receiver<u8>,
        /// Already finished: joining it never has to park.
        child: Cell<Option<JoinHandle<()>>>,
    }

    /// Every way of giving up the run token, under the name the panic
    /// message gives it.
    type Wait = fn(&Waitables);
    const WAITS: [(&str, Wait); 7] = [
        ("sleep_nanos", |_| sleep_nanos(1)),
        ("yield_now", |_| yield_now()),
        ("WaitSet::wait", |w| w.ws.wait()),
        ("Semaphore::acquire", |w| w.sem.acquire(1)),
        // A `recv` that finds nothing queued parks on the channel's wait set.
        ("WaitSet::wait", |w| assert_eq!(w.rx.recv(), None)),
        ("spawn", |_| spawn("late", || ()).join()),
        ("join", |w| w.child.take().expect("joined once").join()),
    ];

    /// Runs `wait` on a fresh runtime while holding a shim mutex; returns
    /// the panic message if it panicked.
    fn wait_holding(wait: Wait) -> Option<String> {
        let outcome = catch_unwind(|| {
            Runtime::new().run(|| {
                let m = Mutex::new(0u8);
                let (_tx, rx) = channel::<u8>("rule");
                let w = Waitables {
                    ws: WaitSet::new("rule"),
                    sem: Semaphore::new("rule", 0),
                    rx,
                    child: Cell::new(Some(spawn("child", || ()))),
                };
                yield_now(); // the child runs and exits
                let _held = m.lock();
                wait(&w);
            })
        });
        outcome.err().map(|p| match p.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => (*p.downcast::<&str>().expect("panic payload")).to_owned(),
        })
    }

    /// The rule fires where the locks are: a shim guard, held across any
    /// operation that gives up the run token, panics at that operation, and
    /// the message names it and the shim.
    #[test]
    fn wait_while_holding_a_shim_guard_panics() {
        for (op, wait) in WAITS {
            let msg = wait_holding(wait)
                .unwrap_or_else(|| panic!("a guard across {op} returned quietly"));
            assert!(
                msg.contains(&format!("sim-blocking operation `{op}`"))
                    && msg.contains("1 parking_lot (shim) lock guard"),
                "a guard across {op}: {msg}"
            );
        }
        assert_eq!(parking_lot::guards_held(), 0, "unwinding dropped them all");
    }

    #[test]
    fn guard_dropped_before_the_wait_does_not_fire() {
        Runtime::new().run(|| {
            let (m, n) = (Mutex::new(0u8), Mutex::new(0u8));
            drop((m.lock(), n.lock()));
            *n.lock() += 1;
            sleep_nanos(1);
            yield_now();
            spawn("child", || ()).join();
        });
    }

    #[test]
    fn guard_off_the_runtime_leaves_no_count() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(parking_lot::guards_held(), 0);
        Runtime::new().run(|| sleep_nanos(1));
    }

    #[test]
    fn waitset_wakes_fifo() {
        Runtime::new().run(|| {
            let ws = Arc::new(WaitSet::new("test"));
            let order = Arc::new(Mutex::new(Vec::new()));
            let mut handles = Vec::new();
            for i in 0..3 {
                let ws = Arc::clone(&ws);
                let order = Arc::clone(&order);
                handles.push(spawn(&format!("w{i}"), move || {
                    ws.wait();
                    order.lock().push(i);
                }));
            }
            // Let all three park.
            sleep_nanos(1_000);
            assert_eq!(ws.len(), 3);
            assert_eq!(ws.notify_all(), 3);
            for h in handles {
                h.join();
            }
            assert_eq!(order.lock().clone(), vec![0, 1, 2]);
        });
    }

    #[test]
    fn semaphore_limits_concurrency() {
        Runtime::new().run(|| {
            let sem = Arc::new(Semaphore::new("chan", 2));
            let peak = Arc::new(Mutex::new((0u32, 0u32))); // (current, max)
            let mut handles = Vec::new();
            for i in 0..6 {
                let sem = Arc::clone(&sem);
                let peak = Arc::clone(&peak);
                handles.push(spawn(&format!("io{i}"), move || {
                    sem.acquire(1);
                    {
                        let mut p = peak.lock();
                        p.0 += 1;
                        p.1 = p.1.max(p.0);
                    }
                    sleep_nanos(10_000);
                    peak.lock().0 -= 1;
                    sem.release(1);
                }));
            }
            for h in handles {
                h.join();
            }
            assert_eq!(peak.lock().1, 2);
            // 6 jobs of 10 µs at concurrency 2 => 30 µs.
            assert_eq!(crate::now_nanos(), 30_000);
        });
    }

    #[test]
    fn semaphore_counts_permits() {
        Runtime::new().run(|| {
            let sem = Semaphore::new("p", 3);
            sem.acquire(2);
            assert_eq!(sem.available(), 1);
            sem.release(2);
            assert_eq!(sem.available(), 3);
        });
    }

    #[test]
    fn channel_roundtrip_and_close() {
        Runtime::new().run(|| {
            let (tx, rx) = channel::<u32>("jobs");
            let h = spawn("worker", move || {
                let mut sum = 0;
                while let Some(v) = rx.recv() {
                    sum += v;
                }
                sum
            });
            for v in 1..=4 {
                tx.send(v).unwrap();
            }
            tx.close();
            assert_eq!(h.join(), 10);
            assert!(tx.send(9).is_err());
        });
    }

    #[test]
    fn channel_blocks_receiver_until_send() {
        Runtime::new().run(|| {
            let (tx, rx) = channel::<&'static str>("jobs");
            let h = spawn("worker", move || {
                let v = rx.recv().unwrap();
                (v, crate::now_nanos())
            });
            sleep_nanos(7_000);
            tx.send("hello").unwrap();
            let (v, t) = h.join();
            assert_eq!(v, "hello");
            assert_eq!(t, 7_000);
            tx.close();
        });
    }
}
