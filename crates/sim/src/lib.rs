//! # xlsm-sim — deterministic virtual-time execution for storage simulation
//!
//! This crate provides the execution substrate for the whole `xlsm` study: a
//! **cooperative scheduler of sim threads with a global virtual clock**.
//!
//! Every logical thread of the simulated system (benchmark clients, the WAL
//! group-commit leader, flush and compaction workers, device channel servers)
//! is a sim thread, and *exactly one of them executes at any time*. Whenever
//! a thread blocks — on a [`sleep_nanos`], a [`sync::WaitSet`], a
//! [`sync::Semaphore`] or a [`sync::channel`] — it hands the run token to the
//! next runnable thread, or advances the virtual clock to the earliest pending
//! timer when nobody is runnable.
//!
//! The payoff:
//!
//! * **Microsecond fidelity on any host.** Device service times, throttling
//!   delays and queueing effects are expressed in virtual nanoseconds, so the
//!   results do not depend on host core count or timer resolution.
//! * **Determinism.** Runnable threads execute in FIFO order and timers fire
//!   in `(deadline, sequence)` order, so a simulation with a fixed workload
//!   seed reproduces bit-for-bit.
//! * **Speed.** A simulated 300-second experiment costs wall time proportional
//!   to the number of scheduling events, not to 300 s.
//!
//! ## Example
//!
//! ```
//! let total = xlsm_sim::Runtime::new().run(|| {
//!     let h = xlsm_sim::spawn("worker", || {
//!         xlsm_sim::sleep_nanos(250_000);
//!         xlsm_sim::now_nanos()
//!     });
//!     xlsm_sim::sleep_nanos(100_000);
//!     h.join() + xlsm_sim::now_nanos()
//! });
//! assert_eq!(total, 250_000 + 250_000);
//! ```
//!
//! ## The run-token hand-off
//!
//! A thread that blocks gives the token away in two steps:
//!
//! 1. **Pick** the successor under the scheduler's state lock: pop the run
//!    queue, or else pop the earliest timer and advance the clock; mark it
//!    running and count the switch. Which thread runs next, at what virtual
//!    time, and the `switches`/`timer_events` counters are all decided here,
//!    so nothing after it can move a simulated number; `tests/handoff.rs`
//!    pins the order and the counters to literals.
//! 2. **Hand over**, with the state lock released and nothing else held, and
//!    wait until some later pick hands the token back.
//!
//! Step 2 is the one thing the scheduler leaves to the host: what a sim
//! thread is there, its *body*, decides how a thread starts, how the token
//! passes and how a thread exits. It is a fiber on x86-64 Linux (`fiber.rs`:
//! every sim thread of a [`Runtime`] runs on the OS thread that called
//! [`Runtime::run`], and a hand-off swaps stack pointers) and an OS thread
//! everywhere else (`threads.rs`: a hand-off unparks the successor and parks
//! the caller). The body is chosen in one place, the `Host` type below, and
//! the unit tests run the scheduler on every body the target has.
//!
//! Whatever the body, a running thread sees one context: its runtime's
//! scheduler, its tid and its [`Charges`]. The tid is the scheduler's: each
//! hand-off records the thread its pick chose. The charges are the
//! thread's own: it keeps them on its own stack while it gives up the token,
//! puts them back when it gets the token again, and a spawned thread starts
//! at zero. So no thread ever writes another's context, whether the fibers
//! of a runtime share one OS thread's or each OS thread has its own.
//!
//! A deadlock (nothing runnable, no timer pending) is raised by
//! [`Runtime::run`] with a report of every live thread, whichever thread found
//! it: one other than root hands root the token and the report.
//!
//! The clock itself is an atomic written only under the state lock, so
//! [`now_nanos`] — called from some eighty places in the device, file-system
//! and engine layers — is one load, not a lock.
//!
//! ## Sim-safety
//!
//! Because only one sim thread runs at a time, ordinary mutexes never contend,
//! and the shim's locks do not exclude on their own at all: they are borrow
//! flags owned by the runtime's lock domain, which every sim thread shares
//! (`parking_lot`'s crate docs; `Ctx::enter` enters it on an OS-thread
//! body). The one hazard is holding a lock *across* a blocking sim
//! operation: the thread that runs next and takes the same lock finds it
//! held. With an OS mutex it would park with the run token in hand and the
//! simulation hang without a word; the shim panics at that take.
//!
//! The rule against it is enforced where the locks are. Every lock in the
//! workspace is a `Mutex` of the `parking_lot` shim, and the shim counts its
//! live guards per thread (`parking_lot::guards_held()`: up when a
//! `MutexGuard` is made, down when it drops; the guards are `!Send`, so both
//! happen on one thread). Every
//! operation here that can give up the run token — [`sleep_nanos`],
//! [`yield_now`], [`sync::WaitSet::wait`], [`sync::Semaphore::acquire`],
//! [`sync::Receiver::recv`], [`spawn`], [`JoinHandle::join`] — first asserts
//! that the count is zero, so the bug is a panic at the offending wait that
//! names the operation, before any other thread can take the lock. Fibers
//! share their OS thread's count, which is therefore always the running
//! fiber's: the fiber switch asserts that no guard crosses it. The count used to live in a lock type of this crate that
//! no other crate used: the rule guarded no lock the code took, and a
//! violation was the silent hang above. A lock built straight on
//! `std::sync` would escape it again; `scripts/check.sh` refuses one in the
//! product code under `crates/`.
//!
//! The same fact leaves no room for a retry loop. Between two points where
//! a sim thread can give up the run token nothing else runs, so shared state
//! changes with plain loads and stores: a counter that only the run-token
//! holder writes adds with [`sync::add`] and [`sync::max`], and a structure
//! that is written in place (the engine's memtable skiplist) is written by
//! code that charges nothing and yields nowhere until the write is done.
//! `scripts/check.sh` refuses an atomic read-modify-write (a `fetch_*`, a
//! `swap` or a compare-exchange) anywhere in the product code under
//! `crates/*/src`, except the one two OS threads really share: the grant
//! flag of the OS-thread body's parker (`threads.rs`), written by the thread
//! that hands the token over and consumed by the one that takes it.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod charge;
pub mod few;
#[cfg(fibers)]
mod fiber;
pub mod hash;
pub mod rng;
pub mod runtime;
pub mod sync;
#[cfg(any(test, not(fibers)))]
mod threads;

/// What a sim thread is on this host (`runtime::Body`), chosen here and
/// nowhere else: a fiber where `build.rs` sets `cfg(fibers)` (x86-64 Linux)
/// and an OS thread elsewhere; in the unit tests there, either
/// (`tests::each_body`).
#[cfg(all(fibers, not(test)))]
type Host = fiber::Fiber;
#[cfg(all(fibers, test))]
type Host = tests::Either<fiber::Fiber, threads::OsThread>;
#[cfg(not(fibers))]
type Host = threads::OsThread;

pub use charge::{
    charge, charge_split, charges, host_times, set_charges, waited, Charges, Class, HostTimes,
};
pub use runtime::{
    now_nanos, sleep_nanos, spawn, spawn_daemon, yield_now, JoinHandle, Nanos, Runtime,
};

#[cfg(test)]
mod tests {
    /// Runs `f` once per body this target has, the runtimes it makes using
    /// that body, and returns what each run returned.
    #[cfg(not(fibers))]
    pub(crate) fn each_body<T>(f: impl Fn() -> T) -> Vec<T> {
        vec![f()]
    }

    #[cfg(fibers)]
    pub(crate) use both::{each_body, Either};

    /// Fibers and OS threads in one build, for the unit tests.
    #[cfg(fibers)]
    mod both {
        use crate::runtime::{Body, Ctx};
        use std::cell::Cell;

        thread_local! {
            /// Whether the runtimes this OS thread makes run on the right body.
            static RIGHT: Cell<bool> = const { Cell::new(false) };
        }

        /// Runs `f` once per body, the runtimes it makes using that body,
        /// and returns what each run returned.
        pub(crate) fn each_body<T>(f: impl Fn() -> T) -> Vec<T> {
            [false, true]
                .map(|right| {
                    RIGHT.set(right);
                    let result = f();
                    RIGHT.set(false);
                    result
                })
                .into()
        }

        /// A body that is one of two, chosen for root by [`each_body`]. Every
        /// thread of a runtime has the body of the thread that spawned it.
        pub(crate) enum Either<A, B> {
            Left(A),
            Right(B),
        }

        impl<A: Body, B: Body> Body for Either<A, B> {
            type Swap = Either<A::Swap, B::Swap>;

            fn root() -> Self {
                if RIGHT.get() {
                    Either::Right(B::root())
                } else {
                    Either::Left(A::root())
                }
            }

            fn start(&self, idle: Option<Self>, name: &str, ctx: impl FnOnce() -> Ctx) -> Self {
                match (self, idle) {
                    (Either::Left(a), None) => Either::Left(a.start(None, name, ctx)),
                    (Either::Left(a), Some(Either::Left(i))) => {
                        Either::Left(a.start(Some(i), name, ctx))
                    }
                    (Either::Right(b), None) => Either::Right(b.start(None, name, ctx)),
                    (Either::Right(b), Some(Either::Right(i))) => {
                        Either::Right(b.start(Some(i), name, ctx))
                    }
                    _ => unreachable!("one runtime, one body"),
                }
            }

            fn swap_to(&self, next: &Self) -> Self::Swap {
                match (self, next) {
                    (Either::Left(a), Either::Left(b)) => Either::Left(a.swap_to(b)),
                    (Either::Right(a), Either::Right(b)) => Either::Right(a.swap_to(b)),
                    _ => unreachable!("one runtime, one body"),
                }
            }

            fn switch(swap: Self::Swap) {
                match swap {
                    Either::Left(s) => A::switch(s),
                    Either::Right(s) => B::switch(s),
                }
            }

            fn exit(swap: Self::Swap) {
                match swap {
                    Either::Left(s) => A::exit(s),
                    Either::Right(s) => B::exit(s),
                }
            }
        }
    }
}
