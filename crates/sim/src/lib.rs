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
//! How step 2 is done depends on what a sim thread is on the host.
//!
//! * **Fibers, on x86-64 Linux.** Every sim thread of a [`Runtime`] runs on
//!   the OS thread that called [`Runtime::run`]: root on that thread's own
//!   stack, each spawned thread on a 2 MiB stack of its own behind a
//!   `PROT_NONE` guard page. Before the switch the picker moves the thread
//!   context over (its own charges into its thread record, the successor's
//!   tid and charges in); the switch itself saves the callee-saved registers
//!   and swaps the stack pointer, a hundred nanoseconds where a kernel
//!   context switch costs two microseconds. A fiber whose thread exited is
//!   pooled and runs the next spawn; the stacks are unmapped when `run`
//!   returns, a suspended daemon's included. Because all fibers share one OS
//!   thread, no lock guard and no borrow of the thread context may be alive
//!   across the switch; the switch asserts the first.
//! * **OS threads, everywhere else.** Each sim thread is an OS thread that
//!   waits on its own parker (one atomic flag plus
//!   [`std::thread::park`]/[`std::thread::Thread::unpark`]): the predecessor
//!   grants its successor's flag and unparks it, then parks on its own. The
//!   state lock must be released first: a thread woken into a lock its waker
//!   still holds is scheduled at once, blocks on it, and the kernel switches
//!   back ("hurry up and wait"). A grant that lands before its target has
//!   parked stays in the flag and the park returns at once. The unit tests
//!   run the scheduler on this body too.
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
//! Because only one sim thread runs at a time, ordinary mutexes never contend.
//! The one hazard is holding a lock *across* a blocking sim operation: the
//! thread that runs next and takes the same lock parks on an OS mutex with
//! the run token in hand, the scheduler believes it is running, and the
//! simulation hangs without a word.
//!
//! The rule against it is enforced where the locks are. Every lock in the
//! workspace is a `Mutex` or `RwLock` of the `parking_lot` shim, and the shim
//! counts its live guards per thread (`parking_lot::guards_held()`: up when a
//! `MutexGuard`, `RwLockReadGuard` or `RwLockWriteGuard` is made, down when
//! it drops; the guards are `!Send`, so both happen on one thread). Every
//! operation here that can give up the run token — [`sleep_nanos`],
//! [`yield_now`], [`sync::WaitSet::wait`], [`sync::Semaphore::acquire`],
//! [`sync::Receiver::recv`], [`spawn`], [`JoinHandle::join`] — first asserts
//! that the count is zero, so the bug is a panic at the offending wait that
//! names the operation. Fibers share their OS thread's count, which is
//! therefore always the running fiber's: no guard crosses a switch. The
//! count used to live in a lock type of this crate that no other crate used:
//! the rule guarded no lock the code took, and a violation was the silent
//! hang above. A lock built straight on `std::sync` would escape it again;
//! there is none under `crates/`.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod charge;
#[cfg(fibers)]
mod fiber;
pub mod hash;
pub mod rng;
pub mod runtime;
pub mod sync;
#[cfg(any(test, not(fibers)))]
mod threads;

pub use charge::{charge, charge_split, charges, set_charges, waited, Charges, Class};
pub use runtime::{
    now_nanos, sleep_nanos, spawn, spawn_daemon, yield_now, JoinHandle, Nanos, Runtime,
};
