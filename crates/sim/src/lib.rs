//! # xlsm-sim — deterministic virtual-time execution for storage simulation
//!
//! This crate provides the execution substrate for the whole `xlsm` study: a
//! **cooperative scheduler over OS threads with a global virtual clock**.
//!
//! Every logical thread of the simulated system (benchmark clients, the WAL
//! group-commit leader, flush and compaction workers, device channel servers)
//! runs as a real OS thread, but *exactly one of them executes at any time*.
//! Whenever a thread blocks — on a [`sleep_nanos`], a [`sync::WaitSet`], a
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
//! A thread that blocks gives the token away in four steps, in this order:
//!
//! 1. **Pick** the successor under the scheduler's state lock: pop the run
//!    queue, or else pop the earliest timer and advance the clock; mark it
//!    running and count the switch.
//! 2. **Release** the state lock.
//! 3. **Wake** the successor: set its `granted` flag, then
//!    [`std::thread::Thread::unpark`] it.
//! 4. **Park** on its own flag until some later hand-off grants it the token.
//!
//! Steps 2 and 3 must not be swapped. A thread woken while its waker still
//! holds a lock that the woken thread needs is scheduled at once, runs into
//! the lock, blocks, and the kernel switches back so the waker can release
//! it: two extra context switches per hand-off ("hurry up and wait"). Waking
//! under the state lock, through a `Condvar` whose mutex the woken thread
//! re-acquires, measured 3.3–4.9 µs per hand-off pinned to one CPU; this
//! order measures 0.7–0.9 µs. For the same reason the parker is one atomic
//! flag plus the OS thread's own park/unpark: the woken thread takes no lock
//! at all on its way back to user code.
//!
//! Between steps 3 and 4 two OS threads run at once, but the predecessor
//! touches nothing shared any more: it only reads its own flag. If the
//! successor is quick enough to hand the token *back* before the predecessor
//! has parked, the grant is already in the flag and step 4 returns at once;
//! a grant is never lost, and never counted twice, whichever side gets there
//! first. Which thread runs next, at what virtual time, and the
//! `switches`/`timer_events` counters are all decided in step 1, so none of
//! this can move a simulated number; `tests/handoff.rs` pins the order and
//! the counters to literals captured under wake-under-lock.
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
//! names the operation. The count used to live in a lock type of this crate
//! that no other crate used: the rule guarded no lock the code took, and a
//! violation was the silent hang above. A lock built straight on
//! `std::sync` would escape it again; there is none under `crates/`.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod charge;
pub mod hash;
pub mod rng;
pub mod runtime;
pub mod sync;

pub use charge::{charge, charge_split, charges, set_charges, waited, Charges, Class};
pub use runtime::{
    now_nanos, sleep_nanos, spawn, spawn_daemon, yield_now, JoinHandle, Nanos, Runtime,
};
