//! Offline shim for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors a minimal, API-compatible subset of `parking_lot`: a `Mutex` that
//! never poisons (a panicked holder does not wedge later lockers). It is the
//! one lock kind of the workspace: with one sim thread running at a time no
//! two readers ever overlap, so a reader-writer lock would buy nothing.
//!
//! ## The run token is the only lock
//!
//! Every lock of the workspace is taken by a sim thread of `xlsm-sim`, and
//! exactly one sim thread of a runtime runs at a time: the run token already
//! excludes. So a lock here is not an OS lock but a borrow flag, like a
//! `RefCell`'s, owned by a [`Domain`]: the OS threads that take turns under
//! one run token. A lock belongs to the first domain that takes it. Outside
//! a runtime each OS thread is a domain of its own; every sim thread of a
//! runtime is in its root OS thread's, which `xlsm-sim` enters on the OS
//! threads of a body that has them.
//!
//! * The fast path is a thread-local compare (the caller's domain against
//!   the lock's owner, a plain load) and a plain read and write of the
//!   `held` flag: no `lock`-prefixed instruction on the way in or out.
//! * A take that the flag refuses can only be the same sim thread taking the
//!   lock again, since no guard lives across a wait. A real lock would
//!   deadlock there; this one panics. `try_lock` returns `None`.
//! * A take from a second domain panics without touching the flag or the
//!   value, while the owning domain lives; once it has ended, the lock
//!   passes to the taker.
//! * A domain has at most one OS thread in it at a time ([`Domain::enter`]
//!   panics otherwise), and an OS thread moves between domains only with no
//!   guard alive. So the flag and the value are only ever touched by one OS
//!   thread at a time, and every hand-over between them is ordered by the
//!   domain's own flag: that is what makes the `Sync` impl in `lock.rs`
//!   sound.
//!
//! One more addition the real crate does not have: every guard made here is
//! counted per thread ([`guards_held`]). `xlsm-sim` reads the count before
//! each operation that gives up the run token, so a lock held across a sim
//! wait panics at the wait instead of at the next taker.
//!
//! The domains and the lock live in `lock.rs`, the one module that may use
//! `unsafe`.

#![deny(unsafe_code)]

mod lock;

pub use lock::{guards_held, leave, step_out, Domain, Mutex, MutexGuard};

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{mpsc, Arc};

    /// The panic message of `f`, which must panic.
    fn panic_of(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the take panics");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => (*p.downcast::<&str>().expect("a message")).to_owned(),
        }
    }

    #[test]
    fn mutex_roundtrip() {
        let mut m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        *m.get_mut() += 1;
        assert_eq!(m.into_inner(), 3);
    }

    #[test]
    fn lock_survives_holder_panic() {
        let m = Mutex::new(0);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = m.lock();
            panic!("poison attempt");
        }));
        assert_eq!(*m.lock(), 0, "mutex must not be poisoned");
        assert_eq!(guards_held(), 0);
    }

    /// A take the flag refuses panics, where a real lock would deadlock,
    /// and leaves the held guards and their count as they were.
    #[test]
    fn a_take_this_domain_already_holds_panics() {
        let m = Mutex::new(0);
        let mut g = m.lock();
        let msg = panic_of(|| drop(m.lock()));
        assert!(
            msg.contains("Mutex::lock on a lock this domain already holds"),
            "{msg}"
        );
        assert!(m.try_lock().is_none(), "try_lock refuses without a panic");
        assert_eq!(guards_held(), 1);
        *g += 1;
        drop(g);
        assert_eq!(guards_held(), 0);
        assert_eq!(*m.lock(), 1, "free and intact");
    }

    /// A lock taken on one OS thread belongs to that thread's domain: a take
    /// from a second live one panics before it touches the flag or the
    /// value, and once the first thread has ended the lock passes on.
    #[test]
    fn a_take_from_a_second_live_domain_panics() {
        let m = Arc::new(Mutex::new(7));
        let (taken, take) = (mpsc::channel(), mpsc::channel::<()>());
        let owner = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                let g = m.lock();
                taken.0.send(()).unwrap();
                take.1.recv().unwrap();
                assert_eq!(*g, 7);
                drop(g);
                *m.lock() += 1;
            })
        };
        taken.1.recv().unwrap();
        for msg in [panic_of(|| drop(m.lock())), panic_of(|| drop(m.try_lock()))] {
            assert!(msg.contains("taken from another"), "{msg}");
        }
        assert_eq!(guards_held(), 0);
        // The owner's guard is untouched: it still holds the flag.
        take.0.send(()).unwrap();
        owner.join().unwrap();
        assert_eq!(*m.lock(), 8, "an ended domain's lock passes on");
    }

    /// Owning a lock is exclusive access: `get_mut` and `into_inner` reach
    /// the value of a lock another live domain owns.
    #[test]
    fn get_mut_and_into_inner_need_no_domain() {
        let (owned, done) = (mpsc::channel(), mpsc::channel::<()>());
        let owner = std::thread::spawn(move || {
            let m = Mutex::new(1);
            *m.lock() += 1;
            owned.0.send(m).unwrap();
            done.1.recv().unwrap();
        });
        let mut m = owned.1.recv().unwrap();
        *m.get_mut() += 1;
        assert_eq!(m.into_inner(), 3);
        done.0.send(()).unwrap();
        owner.join().unwrap();
    }

    /// OS threads that enter one domain share its locks while they take
    /// turns; two at once is refused.
    #[test]
    fn threads_of_one_domain_share_its_locks() {
        let m = Arc::new(Mutex::new(0));
        *m.lock() += 1;
        let home = Domain::current();
        let turn = {
            let (m, home) = (Arc::clone(&m), home.clone());
            move || home.enter(|| *m.lock() += 1)
        };
        let msg = panic_of(|| {
            let joined = std::thread::spawn(turn.clone()).join();
            joined.unwrap_or_else(|p| std::panic::resume_unwind(p))
        });
        assert!(
            msg.contains("another OS thread is in this lock domain"),
            "{msg}"
        );
        step_out(|| std::thread::spawn(turn).join().unwrap());
        assert_eq!(*m.lock(), 2);
        let msg = panic_of(|| {
            let _g = m.lock();
            step_out(|| ());
        });
        assert!(
            msg.contains("a lock guard across a change of lock domain"),
            "{msg}"
        );
        assert_eq!(guards_held(), 0);
    }

    #[test]
    fn every_guard_is_counted_while_it_lives() {
        let (m, n) = (Mutex::new(0), Mutex::new(0));
        assert_eq!(guards_held(), 0);
        let g = m.lock();
        assert!(m.try_lock().is_none(), "a refused lock makes no guard");
        let h = n.lock();
        assert_eq!(guards_held(), 2);
        // The count is the thread's own.
        assert_eq!(std::thread::spawn(guards_held).join().unwrap(), 0);
        drop((g, h));
        let t = m.try_lock();
        assert_eq!(guards_held(), 1);
        drop(t);
        assert_eq!(guards_held(), 0);
    }
}
