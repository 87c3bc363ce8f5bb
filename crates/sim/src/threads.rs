//! Sim threads as OS threads, everywhere but x86-64 Linux (and in the unit
//! tests, which run the scheduler on both bodies): every sim thread is an OS
//! thread, and one that does not hold the run token waits on its [`Parker`].
//!
//! A hand-off is step 3 and 4 of the crate docs' four: the predecessor, its
//! state lock released, grants its successor's parker, then parks on its own.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

/// Where a sim thread waits for the run token: one flag plus the OS thread's
/// own park/unpark. The woken thread takes no lock, so it cannot be woken into
/// one its waker still holds.
pub(crate) struct Parker {
    granted: AtomicBool,
    /// The OS thread to wake. Empty only between registering a spawned thread
    /// and its OS thread existing, and the spawner holds the run token for
    /// all of that time, so no grant can find it empty.
    pub(crate) thread: OnceLock<Thread>,
}

impl Parker {
    pub(crate) fn new(thread: Option<Thread>) -> Arc<Parker> {
        Arc::new(Parker {
            granted: AtomicBool::new(false),
            thread: thread.map(OnceLock::from).unwrap_or_default(),
        })
    }

    /// Waits for a grant and consumes it. A grant that arrived before this
    /// call (the successor ran and handed the token back before its
    /// predecessor got here) returns at once; the loop absorbs the stale
    /// `unpark` token that leaves behind, and spurious wake-ups.
    pub(crate) fn park(&self) {
        // Acquire pairs with the Release in `unpark`: everything the granting
        // thread did while it held the token is visible to this one.
        while !self.granted.swap(false, Ordering::Acquire) {
            std::thread::park();
        }
    }

    /// Grants the run token. Call with no lock held.
    pub(crate) fn unpark(&self) {
        self.granted.store(true, Ordering::Release);
        self.thread
            .get()
            .expect("a thread is granted only after its OS thread was spawned")
            .unpark();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
