//! Sim threads as OS threads, the [`Body`] everywhere but x86-64 Linux (and
//! in the unit tests, which run the scheduler on every body): every sim
//! thread is an OS thread, and one that does not hold the run token waits on
//! its [`Parker`].
//!
//! A hand-off grants the successor's flag and unparks its OS thread, then
//! parks the caller until its own flag is granted. The state lock must be
//! released first: a thread woken into a lock its waker still holds is
//! scheduled at once, blocks on it, and the kernel switches back ("hurry up
//! and wait"). A grant that lands before its target has parked stays in the
//! flag, and the park returns at once. An exited thread's OS thread grants
//! its successor and returns, to be joined by the spawn that takes its
//! place; a suspended daemon's stays parked after `Runtime::run`.

use crate::runtime::{run_spawned, Body, Ctx};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};

/// Where a sim thread waits for the run token: one flag plus its OS thread's
/// own park/unpark. The woken thread takes no lock, so it cannot be woken
/// into one its waker still holds.
#[derive(Clone)]
pub(crate) struct Parker {
    granted: Arc<AtomicBool>,
    thread: Thread,
}

impl Parker {
    /// The parker of the calling OS thread.
    fn current(granted: Arc<AtomicBool>) -> Parker {
        Parker {
            granted,
            thread: std::thread::current(),
        }
    }

    /// Waits for a grant and consumes it; call on this parker's OS thread. A
    /// grant that arrived before this call (the successor ran and handed the
    /// token back before its predecessor got here) returns at once; the loop
    /// absorbs the stale `unpark` token that leaves behind, and spurious
    /// wake-ups.
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
        self.thread.unpark();
    }
}

/// A sim thread's OS thread: the parker it waits on, and the handle to join
/// once the thread has exited (none for root, which runs on the caller's).
pub(crate) struct OsThread {
    parker: Parker,
    os_thread: Option<JoinHandle<()>>,
}

impl Body for OsThread {
    /// Whom to grant, and who parks.
    type Swap = (Parker, Parker);

    fn root() -> OsThread {
        OsThread {
            parker: Parker::current(Arc::default()),
            os_thread: None,
        }
    }

    /// Spawns the OS thread, which waits for its first grant and then runs
    /// in a context of its own. The OS thread of an exited thread, `idle`,
    /// granted its successor and returned: it is joined here, and its panic,
    /// if any, raised. The last ones of a runtime end detached.
    fn start(&self, idle: Option<OsThread>, name: &str, ctx: impl FnOnce() -> Ctx) -> OsThread {
        if let Some(Err(panic)) = idle.and_then(|i| i.os_thread).map(JoinHandle::join) {
            resume_unwind(panic);
        }
        let (granted, ctx) = (Arc::<AtomicBool>::default(), ctx());
        let waits = Arc::clone(&granted);
        let os_thread = std::thread::Builder::new()
            .name(name.to_owned())
            .spawn(move || {
                Parker::current(waits).park();
                ctx.enter(run_spawned);
            })
            .expect("failed to spawn OS thread for sim thread");
        OsThread {
            parker: Parker {
                granted,
                thread: os_thread.thread().clone(),
            },
            os_thread: Some(os_thread),
        }
    }

    fn swap_to(&self, next: &OsThread) -> Self::Swap {
        (next.parker.clone(), self.parker.clone())
    }

    /// Passes the runtime's lock domain on with the token: out of it before
    /// the grant, back in once granted again.
    fn switch((wake, park): Self::Swap) {
        parking_lot::step_out(|| {
            wake.unpark();
            park.park();
        });
    }

    fn exit((wake, _): Self::Swap) {
        parking_lot::leave();
        wake.unpark();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_before_park_is_kept_and_consumed_once() {
        let parker = Parker::current(Arc::default());
        // The early wake: the grant lands before its target has parked.
        parker.unpark();
        parker.park();
        // That park consumed the grant but not the OS-level unpark token; the
        // stale token must not satisfy the next park on its own.
        let granted_again = Arc::new(AtomicBool::new(false));
        let waker = {
            let (parker, granted_again) = (parker.clone(), Arc::clone(&granted_again));
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
