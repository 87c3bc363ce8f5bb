//! Domains and the lock they own: the thread-local domain id, the domain
//! hand-over that keeps one OS thread in a domain at a time, and the
//! borrow-flag mutex whose soundness rests on both. Everything that sets up
//! what the lock's `unsafe` relies on lives here, with it.
//!
//! This module holds the shim's three `unsafe` sites: the `Sync` impl of
//! [`Mutex`] and the two dereferences of its value cell by [`MutexGuard`].

#![allow(unsafe_code)]

use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::BTreeSet;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};

/// The domain id of a thread in no domain: never a lock's owner.
const NO_DOMAIN: u64 = u64::MAX;
/// The owner of a lock no domain has taken yet: never a domain's id.
const UNOWNED: u64 = 0;

/// The calling thread's fast-path state. Const-initialised and without drop
/// glue, so every access is a plain thread-local load or store.
struct Local {
    /// The id of the domain the thread is in, or [`NO_DOMAIN`].
    domain: Cell<u64>,
    /// Live guards on this thread ([`guards_held`]).
    guards: Cell<u32>,
}

thread_local! {
    static LOCAL: Local = const {
        Local {
            domain: Cell::new(NO_DOMAIN),
            guards: Cell::new(0),
        }
    };
    /// The domain `LOCAL.domain` names, kept alive while the thread is in it.
    static MEMBER: RefCell<Member> = const { RefCell::new(Member(None)) };
}

/// How many [`MutexGuard`]s are alive on the calling thread.
#[inline]
pub fn guards_held() -> u32 {
    LOCAL.with(|l| l.guards.get())
}

// ---------------------------------------------------------------------------
// Domains
// ---------------------------------------------------------------------------

/// The ids of the domains alive in this process. A lock whose owner is not
/// here passes to its next taker.
static LIVE: std::sync::Mutex<BTreeSet<u64>> = std::sync::Mutex::new(BTreeSet::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(UNOWNED + 1);

fn live() -> std::sync::MutexGuard<'static, BTreeSet<u64>> {
    LIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A domain's shared state. Its drop ends the domain.
#[derive(Debug)]
struct Home {
    id: u64,
    /// Whether an OS thread is in the domain. Released by the thread that
    /// leaves and acquired by the one that enters, so everything the one did
    /// to a lock of the domain happens before anything the other does.
    busy: AtomicBool,
}

impl Drop for Home {
    fn drop(&mut self) {
        live().remove(&self.id);
    }
}

/// A set of OS threads that take turns, one at a time: the locks one of them
/// takes, the others may take too. Every OS thread is in its own domain
/// unless it enters another ([`Domain::enter`]); a domain lives while one of
/// its threads is in it or a handle to it is kept.
#[derive(Clone, Debug)]
pub struct Domain(Arc<Home>);

impl Domain {
    /// The calling thread's domain: the one it has entered, or else its own,
    /// made now if the thread has none.
    pub fn current() -> Domain {
        current_id();
        MEMBER
            .with_borrow(|m| m.0.clone())
            .expect("a thread with a domain id is a member of it")
    }

    /// Runs `f` with the calling OS thread in this domain instead of the one
    /// it is in, and puts it back once `f` returns. A thread that panics out
    /// of `f` stays in this domain until it ends or enters another.
    ///
    /// # Panics
    ///
    /// If another OS thread is in the domain, or a guard is alive here.
    pub fn enter<T>(&self, f: impl FnOnce() -> T) -> T {
        if LOCAL.with(|l| l.domain.get()) == self.0.id {
            return f();
        }
        let outer = vacate();
        occupy(self.clone());
        let result = f();
        vacate();
        if let Some(outer) = outer {
            occupy(outer);
        }
        result
    }
}

/// Runs `f` out of the calling thread's domain, which another OS thread may
/// enter meanwhile, and comes back in once `f` returns: the shape of a
/// hand-off that wakes the next thread and parks until it is woken in turn.
///
/// # Panics
///
/// If a guard is alive here, or if another thread is still in the domain
/// when `f` returns.
pub fn step_out<T>(f: impl FnOnce() -> T) -> T {
    let home = vacate();
    let result = f();
    if let Some(home) = home {
        occupy(home);
    }
    result
}

/// Takes the calling thread out of its domain for good, for a thread whose
/// last act is to wake the next one: a lock it takes after this makes it a
/// domain of its own. An enclosing [`Domain::enter`] puts back the domain
/// it left.
///
/// # Panics
///
/// If a guard is alive here.
pub fn leave() {
    vacate();
}

/// The calling thread's membership, ended with the thread.
struct Member(Option<Domain>);

impl Drop for Member {
    fn drop(&mut self) {
        LOCAL.with(|l| l.domain.set(NO_DOMAIN));
        match self.0.take() {
            // A guard outlives its thread's membership (one kept in a
            // thread-local that drops later). The domain never ends, so its
            // locks never pass to another taker under that guard.
            Some(home) if guards_held() > 0 => std::mem::forget(home),
            Some(home) => home.0.busy.store(false, Ordering::Release),
            None => {}
        }
    }
}

/// Puts the calling thread, which is in no domain, in `home`.
fn occupy(home: Domain) {
    let free = home
        .0
        .busy
        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed);
    assert!(
        free.is_ok(),
        "parking_lot (shim): another OS thread is in this lock domain; \
         the threads of one domain must take turns"
    );
    LOCAL.with(|l| l.domain.set(home.0.id));
    MEMBER.with_borrow_mut(|m| m.0 = Some(home));
}

/// Takes the calling thread out of its domain and returns the domain, if
/// it was in one.
fn vacate() -> Option<Domain> {
    assert_eq!(
        guards_held(),
        0,
        "parking_lot (shim): a lock guard across a change of lock domain"
    );
    LOCAL.with(|l| l.domain.set(NO_DOMAIN));
    let home = MEMBER.with_borrow_mut(|m| m.0.take())?;
    home.0.busy.store(false, Ordering::Release);
    Some(home)
}

/// The calling thread's domain id, putting the thread in a domain of its
/// own if it is in none.
fn current_id() -> u64 {
    let id = LOCAL.with(|l| l.domain.get());
    if id != NO_DOMAIN {
        return id;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    live().insert(id);
    let home = Domain(Arc::new(Home {
        id,
        busy: AtomicBool::new(false),
    }));
    if MEMBER.try_with(|_| ()).is_ok() {
        occupy(home);
    } else {
        // The thread is exiting and its membership is gone: the domain is
        // kept for good, so it never ends under the thread's takes.
        home.0.busy.store(true, Ordering::Relaxed);
        std::mem::forget(home);
        LOCAL.with(|l| l.domain.set(id));
    }
    id
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A mutual-exclusion primitive. Locking never returns a poison error: a
/// panic while holding the lock is ignored by subsequent lockers, matching
/// `parking_lot` semantics.
pub struct Mutex<T: ?Sized> {
    /// The id of the domain the lock belongs to, or [`UNOWNED`]. Set by a
    /// compare-exchange at the first take and when an ended domain's lock
    /// passes on; read by every take, with a plain load.
    owner: AtomicU64,
    /// Whether a guard is alive. Touched only by the owning domain's
    /// threads, one at a time.
    held: Cell<bool>,
    value: UnsafeCell<T>,
}

// SAFETY: field by field. `owner` is an atomic. `held` is read and written
// only after `check_domain` has found the caller's domain to own the lock,
// and a domain has one OS thread in it at a time, each hand-over ordered by
// its `busy` flag (`occupy` acquires what `vacate` released) and each pass
// of a lock from an ended domain by the `LIVE` set's lock; a guard cannot
// cross a change of domain (`vacate` asserts none is alive). `value` is
// reached only through a guard, one at a time by `held`, so sharing a
// `Mutex` between threads hands `T` from one to another, as for
// `std::sync::Mutex`: `T: Send` suffices.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            owner: AtomicU64::new(UNOWNED),
            held: Cell::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value. Owning the mutex
    /// is exclusive access: no domain check.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex.
    ///
    /// # Panics
    ///
    /// If this domain already holds it (a real lock would deadlock), or if
    /// it belongs to another live domain.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.try_lock() {
            Some(g) => g,
            None => refused(),
        }
    }

    /// Acquires the mutex if this domain does not hold it already.
    ///
    /// # Panics
    ///
    /// If it belongs to another live domain.
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        self.check_domain();
        if self.held.get() {
            return None;
        }
        self.held.set(true);
        Some(MutexGuard {
            mutex: self,
            _held: Held::new(),
        })
    }

    /// The protected value, through exclusive access to the mutex: no lock
    /// and no domain check.
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }

    /// Makes sure the calling thread's domain owns the lock. The fast path
    /// is one thread-local load and one compare: a thread in no domain
    /// (`NO_DOMAIN`) matches no owner and an unowned lock (`UNOWNED`) no
    /// thread, so both fall through to [`Mutex::claim`].
    #[inline]
    fn check_domain(&self) {
        // Relaxed is enough: a lock shows the caller's own id only if the
        // caller's domain stored it, and nothing else stores over it while
        // that domain lives.
        if self.owner.load(Ordering::Relaxed) != LOCAL.with(|l| l.domain.get()) {
            self.claim();
        }
    }

    /// The slow path of [`Mutex::check_domain`]: takes an unowned lock, or
    /// one whose domain has ended, for the calling thread's domain.
    ///
    /// # Panics
    ///
    /// If the lock belongs to another live domain; `held` and the value are
    /// left untouched.
    #[cold]
    #[inline(never)]
    fn claim(&self) {
        let me = current_id();
        let mut owner = self.owner.load(Ordering::Acquire);
        while owner != me {
            // The set is read under its lock, which the ended domain's drop
            // took to leave it: whatever that domain did to the lock happens
            // before the takes that follow.
            if owner != UNOWNED && live().contains(&owner) {
                panic!(
                    "parking_lot (shim): a lock of one live domain taken from another; \
                     a lock is shared only by the sim threads of one runtime, or by \
                     OS threads that run one after another"
                );
            }
            match self
                .owner
                .compare_exchange(owner, me, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(now) => owner = now,
            }
        }
    }
}

/// The panic of a take that `held` refuses.
#[cold]
#[inline(never)]
fn refused() -> ! {
    panic!(
        "parking_lot (shim): Mutex::lock on a lock this domain already holds; \
         only the holder's own sim thread can run here, so a real lock would deadlock"
    )
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

/// One count in [`guards_held`] for as long as it lives. Every guard owns
/// one, and it makes the guard `!Send`, so the thread that counts one up is
/// the thread that counts it down.
struct Held(PhantomData<*const ()>);

impl Held {
    /// Inlined, like the count's other two sides: every lock the workspace
    /// takes runs them, and a call would cost more than the count.
    #[inline]
    fn new() -> Held {
        LOCAL.with(|l| l.guards.set(l.guards.get() + 1));
        Held(PhantomData)
    }
}

impl Drop for Held {
    #[inline]
    fn drop(&mut self) {
        LOCAL.with(|l| l.guards.set(l.guards.get() - 1));
    }
}

/// RAII guard for [`Mutex`]. `!Send` and `!Sync`, by [`Held`].
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
    _held: Held,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: this guard set `held`, and nothing else touches the value
        // until its drop clears it: another take in this domain is refused
        // by `held`, one from another domain by the owner check, and the
        // domain's threads run one at a time.
        unsafe { &*self.mutex.value.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`; `&mut self` makes this the only reference
        // the guard hands out.
        unsafe { &mut *self.mutex.value.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.mutex.held.set(false);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}
