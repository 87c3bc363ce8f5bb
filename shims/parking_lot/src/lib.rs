//! Offline shim for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors a minimal, API-compatible subset of `parking_lot` implemented
//! over `std::sync`. Semantics match what the workspace relies on:
//! non-poisoning mutexes/rwlocks (a panicked holder does not wedge later
//! lockers).
//!
//! One addition the real crate does not have: every guard made here is
//! counted per thread ([`guards_held`]). `xlsm-sim` reads the count before
//! each operation that gives up the run token, so a lock held across a sim
//! wait panics at the wait instead of parking the next locker on an OS
//! mutex the scheduler knows nothing about.

#![deny(unsafe_code)]

use std::cell::Cell;
use std::fmt;
use std::ops::{Deref, DerefMut};

thread_local! {
    static GUARDS: Cell<u32> = const { Cell::new(0) };
}

/// How many [`MutexGuard`]s, [`RwLockReadGuard`]s and [`RwLockWriteGuard`]s
/// are alive on the calling thread.
#[inline]
pub fn guards_held() -> u32 {
    GUARDS.with(Cell::get)
}

/// One count in [`guards_held`] for as long as it lives. Every guard owns
/// one; the guards are `!Send`, so the thread that counts one up is the
/// thread that counts it down.
struct Held;

impl Held {
    /// Inlined, like the count's other two sides: every lock the workspace
    /// takes runs them, and a call would cost more than the count.
    #[inline]
    fn new() -> Held {
        GUARDS.with(|g| g.set(g.get() + 1));
        Held
    }
}

impl Drop for Held {
    #[inline]
    fn drop(&mut self) {
        GUARDS.with(|g| g.set(g.get() - 1));
    }
}

/// A mutual-exclusion primitive. Unlike `std::sync::Mutex`, locking never
/// returns a poison error: a panic while holding the lock is ignored by
/// subsequent lockers, matching `parking_lot` semantics.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let inner = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard {
            inner,
            _held: Held::new(),
        }
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            inner,
            _held: Held::new(),
        })
    }
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

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
    _held: Held,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A reader-writer lock with non-poisoning semantics.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new rwlock protecting `value`.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let inner = match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockReadGuard {
            inner,
            _held: Held::new(),
        }
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let inner = match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockWriteGuard {
            inner,
            _held: Held::new(),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RwLock { .. }")
    }
}

/// Shared-access RAII guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    _held: Held,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive-access RAII guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    _held: Held,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 4);
        }
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn lock_survives_holder_panic() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 0, "lock must not be poisoned");
    }

    #[test]
    fn every_guard_is_counted_while_it_lives() {
        let m = Mutex::new(0);
        let l = RwLock::new(0);
        assert_eq!(guards_held(), 0);
        let g = m.lock();
        assert!(m.try_lock().is_none(), "a refused lock makes no guard");
        let (r1, r2) = (l.read(), l.read());
        assert_eq!(guards_held(), 3);
        // The count is the thread's own.
        assert_eq!(std::thread::spawn(guards_held).join().unwrap(), 0);
        drop((g, r1, r2));
        let w = l.write();
        let t = m.try_lock();
        assert_eq!(guards_held(), 2);
        drop((w, t));
        assert_eq!(guards_held(), 0);
    }
}
