//! Instrumented `Mutex` / `Condvar` / `RwLock`, API-compatible with the
//! normal personality's lock wrappers (`real::lock`).
//!
//! On a model thread the lock state is *virtual*: acquisition, blocking and
//! hand-off are scheduler decisions, and lock/unlock carry acquire/release
//! vector-clock edges exactly like the real primitives would. Off a model
//! thread (or with no execution active) the types fall back to real
//! `std::sync` primitives so ordinary test suites keep working under the
//! `bohm_modelcheck` cfg.

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, PoisonError, RwLock as StdRwLock};
use std::time::Instant;

use super::rt;
use super::rt::LockMeta;

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Instrumented mutex (see module docs).
pub struct Mutex<T: ?Sized> {
    meta: StdMutex<LockMeta>,
    raw: StdMutex<()>,
    v: std::cell::UnsafeCell<T>,
}

// SAFETY: the payload is only reachable through a guard, and a guard exists
// only while either the real `raw` mutex or the virtual (scheduler-enforced,
// one-thread-runs-at-a-time) lock state grants exclusive access.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
// SAFETY: as above — `&Mutex<T>` only hands out the payload under exclusion.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    raw: Option<std::sync::MutexGuard<'a, ()>>,
    model: bool,
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Self {
            meta: StdMutex::new(LockMeta::new()),
            raw: StdMutex::new(()),
            v: std::cell::UnsafeCell::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    fn key(&self) -> usize {
        std::ptr::from_ref(&self.meta) as usize
    }

    /// Acquire the lock, blocking (virtually, on a model thread) until free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if rt::on_model_thread() {
            rt::lock_acquire(&self.meta, self.key(), false);
            MutexGuard {
                lock: self,
                raw: None,
                model: true,
            }
        } else {
            MutexGuard {
                lock: self,
                raw: Some(self.raw.lock().unwrap_or_else(PoisonError::into_inner)),
                model: false,
            }
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: holding the guard means holding either the raw mutex or
        // the virtual lock; both grant exclusive payload access.
        unsafe { &*self.lock.v.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref` — the guard proves exclusive access.
        unsafe { &mut *self.lock.v.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.model {
            rt::lock_release(&self.lock.meta, self.lock.key(), false);
        }
        // A raw guard (fallback path) releases itself.
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Result of a timed wait.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Instrumented condition variable.
///
/// Under the model, timed waits never consult a clock: they are woken as
/// "timed out" only when the execution would otherwise be stuck, which is
/// exactly the set of schedules where a real timer could fire first.
#[derive(Default)]
pub struct Condvar {
    raw: StdCondvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Self {
            raw: StdCondvar::new(),
        }
    }

    fn key(&self) -> usize {
        std::ptr::from_ref(&self.raw) as usize
    }

    /// Block until notified, releasing `guard`'s mutex while waiting.
    pub fn wait<T: ?Sized>(&self, guard: &mut MutexGuard<'_, T>) {
        if guard.model {
            rt::condvar_wait(&guard.lock.meta, guard.lock.key(), self.key(), false);
        } else {
            let g = guard.raw.take().expect("guard present outside wait");
            guard.raw = Some(self.raw.wait(g).unwrap_or_else(PoisonError::into_inner));
        }
    }

    /// Block until notified or `deadline` passes.
    pub fn wait_until<T: ?Sized>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        if guard.model {
            let timed_out = rt::condvar_wait(&guard.lock.meta, guard.lock.key(), self.key(), true);
            return WaitTimeoutResult(timed_out);
        }
        let now = Instant::now();
        if now >= deadline {
            return WaitTimeoutResult(true);
        }
        let g = guard.raw.take().expect("guard present outside wait");
        let (g, res) = self
            .raw
            .wait_timeout(g, deadline - now)
            .unwrap_or_else(PoisonError::into_inner);
        guard.raw = Some(g);
        WaitTimeoutResult(res.timed_out())
    }

    /// Wake one waiter (a seeded scheduling decision under the model).
    pub fn notify_one(&self) {
        rt::condvar_notify(self.key(), false);
        self.raw.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        rt::condvar_notify(self.key(), true);
        self.raw.notify_all();
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// Instrumented reader-writer lock.
///
/// Model-mode readers share a single joined release clock, which can only
/// over-synchronize (suppress reports), never fabricate a race.
pub struct RwLock<T: ?Sized> {
    meta: StdMutex<LockMeta>,
    raw: StdRwLock<()>,
    v: std::cell::UnsafeCell<T>,
}

// SAFETY: payload access is gated by a guard; guards exist only under the
// real raw rwlock or the virtual reader/writer accounting.
unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
// SAFETY: shared (`read`) guards hand out `&T` only, exclusive (`write`)
// guards require the writer slot — standard RwLock reasoning.
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

/// Shared-access RAII guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    raw: Option<std::sync::RwLockReadGuard<'a, ()>>,
    model: bool,
}

/// Exclusive-access RAII guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    raw: Option<std::sync::RwLockWriteGuard<'a, ()>>,
    model: bool,
}

impl<T> RwLock<T> {
    /// Create a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        Self {
            meta: StdMutex::new(LockMeta::new()),
            raw: StdRwLock::new(()),
            v: std::cell::UnsafeCell::new(value),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized> RwLock<T> {
    fn key(&self) -> usize {
        std::ptr::from_ref(&self.meta) as usize
    }

    /// Acquire shared access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        if rt::on_model_thread() {
            rt::lock_acquire(&self.meta, self.key(), true);
            RwLockReadGuard {
                lock: self,
                raw: None,
                model: true,
            }
        } else {
            RwLockReadGuard {
                lock: self,
                raw: Some(self.raw.read().unwrap_or_else(PoisonError::into_inner)),
                model: false,
            }
        }
    }

    /// Acquire exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        if rt::on_model_thread() {
            rt::lock_acquire(&self.meta, self.key(), false);
            RwLockWriteGuard {
                lock: self,
                raw: None,
                model: true,
            }
        } else {
            RwLockWriteGuard {
                lock: self,
                raw: Some(self.raw.write().unwrap_or_else(PoisonError::into_inner)),
                model: false,
            }
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: a read guard proves no writer exists (raw or virtual),
        // so shared payload access is sound.
        unsafe { &*self.lock.v.get() }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.model {
            rt::lock_release(&self.lock.meta, self.lock.key(), true);
        }
        let _ = self.raw.take();
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: a write guard proves exclusive access.
        unsafe { &*self.lock.v.get() }
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: a write guard proves exclusive access.
        unsafe { &mut *self.lock.v.get() }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.model {
            rt::lock_release(&self.lock.meta, self.lock.key(), false);
        }
        let _ = self.raw.take();
    }
}
