//! Offline shim for `crossbeam-epoch`: the API subset this workspace uses,
//! backed by a classic three-bin global-epoch collector.
//!
//! # Scheme
//!
//! A global epoch counter advances when every *pinned* participant has
//! observed the current epoch. Garbage deferred during epoch `e` goes into
//! bin `e % 3`; when the epoch advances from `e` to `e + 1`, bin
//! `(e + 1) % 3` holds garbage deferred in epoch `e - 2`, which no pinned
//! participant can still reach (a pin can lag the advancing thread by at
//! most one epoch, and deferred garbage was unlinked *before* it was
//! deferred), so that bin is drained.
//!
//! Everything synchronizes with `SeqCst`; this shim optimizes for
//! auditability, not cycle counts — pins are one uncontended store plus a
//! re-check load, which is what the BOHM hot paths need.

use bohm_sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use bohm_sync::Mutex;
use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Global collector state
// ---------------------------------------------------------------------------

const BINS: usize = 3;
/// Defers between advance attempts (per process, approximate).
const ADVANCE_EVERY: usize = 64;

/// Participant status word: `u64::MAX` = not pinned, `u64::MAX - 1` =
/// thread exited (entry reclaimable), otherwise the epoch it pinned in.
const UNPINNED: u64 = u64::MAX;
const DEPARTED: u64 = u64::MAX - 1;

struct Participant {
    status: AtomicU64,
}

struct Deferred {
    call: Box<dyn FnOnce()>,
}

// SAFETY: deferred closures only free heap memory that has been unlinked
// from every shared structure; which thread runs the free is immaterial.
// (`defer_unchecked` is an `unsafe fn` — callers vouch for exactly this.)
unsafe impl Send for Deferred {}

struct Global {
    epoch: AtomicU64,
    participants: Mutex<Vec<&'static Participant>>,
    bins: [Mutex<Vec<Deferred>>; BINS],
    defers: AtomicUsize,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        epoch: AtomicU64::new(0),
        participants: Mutex::new(Vec::new()),
        bins: [const { Mutex::new(Vec::new()) }; BINS],
        defers: AtomicUsize::new(0),
    })
}

impl Global {
    /// Try to advance the epoch; on success, drain the bin two epochs back.
    fn try_advance(&self) {
        let e = self.epoch.load(Ordering::SeqCst);
        {
            let mut parts = self.participants.lock();
            // Drop entries of exited threads while we hold the lock anyway.
            parts.retain(|p| p.status.load(Ordering::SeqCst) != DEPARTED);
            for p in parts.iter() {
                let s = p.status.load(Ordering::SeqCst);
                if s != UNPINNED && s != e {
                    return; // a participant is still pinned in an older epoch
                }
            }
        }
        if self
            .epoch
            .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return; // someone else advanced; their drain covers it
        }
        // Bin for the new epoch = garbage deferred three epochs ago; nothing
        // pinned can reach it (see module docs). Take it out under the lock,
        // run the frees outside.
        let drained: Vec<Deferred> = {
            let mut bin = self.bins[((e + 1) % BINS as u64) as usize].lock();
            std::mem::take(&mut *bin)
        };
        for d in drained {
            (d.call)();
        }
    }

    fn defer(&self, d: Deferred) {
        let e = self.epoch.load(Ordering::SeqCst);
        self.bins[(e % BINS as u64) as usize].lock().push(d);
        // RELAXED: heuristic pacing counter for collection; correctness
        // never depends on when `try_advance` fires, only that it does.
        if self.defers.fetch_add(1, Ordering::Relaxed) % ADVANCE_EVERY == ADVANCE_EVERY - 1 {
            self.try_advance();
        }
    }
}

// ---------------------------------------------------------------------------
// Per-thread handle
// ---------------------------------------------------------------------------

struct Handle {
    participant: &'static Participant,
    /// Nested pin depth on this thread; only the outermost pin/unpin
    /// touches the participant status.
    depth: Cell<usize>,
}

impl Handle {
    fn new() -> Self {
        // Participant entries are heap-allocated and leaked; the registry
        // retires them (frees nothing, drops the reference) once the thread
        // marks itself DEPARTED. The leak is one word-sized struct per
        // thread ever spawned — bounded and irrelevant.
        let participant: &'static Participant = Box::leak(Box::new(Participant {
            status: AtomicU64::new(UNPINNED),
        }));
        global().participants.lock().push(participant);
        Self {
            participant,
            depth: Cell::new(0),
        }
    }

    fn pin_slow(&self) {
        // Publish the pin, then re-check the epoch: if it moved underneath
        // us, republish so we lag the global epoch by at most one advance —
        // the invariant the three-bin grace period relies on.
        let g = global();
        loop {
            let e = g.epoch.load(Ordering::SeqCst);
            self.participant.status.store(e, Ordering::SeqCst);
            if g.epoch.load(Ordering::SeqCst) == e {
                break;
            }
        }
    }
}

impl Drop for Handle {
    fn drop(&mut self) {
        self.participant.status.store(DEPARTED, Ordering::SeqCst);
    }
}

thread_local! {
    static HANDLE: Handle = Handle::new();
}

// ---------------------------------------------------------------------------
// Guard
// ---------------------------------------------------------------------------

/// An epoch pin. While any guard is alive on a thread, memory deferred
/// *after* the pin is not reclaimed.
pub struct Guard {
    /// `false` for the [`unprotected`] guard (no pin, immediate frees).
    protected: bool,
}

// SAFETY: required so the `unprotected()` guard can live in a static. The
// unprotected guard carries no per-thread state; protected guards are
// created and dropped on one thread by construction in this workspace.
unsafe impl Sync for Guard {}

/// Pin the current thread.
pub fn pin() -> Guard {
    HANDLE.with(|h| {
        if h.depth.get() == 0 {
            h.pin_slow();
        }
        h.depth.set(h.depth.get() + 1);
    });
    Guard { protected: true }
}

/// A guard that does not pin: for single-threaded teardown paths where the
/// caller guarantees no concurrent readers.
///
/// # Safety
///
/// Deferred destruction through this guard runs immediately; the caller
/// must guarantee exclusive access to anything it frees.
pub unsafe fn unprotected() -> &'static Guard {
    static UNPROTECTED: Guard = Guard { protected: false };
    &UNPROTECTED
}

impl Guard {
    /// Momentarily un-pin and re-pin, letting the collector advance past
    /// long-lived guards (used by batch loops).
    pub fn repin(&mut self) {
        if !self.protected {
            return;
        }
        HANDLE.with(|h| {
            if h.depth.get() == 1 {
                h.participant.status.store(UNPINNED, Ordering::SeqCst);
                global().try_advance();
                h.pin_slow();
            }
        });
    }

    /// Defer `f` until no pin from before this call remains.
    ///
    /// # Safety
    ///
    /// `f` must be safe to run on any thread once the grace period has
    /// passed (typically: it frees memory already unlinked from every
    /// shared structure).
    pub unsafe fn defer_unchecked<F, R>(&self, f: F)
    where
        F: FnOnce() -> R,
    {
        if !self.protected {
            drop(f());
            return;
        }
        let call: Box<dyn FnOnce() + '_> = Box::new(move || {
            f();
        });
        // SAFETY: erasing the lifetime is part of this function's contract —
        // the caller vouches that whatever the closure touches outlives the
        // grace period (crossbeam's `defer_unchecked` has the same shape).
        let call: Box<dyn FnOnce()> = unsafe { std::mem::transmute(call) };
        global().defer(Deferred { call });
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.protected {
            return;
        }
        // A guard never outlives its thread in this workspace; `try_with`
        // keeps teardown races during TLS destruction benign anyway.
        let _ = HANDLE.try_with(|h| {
            let d = h.depth.get() - 1;
            h.depth.set(d);
            if d == 0 {
                h.participant.status.store(UNPINNED, Ordering::SeqCst);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Pointer types
// ---------------------------------------------------------------------------

/// An owned, heap-allocated value not yet published.
pub struct Owned<T> {
    boxed: Box<T>,
}

impl<T> Owned<T> {
    pub fn new(value: T) -> Self {
        Self {
            boxed: Box::new(value),
        }
    }

    /// The heap allocation, back in a `Box`.
    pub fn into_box(self) -> Box<T> {
        self.boxed
    }

    /// Publishable pointer; ownership moves into shared space.
    pub fn into_shared<'g>(self, _guard: &'g Guard) -> Shared<'g, T> {
        Shared {
            ptr: Box::into_raw(self.boxed),
            _marker: PhantomData,
        }
    }
}

impl<T> From<Box<T>> for Owned<T> {
    fn from(b: Box<T>) -> Self {
        Self { boxed: b }
    }
}

impl<T> Deref for Owned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.boxed
    }
}

impl<T> DerefMut for Owned<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.boxed
    }
}

/// A pointer to shared memory, valid for the guard lifetime `'g`.
pub struct Shared<'g, T> {
    ptr: *mut T,
    _marker: PhantomData<&'g T>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<'_, T> {}

impl<'g, T> Shared<'g, T> {
    pub fn null() -> Self {
        Shared {
            ptr: std::ptr::null_mut(),
            _marker: PhantomData,
        }
    }

    pub fn is_null(&self) -> bool {
        self.ptr.is_null()
    }

    pub fn as_raw(&self) -> *const T {
        self.ptr
    }

    /// # Safety
    ///
    /// The pointer must be valid (published and not yet reclaimed) for `'g`.
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        // SAFETY: caller contract.
        unsafe { self.ptr.as_ref() }
    }

    /// # Safety
    ///
    /// The caller must have exclusive ownership of the allocation.
    pub unsafe fn into_owned(self) -> Owned<T> {
        Owned {
            // SAFETY: caller contract; the pointer came from `Box::into_raw`.
            boxed: unsafe { Box::from_raw(self.ptr) },
        }
    }
}

/// An atomic pointer into shared memory.
pub struct Atomic<T> {
    ptr: AtomicPtr<T>,
}

impl<T> Atomic<T> {
    pub fn null() -> Self {
        Self {
            ptr: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared {
            ptr: self.ptr.load(ord),
            _marker: PhantomData,
        }
    }

    pub fn store(&self, new: Shared<'_, T>, ord: Ordering) {
        self.ptr.store(new.ptr, ord);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn owned_into_shared_roundtrip() {
        let g = pin();
        let s = Owned::new(41usize).into_shared(&g);
        // SAFETY: `s` was just created from an `Owned` and never shared
        // with another thread; reading and reclaiming it here is exclusive.
        assert_eq!(unsafe { s.as_ref() }, Some(&41));
        // SAFETY: as above — exclusive ownership.
        drop(unsafe { s.into_owned() });
    }

    #[test]
    fn owned_box_roundtrip_keeps_the_allocation() {
        let b = Box::new(5u64);
        let addr: *const u64 = &*b;
        let mut o = Owned::from(b);
        *o += 1;
        let b = o.into_box();
        assert_eq!(*b, 6);
        assert_eq!(&*b as *const u64, addr, "no reallocation either way");
    }

    #[test]
    fn atomic_store_load() {
        let a: Atomic<u32> = Atomic::null();
        let g = pin();
        assert!(a.load(Ordering::Acquire, &g).is_null());
        let s = Owned::new(7u32).into_shared(&g);
        a.store(s, Ordering::Release);
        let got = a.load(Ordering::Acquire, &g);
        // SAFETY: this thread is the only one touching `a`; the pointer is
        // live and uniquely owned, so deref + take-ownership are sound.
        assert_eq!(unsafe { got.as_ref() }, Some(&7));
        // SAFETY: as above — exclusive ownership.
        drop(unsafe { got.into_owned() });
    }

    #[test]
    fn deferred_free_runs_after_grace_period() {
        static FREED: AtomicUsize = AtomicUsize::new(0);
        struct Counts;
        impl Drop for Counts {
            fn drop(&mut self) {
                FREED.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let g = pin();
            let s = Owned::new(Counts).into_shared(&g);
            // SAFETY: `s` is unlinked (never published); no later reader
            // can reach it, so deferred destruction is sound.
            unsafe { g.defer_unchecked(move || drop(s.into_owned())) };
        }
        // Drive the collector: repeated pin/defer cycles must eventually
        // advance the epoch twice and run the free.
        for _ in 0..10 * ADVANCE_EVERY {
            let g = pin();
            // SAFETY: the closure captures nothing and touches no shared
            // state; running it at any later point is trivially sound.
            unsafe { g.defer_unchecked(|| ()) };
            drop(g);
            global().try_advance();
            if FREED.load(Ordering::SeqCst) == 1 {
                return;
            }
        }
        panic!("deferred destructor never ran");
    }

    #[test]
    fn pinned_guard_blocks_reclamation() {
        static FREED: AtomicUsize = AtomicUsize::new(0);
        struct Flag;
        impl Drop for Flag {
            fn drop(&mut self) {
                FREED.fetch_add(1, Ordering::SeqCst);
            }
        }
        let outer = pin();
        let s = Owned::new(Flag).into_shared(&outer);
        // SAFETY: `s` was never published; nothing else can reach it.
        unsafe { outer.defer_unchecked(move || drop(s.into_owned())) };
        // Hammer the collector from another thread; the outer pin must hold
        // the free back the whole time.
        let stop = Arc::new(AtomicUsize::new(0));
        let stop2 = Arc::clone(&stop);
        let t = std::thread::spawn(move || {
            while stop2.load(Ordering::SeqCst) == 0 {
                let g = pin();
                // SAFETY: empty closure; sound to run whenever.
                unsafe { g.defer_unchecked(|| ()) };
                drop(g);
                global().try_advance();
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(FREED.load(Ordering::SeqCst), 0, "freed under a live pin");
        drop(outer);
        stop.store(1, Ordering::SeqCst);
        t.join().unwrap();
    }

    #[test]
    fn unprotected_defers_immediately() {
        static FREED: AtomicUsize = AtomicUsize::new(0);
        // SAFETY: this test is single-threaded, so no other participant
        // can be inside a critical section — `unprotected` is sound, and
        // the deferred closure only touches a static counter.
        let g = unsafe { unprotected() };
        // SAFETY: unprotected guards run deferred work inline; see above.
        unsafe {
            g.defer_unchecked(|| {
                FREED.fetch_add(1, Ordering::SeqCst);
            })
        };
        assert_eq!(FREED.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_stack_push_pop_with_reclamation() {
        // Treiber-ish single-linked shared list exercised by readers while
        // a writer unlinks and defers nodes — a miniature of the version
        // chain usage pattern.
        struct Node {
            val: u64,
            next: Atomic<Node>,
        }
        let head: Arc<Atomic<Node>> = Arc::new(Atomic::null());
        // Build 1,000 nodes.
        {
            let g = pin();
            for i in 0..1_000 {
                let n = Owned::new(Node {
                    val: i,
                    next: Atomic::null(),
                });
                // RELAXED: `n` is still thread-private; the Release store
                // of `head` below publishes `next` with it.
                n.next
                    .store(head.load(Ordering::Acquire, &g), Ordering::Relaxed);
                let s = n.into_shared(&g);
                head.store(s, Ordering::Release);
            }
        }
        let stop = Arc::new(AtomicUsize::new(0));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let head = Arc::clone(&head);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                while stop.load(Ordering::SeqCst) == 0 {
                    let g = pin();
                    let mut cur = head.load(Ordering::Acquire, &g);
                    let mut last = u64::MAX;
                    // SAFETY: nodes reachable from `head` under a pin are
                    // not freed until two epochs after being unlinked.
                    while let Some(n) = unsafe { cur.as_ref() } {
                        // Values strictly decrease toward the tail.
                        assert!(n.val < last);
                        last = n.val;
                        cur = n.next.load(Ordering::Acquire, &g);
                    }
                }
            }));
        }
        // Writer: pop everything, deferring each node.
        let mut popped = 0;
        while popped < 1_000 {
            let g = pin();
            let top = head.load(Ordering::Acquire, &g);
            // SAFETY: this is the only thread that unlinks, so `top` is
            // still linked and live under our pin.
            let Some(n) = (unsafe { top.as_ref() }) else {
                break;
            };
            head.store(n.next.load(Ordering::Acquire, &g), Ordering::Release);
            // SAFETY: `top` was just unlinked by its sole writer; readers
            // that still hold it are pinned, which defers the free.
            unsafe { g.defer_unchecked(move || drop(top.into_owned())) };
            popped += 1;
        }
        assert_eq!(popped, 1_000);
        stop.store(1, Ordering::SeqCst);
        for r in readers {
            r.join().unwrap();
        }
    }
}
