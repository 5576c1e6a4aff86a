//! Offline shim for `crossbeam-epoch`: the API subset this workspace uses
//! ([`pin`] and [`Guard::defer_unchecked`]), backed by a classic three-bin
//! global-epoch collector. Its users are the BOHM batch window's slots and
//! the Hekaton/SI version chains; BOHM's own version store reclaims by the
//! GC watermark instead.
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
//! auditability, not cycle counts — a pin is one uncontended store plus a
//! re-check load, and every few pins and defers an advance attempt.

use bohm_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use bohm_sync::Mutex;
use std::cell::Cell;
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Global collector state
// ---------------------------------------------------------------------------

const BINS: usize = 3;
/// Defers between advance attempts (per process, approximate).
const ADVANCE_EVERY: usize = 64;
/// Outermost pins between advance attempts, per thread. Collection is
/// driven by pins as well as by defers (upstream crossbeam-epoch collects
/// on pin too): a caller that defers rarely but pins often, like the BOHM
/// batch window with one deferred batch per retirement, would otherwise
/// keep dozens of retired batches waiting for the next advance.
const PINS_BETWEEN_ADVANCE: usize = 4;

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
    /// Outermost pins taken on this thread (advance pacing).
    pins: Cell<usize>,
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
            pins: Cell::new(0),
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
/// *after* the pin is not reclaimed. Not `Send`: a guard unpins the thread
/// that pinned it.
pub struct Guard {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Pin the current thread.
pub fn pin() -> Guard {
    HANDLE.with(|h| {
        if h.depth.get() == 0 {
            let pins = h.pins.get().wrapping_add(1);
            h.pins.set(pins);
            if pins % PINS_BETWEEN_ADVANCE == 0 {
                // Before publishing our own pin, which could block it.
                global().try_advance();
            }
            h.pin_slow();
        }
        h.depth.set(h.depth.get() + 1);
    });
    Guard {
        _not_send: std::marker::PhantomData,
    }
}

impl Guard {
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

#[cfg(test)]
mod tests {
    use super::*;
    use bohm_sync::atomic::AtomicPtr;
    use std::sync::Arc;

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
            let p = Box::into_raw(Box::new(Counts));
            // SAFETY: `p` is unlinked (never published); no later reader
            // can reach it, so deferred destruction is sound.
            unsafe { g.defer_unchecked(move || drop(Box::from_raw(p))) };
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
    fn pins_alone_drive_reclamation() {
        static FREED: AtomicUsize = AtomicUsize::new(0);
        struct Counts;
        impl Drop for Counts {
            fn drop(&mut self) {
                FREED.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let g = pin();
            let p = Box::into_raw(Box::new(Counts));
            // SAFETY: `p` was never published; nothing else can reach it.
            unsafe { g.defer_unchecked(move || drop(Box::from_raw(p))) };
        }
        // One deferral, then only pins: no further defer and no explicit
        // advance may be needed for the free to run. (Other tests hold
        // pins for a while, which may hold the epoch back meanwhile.)
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while std::time::Instant::now() < deadline {
            drop(pin());
            if FREED.load(Ordering::SeqCst) == 1 {
                return;
            }
        }
        panic!("pins never advanced the epoch far enough to free");
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
        let p = Box::into_raw(Box::new(Flag));
        // SAFETY: `p` was never published; nothing else can reach it.
        unsafe { outer.defer_unchecked(move || drop(Box::from_raw(p))) };
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
    fn concurrent_stack_push_pop_with_reclamation() {
        // Treiber-ish single-linked shared list exercised by readers while
        // a writer unlinks and defers nodes — the pattern of the window
        // slots and the Hekaton chains.
        struct Node {
            val: u64,
            next: AtomicPtr<Node>,
        }
        let head: Arc<AtomicPtr<Node>> = Arc::new(AtomicPtr::new(std::ptr::null_mut()));
        // Build 1,000 nodes.
        for i in 0..1_000 {
            let n = Box::into_raw(Box::new(Node {
                val: i,
                next: AtomicPtr::new(head.load(Ordering::Acquire)),
            }));
            head.store(n, Ordering::Release);
        }
        let stop = Arc::new(AtomicUsize::new(0));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let head = Arc::clone(&head);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                while stop.load(Ordering::SeqCst) == 0 {
                    let _g = pin();
                    let mut cur = head.load(Ordering::Acquire);
                    let mut last = u64::MAX;
                    // SAFETY: nodes reachable from `head` under a pin are
                    // not freed until two epochs after being unlinked.
                    while let Some(n) = unsafe { cur.as_ref() } {
                        // Values strictly decrease toward the tail.
                        assert!(n.val < last);
                        last = n.val;
                        cur = n.next.load(Ordering::Acquire);
                    }
                }
            }));
        }
        // Writer: pop everything, deferring each node.
        let mut popped = 0;
        while popped < 1_000 {
            let g = pin();
            let top = head.load(Ordering::Acquire);
            // SAFETY: this is the only thread that unlinks, so `top` is
            // still linked and live under our pin.
            let Some(n) = (unsafe { top.as_ref() }) else {
                break;
            };
            head.store(n.next.load(Ordering::Acquire), Ordering::Release);
            // SAFETY: `top` was just unlinked by its sole writer; readers
            // that still hold it are pinned, which defers the free.
            unsafe { g.defer_unchecked(move || drop(Box::from_raw(top))) };
            popped += 1;
        }
        assert_eq!(popped, 1_000);
        stop.store(1, Ordering::SeqCst);
        for r in readers {
            r.join().unwrap();
        }
    }
}
