//! The version object (paper Fig. 3).
//!
//! A version is created in the concurrency-control phase as a
//! **placeholder**: begin timestamp = producing transaction's timestamp,
//! end timestamp = ∞, data allocated but logically uninitialized
//! (`Pending`). The execution phase later fills the data in exactly once
//! and flips the state to `Ready` (or `Tombstone` for deletes). The paper's
//! "txn pointer" field is the `begin` timestamp itself: in BOHM a version's
//! producer *is* the transaction whose timestamp equals `begin`, so the
//! engine resolves blocked reads by looking the timestamp up in its batch
//! window.
//!
//! Truncated versions are not freed: the owning CC thread's
//! [`VersionPool`](crate::pool::VersionPool) re-arms them as placeholders
//! for later writes (`Version::rearm`).

use bohm_common::{Timestamp, INFINITY_TS};
use bohm_sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};
use bohm_sync::cell::UnsafeCell;

/// Lifecycle of a version's payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u32)]
pub enum VersionState {
    /// Placeholder: the producing transaction has not executed yet.
    /// Readers must block / recursively execute the producer (paper §3.3.1).
    Pending = 0,
    /// Data is valid and immutable.
    Ready = 1,
    /// The record was deleted at `begin`; visible readers observe absence.
    Tombstone = 2,
}

/// One version of one record.
///
/// NOTE on layout: the struct keeps its natural 8-byte alignment, with the
/// fields that racing threads touch grouped at the front. An earlier
/// revision cache-line-aligned it (`repr(align(64))`) when every write
/// allocated a fresh version, and glibc's slow aligned-allocation path
/// bottlenecked the CC threads (~5 µs per placeholder). Steady-state
/// writes now recycle truncated versions through the CC thread's
/// [`VersionPool`](crate::pool::VersionPool) and allocate nothing; only
/// pool misses (warm-up, chain growth) still go to the allocator.
pub struct Version {
    /// Timestamp of the creating transaction, fixed while the version is
    /// linked (only [`rearm`](Self::rearm), on an unlinked version, resets
    /// it). Doubles as the paper's *txn pointer*: the producer is the
    /// transaction at this position of the input log.
    begin: Timestamp,
    /// Timestamp of the invalidating transaction; [`INFINITY_TS`] while this
    /// is the latest version. Written only by the owning CC thread; read by
    /// everyone.
    end: AtomicU64,
    /// [`VersionState`] discriminant.
    state: AtomicU32,
    /// Previous (older) version. Written by the owning CC thread at install
    /// and truncation; traversed by readers under the watermark rule.
    pub(crate) prev: AtomicPtr<Version>,
    /// Record payload. Single-writer discipline: only the execution thread
    /// that holds the producing transaction's `Executing` state writes here,
    /// before the `Ready` release-store; readers only look after an
    /// acquire-load observes `Ready`/`Tombstone`. The facade cell lets the
    /// model checker's race detector see every fill, read and re-arm.
    data: UnsafeCell<Box<[u8]>>,
}

// SAFETY: `data` is raced only under the documented protocol — one writer,
// publication via the `state` release/acquire edge. All other fields are
// atomics or immutable.
unsafe impl Send for Version {}
// SAFETY: same argument as `Send` above.
unsafe impl Sync for Version {}

impl Version {
    /// Create a placeholder for a write by transaction `begin` on a record
    /// whose payload is `size` bytes (paper §3.2.3 steps 1-4; the prev link,
    /// step 5, is set by [`Chain::install`](crate::chain::Chain::install)).
    pub fn placeholder(begin: Timestamp, size: usize) -> Self {
        Self {
            begin,
            end: AtomicU64::new(INFINITY_TS),
            state: AtomicU32::new(VersionState::Pending as u32),
            prev: AtomicPtr::new(std::ptr::null_mut()),
            data: UnsafeCell::new(vec![0u8; size].into_boxed_slice()),
        }
    }

    /// Create an already-`Ready` version (database preloading, tests).
    pub fn ready(begin: Timestamp, data: Box<[u8]>) -> Self {
        Self {
            begin,
            end: AtomicU64::new(INFINITY_TS),
            state: AtomicU32::new(VersionState::Ready as u32),
            prev: AtomicPtr::new(std::ptr::null_mut()),
            data: UnsafeCell::new(data),
        }
    }

    #[inline]
    pub fn begin(&self) -> Timestamp {
        self.begin
    }

    #[inline]
    pub fn end(&self) -> Timestamp {
        self.end.load(Ordering::Acquire)
    }

    /// Invalidate this version: set its end timestamp to the superseding
    /// transaction's timestamp. Called by the owning CC thread while
    /// installing the successor (paper Fig. 3: "sets the old version's end
    /// timestamp to 200").
    #[inline]
    pub(crate) fn supersede(&self, end: Timestamp) {
        // RELAXED: debug-only sanity probe; release builds elide it and
        // correctness never hangs off this load.
        debug_assert_eq!(self.end.load(Ordering::Relaxed), INFINITY_TS);
        debug_assert!(end > self.begin);
        self.end.store(end, Ordering::Release);
    }

    #[inline]
    pub fn state(&self) -> VersionState {
        match self.state.load(Ordering::Acquire) {
            0 => VersionState::Pending,
            1 => VersionState::Ready,
            2 => VersionState::Tombstone,
            s => unreachable!("corrupt version state {s}"),
        }
    }

    /// True once the payload may be read.
    #[inline]
    pub fn is_resolved(&self) -> bool {
        self.state.load(Ordering::Acquire) != VersionState::Pending as u32
    }

    /// Re-arm an unlinked version as a fresh placeholder for a write by
    /// transaction `begin`: `end = ∞`, `Pending`, no predecessor, payload
    /// zeroed — the state [`placeholder`](Self::placeholder) builds, without
    /// allocating. The payload length is kept.
    pub(crate) fn rearm(&mut self, begin: Timestamp) {
        self.begin = begin;
        *self.end.get_mut() = INFINITY_TS;
        *self.state.get_mut() = VersionState::Pending as u32;
        // RELAXED: `&mut self` — the version is unlinked and thread-private;
        // the install that republishes it is a Release store.
        self.prev.store(std::ptr::null_mut(), Ordering::Relaxed);
        // SAFETY: `&mut self` excludes every other access. The tracked
        // accessor (not `get_mut`) makes the reset a write the model
        // checker orders against the last reader of the previous life.
        unsafe { self.data.with_mut(|d| (*d).fill(0)) };
    }

    /// Payload length (fixed per table).
    pub fn len(&self) -> usize {
        // SAFETY: the box itself (ptr+len) is written only at construction;
        // concurrent writers only touch the pointed-to bytes. Untracked on
        // purpose: reading the length does not race a fill.
        unsafe { (&*self.data.get()).len() }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fill the placeholder's payload and publish it as `Ready`.
    ///
    /// # Safety contract (checked in debug builds)
    /// The caller must be the unique producer of this version — in BOHM,
    /// the execution thread that won the `Unprocessed → Executing` CAS on
    /// the transaction whose timestamp equals `self.begin()`.
    pub fn fill(&self, src: &[u8]) {
        debug_assert_eq!(
            // RELAXED: debug-only probe by the sole producer; not a sync
            // edge and elided in release builds.
            self.state.load(Ordering::Relaxed),
            VersionState::Pending as u32
        );
        debug_assert_eq!(self.len(), src.len(), "fixed-size records per table");
        // SAFETY: unique producer per the protocol above; readers are
        // excluded until the release-store below.
        unsafe { self.data.with_mut(|d| (*d).copy_from_slice(src)) };
        self.state
            .store(VersionState::Ready as u32, Ordering::Release);
    }

    /// Mutate the placeholder payload in place, then publish. Used when the
    /// producer computes directly into the version (avoids a copy).
    pub fn fill_with(&self, f: impl FnOnce(&mut [u8])) {
        debug_assert_eq!(
            // RELAXED: debug-only probe by the sole producer; not a sync
            // edge and elided in release builds.
            self.state.load(Ordering::Relaxed),
            VersionState::Pending as u32
        );
        // SAFETY: see `fill`.
        unsafe { self.data.with_mut(|d| f(&mut *d)) };
        self.state
            .store(VersionState::Ready as u32, Ordering::Release);
    }

    /// Idempotent [`fill`](Self::fill): no-op if already resolved.
    ///
    /// BOHM's executor may re-run a transaction's logic after resolving a
    /// read dependency (paper §3.3.1); writes made before the blocked read
    /// are deterministic replays of the same bytes, so skipping them is
    /// sound. Same unique-producer contract as `fill`. Returns whether this
    /// call performed the fill.
    pub fn fill_once(&self, src: &[u8]) -> bool {
        if self.is_resolved() {
            return false;
        }
        self.fill(src);
        true
    }

    /// The previous (older) version, if still linked.
    ///
    /// Callers follow the watermark rule of [`crate::chain`]: only a reader
    /// whose timestamp is above the GC bound may hold the result (the
    /// predecessor of a version it can see ends at or above its timestamp,
    /// so truncation cannot recycle it under the reader).
    #[inline]
    pub fn prev(&self) -> Option<&Version> {
        // SAFETY: the watermark rule above keeps the predecessor linked,
        // hence un-recycled, for as long as the caller may use it.
        unsafe { self.prev.load(Ordering::Acquire).as_ref() }
    }

    /// Publish this placeholder as a deletion tombstone.
    pub fn fill_tombstone(&self) {
        debug_assert_eq!(
            // RELAXED: debug-only probe by the sole producer; not a sync
            // edge and elided in release builds.
            self.state.load(Ordering::Relaxed),
            VersionState::Pending as u32
        );
        self.state
            .store(VersionState::Tombstone as u32, Ordering::Release);
    }

    /// Idempotent [`fill_tombstone`](Self::fill_tombstone): no-op if already
    /// resolved. The executor's re-run path replays deletes exactly like
    /// writes (see [`fill_once`](Self::fill_once)); a replayed delete is a
    /// deterministic repeat, so skipping it is sound. Returns whether this
    /// call performed the fill.
    pub fn fill_tombstone_once(&self) -> bool {
        if self.is_resolved() {
            return false;
        }
        self.fill_tombstone();
        true
    }

    /// Read the payload. Panics if the version is still `Pending` — callers
    /// must check [`is_resolved`](Self::is_resolved) (and resolve the
    /// producer) first; BOHM's executor does exactly that.
    #[inline]
    pub fn data(&self) -> &[u8] {
        assert!(
            self.is_resolved(),
            "read of uninitialized version placeholder (begin ts {})",
            self.begin
        );
        // SAFETY: `Ready`/`Tombstone` are terminal states published with
        // release ordering; after the acquire-load above the payload is
        // immutable until the version is truncated and re-armed, which
        // the watermark rule orders after every reader (see `crate::chain`).
        unsafe { self.data.with(|d| &**d) }
    }
}

impl std::fmt::Debug for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Version")
            .field("begin", &self.begin)
            // RELAXED: diagnostic snapshot; Debug output is allowed to race.
            .field("end", &self.end.load(Ordering::Relaxed))
            .field("state", &self.state())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placeholder_starts_pending_with_infinite_end() {
        let v = Version::placeholder(200, 8);
        assert_eq!(v.begin(), 200);
        assert_eq!(v.end(), INFINITY_TS);
        assert_eq!(v.state(), VersionState::Pending);
        assert!(!v.is_resolved());
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn fill_publishes_data() {
        let v = Version::placeholder(1, 8);
        v.fill(&7u64.to_le_bytes());
        assert_eq!(v.state(), VersionState::Ready);
        assert_eq!(bohm_common::value::get_u64(v.data(), 0), 7);
    }

    #[test]
    fn fill_with_computes_in_place() {
        let v = Version::placeholder(1, 16);
        v.fill_with(|d| bohm_common::value::put_u64(d, 8, 99));
        assert_eq!(bohm_common::value::get_u64(v.data(), 8), 99);
    }

    #[test]
    fn tombstone_is_resolved_but_marked() {
        let v = Version::placeholder(3, 8);
        v.fill_tombstone();
        assert!(v.is_resolved());
        assert_eq!(v.state(), VersionState::Tombstone);
    }

    #[test]
    #[should_panic(expected = "uninitialized version")]
    fn reading_pending_data_panics() {
        let v = Version::placeholder(5, 8);
        let _ = v.data();
    }

    #[test]
    fn supersede_sets_end() {
        let v = Version::ready(100, bohm_common::value::of_u64(1, 8));
        v.supersede(200);
        assert_eq!(v.end(), 200);
    }

    #[test]
    fn rearm_resets_a_used_version_to_a_fresh_placeholder() {
        let mut v = Version::placeholder(1, 8);
        v.fill(&9u64.to_le_bytes());
        v.supersede(7);
        v.rearm(40);
        assert_eq!(v.begin(), 40);
        assert_eq!(v.end(), INFINITY_TS);
        assert_eq!(v.state(), VersionState::Pending);
        assert_eq!(v.len(), 8);
        v.fill_tombstone();
        v.rearm(41);
        v.fill_with(|d| assert!(d.iter().all(|&b| b == 0), "payload zeroed"));
    }

    #[test]
    fn version_stays_on_the_malloc_fast_path() {
        // Natural alignment only — see the layout note on `Version`.
        assert!(std::mem::align_of::<Version>() <= 16);
    }

    #[test]
    fn concurrent_readers_see_published_fill() {
        use bohm_sync::atomic::AtomicBool;
        use std::sync::Arc;
        let v = Arc::new(Version::placeholder(1, 8));
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let v = Arc::clone(&v);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if v.is_resolved() {
                        // Once resolved, the payload must be fully visible.
                        assert_eq!(bohm_common::value::get_u64(v.data(), 0), 0xAB);
                        return;
                    }
                    std::hint::spin_loop();
                }
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        v.fill(&0xABu64.to_le_bytes());
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }
}
