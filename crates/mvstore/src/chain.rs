//! Per-record version chains.
//!
//! A [`Chain`] is the backward-linked list of paper Fig. 3: head is the
//! latest version, `prev` pointers lead to older versions. The chain has a
//! **single logical writer** — the concurrency-control thread owning the
//! record's partition (paper §3.2.2: "a record is always processed by the
//! same thread, even across transaction boundaries") — so installation and
//! truncation need no compare-and-swap, only release stores. Readers
//! perform no shared-memory writes whatsoever (paper §2.2, design goal 2).
//!
//! # Reclamation: the watermark rule
//!
//! [`Chain::truncate`] unlinks every version whose `end ≤ bound`, where
//! `bound` is the GC low watermark (every transaction with `ts ≤ bound`
//! has finished executing), and hands them straight to the owning CC
//! thread's [`VersionPool`], which re-arms them as placeholders for later
//! writes. There is no epoch grace period. This is sound because **a
//! reader at `ts > bound` never dereferences a version with
//! `end ≤ bound`**:
//!
//! * its walk from the head stops at the first version with `begin < ts`,
//!   and every version it passes before that has `begin ≥ ts > bound`;
//! * the version it stops at has `end` = its successor's `begin ≥ ts >
//!   bound` (or `end = ∞` at the head), and so do the versions a CC pass
//!   annotated for it (the latest version at its CC time, which a later
//!   write supersedes at a timestamp `≥ ts`);
//! * a walk never loads the `prev` edge that truncation cuts: that edge
//!   leaves a version with `begin = end of its predecessor ≤ bound < ts`,
//!   where the walk has already stopped.
//!
//! Readers at `ts ≤ bound` have all finished, and their accesses happen
//! before the truncation: each execution thread Release-stores its
//! `finished_ts` after its last dereference, the watermark refresh
//! Acquire-loads those and Release-stores `gc_bound`, and every
//! `gc_bound` load that feeds `truncate` is an Acquire. A caller that
//! breaks this contract — a reader at `ts ≤ bound`, or a non-quiescent
//! diagnostic read of an old head — can observe a version re-armed for an
//! unrelated write.
//!
//! The same rule covers whole chains. When the key sweep retires a
//! fully-deleted key, [`HashIndex::free_unlinked`](crate::HashIndex::free_unlinked)
//! recycles the chain's versions only once the GC bound has passed every
//! reader that could still reach the unlinked entry, so no method here
//! takes an epoch guard.

// HOT-PATH: install/visible run per write and per read of every
// transaction; no clocks, no syscalls, no I/O (enforced by the lint).

use crate::pool::VersionPool;
use crate::version::Version;
use bohm_common::Timestamp;
use bohm_sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::ptr;

/// The version chain of one record.
///
/// Padded to a cache line: the hash index inlines one chain per entry, and
/// head installs by one CC thread would otherwise false-share with reads
/// and installs on neighbouring entries allocated next to it.
#[repr(align(64))]
pub struct Chain {
    head: AtomicPtr<Version>,
    /// Largest timestamp of any transaction whose read or scan the owning
    /// CC thread annotated with a direct pointer into this chain. Written
    /// only by that thread (timestamps arrive monotonically), read by the
    /// same thread's key-reclamation sweep: an index entry may only be
    /// retired once every possible annotation holder has executed
    /// (`annotated_ts ≤ GC bound`) — the annotation-safe lifetime rule.
    annotated_ts: AtomicU64,
}

impl Default for Chain {
    fn default() -> Self {
        Self::new()
    }
}

impl Chain {
    /// An empty chain (record does not exist yet).
    pub fn new() -> Self {
        Self {
            head: AtomicPtr::new(ptr::null_mut()),
            annotated_ts: AtomicU64::new(0),
        }
    }

    /// Record that the owning CC thread handed a direct pointer into this
    /// chain to the (not-yet-executed) transaction at `ts`. Single-writer,
    /// monotonic — see the field docs.
    #[inline]
    pub fn note_annotation(&self, ts: Timestamp) {
        // RELAXED: single-writer monotonic watermark read only by the same
        // CC thread's reclamation sweep; no payload is published through it.
        self.annotated_ts.store(ts, Ordering::Relaxed);
    }

    /// Largest timestamp ever passed to [`note_annotation`](Self::note_annotation).
    #[inline]
    pub fn annotated_ts(&self) -> Timestamp {
        // RELAXED: same-thread read of the single-writer watermark above.
        self.annotated_ts.load(Ordering::Relaxed)
    }

    /// If the whole chain is exactly one *resolved tombstone*, return its
    /// begin timestamp. This is the reclaimable shape of a fully-deleted
    /// key: combined with `begin ≤ GC bound` (every reader that could still
    /// need to observe the deletion has executed) and the annotation rule,
    /// the key's index entry can be retired outright.
    pub fn sole_tombstone(&self) -> Option<Timestamp> {
        let v = self.latest()?;
        if v.state() == crate::version::VersionState::Tombstone
            && v.prev.load(Ordering::Acquire).is_null()
        {
            Some(v.begin())
        } else {
            None
        }
    }

    /// Install `version` as the new latest version.
    ///
    /// Sets `version.prev` to the current head, supersedes the current head
    /// (its end timestamp becomes `version.begin()`), and publishes the new
    /// head. Returns the installed version.
    ///
    /// Must only be called by the record's owning CC thread, with
    /// monotonically increasing `begin` timestamps — both are BOHM protocol
    /// invariants (§3.2.2/§3.2.3); the monotonicity is debug-asserted.
    /// The returned reference stays valid until the owner truncates the
    /// version (see [`truncate`](Self::truncate)).
    pub fn install(&self, version: Box<Version>) -> &Version {
        let old = self.head.load(Ordering::Acquire);
        // SAFETY: only the owning CC thread unlinks versions, and that is
        // this thread — `old` cannot be recycled while we hold it.
        if let Some(old_ref) = unsafe { old.as_ref() } {
            debug_assert!(
                old_ref.begin() < version.begin(),
                "versions must be installed in timestamp order"
            );
            old_ref.supersede(version.begin());
        }
        // RELAXED: `version` is still thread-private (a `Box`); the
        // Release head store below publishes `prev` together with the rest
        // of the version's fields.
        version.prev.store(old, Ordering::Relaxed);
        let new = Box::into_raw(version);
        self.head.store(new, Ordering::Release);
        // SAFETY: just published; only this thread can unlink it again.
        unsafe { &*new }
    }

    /// Latest version, if any.
    ///
    /// The head is never truncated, but once superseded it can be: a
    /// caller other than the owning CC thread must hold the result only
    /// while no later write can be installed and truncated (a quiescent
    /// engine), or as a reader above the GC bound (module docs).
    #[inline]
    pub fn latest(&self) -> Option<&Version> {
        // SAFETY: the head stays linked until a newer install; the
        // watermark rule covers the rest.
        unsafe { self.head.load(Ordering::Acquire).as_ref() }
    }

    /// The version visible to a reader with timestamp `ts`: the version with
    /// `begin < ts ≤ end`.
    ///
    /// BOHM gives each transaction a single timestamp (§3.2.1), so a reader
    /// observes exactly the state left by all transactions ordered before
    /// it; the version superseded *by the reader's own write* (end = ts) is
    /// precisely what its read-modify-write must observe. Returns `None` if
    /// the record did not exist at `ts` (including tombstoned versions —
    /// callers distinguish via [`Version::state`]).
    ///
    /// `ts` must stay above every GC bound `truncate` is called with while
    /// the caller holds the result (the watermark rule, module docs).
    pub fn visible(&self, ts: Timestamp) -> Option<&Version> {
        let mut cur = self.head.load(Ordering::Acquire);
        loop {
            // SAFETY: `cur` came from the head or from the `prev` edge of a
            // version with `begin ≥ ts`; by the watermark rule neither can
            // lead to a truncated (recycled) version while `ts > bound`.
            let v = unsafe { cur.as_ref() }?;
            if v.begin() < ts {
                // Ends decrease monotonically as we walk older versions, so
                // the first version with begin < ts is the only candidate.
                return if v.end() >= ts { Some(v) } else { None };
            }
            cur = v.prev.load(Ordering::Acquire);
        }
    }

    /// Number of versions currently linked (test/diagnostic helper, for
    /// the owning CC thread or a quiescent chain).
    pub fn depth(&self) -> usize {
        let mut n = 0;
        let mut cur = self.latest();
        while let Some(v) = cur {
            n += 1;
            cur = v.prev();
        }
        n
    }

    /// Garbage-collect versions unreachable under paper Condition 3.
    ///
    /// `bound` is the largest timestamp of the current low-watermark batch:
    /// every transaction with `ts ≤ bound` has finished executing. A version
    /// whose `end ≤ bound` can no longer be read by any active or future
    /// transaction (its readers all have `ts ≤ end ≤ bound` and are done),
    /// so the tail starting at the first such version is unlinked and every
    /// version in it goes to `pool` for immediate reuse — the watermark
    /// rule in the module docs says why no grace period is needed. Returns
    /// the number of versions retired.
    ///
    /// # Safety
    ///
    /// The caller must be the chain's owning CC thread (like `install`),
    /// and every reader that may still dereference a version of this chain
    /// with `end ≤ bound` must have finished, with its accesses happening
    /// before this call. In BOHM both follow from the watermark rule
    /// (module docs) when `bound` is an Acquire load of the GC bound, or
    /// anything smaller.
    pub unsafe fn truncate(&self, bound: Timestamp, pool: &mut VersionPool) -> usize {
        // The head always has end = ∞, so the truncation point is strictly
        // below the head and `pred` is always valid. Only this (owning)
        // thread ever unlinks, so everything walked here is live.
        let Some(mut pred) = self.latest() else {
            return 0;
        };
        loop {
            let next = pred.prev.load(Ordering::Acquire);
            // SAFETY: still linked (we only unlink below, and no other
            // thread truncates this chain).
            let Some(v) = (unsafe { next.as_ref() }) else {
                return 0;
            };
            if v.end() <= bound {
                // Unlink the tail, then recycle every version in it.
                pred.prev.store(ptr::null_mut(), Ordering::Release);
                // SAFETY: the tail is unreachable from the head, every
                // version in it has `end ≤ bound`, and by the caller's
                // contract every reader that could still hold one has
                // finished before this call — this thread owns it now.
                return unsafe { recycle_list(next, pool) };
            }
            pred = v;
        }
    }

    /// Hand every version of a chain nobody can reach any more to `pool`,
    /// leaving it empty; returns how many there were.
    pub(crate) fn recycle(&mut self, pool: &mut VersionPool) -> usize {
        // RELAXED: `&mut self` — this thread already synchronized with
        // every past writer of the chain.
        let head = self.head.swap(ptr::null_mut(), Ordering::Relaxed);
        // SAFETY: `&mut self` — no reader or writer can reach the chain.
        unsafe { recycle_list(head, pool) }
    }
}

/// Move the unlinked version list starting at `cur` into `pool`.
///
/// # Safety
///
/// The list must be unreachable by every other thread, and owned by the
/// caller.
unsafe fn recycle_list(mut cur: *mut Version, pool: &mut VersionPool) -> usize {
    let mut n = 0;
    while !cur.is_null() {
        // SAFETY: caller contract; every version came from `Box::into_raw`
        // in `install`.
        let v = unsafe { Box::from_raw(cur) };
        // RELAXED: this thread wrote every `prev` edge of its chains; no
        // other writer exists to synchronize with.
        cur = v.prev.load(Ordering::Relaxed);
        pool.put(v);
        n += 1;
    }
    n
}

impl Drop for Chain {
    fn drop(&mut self) {
        // RELAXED: `&mut self` means this thread already synchronized with
        // every past writer; no concurrent access exists.
        let mut cur = self.head.load(Ordering::Relaxed);
        while !cur.is_null() {
            // SAFETY: `&mut self` guarantees no concurrent readers; every
            // version came from `Box::into_raw` in `install`.
            let v = unsafe { Box::from_raw(cur) };
            // RELAXED: same exclusive-access argument as the head load.
            cur = v.prev.load(Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bohm_common::value::{get_u64, of_u64};
    use bohm_common::INFINITY_TS;

    fn ready(ts: Timestamp, val: u64) -> Box<Version> {
        Box::new(Version::ready(ts, of_u64(val, 8)))
    }

    /// Truncation in a single-threaded test, where no version reference is
    /// held across the call.
    fn truncate(c: &Chain, bound: Timestamp, pool: &mut VersionPool) -> usize {
        // SAFETY: no other thread exists and the callers keep no version
        // reference across the call, so no reader can see the recycling.
        unsafe { c.truncate(bound, pool) }
    }

    #[test]
    fn empty_chain_has_no_visible_version() {
        let c = Chain::new();
        assert!(c.latest().is_none());
        assert!(c.visible(100).is_none());
        assert_eq!(c.depth(), 0);
    }

    #[test]
    fn install_links_and_supersedes() {
        let c = Chain::new();
        c.install(ready(100, 1));
        c.install(ready(200, 2));
        let head = c.latest().unwrap();
        assert_eq!(head.begin(), 200);
        assert_eq!(head.end(), INFINITY_TS);
        let old = c.visible(150).unwrap();
        assert_eq!(old.begin(), 100);
        assert_eq!(old.end(), 200);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn visibility_window_semantics() {
        let c = Chain::new();
        c.install(ready(100, 1));
        c.install(ready(200, 2));
        c.install(ready(300, 3));
        // Reader before the record existed.
        assert!(c.visible(100).is_none(), "begin < ts is strict");
        // Reader mid-history.
        assert_eq!(get_u64(c.visible(101).unwrap().data(), 0), 1);
        assert_eq!(get_u64(c.visible(200).unwrap().data(), 0), 1);
        assert_eq!(get_u64(c.visible(201).unwrap().data(), 0), 2);
        // Reader after everything.
        assert_eq!(get_u64(c.visible(999).unwrap().data(), 0), 3);
    }

    #[test]
    fn rmw_reads_its_predecessor() {
        // A transaction at ts=200 that RMWs this record must read the
        // version it supersedes (end = 200).
        let c = Chain::new();
        c.install(ready(100, 7));
        c.install(Box::new(Version::placeholder(200, 8)));
        let seen = c.visible(200).unwrap();
        assert_eq!(seen.begin(), 100);
        assert_eq!(get_u64(seen.data(), 0), 7);
    }

    #[test]
    fn placeholder_visible_but_unresolved() {
        let c = Chain::new();
        c.install(Box::new(Version::placeholder(100, 8)));
        let v = c.visible(150).unwrap();
        assert!(!v.is_resolved());
    }

    #[test]
    fn truncate_retires_only_dead_tail() {
        let c = Chain::new();
        let mut pool = VersionPool::new();
        c.install(ready(100, 1)); // end=200
        c.install(ready(200, 2)); // end=300
        c.install(ready(300, 3)); // end=∞
                                  // Watermark bound 250: version(100) has end 200 ≤ 250 → retire 1.
        assert_eq!(truncate(&c, 250, &mut pool), 1);
        assert_eq!(c.depth(), 2);
        // Readers above the bound still resolve correctly.
        assert_eq!(get_u64(c.visible(250).unwrap().data(), 0), 2);
        // Bound below every end: nothing to do.
        assert_eq!(truncate(&c, 250, &mut pool), 0);
        // Bound covering version(200): retire it too.
        assert_eq!(truncate(&c, 300, &mut pool), 1);
        assert_eq!(c.depth(), 1);
        assert_eq!(get_u64(c.latest().unwrap().data(), 0), 3);
    }

    #[test]
    fn tombstones_truncate_once_superseded() {
        // Record lifecycle on one chain: value → delete (tombstone) →
        // re-insert. Once the GC bound passes the re-insert, both the
        // tombstone and the pre-delete value are reclaimed; the chain
        // converges to the single live version.
        let c = Chain::new();
        let mut pool = VersionPool::new();
        c.install(ready(100, 1)); // end=200 after delete
        let del = c.install(Box::new(Version::placeholder(200, 8)));
        del.fill_tombstone();
        // Deleted: readers above the tombstone observe it (absence).
        assert_eq!(
            c.visible(250).unwrap().state(),
            crate::version::VersionState::Tombstone
        );
        // Re-insert supersedes the tombstone (end = 300).
        c.install(ready(300, 3));
        assert_eq!(c.depth(), 3);
        // Bound below the re-insert keeps the tombstone (a reader at 250
        // might still need to observe the deletion).
        assert_eq!(
            truncate(&c, 250, &mut pool),
            1,
            "only the pre-delete value dies"
        );
        // Bound at the re-insert reclaims the tombstone too.
        assert_eq!(truncate(&c, 300, &mut pool), 1);
        assert_eq!(c.depth(), 1);
        assert_eq!(get_u64(c.latest().unwrap().data(), 0), 3);
    }

    #[test]
    fn sole_tombstone_shape_and_annotation_bookkeeping() {
        let c = Chain::new();
        let mut pool = VersionPool::new();
        assert!(c.sole_tombstone().is_none(), "empty chain");
        c.install(ready(100, 1));
        assert!(c.sole_tombstone().is_none(), "live value");
        let del = c.install(Box::new(Version::placeholder(200, 8)));
        del.fill_tombstone();
        assert!(
            c.sole_tombstone().is_none(),
            "predecessor value still linked"
        );
        assert_eq!(truncate(&c, 200, &mut pool), 1);
        assert_eq!(c.sole_tombstone(), Some(200), "fully-deleted shape");
        assert_eq!(c.annotated_ts(), 0);
        c.note_annotation(250);
        assert_eq!(c.annotated_ts(), 250);
    }

    #[test]
    fn truncate_never_touches_live_head() {
        let c = Chain::new();
        let mut pool = VersionPool::new();
        c.install(ready(100, 1));
        assert_eq!(truncate(&c, u64::MAX - 1, &mut pool), 0);
        assert_eq!(c.depth(), 1);
    }

    #[test]
    fn long_history_truncates_in_one_pass() {
        let c = Chain::new();
        let mut pool = VersionPool::new();
        for i in 1..=100 {
            c.install(ready(i * 10, i));
        }
        // All ends except the head's are ≤ 1000.
        assert_eq!(truncate(&c, 1000, &mut pool), 99);
        assert_eq!(c.depth(), 1);
        assert_eq!(pool.len(), 99, "every truncated version is pooled");
    }

    #[test]
    fn truncated_versions_come_back_as_placeholders() {
        let c = Chain::new();
        let mut pool = VersionPool::new();
        c.install(ready(1, 1));
        let old = c.latest().unwrap() as *const Version;
        c.install(ready(2, 2));
        assert_eq!(truncate(&c, 2, &mut pool), 1);
        let v = c.install(pool.placeholder(3, 8));
        assert_eq!(v as *const Version, old, "the truncated version was reused");
        assert!(pool.is_empty());
        // Re-armed: a fresh pending head superseding ts 2, no stale link.
        let head = c.latest().unwrap();
        assert_eq!((head.begin(), head.end()), (3, INFINITY_TS));
        assert!(!head.is_resolved());
        assert_eq!(c.visible(3).unwrap().end(), 3);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn concurrent_readers_during_install_and_truncate() {
        // BOHM's roles in miniature. This thread is the owning CC thread:
        // it installs versions `begin = i + 1, value = i` from a pool,
        // publishes each as `installed`, and every 16 installs truncates
        // under the watermark `min(finished)` into that pool, so truncated
        // versions come back as new heads while the readers run. Each
        // reader is an execution thread: it reads at strictly increasing
        // timestamps above its own `finished`, wandering up to 50 versions
        // back, and Release-publishes each timestamp once its read is done.
        // A version recycled under a reader would change `begin`, turn
        // `Pending` or carry another value, failing the checks below.
        use bohm_sync::atomic::{AtomicU64, Ordering as O};
        use std::sync::Arc;
        const READERS: usize = 3;
        const LAST: u64 = 4000;
        let c = Arc::new(Chain::new());
        c.install(ready(1, 0));
        let installed = Arc::new(AtomicU64::new(1));
        let finished: Arc<Vec<AtomicU64>> =
            Arc::new((0..READERS).map(|_| AtomicU64::new(0)).collect());
        let mut handles = Vec::new();
        for r in 0..READERS {
            let (c, installed, finished) = (
                Arc::clone(&c),
                Arc::clone(&installed),
                Arc::clone(&finished),
            );
            handles.push(std::thread::spawn(move || {
                let mut done = 0u64;
                let mut reads = 0u64;
                while done <= LAST {
                    let h = installed.load(O::Acquire);
                    let ts = (done + 1).max((h + 1).saturating_sub(reads % 50));
                    if ts > h + 1 {
                        std::hint::spin_loop(); // caught up with the writer
                        continue;
                    }
                    let v = c.visible(ts).expect("every ts > 1 sees a version");
                    assert!(v.begin() < ts && v.end() >= ts, "visible({ts}): {v:?}");
                    assert_eq!(get_u64(v.data(), 0), v.begin() - 1);
                    done = ts;
                    finished[r].store(done, O::Release);
                    reads += 1;
                }
            }));
        }
        // Start installing only once every reader runs, so the truncations
        // below overlap live reads.
        while finished.iter().any(|f| f.load(O::Acquire) == 0) {
            std::hint::spin_loop();
        }
        let mut pool = VersionPool::new();
        let mut recycled = 0;
        for i in 1..LAST {
            let v = c.install(pool.placeholder(i + 1, 8));
            v.fill(&of_u64(i, 8));
            installed.store(i + 1, O::Release);
            if i % 16 == 0 {
                let bound = finished.iter().map(|f| f.load(O::Acquire)).min().unwrap();
                // SAFETY: every reader Release-published `finished` after its
                // last read at or below it and reads only above it; `bound`
                // is an Acquire load of the minimum (the watermark rule).
                recycled += unsafe { c.truncate(bound, &mut pool) };
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        recycled += truncate(&c, LAST, &mut pool);
        assert_eq!(c.depth(), 1);
        assert_eq!(
            recycled as u64,
            LAST - 1,
            "every superseded version recycled"
        );
    }
}
