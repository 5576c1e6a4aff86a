//! The record index: [`RecordId`] → version [`Chain`].
//!
//! BOHM gives every record to one CC thread for life (paper §3.2.2), and
//! only that thread ever inserts or removes the record's key. The index
//! follows the same split: a [`PartitionedIndex`] holds one [`HashIndex`]
//! per CC thread, chosen by the partition function
//! [`PartitionedIndex::partition_of`], and each `HashIndex` is the paper's
//! latch-free hash table (§3.3.1) with a **single writer**. Readers are
//! lock-free and write nothing. The writer inserts with one Release store
//! of a bucket head and unlinks with one Release store of the
//! predecessor's link: no compare-and-swap, no retry, no lock.
//!
//! # Reclamation: the watermark rule for entries
//!
//! A fully-deleted key whose chain has collapsed to a sole tombstone older
//! than the GC bound can have its entry removed outright
//! ([`HashIndex::sweep_retire`]); without that, full-table delete churn
//! would grow the index without bound. An execution thread may still be
//! walking the bucket, or hold the entry's chain, when the writer unlinks
//! it, so the entry is not freed at once. It waits on the writer's list,
//! tagged with a *grace* timestamp, until the GC low watermark reaches
//! that tag ([`HashIndex::free_unlinked`]); then its chain's versions go
//! to the writer's [`VersionPool`] and the entry is freed. In BOHM the tag
//! is the last timestamp of the batch the CC thread is processing when it
//! unlinks, which is sound because:
//!
//! * execution of that batch and of every later one starts only after
//!   every CC thread's `finish_cc` for it (an AcqRel countdown the
//!   execution threads Acquire), so their walks never see the entry;
//! * walks of earlier batches end before their execution thread
//!   Release-stores a finished timestamp below the tag, and the GC bound
//!   reaches the tag only after every execution thread has stored one at
//!   or beyond it. `free_unlinked` Acquire-loads the bound, which orders
//!   each of those walks before the free (the same `finished_ts →
//!   gc_bound` edge as [`Chain::truncate`]'s watermark rule).

// HOT-PATH: every record access resolves its chain here; no clocks, no
// syscalls, no I/O (enforced by the lint).

use crate::chain::Chain;
use crate::pool::VersionPool;
use bohm_common::{RecordId, TableId, Timestamp};
use bohm_sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use bohm_sync::cell::UnsafeCell;
use std::collections::VecDeque;
use std::ptr;

struct Entry {
    /// The key. A facade cell so that the model checker sees the free —
    /// which poisons the key first — ordered after every reader's
    /// comparison.
    rid: UnsafeCell<RecordId>,
    chain: Chain,
    next: AtomicPtr<Entry>,
}

/// Key a freed entry carries into the allocator: no table has this id.
const POISONED: RecordId = RecordId {
    table: TableId(u32::MAX),
    row: u64::MAX,
};

impl Entry {
    #[inline]
    fn rid(&self) -> RecordId {
        // SAFETY: the key is written at construction and once more by
        // `free_unlinked`, which the watermark rule orders after every
        // reader that could still reach the entry.
        unsafe { self.rid.with(|r| *r) }
    }
}

/// A single-writer, lock-free-reader chained hash table: the index of one
/// CC thread's partition.
pub struct HashIndex {
    buckets: Box<[AtomicPtr<Entry>]>,
    mask: u64,
    len: AtomicUsize,
    /// Entries the writer unlinked and not yet freed, each with its grace
    /// timestamp, in unlink (hence grace) order. Only the writer touches
    /// the list.
    unlinked: std::cell::UnsafeCell<VecDeque<(Timestamp, *mut Entry)>>,
}

// SAFETY: `mask` is immutable and `buckets`/`len` are atomics. Entries
// (linked or in `unlinked`) are heap allocations owned by the index: other
// threads only read them (atomic links, `Chain`, and a key written again
// only by `free_unlinked` under its watermark contract). The raw pointers
// in `unlinked` are touched only by the single writer (`unsafe fn`
// contracts below) or through `&mut self`.
unsafe impl Send for HashIndex {}
// SAFETY: same argument as `Send` above.
unsafe impl Sync for HashIndex {}

impl HashIndex {
    /// Create with capacity for roughly `expected` keys (bucket count is the
    /// next power of two ≥ `expected`, i.e. load factor ≤ 1).
    pub fn with_capacity(expected: usize) -> Self {
        let n = expected.max(16).next_power_of_two();
        let mut buckets = Vec::with_capacity(n);
        buckets.resize_with(n, || AtomicPtr::new(ptr::null_mut()));
        Self {
            buckets: buckets.into_boxed_slice(),
            mask: (n - 1) as u64,
            len: AtomicUsize::new(0),
            unlinked: std::cell::UnsafeCell::new(VecDeque::new()),
        }
    }

    /// Number of buckets (sweep-cursor arithmetic for callers).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Number of keys present (unlinked entries waiting to be freed do not
    /// count).
    pub fn len(&self) -> usize {
        // RELAXED: racy gauge by design; callers use it for sizing hints
        // and quiescent audits.
        self.len.load(Ordering::Relaxed)
    }

    /// True when no key is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Chain for `rid`, if the key is present. Lock-free, writes nothing.
    ///
    /// The chain stays valid until the writer frees its entry, which the
    /// watermark rule (module docs) orders after every reader of a batch
    /// that could still find it.
    #[inline]
    pub fn get(&self, rid: RecordId) -> Option<&Chain> {
        let mut cur = self.bucket(rid).load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: entries are published with Release stores and freed
            // only by `free_unlinked`, whose contract keeps them alive
            // for every reader that could have loaded this pointer.
            let e = unsafe { &*cur };
            if e.rid() == rid {
                return Some(&e.chain);
            }
            cur = e.next.load(Ordering::Acquire);
        }
        None
    }

    /// Chain for `rid`, inserting an empty chain if the key is absent.
    ///
    /// # Safety
    ///
    /// The caller must be the index's only writer: no other thread may run
    /// `get_or_insert`, `sweep_retire` or `free_unlinked` on it
    /// concurrently. In BOHM that is the CC thread owning the partition
    /// (or the engine's constructor, before any worker exists).
    pub unsafe fn get_or_insert(&self, rid: RecordId) -> &Chain {
        if let Some(chain) = self.get(rid) {
            return chain;
        }
        let bucket = self.bucket(rid);
        let new = Box::into_raw(Box::new(Entry {
            rid: UnsafeCell::new(rid),
            chain: Chain::new(),
            // RELAXED: only this thread stores bucket heads.
            next: AtomicPtr::new(bucket.load(Ordering::Relaxed)),
        }));
        bucket.store(new, Ordering::Release);
        // RELAXED: approximate size gauge; no payload is published through it.
        self.len.fetch_add(1, Ordering::Relaxed);
        // SAFETY: just published; only this thread can unlink or free it.
        unsafe { &(*new).chain }
    }

    /// Visit every `(key, chain)` present in the index, in bucket order.
    /// This is the checkpoint snapshot walk: on a quiescent engine each
    /// chain's latest version is the committed state.
    pub fn for_each<'a>(&'a self, f: &mut dyn FnMut(RecordId, &'a Chain)) {
        for bucket in self.buckets.iter() {
            let mut cur = bucket.load(Ordering::Acquire);
            while !cur.is_null() {
                // SAFETY: as in `get`.
                let e = unsafe { &*cur };
                f(e.rid(), &e.chain);
                cur = e.next.load(Ordering::Acquire);
            }
        }
    }

    /// Visit `count` buckets starting at `start` (wrapping) and unlink every
    /// entry `reclaim` approves, returning how many were unlinked. Unlinked
    /// entries wait, tagged with `grace`, until
    /// [`free_unlinked`](Self::free_unlinked) sees the GC bound reach it.
    ///
    /// `reclaim` must only approve a key no transaction still needs: in
    /// BOHM a sole tombstone older than the GC bound, with every
    /// annotation holder executed (`cc::sweep_keys`).
    ///
    /// # Safety
    ///
    /// The caller must be the index's only writer (as for
    /// [`get_or_insert`](Self::get_or_insert)), and the GC bound must reach
    /// `grace` only after every reader that may have found an entry
    /// unlinked here has finished with it — in BOHM, `grace` is the last
    /// timestamp of the batch the caller is running CC for (module docs).
    pub unsafe fn sweep_retire(
        &self,
        start: usize,
        count: usize,
        grace: Timestamp,
        reclaim: &mut dyn FnMut(RecordId, &Chain) -> bool,
    ) -> usize {
        // SAFETY: the single writer is the only thread touching the list.
        let unlinked = unsafe { &mut *self.unlinked.get() };
        let mut retired = 0;
        for i in 0..count.min(self.buckets.len()) {
            let mut link = &self.buckets[(start + i) & self.mask as usize];
            loop {
                // RELAXED: only this thread stores links.
                let cur = link.load(Ordering::Relaxed);
                if cur.is_null() {
                    break;
                }
                // SAFETY: linked, and only this thread unlinks or frees.
                let e = unsafe { &*cur };
                if reclaim(e.rid(), &e.chain) {
                    // RELAXED: own store, as above.
                    link.store(e.next.load(Ordering::Relaxed), Ordering::Release);
                    // RELAXED: approximate size gauge, as in `get_or_insert`.
                    self.len.fetch_sub(1, Ordering::Relaxed);
                    unlinked.push_back((grace, cur));
                    retired += 1;
                } else {
                    link = &e.next;
                }
            }
        }
        retired
    }

    /// Free every unlinked entry whose grace timestamp the GC bound has
    /// reached, handing its chain's versions to `pool`. Returns how many
    /// entries were freed.
    ///
    /// # Safety
    ///
    /// The caller must be the index's only writer, and `gc_bound` must be
    /// a low watermark: a value `b` in it means every reader that may hold
    /// a pointer to an entry unlinked with `grace ≤ b` has finished, its
    /// accesses happening before the Release store of `b` (BOHM's GC bound,
    /// module docs).
    pub unsafe fn free_unlinked(&self, gc_bound: &AtomicU64, pool: &mut VersionPool) -> usize {
        // SAFETY: the single writer is the only thread touching the list.
        let unlinked = unsafe { &mut *self.unlinked.get() };
        if unlinked.is_empty() {
            return 0;
        }
        // Acquire: orders every finished reader of these entries before
        // the poisoning, the free and the versions' reuse.
        let bound = gc_bound.load(Ordering::Acquire);
        let mut freed = 0;
        while let Some(&(grace, e)) = unlinked.front() {
            if grace > bound {
                break;
            }
            unlinked.pop_front();
            // SAFETY: unlinked by this writer, and every reader that could
            // still reach it finished before `bound` was published.
            let mut e = unsafe { Box::from_raw(e) };
            // SAFETY: exclusive (above); the tracked write is what lets the
            // model checker order the free after the readers' key loads.
            unsafe { e.rid.with_mut(|r| *r = POISONED) };
            e.chain.recycle(pool);
            freed += 1;
        }
        freed
    }

    #[inline]
    fn bucket(&self, rid: RecordId) -> &AtomicPtr<Entry> {
        &self.buckets[(rid.stable_hash() & self.mask) as usize]
    }
}

impl Drop for HashIndex {
    fn drop(&mut self) {
        for (_, e) in self.unlinked.get_mut().drain(..) {
            // SAFETY: exclusive access via &mut self; unlinked entries are
            // owned by the index until freed.
            drop(unsafe { Box::from_raw(e) });
        }
        for b in self.buckets.iter() {
            // RELAXED: `&mut self` in Drop proves exclusive access.
            let mut cur = b.load(Ordering::Relaxed);
            while !cur.is_null() {
                // SAFETY: exclusive access via &mut self.
                let e = unsafe { Box::from_raw(cur) };
                // RELAXED: as above — no concurrency in Drop.
                cur = e.next.load(Ordering::Relaxed);
            }
        }
    }
}

/// BOHM's record index: one single-writer [`HashIndex`] per CC thread.
pub struct PartitionedIndex {
    parts: Box<[HashIndex]>,
}

impl PartitionedIndex {
    /// `partitions` tables with room for roughly `expected` keys in total.
    pub fn new(partitions: usize, expected: usize) -> Self {
        assert!(partitions >= 1, "need at least one partition");
        let each = expected.div_ceil(partitions);
        Self {
            parts: (0..partitions)
                .map(|_| HashIndex::with_capacity(each))
                .collect(),
        }
    }

    /// The partition owning `rid`: `(rid.stable_hash() >> 32) % partitions`,
    /// the CC partition function of paper §3.2.2 (the low hash bits pick
    /// the bucket inside the partition).
    #[inline]
    pub fn partition_of(&self, rid: RecordId) -> usize {
        ((rid.stable_hash() >> 32) % self.parts.len() as u64) as usize
    }

    /// Partition `p`'s table; its writer is CC thread `p`.
    #[inline]
    pub fn partition(&self, p: usize) -> &HashIndex {
        &self.parts[p]
    }

    /// Chain for `rid`, if present (see [`HashIndex::get`]).
    #[inline]
    pub fn get(&self, rid: RecordId) -> Option<&Chain> {
        self.parts[self.partition_of(rid)].get(rid)
    }

    /// Number of keys present, summed over the partitions.
    pub fn len(&self) -> usize {
        self.parts.iter().map(HashIndex::len).sum()
    }

    /// True when no partition holds a key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`HashIndex::for_each`] over every partition in turn.
    pub fn for_each<'a>(&'a self, f: &mut dyn FnMut(RecordId, &'a Chain)) {
        for p in self.parts.iter() {
            p.for_each(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::Version;
    use bohm_common::value::{get_u64, of_u64};

    fn rid(t: u32, k: u64) -> RecordId {
        RecordId::new(t, k)
    }

    /// Insertion from a single-threaded test, the only writer.
    fn insert(idx: &HashIndex, r: RecordId) -> &Chain {
        // SAFETY: the test thread is the index's only writer.
        unsafe { idx.get_or_insert(r) }
    }

    /// Sweep from a single-threaded test with grace timestamp 1.
    fn sweep(idx: &HashIndex, start: usize, count: usize, f: impl Fn(RecordId) -> bool) -> usize {
        // SAFETY: only writer, and no reader exists.
        unsafe { idx.sweep_retire(start, count, 1, &mut |r, _| f(r)) }
    }

    #[test]
    fn hash_get_or_insert_is_idempotent() {
        let idx = HashIndex::with_capacity(64);
        let a = insert(&idx, rid(0, 1)) as *const Chain;
        let b = insert(&idx, rid(0, 1)) as *const Chain;
        assert_eq!(a, b);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn hash_get_misses_absent_keys() {
        let idx = HashIndex::with_capacity(16);
        insert(&idx, rid(0, 1));
        assert!(idx.get(rid(0, 2)).is_none());
        assert!(idx.get(rid(1, 1)).is_none(), "table id is part of the key");
    }

    #[test]
    fn hash_handles_bucket_collisions() {
        // Tiny table forces collisions; all keys must remain reachable.
        let idx = HashIndex::with_capacity(1);
        for k in 0..200 {
            insert(&idx, rid(0, k));
        }
        assert_eq!(idx.len(), 200);
        for k in 0..200 {
            assert!(idx.get(rid(0, k)).is_some(), "lost key {k}");
        }
    }

    #[test]
    fn hash_chains_store_versions() {
        let idx = HashIndex::with_capacity(16);
        insert(&idx, rid(0, 7)).install(Box::new(Version::ready(1, of_u64(9, 8))));
        let v = idx.get(rid(0, 7)).unwrap().visible(2).unwrap();
        assert_eq!(get_u64(v.data(), 0), 9);
    }

    #[test]
    fn hash_concurrent_inserts_unique_keys() {
        // One writer per partition, all partitions filling at once: no
        // key may be lost and every partition stays readable.
        use std::sync::Arc;
        let idx = Arc::new(PartitionedIndex::new(8, 64)); // force collisions
        let mut handles = Vec::new();
        for p in 0..8 {
            let idx = Arc::clone(&idx);
            handles.push(std::thread::spawn(move || {
                let mut n = 0;
                for k in 0..4000 {
                    let r = rid(0, k);
                    if idx.partition_of(r) == p {
                        // SAFETY: this thread is partition `p`'s only writer.
                        unsafe { idx.partition(p).get_or_insert(r) };
                        n += 1;
                    }
                }
                n
            }));
        }
        let inserted: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(inserted, 4000);
        assert_eq!(idx.len(), 4000);
        for k in 0..4000 {
            assert!(idx.get(rid(0, k)).is_some(), "lost key {k}");
        }
    }

    #[test]
    fn partitioned_index_routes_keys_and_sums_len() {
        let idx = PartitionedIndex::new(3, 300);
        let mut per_part = [0usize; 3];
        for k in 0..300 {
            let r = rid(k as u32 % 2, k);
            let p = idx.partition_of(r);
            assert_eq!(p as u64, (r.stable_hash() >> 32) % 3, "partition function");
            // SAFETY: single-threaded test, the only writer.
            unsafe { idx.partition(p).get_or_insert(r) };
            per_part[p] += 1;
        }
        for (p, &n) in per_part.iter().enumerate() {
            assert!(n > 50, "partition {p} starved: {per_part:?}");
            assert_eq!(idx.partition(p).len(), n);
        }
        assert_eq!(idx.len(), 300, "len is the sum over partitions");
        for k in 0..300 {
            let r = rid(k as u32 % 2, k);
            assert!(idx.get(r).is_some());
            let others = (0..3).filter(|&p| p != idx.partition_of(r));
            for p in others {
                assert!(idx.partition(p).get(r).is_none(), "{r} stored twice");
            }
        }
        let mut seen = 0;
        idx.for_each(&mut |_, _| seen += 1);
        assert_eq!(seen, 300);
    }

    #[test]
    fn sweep_retire_removes_head_and_mid_entries() {
        let idx = HashIndex::with_capacity(1);
        // Six keys sharing one bucket: a list with a head and mid entries.
        let b0 = rid(0, 0).stable_hash() & idx.mask;
        let keys: Vec<u64> = (0..)
            .filter(|&k| rid(0, k).stable_hash() & idx.mask == b0)
            .take(6)
            .collect();
        for &k in &keys {
            insert(&idx, rid(0, k));
        }
        assert_eq!(idx.len(), 6);
        // Retire every other key wherever it sits in the bucket list,
        // including the head (inserted last).
        let doomed = |r: RecordId| keys.iter().position(|&k| k == r.row).unwrap() % 2 == 1;
        assert_eq!(sweep(&idx, 0, idx.bucket_count(), doomed), 3);
        assert_eq!(idx.len(), 3);
        for &k in &keys {
            assert_eq!(idx.get(rid(0, k)).is_some(), !doomed(rid(0, k)), "key {k}");
        }
        // Retired keys are re-insertable with fresh chains.
        insert(&idx, rid(0, keys[1]));
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn sweep_retire_wraps_and_respects_count() {
        let idx = HashIndex::with_capacity(64);
        for k in 0..100 {
            insert(&idx, rid(0, k));
        }
        // Buckets 60..=63 and 0..=3: the window wraps past the end.
        let in_window = |r: RecordId| ((r.stable_hash() & idx.mask) + 64 - 60) & 63 < 8;
        let mut expected = 0;
        idx.for_each(&mut |r, _| expected += usize::from(in_window(r)));
        assert!(expected > 0);
        assert_eq!(sweep(&idx, 60, 8, |_| true), expected);
        // Sweeping every bucket from an offset start must still see all.
        let left = idx.len();
        assert_eq!(sweep(&idx, 37, usize::MAX, |_| true), left);
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn unlinked_entries_wait_for_the_gc_bound() {
        let idx = HashIndex::with_capacity(16);
        let mut pool = VersionPool::new();
        let bound = AtomicU64::new(0);
        for (k, grace) in [(1, 10), (2, 20)] {
            let c = insert(&idx, rid(0, k));
            c.install(Box::new(Version::placeholder(k, 8)))
                .fill_tombstone();
            // SAFETY: single-threaded test, the only writer.
            let n = unsafe { idx.sweep_retire(0, usize::MAX, grace, &mut |r, _| r.row == k) };
            assert_eq!(n, 1);
        }
        assert_eq!(idx.len(), 0);
        // SAFETY: only writer; no reader exists, so any bound is a watermark.
        let free = |pool: &mut VersionPool| unsafe { idx.free_unlinked(&bound, pool) };
        assert_eq!(free(&mut pool), 0, "bound below every grace timestamp");
        bound.store(19, Ordering::Release);
        assert_eq!(free(&mut pool), 1, "only key 1's grace has passed");
        assert_eq!(pool.len(), 1, "its tombstone went to the pool");
        bound.store(20, Ordering::Release);
        assert_eq!(free(&mut pool), 1);
        assert_eq!(free(&mut pool), 0, "nothing left to free");
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn reader_probes_partition_while_its_writer_inserts_and_unlinks() {
        // BOHM's roles on one partition: this thread is the owning CC
        // thread, inserting keys and unlinking the older ones in a tiny
        // table (so every bucket is a list), tagging each unlink with the
        // current "batch" and freeing once the reader's Release-published
        // watermark passes it, never running more than 4 batches ahead of
        // the reader. The reader probes every key of the key space: a key
        // that is not yet inserted or already retired may be absent, but a
        // found chain must carry its own key's version, and keys the
        // writer guarantees live must always be found.
        use bohm_sync::atomic::AtomicBool;
        use std::sync::Arc;
        const KEYS: u64 = 64;
        let idx = Arc::new(HashIndex::with_capacity(4));
        for k in 0..KEYS / 2 {
            // Even keys live forever, each with a ready version holding k.
            insert(&idx, rid(0, 2 * k)).install(Box::new(Version::ready(1, of_u64(2 * k, 8))));
        }
        let batch = Arc::new(AtomicU64::new(1));
        let finished = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let (idx, batch, finished, stop) = (
                Arc::clone(&idx),
                Arc::clone(&batch),
                Arc::clone(&finished),
                Arc::clone(&stop),
            );
            std::thread::spawn(move || {
                let mut rounds = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let b = batch.load(Ordering::Acquire);
                    for k in 0..KEYS {
                        match idx.get(rid(0, k)).and_then(|c| c.latest()) {
                            Some(v) => assert_eq!(get_u64(v.data(), 0), k, "key {k}"),
                            None => assert!(k % 2 == 1, "live key {k} lost"),
                        }
                    }
                    // Done with every batch up to the one read above.
                    finished.store(b - 1, Ordering::Release);
                    rounds += 1;
                }
                rounds
            })
        };
        let mut pool = VersionPool::new();
        let mut freed = 0;
        for b in 1..=2000u64 {
            // Run at most 4 batches ahead of the reader, like the window's
            // in-flight budget, so probes overlap unlinks and frees.
            while finished.load(Ordering::Acquire) + 4 < b {
                std::hint::spin_loop();
            }
            batch.store(b, Ordering::Release);
            let k = 2 * (b % (KEYS / 2)) + 1;
            // SAFETY: this thread is the only writer.
            let c = unsafe { idx.get_or_insert(rid(0, k)) };
            if c.latest().is_none() {
                c.install(Box::new(Version::ready(b, of_u64(k, 8))));
            }
            // SAFETY: only writer; the reader stores `finished = b' - 1`
            // only after its probes that started at batch `b'`, so
            // grace `b` passes once every probe that could see this
            // unlink has ended.
            unsafe {
                idx.sweep_retire(0, usize::MAX, b, &mut |r, _| r.row % 2 == 1 && r.row != k);
                freed += idx.free_unlinked(&finished, &mut pool);
            }
        }
        stop.store(true, Ordering::Release);
        assert!(reader.join().unwrap() > 0);
        assert_eq!(
            idx.len(),
            KEYS as usize / 2 + 1,
            "evens plus the last odd key"
        );
        assert!(freed > 0, "the watermark never let an entry go");
    }
}
