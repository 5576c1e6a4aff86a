//! The concurrency-control phase (paper §3.2).
//!
//! Each CC thread owns a static hash partition of the key space and runs
//! the same loop: for every transaction of every batch, in timestamp order,
//!
//! * annotate each read-set entry in its partition with the current latest
//!   version (§3.2.3 — this *is* the version a reader at this timestamp
//!   must observe, because CC threads process transactions sequentially),
//! * install an uninitialized placeholder version for each write-set entry
//!   in its partition (§3.2.2), and
//! * opportunistically truncate the record's dead version tail under the
//!   Condition-3 GC bound (§3.3.2 — GC triggers on update).
//!
//! Each CC thread is the only writer of its partition's hash index
//! (`bohm_mvstore::PartitionedIndex`) and owns a [`VersionPool`]:
//! truncated versions go into it and come back out as the placeholders of
//! later writes, so a warm CC thread neither allocates nor defers frees
//! per write. The GC bound a truncation or an entry free uses is always
//! an Acquire load — the edge that orders every finished reader of a
//! truncated version or a retired key before its reuse (the watermark
//! rules in `bohm_mvstore::chain` and `bohm_mvstore::index`). No CC or
//! execution thread takes an epoch pin.
//!
//! The per-transaction scan iterates the sequencer-built packed plan
//! (see `PlanEntry` in `crate::batch`): every CC thread examines
//! every transaction — the design's acknowledged serial component (§3.2.2)
//! — so the examination itself is a tight pass over one contiguous array.
//!
//! Threads never coordinate per transaction or per record; the only
//! synchronization is one atomic countdown per batch (§3.2.4). Each thread
//! walks the window ring in batch-id order; whichever thread finishes a
//! batch last releases it to the execution threads. (The sequencer
//! registered the batch in the window ring before any CC thread saw it, so
//! execution can always resolve read dependencies into in-flight batches.)

use crate::batch::Batch;
use crate::engine::Inner;
use bohm_common::{RecordId, Timestamp};
use bohm_mvstore::{Chain, Version, VersionPool};
use bohm_sync::atomic::Ordering;
use std::sync::Arc;

/// Index buckets of its own partition a CC thread sweeps per batch for
/// reclaimable keys. A [`BohmConfig::small`](crate::BohmConfig::small)
/// engine has 512 buckets per partition, so one sweep per batch covers it.
pub(crate) const KEY_SWEEP_BUCKETS: usize = 512;

/// Main loop of CC thread `me`: every batch in id order, until the
/// sequencer closes the window.
pub(crate) fn cc_loop(inner: Arc<Inner>, me: usize) {
    let mut probe_tick = me as u64; // desynchronize threads' probe phases
    let mut sweep_cursor = 0usize; // round-robin over this partition's buckets
    let mut pool = VersionPool::new();
    let mut next = 0u64;
    while let Some(batch) = inner.window.next_sealed(next) {
        next += 1;
        let t0 = std::time::Instant::now();
        process_batch(&inner, me, &batch, &mut probe_tick, &mut pool);
        sweep_keys(&inner, me, batch.last_ts(), &mut sweep_cursor, &mut pool);
        inner
            .cc_busy_ns
            // RELAXED: monotonic statistics counter.
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        inner.window.finish_cc(&batch);
    }
}

/// Key reclamation: retire fully-deleted keys of this thread's partition.
///
/// A key is reclaimable once (a) its chain is exactly one *committed
/// tombstone* with `begin ≤ gc_bound` — every transaction that could still
/// need to observe the deletion (or anything under it) has executed — and
/// (b) `annotated_ts ≤ gc_bound` — every transaction this thread ever
/// handed a raw annotation pointer into the chain has executed too (the
/// annotation-safe lifetime rule). Only the key's partition owner judges
/// this, because only it installs into the chain and writes the
/// partition's index. Dead suffixes are truncated first so a
/// deleted-then-idle key can reach its sole-tombstone shape without
/// waiting for a write probe that will never come.
///
/// Unlinked entries are freed, and their chains recycled into `pool`,
/// once the GC bound reaches `grace` — the last timestamp of the batch
/// this thread is running CC for: every execution that could still find
/// the entry belongs to an earlier batch.
pub(crate) fn sweep_keys(
    inner: &Inner,
    me: usize,
    grace: Timestamp,
    cursor: &mut usize,
    pool: &mut VersionPool,
) {
    if !inner.config.enable_gc {
        return;
    }
    // No tombstone has ever been produced ⇒ no key can be in the
    // reclaimable shape: delete-free workloads skip the sweep outright.
    // RELAXED: monotone flag-counter; a stale zero only postpones the
    // sweep until the writer's next batch is visible.
    if inner.deletes_seen.load(Ordering::Relaxed) == 0 {
        return;
    }
    let part = inner.index.partition(me);
    // SAFETY: this thread is partition `me`'s only writer, and `gc_bound`
    // is the engine's low watermark: each execution thread Release-stores
    // its finished timestamp after its last access to a batch, and
    // `exec::refresh_gc_bound` Acquire-loads those before Release-storing
    // their minimum.
    unsafe { part.free_unlinked(&inner.gc_bound, pool) };
    // Acquire: orders every finished reader before both the key
    // retirement and the version recycling below.
    let bound = inner.gc_bound.load(Ordering::Acquire);
    if bound == 0 {
        return;
    }
    let mut versions = 0usize;
    let mut reclaim = |_: RecordId, chain: &Chain| {
        // SAFETY: this thread owns the chain, and `bound` was
        // Acquire-loaded from the GC bound (the watermark rule).
        versions += unsafe { chain.truncate(bound, pool) };
        chain.annotated_ts() <= bound && chain.sole_tombstone().is_some_and(|b| b <= bound)
    };
    // SAFETY: this thread is partition `me`'s only writer, and `grace` is
    // the last timestamp of the batch in CC (the watermark rule for
    // entries in `bohm_mvstore::index`).
    let retired = unsafe { part.sweep_retire(*cursor, KEY_SWEEP_BUCKETS, grace, &mut reclaim) };
    *cursor = (*cursor + KEY_SWEEP_BUCKETS) % part.bucket_count();
    if versions > 0 {
        inner
            .gc_retired
            // RELAXED: monotonic statistics counter.
            .fetch_add(versions as u64, Ordering::Relaxed);
    }
    if retired > 0 {
        // Each retired key recycles its sole tombstone with the entry.
        inner
            .gc_retired
            // RELAXED: monotonic statistics counter.
            .fetch_add(retired as u64, Ordering::Relaxed);
        inner
            .keys_retired
            // RELAXED: monotonic statistics counter.
            .fetch_add(retired as u64, Ordering::Relaxed);
    }
}

/// Process every transaction of `batch` for partition `me`, taking
/// placeholders from and truncating into this thread's `pool`.
pub(crate) fn process_batch(
    inner: &Inner,
    me: usize,
    batch: &Batch,
    probe_tick: &mut u64,
    pool: &mut VersionPool,
) {
    let gc = inner.config.enable_gc;
    let m = inner.config.cc_threads;
    let part = inner.index.partition(me);
    for t in batch.txns.iter() {
        // Scans are annotated before the plan (i.e. before this
        // transaction's own placeholders install): for every key of the
        // range in this partition, the current latest version *is* the
        // version a reader at this timestamp must observe — CC threads
        // process transactions in timestamp order, so every insert ordered
        // before this transaction is already on its chain and every insert
        // ordered after is not yet. Concurrently batched inserts into the
        // range are thereby ordered, not phantoms. A key absent from the
        // index leaves its slot null: no transaction ordered before this
        // one ever created it, which the executor reads as absence (its
        // ts-filtered fallback re-probe gives the same answer).
        //
        // Like read annotation, this is an *optimization* subject to the
        // annotate_max_reads knob (an empty `scan_refs` slice marks an
        // un-annotated scan): correctness does not depend
        // on it, because the executor's fallback probe is ts-filtered and
        // all placeholders of earlier-timestamp transactions are installed
        // before this batch executes.
        for (si, s) in t.txn.scans.iter().enumerate() {
            if t.scan_refs[si].len() as u64 != s.len() {
                continue; // annotation disabled for this scan
            }
            for row in s.rows() {
                let rid = RecordId {
                    table: s.table,
                    row,
                };
                if inner.index.partition_of(rid) != me {
                    continue;
                }
                if let Some(chain) = part.get(rid) {
                    // The annotation hands an unexecuted transaction a raw
                    // version pointer; record its timestamp so the key
                    // sweep never retires this chain under it.
                    chain.note_annotation(t.ts);
                    if let Some(v) = chain.latest() {
                        t.scan_refs[si][(row - s.lo) as usize]
                            .store(v as *const Version as *mut Version, Ordering::Release);
                    }
                }
            }
        }
        // Plan order is reads-then-writes, so an RMW resolves its read to
        // the predecessor version before its own placeholder is installed.
        for e in t.plan.iter() {
            if e.partition(m) != me {
                continue;
            }
            if e.is_write() {
                let wi = e.idx();
                let rid = t.txn.writes[wi];
                debug_assert_eq!(inner.index.partition_of(rid), me);
                // SAFETY: `e.partition(m) == me`, the same partition
                // function: this thread is the partition's only writer.
                let chain = unsafe { part.get_or_insert(rid) };
                let size = inner.record_size(rid.table);
                let v = chain.install(pool.placeholder(t.ts, size));
                t.write_refs[wi].store(v as *const Version as *mut Version, Ordering::Release);
                // GC triggers on update (§3.3.2) but is attempted on a
                // 1-in-8 sample of installs: each truncate probe costs a
                // coherence miss on the old head's line, and Condition 3
                // only ever *delays* reclamation, never unsafely hastens
                // it. The sample counter is per-thread (not ts-derived) so
                // it cannot correlate with any record-to-timestamp pattern
                // and starve a chain of probes.
                *probe_tick += 1;
                if gc && *probe_tick & 0x7 == 0 {
                    // Acquire: orders every finished reader of the versions
                    // this truncation recycles before their reuse.
                    let bound = inner.gc_bound.load(Ordering::Acquire);
                    if bound > 0 {
                        // SAFETY: `e.partition(m) == me`, so this thread owns
                        // the chain, and `bound` is the Acquire load above.
                        let retired = unsafe { chain.truncate(bound, pool) };
                        if retired > 0 {
                            inner
                                .gc_retired
                                // RELAXED: monotonic statistics counter.
                                .fetch_add(retired as u64, Ordering::Relaxed);
                        }
                    }
                }
            } else {
                let ri = e.idx();
                // A key absent from the index at CC time (a record nobody
                // has inserted yet, in timestamp order up to this txn)
                // leaves the annotation slot null on purpose: the executor
                // falls back to a ts-filtered re-probe, which reports
                // "absent" even if a later transaction's placeholder has
                // appeared on the chain by then (see `BohmAccess`).
                if let Some(chain) = part.get(t.txn.reads[ri]) {
                    if let Some(v) = chain.latest() {
                        chain.note_annotation(t.ts);
                        t.read_refs[ri]
                            .store(v as *const Version as *mut Version, Ordering::Release);
                    }
                }
            }
        }
    }
}
