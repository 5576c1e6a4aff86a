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
use bohm_common::RecordId;
use bohm_mvstore::{Version, VersionIndex};
use bohm_sync::atomic::Ordering;
use crossbeam_epoch::{self as epoch, Owned};
use std::sync::Arc;

/// Main loop of CC thread `me`: every batch in id order, until the
/// sequencer closes the window.
pub(crate) fn cc_loop(inner: Arc<Inner>, me: usize) {
    let mut probe_tick = me as u64; // desynchronize threads' probe phases
                                    // Round-robin cursor of this thread's key-reclamation sweep (each CC
                                    // thread eventually visits every bucket, reclaiming only its own keys).
    let mut sweep_cursor = 0usize;
    let mut next = 0u64;
    while let Some(batch) = inner.window.next_sealed(next) {
        next += 1;
        let t0 = std::time::Instant::now();
        process_batch(&inner, me, &batch, &mut probe_tick);
        sweep_keys(&inner, me, &mut sweep_cursor);
        inner
            .cc_busy_ns
            // RELAXED: monotonic statistics counter.
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        inner.window.finish_cc(&batch);
    }
}

/// Key reclamation: retire fully-deleted keys this thread owns.
///
/// A key is reclaimable once (a) its chain is exactly one *committed
/// tombstone* with `begin ≤ gc_bound` — every transaction that could still
/// need to observe the deletion (or anything under it) has executed — and
/// (b) `annotated_ts ≤ gc_bound` — every transaction this thread ever
/// handed a raw annotation pointer into the chain has executed too (the
/// annotation-safe lifetime rule; annotations are not epoch-protected).
/// Only the key's partition owner may judge this, because only it installs
/// into the chain: owner-run reclamation cannot race an install. Dead
/// suffixes are truncated first so a deleted-then-idle key can reach its
/// sole-tombstone shape without waiting for a write probe that will never
/// come.
pub(crate) fn sweep_keys(inner: &Inner, me: usize, cursor: &mut usize) {
    let budget = inner.config.key_gc_buckets;
    if budget == 0 || !inner.config.enable_gc {
        return;
    }
    // No tombstone has ever been produced ⇒ no key can be in the
    // reclaimable shape: delete-free workloads skip the sweep outright.
    // RELAXED: monotone flag-counter; a stale zero only postpones the
    // sweep until the writer's next batch is visible.
    if inner.deletes_seen.load(Ordering::Relaxed) == 0 {
        return;
    }
    let bound = inner.gc_bound.load(Ordering::Acquire);
    if bound == 0 {
        return;
    }
    let m = inner.config.cc_threads;
    let guard = epoch::pin();
    let mut versions = 0usize;
    let retired = inner
        .index
        .sweep_retire(*cursor, budget, &guard, &mut |rid, chain| {
            if (rid.stable_hash() >> 32) % m as u64 != me as u64 {
                return false;
            }
            versions += chain.truncate(bound, &guard);
            chain.annotated_ts() <= bound
                && chain.sole_tombstone(&guard).is_some_and(|b| b <= bound)
        });
    *cursor = (*cursor + budget.min(inner.index.bucket_count())) % inner.index.bucket_count();
    if versions > 0 {
        inner
            .gc_retired
            // RELAXED: monotonic statistics counter.
            .fetch_add(versions as u64, Ordering::Relaxed);
    }
    if retired > 0 {
        // Each retired key frees its sole tombstone with the entry.
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

/// Process every transaction of `batch` for partition `me`.
pub(crate) fn process_batch(inner: &Inner, me: usize, batch: &Batch, probe_tick: &mut u64) {
    let mut guard = epoch::pin();
    let annotate = inner.config.annotate_reads;
    let gc = inner.config.enable_gc;
    let m = inner.config.cc_threads;
    for (i, t) in batch.txns.iter().enumerate() {
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
        // annotate_reads / annotate_max_reads knobs (an empty `scan_refs`
        // slice marks an un-annotated scan): correctness does not depend
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
                if (rid.stable_hash() >> 32) % m as u64 != me as u64 {
                    continue;
                }
                if let Some(chain) = inner.index.get(rid, &guard) {
                    // The annotation hands an unexecuted transaction a raw
                    // version pointer; record its timestamp so the key
                    // sweep never retires this chain under it.
                    chain.note_annotation(t.ts);
                    if let Some(v) = chain.latest(&guard) {
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
                let chain = inner.index.get_or_insert(rid, &guard);
                let size = inner.record_size(rid.table);
                let v = chain.install(Owned::new(Version::placeholder(t.ts, size)), &guard);
                t.write_refs[wi].store(v.as_raw() as *mut Version, Ordering::Release);
                // GC triggers on update (§3.3.2) but is attempted on a
                // 1-in-8 sample of installs: each truncate probe costs a
                // coherence miss on the old head's line, and Condition 3
                // only ever *delays* reclamation, never unsafely hastens
                // it. The sample counter is per-thread (not ts-derived) so
                // it cannot correlate with any record-to-timestamp pattern
                // and starve a chain of probes.
                *probe_tick += 1;
                if gc && *probe_tick & 0x7 == 0 {
                    // RELAXED: a stale (smaller) bound only truncates less
                    // this probe; the Acquire load in `sweep_keys` is the
                    // edge that guards key retirement.
                    let bound = inner.gc_bound.load(Ordering::Relaxed);
                    if bound > 0 {
                        let retired = chain.truncate(bound, &guard);
                        if retired > 0 {
                            inner
                                .gc_retired
                                // RELAXED: monotonic statistics counter.
                                .fetch_add(retired as u64, Ordering::Relaxed);
                        }
                    }
                }
            } else if annotate {
                let ri = e.idx();
                // A key absent from the index at CC time (a record nobody
                // has inserted yet, in timestamp order up to this txn)
                // leaves the annotation slot null on purpose: the executor
                // falls back to a ts-filtered re-probe, which reports
                // "absent" even if a later transaction's placeholder has
                // appeared on the chain by then (see `BohmAccess`).
                if let Some(chain) = inner.index.get(t.txn.reads[ri], &guard) {
                    if let Some(v) = chain.latest(&guard) {
                        chain.note_annotation(t.ts);
                        t.read_refs[ri]
                            .store(v as *const Version as *mut Version, Ordering::Release);
                    }
                }
            }
        }
        // Bound how long one epoch pin lives on big batches.
        if i % 512 == 511 {
            guard.repin();
        }
    }
}
