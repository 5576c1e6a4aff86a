//! Workspace-level model-check harnesses (`--cfg bohm_modelcheck` only).
//!
//! Run with:
//!
//! ```sh
//! RUSTFLAGS="--cfg bohm_modelcheck" cargo test --test modelcheck
//! ```
//!
//! Four groups:
//!
//! * **Detector self-tests** — the deliberately broken [`MiniRing`]
//!   variant (its consumer drops the Acquire load) must be reported as a
//!   data race with a stable, replayable seed; the correct variant must
//!   survive exploration; and identical seeds must replay identical
//!   schedules (the determinism contract the replay workflow rests on).
//! * **mvstore chain models** — single-writer install/truncate racing a
//!   reader's `visible` walks, with the truncation bound Acquire-loaded
//!   from the reader's Release-published finished timestamp (the GC
//!   watermark contract): the visibility predicate holds in every explored
//!   schedule, and `truncate_recycle_vs_reader` proves that recycling a
//!   truncated version into a new placeholder is ordered after the last
//!   reader of its previous life (the race detector watches the payload).
//! * **mvstore index model** — a partition's single writer unlinks a key
//!   while an execution-role thread probes the same bucket, and frees the
//!   entry (recycling its chain) only once the GC bound, Acquire-loaded
//!   from the prober's Release-published finished timestamp, passes the
//!   unlinking batch: `unlink_vs_probe` (PCT and random scheduling).
//! * **lock-manager model** — `RwSpin` guarding a facade
//!   [`UnsafeCell`](bohm_sync::cell::UnsafeCell) payload: the vector-clock
//!   detector proves the lock's Acquire/Release edges actually order the
//!   plain reads and writes.
//!
//! In-crate models live next to their structures:
//! `bohm::window::modelcheck` (push/retire vs. the vacancy condvar, and the
//! sequencer → CC → execution hand-off through the ring — a lost wakeup
//! surfaces as a model deadlock) and
//! `bohm_hekaton::store::modelcheck` (push vs. prune vs. scan).
#![cfg(bohm_modelcheck)]

use bohm_sync::model;
use bohm_sync::selftest::MiniRing;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn publish_consume(correct: bool) {
    let ring = Arc::new(MiniRing::new(correct));
    let w = {
        let ring = Arc::clone(&ring);
        bohm_sync::thread::spawn(move || ring.publish(7))
    };
    let r = {
        let ring = Arc::clone(&ring);
        bohm_sync::thread::spawn(move || {
            if let Some(v) = ring.try_consume() {
                assert_eq!(v, 7);
            }
        })
    };
    w.join().unwrap();
    r.join().unwrap();
}

/// The seeded-bug self-test: the detector must find the dropped-Acquire
/// race within a bounded seed scan, and the failing seed must fail again —
/// that is what makes `BOHM_MODEL_SEED=<n>` replay reports actionable.
#[test]
fn broken_ring_race_has_a_stable_replayable_seed() {
    let seed = (1..=256)
        .find(|&s| {
            catch_unwind(AssertUnwindSafe(|| {
                model::run(s, || publish_consume(false))
            }))
            .is_err()
        })
        .expect("no seed in 1..=256 exposed the dropped-Acquire race");
    for _ in 0..2 {
        let err = catch_unwind(AssertUnwindSafe(|| {
            model::run(seed, || publish_consume(false));
        }))
        .expect_err("the failing seed must fail deterministically");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("data race detected"), "got: {msg}");
        assert!(msg.contains(&format!("seed {seed}")), "got: {msg}");
    }
}

#[test]
fn correct_ring_survives_exploration() {
    model::explore(model::Options::default(), || publish_consume(true));
}

/// Same seed ⇒ same schedule fingerprint: every controlled execution is a
/// pure function of its seed, so a failure report is a reproduction recipe.
#[test]
fn identical_seeds_replay_identical_schedules() {
    for seed in [1u64, 7, 42, 1729] {
        let a = model::run(seed, || publish_consume(true));
        let b = model::run(seed, || publish_consume(true));
        assert_eq!(a, b, "seed {seed} replayed a different schedule");
    }
}

// ---------------------------------------------------------------------------
// mvstore: single-writer install/truncate vs. a racing reader
// ---------------------------------------------------------------------------

mod chain {
    use super::*;
    use bohm_common::value::{get_u64, of_u64};
    use bohm_mvstore::{Chain, Version, VersionPool};
    use bohm_sync::atomic::{AtomicU64, Ordering};

    pub(super) fn ready(ts: u64) -> Box<Version> {
        Box::new(Version::ready(ts, of_u64(ts, 8)))
    }

    /// BOHM's pipeline on one chain, under the GC watermark contract. The
    /// chain holds `[5, 1]` (batch 1's CC phase is done). The reader is an
    /// execution thread: it runs batch 1's reads at ts 2 and 6 while the
    /// owning CC thread installs batch 2's write at ts 9, then
    /// Release-publishes 8 (batch 1's last ts) as its finished timestamp.
    /// Once the CC thread has Release-published batch 2 as planned, the
    /// reader runs batch 2's reads at ts 9 (an RMW's predecessor, `end =
    /// ts`) and 100, racing the CC thread's truncation under the bound it
    /// Acquire-loads from the reader. In every schedule a hit must satisfy
    /// the visibility predicate `begin < ts ≤ end` and carry its own
    /// payload, and no walk may reach the truncated ts-1 version.
    fn install_truncate_scan() {
        let chain = Arc::new(Chain::new());
        chain.install(ready(1));
        chain.install(ready(5));
        let finished = Arc::new(AtomicU64::new(0));
        let planned = Arc::new(AtomicU64::new(0));
        let writer = {
            let (chain, finished, planned) = (
                Arc::clone(&chain),
                Arc::clone(&finished),
                Arc::clone(&planned),
            );
            bohm_sync::thread::spawn(move || {
                let mut pool = VersionPool::new();
                chain.install(ready(9));
                planned.store(9, Ordering::Release);
                let bound = finished.load(Ordering::Acquire);
                // SAFETY: the reader reads at or below 8 only before its
                // Release publish of 8, and above it after; `bound` is an
                // Acquire load of that publish (the watermark rule).
                unsafe { chain.truncate(bound, &mut pool) };
            })
        };
        let reader = {
            let (chain, finished, planned) = (
                Arc::clone(&chain),
                Arc::clone(&finished),
                Arc::clone(&planned),
            );
            bohm_sync::thread::spawn(move || {
                let read = |ts: u64| {
                    let v = chain.visible(ts).expect("every ts > 1 sees a version");
                    assert!(v.begin() < ts, "visible({ts}) returned begin {}", v.begin());
                    assert!(v.end() >= ts, "visible({ts}) returned end {}", v.end());
                    assert_eq!(get_u64(v.data(), 0), v.begin());
                };
                read(2);
                read(6);
                finished.store(8, Ordering::Release);
                if planned.load(Ordering::Acquire) == 9 {
                    read(9);
                    read(100);
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        // Quiescent state: [9, 5] once truncated at 8 (the writer may have
        // loaded the bound before it was published and truncated nothing).
        // SAFETY: both threads joined; no reader is left.
        unsafe { chain.truncate(8, &mut VersionPool::new()) };
        assert_eq!(chain.depth(), 2);
        let latest = chain.visible(100).expect("latest version survives");
        assert_eq!(latest.begin(), 9);
        assert!(chain.visible(2).is_none(), "ts-1 version was truncated");
    }

    #[test]
    fn install_truncate_vs_scan_explored() {
        model::explore(model::Options::default(), install_truncate_scan);
    }

    /// Watermark recycling, end to end. The chain holds `[5, 1]`. An
    /// execution-role thread runs the RMW read of a transaction at ts 5 —
    /// `visible(5)` is the ts-1 version, whose `end = 5` — reads its
    /// payload, then Release-publishes 5 as its finished timestamp. The
    /// CC-role thread Acquire-loads that as its GC bound, truncates into
    /// its pool (recycling the ts-1 version once the bound reaches 5) and
    /// re-installs the pooled version as the placeholder of a write at
    /// ts 9, which re-arming zeroes and filling overwrites. The payload is
    /// a race-detector-tracked cell, so if either edge of the watermark
    /// chain were weaker, the reuse would be reported as a data race
    /// against the reader's payload read.
    fn truncate_recycle_vs_reader() {
        let chain = Arc::new(Chain::new());
        chain.install(ready(1));
        chain.install(ready(5));
        let finished = Arc::new(AtomicU64::new(0));
        let exec = {
            let (chain, finished) = (Arc::clone(&chain), Arc::clone(&finished));
            bohm_sync::thread::spawn(move || {
                let v = chain.visible(5).expect("the RMW predecessor");
                assert_eq!((v.begin(), v.end()), (1, 5));
                assert_eq!(get_u64(v.data(), 0), 1);
                finished.store(5, Ordering::Release);
            })
        };
        let cc = {
            let (chain, finished) = (Arc::clone(&chain), Arc::clone(&finished));
            bohm_sync::thread::spawn(move || {
                let mut pool = VersionPool::new();
                let bound = finished.load(Ordering::Acquire);
                // SAFETY: the reader's only read precedes its Release
                // publish of 5, and `bound` is an Acquire load of it.
                let recycled = unsafe { chain.truncate(bound, &mut pool) };
                assert_eq!(recycled, usize::from(bound >= 5));
                let v = chain.install(pool.placeholder(9, 8));
                v.fill(&of_u64(9, 8));
                assert!(pool.is_empty(), "a recycled version is reused first");
            })
        };
        exec.join().unwrap();
        cc.join().unwrap();
        let head = chain.visible(100).expect("the ts-9 write");
        assert_eq!((head.begin(), get_u64(head.data(), 0)), (9, 9));
        assert_eq!(get_u64(chain.visible(9).unwrap().data(), 0), 5);
    }

    #[test]
    fn truncate_recycle_vs_reader_explored() {
        model::explore(model::Options::default(), truncate_recycle_vs_reader);
    }
}

// ---------------------------------------------------------------------------
// mvstore: a partition's writer retiring a key vs. an execution-role probe
// ---------------------------------------------------------------------------

mod index {
    use super::chain::ready;
    use super::*;
    use bohm_common::value::get_u64;
    use bohm_common::RecordId;
    use bohm_mvstore::{HashIndex, VersionPool};
    use bohm_sync::atomic::{AtomicU64, Ordering};

    /// Key retirement by the watermark rule for entries, on one bucket.
    /// The partition holds keys `a` and `b` in the same bucket, listed
    /// `[b, a]`, each with a ready version. The owning CC thread runs CC
    /// for batch 2 (timestamps 9..=16): it unlinks `a` with grace 16, then
    /// Release-publishes batch 2 as planned (the `finish_cc` edge). Running
    /// CC for later batches, it calls `free_unlinked` — which
    /// Acquire-loads the GC bound, here the execution thread's
    /// Release-published finished timestamp — until the bound has passed
    /// 16, which must free `a`, then
    /// takes a placeholder from its pool, re-arming `a`'s recycled
    /// version. The execution thread probes `a` (walking past `b`) for
    /// batch 1, which may or may not still find it, and publishes 8; once
    /// batch 2 is planned it probes the bucket again, which must not find
    /// `a`, and publishes 16. The free poisons the entry's key through a
    /// tracked cell and re-arming rewrites the payload, so a free not
    /// ordered after the batch-1 probe is reported as a data race.
    fn unlink_vs_probe() {
        let idx = Arc::new(HashIndex::with_capacity(16));
        let mask = idx.bucket_count() as u64 - 1;
        let a = RecordId::new(0, 1);
        let b = (2..)
            .map(|row| RecordId::new(0, row))
            .find(|r| (r.stable_hash() ^ a.stable_hash()) & mask == 0)
            .unwrap();
        for (k, ts) in [(a, 1), (b, 2)] {
            // SAFETY: no other thread exists yet.
            unsafe { idx.get_or_insert(k) }.install(ready(ts));
        }
        let finished = Arc::new(AtomicU64::new(0));
        let planned = Arc::new(AtomicU64::new(1));
        let exec = {
            let (idx, finished, planned) = (
                Arc::clone(&idx),
                Arc::clone(&finished),
                Arc::clone(&planned),
            );
            bohm_sync::thread::spawn(move || {
                let payload =
                    |k: RecordId| idx.get(k).map(|c| get_u64(c.visible(8).unwrap().data(), 0));
                assert!(
                    matches!(payload(a), None | Some(1)),
                    "batch 1 read a wrong `a`"
                );
                finished.store(8, Ordering::Release);
                while planned.load(Ordering::Acquire) != 2 {
                    bohm_sync::thread::yield_now();
                }
                assert_eq!(payload(a), None, "batch 2 found a key unlinked in its CC");
                assert_eq!(payload(b), Some(2), "the bucket lost `b`");
                finished.store(16, Ordering::Release);
            })
        };
        let cc = {
            let (idx, finished, planned) = (
                Arc::clone(&idx),
                Arc::clone(&finished),
                Arc::clone(&planned),
            );
            bohm_sync::thread::spawn(move || {
                let mut pool = VersionPool::new();
                // SAFETY: this thread is the only writer; grace 16 is the
                // last timestamp of batch 2, which the execution thread
                // publishes only after its last probe that could find `a`.
                let n = unsafe { idx.sweep_retire(0, usize::MAX, 16, &mut |r, _| r == a) };
                assert_eq!(n, 1);
                planned.store(2, Ordering::Release);
                let mut freed = 0;
                loop {
                    // RELAXED: loop exit only; the ordering under test is
                    // the Acquire load inside `free_unlinked`.
                    let last = finished.load(Ordering::Relaxed) == 16;
                    // SAFETY: only writer; `finished` is the execution
                    // thread's watermark, Release-stored after its probes.
                    freed += unsafe { idx.free_unlinked(&finished, &mut pool) };
                    if last {
                        break;
                    }
                    bohm_sync::thread::yield_now();
                }
                drop(pool.placeholder(17, 8));
                freed
            })
        };
        exec.join().unwrap();
        assert_eq!(
            cc.join().unwrap(),
            1,
            "`a` is freed once the bound passes 16"
        );
        assert_eq!(idx.len(), 1);
        assert!(idx.get(a).is_none() && idx.get(b).is_some());
    }

    #[test]
    fn unlink_vs_probe_explored() {
        for random in [false, true] {
            model::explore(
                model::Options {
                    random,
                    ..model::Options::default()
                },
                unlink_vs_probe,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// lockmgr: RwSpin ordering a plain payload
// ---------------------------------------------------------------------------

mod rwspin {
    use super::*;
    use bohm_lockmgr::RwSpin;
    use bohm_sync::cell::UnsafeCell;

    struct Guarded {
        lock: RwSpin,
        val: UnsafeCell<u64>,
    }

    // SAFETY: `val` is only accessed under `lock` (exclusive for writes,
    // shared for reads) — exactly the protocol the model run checks.
    unsafe impl Sync for Guarded {}

    /// Two incrementers under the exclusive lock, one reader under the
    /// shared lock. If `RwSpin`'s Acquire/Release edges were wrong the
    /// vector-clock detector would flag the plain `val` accesses as a
    /// race; if its mutual exclusion were wrong the final count would be 1.
    fn locked_increments() {
        let g = Arc::new(Guarded {
            lock: RwSpin::new(),
            val: UnsafeCell::new(0),
        });
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let g = Arc::clone(&g);
                bohm_sync::thread::spawn(move || {
                    g.lock.lock_exclusive();
                    // SAFETY: exclusive lock held.
                    unsafe { g.val.with_mut(|p| *p += 1) };
                    g.lock.unlock_exclusive();
                })
            })
            .collect();
        let reader = {
            let g = Arc::clone(&g);
            bohm_sync::thread::spawn(move || {
                g.lock.lock_shared();
                // SAFETY: shared lock held; writers are excluded.
                let v = unsafe { g.val.with(|p| *p) };
                assert!(v <= 2, "counter overshot: {v}");
                g.lock.unlock_shared();
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        g.lock.lock_shared();
        // SAFETY: shared lock held and all writers joined.
        let v = unsafe { g.val.with(|p| *p) };
        g.lock.unlock_shared();
        assert_eq!(v, 2, "an increment was lost");
    }

    #[test]
    fn rwspin_orders_payload_accesses() {
        model::explore(model::Options::default(), locked_increments);
    }
}
