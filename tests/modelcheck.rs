//! Workspace-level model-check harnesses (`--cfg bohm_modelcheck` only).
//!
//! Run with:
//!
//! ```sh
//! RUSTFLAGS="--cfg bohm_modelcheck" cargo test --test modelcheck
//! ```
//!
//! Three groups:
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
    use crossbeam_epoch as epoch;

    fn ready(ts: u64) -> epoch::Owned<Version> {
        epoch::Owned::new(Version::ready(ts, of_u64(ts, 8)))
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
        {
            let g = epoch::pin();
            chain.install(ready(1), &g);
            chain.install(ready(5), &g);
        }
        let finished = Arc::new(AtomicU64::new(0));
        let planned = Arc::new(AtomicU64::new(0));
        let writer = {
            let (chain, finished, planned) = (
                Arc::clone(&chain),
                Arc::clone(&finished),
                Arc::clone(&planned),
            );
            bohm_sync::thread::spawn(move || {
                let g = epoch::pin();
                let mut pool = VersionPool::new();
                chain.install(ready(9), &g);
                planned.store(9, Ordering::Release);
                let bound = finished.load(Ordering::Acquire);
                // SAFETY: the reader reads at or below 8 only before its
                // Release publish of 8, and above it after; `bound` is an
                // Acquire load of that publish (the watermark rule).
                unsafe { chain.truncate(bound, &g, &mut pool) };
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
                    let g = epoch::pin();
                    let v = chain.visible(ts, &g).expect("every ts > 1 sees a version");
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
        let g = epoch::pin();
        // SAFETY: both threads joined; no reader is left.
        unsafe { chain.truncate(8, &g, &mut VersionPool::new()) };
        assert_eq!(chain.depth(&g), 2);
        let latest = chain.visible(100, &g).expect("latest version survives");
        assert_eq!(latest.begin(), 9);
        assert!(chain.visible(2, &g).is_none(), "ts-1 version was truncated");
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
        {
            let g = epoch::pin();
            chain.install(ready(1), &g);
            chain.install(ready(5), &g);
        }
        let finished = Arc::new(AtomicU64::new(0));
        let exec = {
            let (chain, finished) = (Arc::clone(&chain), Arc::clone(&finished));
            bohm_sync::thread::spawn(move || {
                {
                    let g = epoch::pin();
                    let v = chain.visible(5, &g).expect("the RMW predecessor");
                    assert_eq!((v.begin(), v.end()), (1, 5));
                    assert_eq!(get_u64(v.data(), 0), 1);
                }
                finished.store(5, Ordering::Release);
            })
        };
        let cc = {
            let (chain, finished) = (Arc::clone(&chain), Arc::clone(&finished));
            bohm_sync::thread::spawn(move || {
                let g = epoch::pin();
                let mut pool = VersionPool::new();
                let bound = finished.load(Ordering::Acquire);
                // SAFETY: the reader's only read precedes its Release
                // publish of 5, and `bound` is an Acquire load of it.
                let recycled = unsafe { chain.truncate(bound, &g, &mut pool) };
                assert_eq!(recycled, usize::from(bound >= 5));
                let v = chain.install(pool.placeholder(9, 8), &g);
                // SAFETY: just installed by this (owning) thread.
                unsafe { v.as_ref() }.unwrap().fill(&of_u64(9, 8));
                assert!(pool.is_empty(), "a recycled version is reused first");
            })
        };
        exec.join().unwrap();
        cc.join().unwrap();
        let g = epoch::pin();
        let head = chain.visible(100, &g).expect("the ts-9 write");
        assert_eq!((head.begin(), get_u64(head.data(), 0)), (9, 9));
        assert_eq!(get_u64(chain.visible(9, &g).unwrap().data(), 0), 5);
    }

    #[test]
    fn truncate_recycle_vs_reader_explored() {
        model::explore(model::Options::default(), truncate_recycle_vs_reader);
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
