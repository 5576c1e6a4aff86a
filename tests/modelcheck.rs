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
//! * **mvstore chain model** — single-writer install/truncate racing a
//!   reader's `visible` walks: the visibility predicate and the
//!   unlink-before-defer reclamation protocol hold in every explored
//!   schedule.
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
    use bohm_mvstore::{Chain, Version};
    use crossbeam_epoch as epoch;

    fn payload(x: u64) -> Box<[u8]> {
        bohm_common::value::of_u64(x, 8)
    }

    /// The owning CC thread installs versions at ts 5 and 9 over a seeded
    /// ts-1 version, then truncates at bound 8 (unlinking the superseded
    /// ts-1 version). A reader walks `visible` at timestamps spanning the
    /// whole history. In every schedule a hit must satisfy the visibility
    /// predicate `begin < ts ≤ end`, and the walk must never touch freed
    /// memory (truncation unlinks before deferring destruction).
    fn install_truncate_scan() {
        let chain = Arc::new(Chain::new());
        {
            let g = epoch::pin();
            chain.install(epoch::Owned::new(Version::ready(1, payload(1))), &g);
        }
        let writer = {
            let chain = Arc::clone(&chain);
            bohm_sync::thread::spawn(move || {
                let g = epoch::pin();
                chain.install(epoch::Owned::new(Version::ready(5, payload(5))), &g);
                chain.install(epoch::Owned::new(Version::ready(9, payload(9))), &g);
                chain.truncate(8, &g);
            })
        };
        let reader = {
            let chain = Arc::clone(&chain);
            bohm_sync::thread::spawn(move || {
                for ts in [2u64, 6, 10, 100] {
                    let g = epoch::pin();
                    if let Some(v) = chain.visible(ts, &g) {
                        assert!(v.begin() < ts, "visible({ts}) returned begin {}", v.begin());
                        assert!(v.end() >= ts, "visible({ts}) returned end {}", v.end());
                    }
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        // Quiescent state: [9, 5] — ts 1 truncated, the rest intact.
        let g = epoch::pin();
        assert_eq!(chain.depth(&g), 2);
        let latest = chain.visible(100, &g).expect("latest version survives");
        assert_eq!(latest.begin(), 9);
        assert!(chain.visible(2, &g).is_none(), "ts-1 version was truncated");
    }

    #[test]
    fn install_truncate_vs_scan_explored() {
        model::explore(model::Options::default(), install_truncate_scan);
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
