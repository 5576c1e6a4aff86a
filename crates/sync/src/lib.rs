//! The workspace's synchronization facade, and its only sync crate.
//!
//! Every sync-critical crate in this workspace imports its atomics,
//! mutexes, condvars, cache-line padding ([`CachePadded`]), spin backoff
//! ([`Backoff`]) and spin/yield hints from here instead of `std::sync` (an
//! invariant enforced by `cargo run -p analysis -- --check`). The facade
//! has two personalities:
//!
//! * **Normal builds** — [`atomic`] is `std::sync::atomic`,
//!   [`hint::spin_loop`] is `std::hint::spin_loop`, and
//!   [`Mutex`]/[`Condvar`]/[`RwLock`] are thin poison-transparent wrappers
//!   over their `std::sync` namesakes (a panicking holder does not poison
//!   the lock for everyone else). No instrumentation, so no cost.
//!
//! * **`--cfg bohm_modelcheck` builds** (`RUSTFLAGS="--cfg bohm_modelcheck"`)
//!   — every load, store, RMW, lock, unlock, wait and notify becomes a
//!   *scheduling point* of a deterministic controlled scheduler, and the
//!   runtime carries a vector-clock happens-before tracker that flags data
//!   races on [`cell::UnsafeCell`] payloads whose accesses are not ordered
//!   by the synchronization actually present in the execution. See
//!   [`model`] for the harness API (seeded PCT-style and random scheduling,
//!   exhaustive small-bound DFS, replayable seeds). Each
//!   [`Backoff::snooze`] is one scheduling point rather than a pause burst.
//!
//! Outside an active [`model::run`] execution the instrumented types fall
//! back to the real primitives, so a `--cfg bohm_modelcheck` build still
//! runs the ordinary test suites correctly (just slower).
//!
//! Because the locks and condvars come from here, the model checker sees
//! every blocking hand-off in the BOHM pipeline: the batch window parks
//! all three roles on one facade mutex, each on its own condvar — the
//! sequencer on a full ring, CC threads in `next_sealed` until a batch is
//! registered, execution threads in `next_planned` until a batch's CC
//! phase is done — and the sequencer's `close` on exit wakes the workers
//! to drain and stop. A lost wakeup there is a model deadlock with a
//! replay seed, not a hang.
//!
//! # Facade rules (the short version)
//!
//! * Import `bohm_sync::atomic::*`, never `std::sync::atomic` — the lint
//!   gate fails the tree otherwise (only this crate is exempt).
//! * `Ordering::Relaxed` on a sync-critical atomic needs a `// RELAXED:`
//!   justification comment; stronger orderings don't.
//! * Structures that want model-checkable payload-race detection store
//!   shared plain data in [`cell::UnsafeCell`] and access it through
//!   [`cell::UnsafeCell::with`] / [`cell::UnsafeCell::with_mut`].

mod utils;
pub use utils::{Backoff, CachePadded};

#[cfg(not(bohm_modelcheck))]
mod real;
#[cfg(not(bohm_modelcheck))]
pub use real::*;

#[cfg(bohm_modelcheck)]
mod model_impl;
#[cfg(bohm_modelcheck)]
pub use model_impl::*;

#[cfg(bohm_modelcheck)]
pub mod selftest;
