//! # BOHM — serializable multi-version concurrency control
//!
//! Implementation of the protocol from *Faleiro & Abadi, "Rethinking
//! serializable multiversion concurrency control", VLDB 2015*.
//!
//! BOHM separates **concurrency control** from **transaction execution**
//! (paper §3). A transaction flows through the pipeline's roles:
//!
//! 1. **Sequencer** (a single uncontended appender, §3.2.1): a dedicated
//!    thread draining the bounded ingest queue in arrival order and
//!    assigning each transaction a timestamp equal to its position in the
//!    input log. This one timestamp plays the role of both `t_begin` and
//!    `t_end` of conventional MVCC — the transaction appears to execute
//!    atomically at `ts`. The sequencer packs transactions into batches by
//!    **size or time** trigger and registers each batch in the [`window`]
//!    ring — the only hand-off between stages: CC and execution threads
//!    each walk the ring in batch-id order. A full ring (the
//!    in-flight-batch budget) or a full ingest queue blocks upstream —
//!    backpressure, not unbounded queueing. See [`ingest`].
//! 2. **Concurrency-control threads** (§3.2.2-§3.2.4): each owns a static
//!    hash partition of the key space. For every transaction, in timestamp
//!    order, the owner of each written record installs an *uninitialized
//!    placeholder version* and the owner of each read record annotates the
//!    transaction with a direct pointer to the version it must read. No CC
//!    thread ever synchronizes with another except through one atomic
//!    countdown per **batch**.
//! 3. **Execution threads** (§3.3): claim transactions via an
//!    `Unprocessed → Executing` CAS, evaluate the stored procedure, and fill
//!    placeholders in. A read that lands on a still-pending placeholder
//!    recursively executes the producing transaction — resolved back to its
//!    batch in O(1) through the [`window`] ring — or parks the current
//!    transaction back to `Unprocessed` if the producer is already being
//!    executed elsewhere. Each finished transaction signals its submitter
//!    immediately (per-transaction completion).
//!
//! Reads never block writes; reads perform no shared-memory writes; there is
//! no global timestamp counter, no lock manager, and no validation — hence
//! no concurrency-control aborts (§3.3.3 sketches why the resulting
//! executions are serializable in timestamp order; the invariant is tested
//! end-to-end in this workspace's `tests/`).
//!
//! Old versions are reclaimed with the paper's **Condition 3** (§3.3.2):
//! once every execution thread has finished batch `b`, versions superseded
//! by transactions of batches `≤ b` are unreachable and are truncated by the
//! owning CC thread into its version pool, which re-arms them as the
//! placeholders of later writes — no grace period, no per-write allocation
//! (the watermark rule in `bohm_mvstore::chain`). Batch retirement releases
//! the window ring slot and advances that bound.
//!
//! See `DESIGN.md` at the repository root for the system map.
//!
//! ## Example
//!
//! ```
//! use bohm::{Bohm, BohmConfig, CatalogSpec};
//! use bohm_common::{Procedure, RecordId, Txn};
//!
//! // One table of 100 eight-byte records, preloaded with row id as value.
//! let catalog = CatalogSpec::new().table(100, 8, |row| row);
//! let engine = Bohm::start(BohmConfig::small(), catalog);
//!
//! // Clients submit single transactions through sessions; the sequencer
//! // forms batches behind the scenes. Increment record 7 a hundred times,
//! // pipelined, then reap each transaction's own completion.
//! let session = engine.session();
//! let handles: Vec<_> = (0..100)
//!     .map(|_| {
//!         let rid = RecordId::new(0, 7);
//!         session.submit(Txn::new(
//!             vec![rid],
//!             vec![rid],
//!             Procedure::ReadModifyWrite { delta: 1 },
//!         ))
//!     })
//!     .collect();
//! assert!(handles.iter().all(|h| h.wait().committed));
//!
//! // Group submission is still available and quiesces on wait.
//! let rid = RecordId::new(0, 7);
//! let outcomes = engine.execute_sync(vec![Txn::new(
//!     vec![rid],
//!     vec![rid],
//!     Procedure::ReadModifyWrite { delta: 0 },
//! )]);
//! assert!(outcomes[0].committed);
//! assert_eq!(engine.read_u64(rid), Some(107));
//! engine.shutdown();
//! ```

#![warn(missing_docs)]

pub mod access;
pub mod batch;
pub mod cc;
pub mod config;
pub mod engine;
pub mod exec;
pub mod ingest;
pub mod session;
pub mod window;

pub use batch::{BatchHandle, TxnHandle, TxnOutcome};
pub use config::{BohmConfig, CatalogSpec, MAX_INDEX_CAPACITY_HINT};
pub use engine::Bohm;
pub use session::BohmSession;
