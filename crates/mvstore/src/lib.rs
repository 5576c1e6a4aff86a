//! Multi-version storage substrate for the BOHM engine.
//!
//! Implements the version layout of paper Fig. 3 — `{begin ts, end ts,
//! txn pointer, data, prev pointer}` — plus the two structures BOHM builds
//! on top of it:
//!
//! * [`Chain`]: the per-record linked list of versions, maintained by a
//!   **single writer** (the concurrency-control thread that owns the
//!   record's partition, paper §3.2.2) and traversed by many readers with
//!   no shared-memory writes (paper §2.2 goal 2),
//! * [`PartitionedIndex`]: the "standard latch-free hash-table" the paper
//!   uses to index data (§3.3.1), split into one single-writer
//!   [`HashIndex`] per CC thread — each key is inserted and removed only
//!   by its partition's owner, and readers are lock-free.
//!
//! Reclamation follows paper Condition 3 (batch low watermark) throughout,
//! with no epoch collector: once the GC bound passes a version's `end`, no
//! active or future transaction can reach it, so [`Chain::truncate`] hands
//! it straight to the owning CC thread's [`VersionPool`] for reuse as a
//! later placeholder (the watermark rule in [`chain`]). Index entries of
//! fully-deleted keys follow the same rule: an unlinked entry waits until
//! the GC bound passes the batch that unlinked it, then its chain goes to
//! the pool and the entry is freed (the module docs of [`index`]).

pub mod chain;
pub mod index;
pub mod pool;
pub mod version;

pub use chain::Chain;
pub use index::{HashIndex, PartitionedIndex};
pub use pool::VersionPool;
pub use version::{Version, VersionState};
