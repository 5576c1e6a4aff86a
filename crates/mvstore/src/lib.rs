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
//! * [`HashIndex`]: the "standard latch-free hash-table" the paper uses to
//!   index data (§3.3.1) — one inserter per key, lock-free readers — and
//!   [`DenseIndex`], the fixed-size array alternative (§4: the baselines'
//!   array index; used here for ablations).
//!
//! Reclamation follows paper Condition 3 (batch low watermark): once the
//! GC bound passes a version's `end`, no active or future transaction can
//! reach it, so [`Chain::truncate`] hands it straight to the owning CC
//! thread's [`VersionPool`] for reuse as a later placeholder (the
//! watermark rule in [`chain`]). `crossbeam-epoch` still guards what is
//! freed outside that rule: hash-index entries, together with the chains
//! inside them, retired by the CC threads' key sweep.

pub mod chain;
pub mod index;
pub mod pool;
pub mod version;

pub use chain::Chain;
pub use index::{DenseIndex, HashIndex, VersionIndex};
pub use pool::VersionPool;
pub use version::{Version, VersionState};
