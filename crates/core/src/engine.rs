//! Engine assembly: threads, window, ingest queue, public API.

use crate::batch::{BatchHandle, Completion, TxnOutcome};
use crate::config::{BohmConfig, CatalogSpec};
use crate::ingest::{self, IngestTx, SubmitReq};
use crate::session::BohmSession;
use crate::window::Window;
use crate::{cc, exec};
use bohm_common::{RecordId, TableId, Txn};
use bohm_mvstore::{HashIndex, Version, VersionIndex, VersionState};
use bohm_sync::atomic::{AtomicU64, Ordering};
use bohm_sync::CachePadded;
use crossbeam_epoch::{self as epoch, Owned};
use std::sync::Arc;
use std::thread::JoinHandle;

/// State shared by all engine threads.
pub(crate) struct Inner {
    pub config: BohmConfig,
    record_sizes: Vec<usize>,
    pub index: HashIndex,
    pub window: Window,
    /// Per execution thread: last timestamp of the most recent batch it has
    /// fully finished (paper §3.3.2's `batch_i`, only written by thread i).
    pub finished_ts: Vec<CachePadded<AtomicU64>>,
    /// Global Condition-3 low watermark, expressed as a timestamp bound:
    /// every transaction with `ts ≤ gc_bound` has finished executing.
    /// Release-stored by `exec::refresh_gc_bound`; every load that feeds a
    /// truncation is an Acquire, because truncated versions are reused at
    /// once (the watermark rule in `bohm_mvstore::chain`).
    pub gc_bound: AtomicU64,
    /// Highest `Batch::epoch` among retired batches. Batches retire in id
    /// order, so once this reaches epoch `e` every transaction this shard
    /// sequenced before the bump to `e` is complete — the per-shard half of
    /// the sharded facade's epoch-alignment rule.
    pub retired_epoch: AtomicU64,
    /// Total versions retired by GC (diagnostics / ablation benches).
    pub gc_retired: AtomicU64,
    /// Fully-deleted keys whose index entries were reclaimed by the CC
    /// threads' key sweep (diagnostics; see `cc::sweep_keys`).
    pub keys_retired: AtomicU64,
    /// Tombstones ever produced (committed deletes + aborted-insert
    /// copy-throughs). Purely a gate: while zero, the key sweep has
    /// nothing it could ever reclaim and skips entirely, so delete-free
    /// workloads (the paper figures) pay no bucket walks on the CC path.
    pub deletes_seen: AtomicU64,
    /// Diagnostics: nanoseconds each layer spent busy (indexing by role).
    pub cc_busy_ns: AtomicU64,
    pub exec_busy_ns: AtomicU64,
    /// Chunk pool backing the sequencer's batch arena. Lives on `Inner` so
    /// chunks released by retiring batches (on exec threads) recycle to the
    /// sequencer instead of freeing.
    pub arena_pool: bohm_common::ArenaPool,
    /// The write-ahead log, when durability is configured: the sequencer
    /// appends every formed batch here *before* releasing it to CC.
    pub wal: Option<bohm_common::wal::Wal>,
}

impl Inner {
    // CC ownership of a record is static hash partitioning (§3.2.2): CC
    // thread `(rid.stable_hash() >> 32) % cc_threads` — encoded in
    // [`PlanEntry::partition`](crate::batch::PlanEntry), which pre-hashes
    // accesses so the per-batch scan never re-hashes a `RecordId`.

    #[inline]
    pub fn record_size(&self, table: TableId) -> usize {
        self.record_sizes[table.index()]
    }
}

/// A running BOHM engine. See the [crate docs](crate) for the protocol.
pub struct Bohm {
    inner: Arc<Inner>,
    ingest: IngestTx,
    threads: Vec<JoinHandle<()>>,
}

impl Bohm {
    /// Build the store from `catalog`, preload it (every seeded version has
    /// timestamp 0), and spawn the sequencer plus
    /// `cc_threads + exec_threads` worker threads.
    pub fn start(mut config: BohmConfig, catalog: CatalogSpec) -> Self {
        config.validate();
        // A durable engine needs an epoch authority even standalone:
        // checkpoints bump it to cut the log into a covered prefix and a
        // replay suffix. Sharded deployments pass their shared counter in
        // explicitly; everyone else gets a private one here.
        if config.durability.is_some() && config.epoch_source.is_none() {
            config.epoch_source = Some(Arc::new(AtomicU64::new(0)));
        }
        let index = HashIndex::with_capacity(config.effective_index_capacity(catalog.total_rows()));
        {
            // Preloading happens before any worker exists, so the
            // single-writer-per-chain invariant holds trivially.
            let guard = epoch::pin();
            for (tid, spec) in catalog.tables.iter().enumerate() {
                for row in 0..spec.rows {
                    let rid = RecordId::new(tid as u32, row);
                    let data = bohm_common::value::of_u64((spec.seed)(row), spec.record_size);
                    index
                        .get_or_insert(rid, &guard)
                        .install(Owned::new(Version::ready(0, data)), &guard);
                }
            }
        }
        let record_sizes = catalog.tables.iter().map(|t| t.record_size).collect();
        // Open the log before any thread starts: failing to open durable
        // storage must fail engine startup, not a later batch seal.
        let wal = config.durability.as_ref().map(|d| {
            bohm_common::wal::Wal::open(d)
                .unwrap_or_else(|e| panic!("failed to open WAL at {}: {e}", d.dir.display()))
        });
        let inner = Arc::new(Inner {
            finished_ts: (0..config.exec_threads)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            gc_bound: AtomicU64::new(0),
            retired_epoch: AtomicU64::new(0),
            gc_retired: AtomicU64::new(0),
            keys_retired: AtomicU64::new(0),
            deletes_seen: AtomicU64::new(0),
            cc_busy_ns: AtomicU64::new(0),
            exec_busy_ns: AtomicU64::new(0),
            window: Window::new(config.max_inflight_batches, config.batch_size as u64),
            record_sizes,
            index,
            arena_pool: bohm_common::ArenaPool::default(),
            wal,
            config,
        });

        // Every stage takes its batches from the window; when the ingest
        // queue closes, the sequencer closes the window and the whole
        // pipeline drains and unwinds.
        let mut threads = Vec::new();
        for i in 0..inner.config.exec_threads {
            let inner2 = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("bohm-exec-{i}"))
                    .spawn(move || exec::exec_loop(inner2, i))
                    .expect("spawn execution thread"),
            );
        }
        for i in 0..inner.config.cc_threads {
            let inner2 = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("bohm-cc-{i}"))
                    .spawn(move || cc::cc_loop(inner2, i))
                    .expect("spawn CC thread"),
            );
        }
        let (ingest, rx) = ingest::ingest_queue(inner.config.ingest_capacity);
        {
            let inner2 = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("bohm-seq".into())
                    .spawn(move || ingest::seq_loop(inner2, rx))
                    .expect("spawn sequencer thread"),
            );
        }

        Self {
            inner,
            ingest,
            threads,
        }
    }

    /// Recover a durable engine from its own log directory, then keep
    /// running against the same log — the crash → recover → continue
    /// path.
    ///
    /// Checkpoint-aware: if the directory holds a valid
    /// [`Checkpoint`](bohm_common::wal::Checkpoint) (see
    /// [`checkpoint`](Self::checkpoint)), its snapshot is restored first
    /// and only the log suffix stamped at or after the checkpoint epoch
    /// is replayed — recovery time is bounded by the work since the last
    /// checkpoint, not the log's lifetime. Without a checkpoint the whole
    /// log replays, as before.
    ///
    /// Reads the log back ([`Wal::read_log`](bohm_common::wal::Wal::read_log),
    /// torn-tail rule applied), starts the engine — whose
    /// [`Wal::open`](bohm_common::wal::Wal::open) repairs any torn tail
    /// before appending a fresh segment — and restores/replays through
    /// the normal pipeline with WAL appends **suspended**: the inherited
    /// segments already hold the replayed suffix, and logging it a second
    /// time would double-apply it on the next recovery. Appends resume
    /// once every replayed batch has retired, so work submitted
    /// afterwards is logged exactly once after the inherited prefix.
    ///
    /// Returns the running engine plus the *replayed* transactions'
    /// outcomes in log order — determinism makes them (and the rebuilt
    /// state) identical to the pre-crash execution of the same suffix.
    /// Checkpoint-restored transactions are not re-executed and
    /// contribute no outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `config.durability` is `None`: recovery without a log
    /// directory is meaningless. (Replay into a memory-only engine is
    /// [`wal::replay_into`](bohm_common::wal::replay_into).)
    pub fn recover(
        config: BohmConfig,
        catalog: CatalogSpec,
    ) -> std::io::Result<(Self, Vec<TxnOutcome>)> {
        let dir = config
            .durability
            .as_ref()
            .expect("Bohm::recover requires BohmConfig::durability")
            .dir
            .clone();
        let log = bohm_common::wal::Wal::read_log(&dir)?;
        let ckp = bohm_common::checkpoint::load_latest(&dir)?;
        Self::recover_with(config, catalog, ckp, &log)
    }

    /// Recover from an explicit batch list instead of the config's own
    /// directory — the sharded-recovery entry point: the facade reads
    /// each shard's `wal-shard-K/` log, trims the set to a consistent cut
    /// ([`consistent_cut`](bohm_common::shard::consistent_cut)), and
    /// hands every shard its surviving batches here. The engine still
    /// opens (and appends to) `config.durability`'s directory; appends
    /// stay suspended during the replay exactly as in
    /// [`recover`](Self::recover), so the cut batches — which the
    /// inherited segments already hold — are not re-logged.
    ///
    /// No checkpoint is consulted: the caller owns the decision of what
    /// to replay. (Sharded checkpointing would need a cross-shard
    /// snapshot cut; single-engine checkpoints via
    /// [`recover`](Self::recover) cover the standalone case.)
    pub fn recover_replay(
        config: BohmConfig,
        catalog: CatalogSpec,
        batches: &[bohm_common::wal::LoggedBatch],
    ) -> std::io::Result<(Self, Vec<TxnOutcome>)> {
        assert!(
            config.durability.is_some(),
            "Bohm::recover_replay requires BohmConfig::durability"
        );
        Self::recover_with(config, catalog, None, batches)
    }

    /// Shared recovery body: start, suspend appends, restore the
    /// checkpoint (if any) through the normal submission path, replay the
    /// post-checkpoint suffix, advance the epoch source past everything
    /// recovered, resume appends.
    fn recover_with(
        config: BohmConfig,
        catalog: CatalogSpec,
        ckp: Option<bohm_common::wal::Checkpoint>,
        log: &[bohm_common::wal::LoggedBatch],
    ) -> std::io::Result<(Self, Vec<TxnOutcome>)> {
        // The catalog's seeded row counts, captured before `start`
        // consumes it: checkpoint restore must delete rows that were
        // seeded at engine start but deleted by snapshot time.
        let seeded: Vec<u64> = catalog.tables.iter().map(|t| t.rows).collect();
        let engine = Bohm::start(config, catalog);
        let wal = engine.inner.wal.as_ref().expect("durability configured");
        wal.pause_appends();
        let base = match &ckp {
            Some(c) => {
                bohm_common::checkpoint::restore_into(c, &seeded, &engine);
                c.epoch
            }
            None => 0,
        };
        // Pipeline the whole suffix, then wait in order. Waiting on a
        // group handle synchronizes with its batches' retirement, so by
        // the last wait every replayed batch is sealed (the log decision
        // point) and appends can safely resume.
        let handles: Vec<BatchHandle> = log
            .iter()
            .filter(|b| b.epoch >= base)
            .map(|b| engine.submit(b.txns.clone()))
            .collect();
        let mut outcomes = Vec::new();
        for h in &handles {
            outcomes.extend(h.outcomes());
        }
        // The epoch authority must resume past everything recovered, or
        // the next checkpoint's cut could collide with replayed stamps.
        let max_epoch = log.iter().map(|b| b.epoch).max().unwrap_or(0).max(base);
        if let Some(src) = &engine.inner.config.epoch_source {
            src.fetch_max(max_epoch, Ordering::AcqRel);
        }
        wal.resume_appends();
        Ok((engine, outcomes))
    }

    /// Snapshot the current committed state to a durable
    /// [`Checkpoint`](bohm_common::wal::Checkpoint) in the log directory
    /// and reclaim the log prefix it covers.
    ///
    /// The caller must be **submission-quiescent**: no session may be
    /// submitting concurrently (the paper's epoch/GC machinery has no
    /// fuzzy-checkpoint path, and the demo/test harnesses naturally
    /// checkpoint between submission waves). The method quiesces the
    /// pipeline with a barrier submission, bumps the epoch source so
    /// every later batch is stamped past the cut, snapshots through
    /// [`snapshot_records`](Self::snapshot_records), writes the
    /// checkpoint atomically, rotates the log, and truncates the sealed
    /// pre-cut segments.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::Unsupported`](std::io::ErrorKind::Unsupported)
    /// on a memory-only engine (no `durability` configured); otherwise
    /// any I/O error from the checkpoint write or log maintenance.
    pub fn checkpoint(&self) -> std::io::Result<bohm_common::durable::CheckpointStats> {
        let wal = self.inner.wal.as_ref().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "checkpoint requires BohmConfig::durability",
            )
        })?;
        // Epoch retirement barrier: every batch submitted before this is
        // executed and logged once this no-op completes.
        self.execute_sync(vec![Txn::new(
            vec![],
            vec![],
            bohm_common::Procedure::ReadOnly,
        )]);
        let src = self
            .inner
            .config
            .epoch_source
            .as_ref()
            .expect("durable engines always have an epoch source");
        // Everything sealed so far is stamped <= the pre-bump value, i.e.
        // strictly below the cut; everything sealed after carries >= cut.
        let cut = src.fetch_add(1, Ordering::AcqRel) + 1;
        let mut records: Vec<(RecordId, Box<[u8]>)> = Vec::new();
        self.snapshot_records(&mut |rid, data| records.push((rid, data.into())));
        let count = records.len();
        let ckp = bohm_common::wal::Checkpoint {
            epoch: cut,
            records,
        };
        // Order matters: the snapshot must be durable (atomic write, dir
        // fsync) before any log bytes it supersedes are reclaimed.
        ckp.write(wal.dir())?;
        wal.rotate()?;
        let freed = wal.truncate_before(cut)?;
        Ok(bohm_common::durable::CheckpointStats {
            epoch: cut,
            records: count,
            freed_bytes: freed,
        })
    }

    /// Visit every currently present record — `(id, latest committed
    /// payload)` — while the engine is quiescent: the checkpoint surface
    /// (secondary-index posting lists are ordinary records and ride
    /// along).
    ///
    /// # Panics
    ///
    /// Panics on a pending (unexecuted) chain head, like
    /// [`read_record`](Self::read_record): snapshotting a non-quiescent
    /// engine is a harness bug. The panic is not guaranteed: on a running
    /// engine a head read here can be superseded, truncated and re-armed
    /// as another write's placeholder while it is being copied, so a
    /// non-quiescent snapshot may also return wrong bytes.
    pub fn snapshot_records(&self, f: &mut dyn FnMut(RecordId, &[u8])) {
        let guard = epoch::pin();
        self.inner.index.for_each(&guard, &mut |rid, chain| {
            if let Some(v) = chain.latest(&guard) {
                match v.state() {
                    VersionState::Ready => f(rid, v.data()),
                    VersionState::Tombstone => {}
                    VersionState::Pending => panic!("snapshot_records on a non-quiescent engine"),
                }
            }
        });
    }

    /// Open a submission session: the per-client handle for enqueueing
    /// single transactions with per-transaction completion.
    ///
    /// Sessions are independent of the engine's lifetime (they hold only a
    /// queue reference); submitting through one after
    /// [`shutdown`](Self::shutdown) panics, like `submit`.
    pub fn session(&self) -> BohmSession {
        BohmSession::new(self.ingest.clone())
    }

    /// Append a group of whole transactions to the input log as one
    /// submission.
    ///
    /// The group reaches the dedicated sequencer through the bounded ingest
    /// queue (this call blocks when the queue is saturated — backpressure)
    /// and is packed into one or more batches in arrival order; arrival
    /// order *is* the serialization order (§3.2.1). Returns immediately
    /// once enqueued; use the handle to wait.
    pub fn submit(&self, txns: Vec<Txn>) -> BatchHandle {
        let completion = Completion::new(txns.len(), true);
        let handle = BatchHandle {
            completion: Arc::clone(&completion),
        };
        if !txns.is_empty() {
            self.ingest
                .send(SubmitReq {
                    txns: ingest::SubmitTxns::Many(txns),
                    completion,
                })
                .unwrap_or_else(|_| panic!("engine is shut down"));
        }
        handle
    }

    /// Submit and wait; returns per-transaction outcomes in order.
    pub fn execute_sync(&self, txns: Vec<Txn>) -> Vec<TxnOutcome> {
        self.submit(txns).outcomes()
    }

    /// Read the latest committed value of `rid` (diagnostics / verification;
    /// intended for quiescent moments, e.g. after draining all batches).
    ///
    /// On a running engine this may panic on a pending head, or — because
    /// CC threads recycle truncated versions without a grace period — read
    /// a version that was superseded and re-armed for an unrelated write.
    /// Only a quiescent read is defined.
    pub fn read_record(&self, rid: RecordId) -> Option<Box<[u8]>> {
        let guard = epoch::pin();
        let chain = self.inner.index.get(rid, &guard)?;
        let v = chain.latest(&guard)?;
        match v.state() {
            VersionState::Ready => Some(v.data().into()),
            VersionState::Tombstone => None,
            VersionState::Pending => panic!("read_record on a non-quiescent engine"),
        }
    }

    /// `u64` prefix of the latest committed value of `rid`.
    pub fn read_u64(&self, rid: RecordId) -> Option<u64> {
        self.read_record(rid)
            .map(|d| bohm_common::value::get_u64(&d, 0))
    }

    /// Versions retired by Condition-3 GC so far.
    pub fn gc_retired(&self) -> u64 {
        // RELAXED: statistics read; approximate under concurrency.
        self.inner.gc_retired.load(Ordering::Relaxed)
    }

    /// Fully-deleted keys whose index entries (tombstone, chain and all)
    /// were reclaimed by the key sweep so far.
    pub fn keys_retired(&self) -> u64 {
        // RELAXED: statistics read; approximate under concurrency.
        self.inner.keys_retired.load(Ordering::Relaxed)
    }

    /// Number of keys currently present in the hash index (preloaded +
    /// inserted − reclaimed); the live-memory audit hook of the key sweep.
    pub fn index_keys(&self) -> usize {
        self.inner.index.len()
    }

    /// Diagnostics: total busy time of (CC, execution) layers so far.
    pub fn busy_times(&self) -> (std::time::Duration, std::time::Duration) {
        (
            // RELAXED: diagnostic counters; tearing between the two reads
            // is acceptable.
            std::time::Duration::from_nanos(self.inner.cc_busy_ns.load(Ordering::Relaxed)),
            // RELAXED: as above.
            std::time::Duration::from_nanos(self.inner.exec_busy_ns.load(Ordering::Relaxed)),
        )
    }

    /// Current GC low watermark (largest timestamp known fully executed).
    pub fn gc_bound(&self) -> u64 {
        // RELAXED: watermark snapshot for diagnostics only; every internal
        // load that feeds truncation or key retirement is an Acquire (see
        // `cc::process_batch` and `cc::sweep_keys`).
        self.inner.gc_bound.load(Ordering::Relaxed)
    }

    /// Highest global epoch this engine has fully retired (0 until a batch
    /// stamped from [`BohmConfig::epoch_source`] retires). Because batches
    /// retire in id order, `retired_epoch() >= e` means every transaction
    /// sequenced here before the bump to `e` has executed and its batch
    /// drained — the invariant the sharded cross-shard commit aligns on.
    pub fn retired_epoch(&self) -> u64 {
        self.inner.retired_epoch.load(Ordering::Acquire)
    }

    /// Number of CC / execution threads (for harness reporting).
    pub fn thread_counts(&self) -> (usize, usize) {
        (self.inner.config.cc_threads, self.inner.config.exec_threads)
    }

    /// The write-ahead log, when [`BohmConfig::durability`] was set.
    pub fn wal(&self) -> Option<&bohm_common::wal::Wal> {
        self.inner.wal.as_ref()
    }

    /// Total bytes currently held by the write-ahead log (0 for a
    /// memory-only engine) — the checkpointing trigger surface.
    pub fn log_bytes(&self) -> u64 {
        self.inner.wal.as_ref().map_or(0, |w| w.log_bytes())
    }

    /// Reclaim sealed log segments whose batches all carry epochs below
    /// `epoch` (see [`Wal::truncate_before`](bohm_common::wal::Wal::truncate_before)).
    /// Returns the bytes freed.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::Unsupported`](std::io::ErrorKind::Unsupported) on
    /// a memory-only engine: there is no log to truncate, and a silent
    /// `Ok(0)` here used to make a misconfigured retention job look like
    /// it was running against a durable engine when it was not. Callers
    /// that legitimately run both modes should gate on
    /// [`wal`](Self::wal)`.is_some()`.
    pub fn truncate_log_before(&self, epoch: u64) -> std::io::Result<u64> {
        match &self.inner.wal {
            Some(w) => w.truncate_before(epoch),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "truncate_log_before requires BohmConfig::durability (no WAL is attached)",
            )),
        }
    }

    /// Stop accepting work, drain the pipeline, and join all threads.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        // Closing the ingest queue lets the sequencer drain and exit; it
        // closes the window on its way out, and the CC and execution
        // threads drain the registered batches and exit in turn.
        self.ingest.shared.close();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
        // Every accepted batch is now logged; make the tail durable even
        // under relaxed fsync policies, so a clean shutdown never loses work.
        if let Some(wal) = &self.inner.wal {
            use bohm_common::wal::LogSink as _;
            let _ = wal.sync();
        }
    }
}

impl Drop for Bohm {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bohm_common::{Procedure, SmallBankProc};

    fn rid(k: u64) -> RecordId {
        RecordId::new(0, k)
    }

    fn rmw(keys: &[u64], delta: u64) -> Txn {
        let rids: Vec<RecordId> = keys.iter().map(|&k| rid(k)).collect();
        Txn::new(rids.clone(), rids, Procedure::ReadModifyWrite { delta })
    }

    fn small_engine() -> Bohm {
        Bohm::start(
            BohmConfig::small(),
            CatalogSpec::new().table(64, 8, |row| row * 10),
        )
    }

    #[test]
    fn preload_is_visible() {
        let e = small_engine();
        assert_eq!(e.read_u64(rid(0)), Some(0));
        assert_eq!(e.read_u64(rid(7)), Some(70));
        assert!(e.read_u64(RecordId::new(0, 64)).is_none());
        e.shutdown();
    }

    #[test]
    fn single_rmw_commits() {
        let e = small_engine();
        let out = e.execute_sync(vec![rmw(&[3], 5)]);
        assert!(out[0].committed);
        assert_eq!(e.read_u64(rid(3)), Some(35));
        e.shutdown();
    }

    #[test]
    fn empty_batch_completes() {
        let e = small_engine();
        let out = e.execute_sync(vec![]);
        assert!(out.is_empty());
        e.shutdown();
    }

    #[test]
    fn same_key_rmws_serialize_in_log_order() {
        let e = small_engine();
        // 100 increments of one hot record inside a single submission: the
        // execution layer must chain the read dependencies correctly.
        let out = e.execute_sync((0..100).map(|_| rmw(&[1], 1)).collect());
        assert!(out.iter().all(|o| o.committed));
        assert_eq!(e.read_u64(rid(1)), Some(110));
        e.shutdown();
    }

    #[test]
    fn many_batches_pipeline() {
        let e = small_engine();
        let handles: Vec<_> = (0..20)
            .map(|_| e.submit((0..50).map(|i| rmw(&[i % 8], 1)).collect()))
            .collect();
        for h in &handles {
            h.wait();
        }
        // 20 submissions × 50 txns, spread over keys 0..8: key k receives
        // ceil/floor counts; total adds = 1000.
        let total: u64 = (0..8).map(|k| e.read_u64(rid(k)).unwrap() - k * 10).sum();
        assert_eq!(total, 1000);
        e.shutdown();
    }

    #[test]
    fn session_submission_roundtrip() {
        let e = small_engine();
        let session = e.session();
        // Pipeline many single-transaction submissions, then reap them.
        let handles: Vec<_> = (0..200).map(|i| session.submit(rmw(&[i % 4], 1))).collect();
        for h in &handles {
            assert!(h.wait().committed);
        }
        // Quiesce (barrier semantics) before reading engine state directly:
        // a trailing no-op submission retires after every earlier batch.
        e.execute_sync(vec![rmw(&[63], 0)]);
        let total: u64 = (0..4).map(|k| e.read_u64(rid(k)).unwrap() - k * 10).sum();
        assert_eq!(total, 200);
        e.shutdown();
    }

    #[test]
    fn sessions_from_multiple_threads_apply_all_effects() {
        let e = Arc::new(Bohm::start(
            BohmConfig::with_threads(2, 2),
            CatalogSpec::new().table(16, 8, |_| 0),
        ));
        let mut clients = Vec::new();
        for c in 0..4u64 {
            let e = Arc::clone(&e);
            clients.push(std::thread::spawn(move || {
                let session = e.session();
                let handles: Vec<_> = (0..250)
                    .map(|i| session.submit(rmw(&[(c * 4 + i) % 16], 1)))
                    .collect();
                handles.iter().filter(|h| h.wait().committed).count()
            }));
        }
        let committed: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(committed, 1000);
        // Quiesce, then audit: every committed increment landed exactly once.
        e.execute_sync(vec![rmw(&[0], 0)]);
        let total: u64 = (0..16).map(|k| e.read_u64(rid(k)).unwrap()).sum();
        assert_eq!(total, 1000);
        Arc::try_unwrap(e).ok().unwrap().shutdown();
    }

    #[test]
    fn blind_writes_take_last_value_in_log_order() {
        let e = small_engine();
        let txns = (0..10)
            .map(|i| {
                Txn::new(
                    vec![],
                    vec![rid(5)],
                    Procedure::BlindWrite { value: 1000 + i },
                )
            })
            .collect();
        let out = e.execute_sync(txns);
        assert!(out.iter().all(|o| o.committed));
        assert_eq!(e.read_u64(rid(5)), Some(1009));
        e.shutdown();
    }

    #[test]
    fn user_abort_copies_previous_version_through() {
        let e = Bohm::start(
            BohmConfig::small(),
            CatalogSpec::new()
                .table(4, 8, |_| 100) // savings
                .table(4, 8, |_| 50), // checking
        );
        let sav = RecordId::new(0, 1);
        // Withdraw 70 twice: first succeeds (100→30), second aborts (30-70<0).
        let w = |amount: i64| {
            Txn::new(
                vec![sav],
                vec![sav],
                Procedure::SmallBank(SmallBankProc::TransactSaving { v: amount }),
            )
        };
        let out = e.execute_sync(vec![w(-70), w(-70), w(10)]);
        assert!(out[0].committed);
        assert!(!out[1].committed, "overdraft must abort");
        assert!(out[2].committed);
        assert_eq!(e.read_u64(sav), Some(40), "30 after abort, then +10");
        e.shutdown();
    }

    #[test]
    fn read_only_fingerprints_reflect_serial_order() {
        let e = small_engine();
        let ro = || Txn::new(vec![rid(2)], vec![], Procedure::ReadOnly);
        // r0 sees 20; write makes it 21; r1 sees 21.
        let out = e.execute_sync(vec![ro(), rmw(&[2], 1), ro()]);
        assert!(out.iter().all(|o| o.committed));
        assert_ne!(out[0].fingerprint, out[2].fingerprint);
        e.shutdown();
    }

    #[test]
    fn gc_reclaims_superseded_versions() {
        let e = Bohm::start(BohmConfig::small(), CatalogSpec::new().table(2, 8, |_| 0));
        for _ in 0..50 {
            e.execute_sync((0..20).map(|_| rmw(&[0], 1)).collect());
        }
        assert_eq!(e.read_u64(rid(0)), Some(1000));
        assert!(
            e.gc_retired() > 500,
            "hot-key updates should be reclaimed, got {}",
            e.gc_retired()
        );
        assert!(e.gc_bound() > 0);
        e.shutdown();
    }

    #[test]
    fn gc_can_be_disabled() {
        let mut cfg = BohmConfig::small();
        cfg.enable_gc = false;
        let e = Bohm::start(cfg, CatalogSpec::new().table(2, 8, |_| 0));
        for _ in 0..10 {
            e.execute_sync((0..20).map(|_| rmw(&[0], 1)).collect());
        }
        assert_eq!(e.gc_retired(), 0);
        assert_eq!(e.read_u64(rid(0)), Some(200));
        e.shutdown();
    }

    #[test]
    fn annotations_can_be_disabled() {
        let mut cfg = BohmConfig::small();
        cfg.annotate_reads = false;
        let e = Bohm::start(cfg, CatalogSpec::new().table(8, 8, |r| r));
        let out = e.execute_sync((0..40).map(|i| rmw(&[i % 8], 1)).collect());
        assert!(out.iter().all(|o| o.committed));
        assert_eq!(e.read_u64(rid(3)), Some(3 + 5));
        e.shutdown();
    }

    #[test]
    fn read_write_mix_across_records() {
        let e = small_engine();
        // 2RMW-8R style: writes to 2 records, reads of 8 others.
        let txns: Vec<Txn> = (0..30)
            .map(|i| {
                let w: Vec<RecordId> = vec![rid(i % 4), rid(4 + (i % 4))];
                let mut r = w.clone();
                r.extend((8..16).map(rid));
                Txn::new(r, w, Procedure::ReadModifyWrite { delta: 1 })
            })
            .collect();
        let out = e.execute_sync(txns);
        assert!(out.iter().all(|o| o.committed));
        // 30 txns × 2 writes spread uniformly over 8 records.
        let total: u64 = (0..8).map(|k| e.read_u64(rid(k)).unwrap() - k * 10).sum();
        assert_eq!(total, 60);
        e.shutdown();
    }

    #[test]
    fn single_thread_each_layer_works() {
        let e = Bohm::start(
            BohmConfig::with_threads(1, 1),
            CatalogSpec::new().table(16, 8, |_| 0),
        );
        let out = e.execute_sync((0..64).map(|i| rmw(&[i % 16], 1)).collect());
        assert!(out.iter().all(|o| o.committed));
        assert_eq!(e.read_u64(rid(0)), Some(4));
        e.shutdown();
    }

    #[test]
    fn wide_write_sets_use_intra_txn_parallelism() {
        // One transaction writing many records is processed cooperatively
        // by all CC threads (paper Fig. 2).
        let e = Bohm::start(
            BohmConfig::with_threads(4, 2),
            CatalogSpec::new().table(64, 8, |_| 0),
        );
        let keys: Vec<u64> = (0..64).collect();
        let out = e.execute_sync(vec![rmw(&keys, 7)]);
        assert!(out[0].committed);
        for k in 0..64 {
            assert_eq!(e.read_u64(rid(k)), Some(7));
        }
        e.shutdown();
    }

    #[test]
    fn tiny_batches_with_linger_trigger() {
        // Force the *time* trigger: batch_size far above what we submit, so
        // every seal comes from the linger timer.
        let mut cfg = BohmConfig::small();
        cfg.batch_size = 1 << 16;
        cfg.batch_linger = std::time::Duration::from_micros(50);
        let e = Bohm::start(cfg, CatalogSpec::new().table(8, 8, |_| 0));
        for _ in 0..5 {
            let out = e.execute_sync((0..16).map(|i| rmw(&[i % 8], 1)).collect());
            assert!(out.iter().all(|o| o.committed));
        }
        assert_eq!(e.read_u64(rid(0)), Some(10));
        e.shutdown();
    }

    #[test]
    fn insert_of_fresh_key_becomes_visible() {
        use bohm_common::Procedure::BlindWrite;
        // Catalog declares the table's record size; only 4 rows preloaded,
        // but the hash index accepts any row id — inserts grow the table.
        let e = Bohm::start(BohmConfig::small(), CatalogSpec::new().table(4, 8, |r| r));
        let fresh = rid(1000);
        assert_eq!(e.read_u64(fresh), None, "fresh key starts absent");
        let out = e.execute_sync(vec![Txn::new(
            vec![],
            vec![fresh],
            BlindWrite { value: 77 },
        )]);
        assert!(out[0].committed);
        assert_eq!(e.read_u64(fresh), Some(77));
        // Inserted records behave like preloaded ones afterwards.
        let out = e.execute_sync(vec![rmw(&[1000], 1)]);
        assert!(out[0].committed);
        assert_eq!(e.read_u64(fresh), Some(78));
        e.shutdown();
    }

    #[test]
    fn read_of_never_inserted_key_is_absent_not_stale_or_later() {
        use bohm_common::{Procedure::BlindWrite, TpcCProc, ABSENT_FINGERPRINT};
        // One batch carrying [probe K, insert K, probe K]: the first probe
        // must observe absence even though, by the time it executes, the
        // insert's placeholder (a *later* timestamp) is already on K's
        // chain — the cc annotate path left the slot null and the fallback
        // re-probe filters by ts. The second probe sees the insert.
        let e = Bohm::start(BohmConfig::small(), CatalogSpec::new().table(4, 8, |_| 5));
        let k = rid(900);
        let probe = Txn::new(
            vec![rid(0), k],
            vec![],
            bohm_common::Procedure::TpcC(TpcCProc::OrderStatus),
        );
        let insert = Txn::new(vec![], vec![k], BlindWrite { value: 42 });
        let out = e.execute_sync(vec![probe.clone(), insert, probe]);
        assert!(out.iter().all(|o| o.committed));
        let absent_fp = 5u64.wrapping_mul(31).wrapping_add(ABSENT_FINGERPRINT);
        assert_eq!(
            out[0].fingerprint, absent_fp,
            "pre-insert probe sees absence"
        );
        assert_ne!(
            out[2].fingerprint, absent_fp,
            "post-insert probe sees the row"
        );
        e.shutdown();
    }

    #[test]
    fn aborted_fresh_insert_reads_as_absent_via_tombstone() {
        use bohm_common::SmallBankProc;
        // WriteCheck aborts in no engine; use TransactSaving against a
        // zero-balance account *combined* with a fresh-key write set so the
        // abort's copy-through tombstones the fresh placeholder.
        let e = Bohm::start(BohmConfig::small(), CatalogSpec::new().table(2, 8, |_| 0));
        let sav = rid(0);
        let fresh = rid(700);
        // reads = [savings], writes = [savings, fresh]: the procedure
        // aborts before writing, so both placeholders are copied through —
        // savings from its predecessor, fresh to a tombstone.
        let aborting = Txn::new(
            vec![sav],
            vec![sav, fresh],
            bohm_common::Procedure::SmallBank(SmallBankProc::TransactSaving { v: -10 }),
        );
        let probe = Txn::new(
            vec![sav, fresh],
            vec![],
            bohm_common::Procedure::TpcC(bohm_common::TpcCProc::OrderStatus),
        );
        let out = e.execute_sync(vec![aborting, probe]);
        assert!(!out[0].committed);
        assert!(out[1].committed);
        assert_eq!(
            out[1].fingerprint,
            0u64.wrapping_mul(31)
                .wrapping_add(bohm_common::ABSENT_FINGERPRINT),
            "tombstoned fresh insert reads as absence"
        );
        assert_eq!(e.read_u64(fresh), None);
        e.shutdown();
    }

    #[test]
    fn delete_lifecycle_absent_then_reinsert() {
        use bohm_common::Procedure::{BlindWrite, GuardedDelete};
        let e = Bohm::start(
            BohmConfig::small(),
            CatalogSpec::new().table(4, 8, |r| r + 5),
        );
        let guard = rid(0);
        let victim = rid(2); // seeded 7
        let probe = || {
            Txn::new(
                vec![guard, victim],
                vec![],
                bohm_common::Procedure::TpcC(bohm_common::TpcCProc::OrderStatus),
            )
        };
        let del = Txn::new(vec![guard], vec![victim], GuardedDelete { min: 0 });
        let ins = Txn::new(vec![], vec![victim], BlindWrite { value: 99 });
        // One submission: probe (present), delete, probe (absent),
        // re-insert, probe (present again) — log order is serial order.
        let out = e.execute_sync(vec![probe(), del, probe(), ins, probe()]);
        assert!(out.iter().all(|o| o.committed));
        let absent_fp = 5u64
            .wrapping_mul(31)
            .wrapping_add(bohm_common::ABSENT_FINGERPRINT);
        assert_ne!(out[0].fingerprint, absent_fp, "pre-delete probe sees row");
        assert_eq!(out[2].fingerprint, absent_fp, "post-delete probe absent");
        assert_ne!(
            out[4].fingerprint, absent_fp,
            "post-reinsert probe sees row"
        );
        assert_eq!(e.read_u64(victim), Some(99));
        e.shutdown();
    }

    #[test]
    fn scans_are_ordered_against_batched_inserts_not_phantoms() {
        use bohm_common::Procedure::BlindWrite;
        use bohm_common::{ScanRange, TpcCProc};
        let e = small_engine(); // 64 seeded rows; rows ≥ 64 insert-fresh
        let history = || {
            Txn::with_scans(
                vec![rid(0)],
                vec![],
                vec![ScanRange::new(0, 100, 110)],
                Procedure::TpcC(TpcCProc::OrderHistory),
            )
        };
        let ins = |k: u64, v: u64| Txn::new(vec![], vec![rid(k)], BlindWrite { value: v });
        // One submission ⇒ one batch: every scan executes while the
        // *later* inserts' placeholders are already on the scanned range's
        // chains. The CC pre-annotation (and the ts-filtered fallback)
        // must order each scan between its log neighbours: 0, then 1, then
        // 2 present rows — never a phantom from a later insert.
        let out = e.execute_sync(vec![
            history(),
            ins(105, 7),
            history(),
            ins(103, 8),
            history(),
        ]);
        assert!(out.iter().all(|o| o.committed));
        assert_eq!(out[0].fingerprint, 0, "pre-insert scan is empty");
        assert_ne!(out[2].fingerprint, out[0].fingerprint);
        assert_ne!(out[4].fingerprint, out[2].fingerprint);
        // Deleting from the range shrinks the membership back.
        let del = Txn::new(
            vec![rid(0)],
            vec![rid(103)],
            Procedure::GuardedDelete { min: 0 },
        );
        let out2 = e.execute_sync(vec![del, history()]);
        assert!(out2.iter().all(|o| o.committed));
        assert_eq!(
            out2[1].fingerprint, out[2].fingerprint,
            "post-delete scan matches the single-row membership"
        );
        e.shutdown();
    }

    #[test]
    fn scans_stay_correct_with_annotations_disabled() {
        use bohm_common::Procedure::BlindWrite;
        use bohm_common::{ScanRange, TpcCProc};
        // The ablation path: with annotate_reads off (and thus no scan
        // pre-annotation either), every scanned row resolves through the
        // ts-filtered fallback probe — same ordering guarantees, no
        // pointer slots allocated.
        let mut cfg = BohmConfig::small();
        cfg.annotate_reads = false;
        let e = Bohm::start(cfg, CatalogSpec::new().table(64, 8, |r| r * 10));
        let history = || {
            Txn::with_scans(
                vec![rid(0)],
                vec![],
                vec![ScanRange::new(0, 100, 110)],
                Procedure::TpcC(TpcCProc::OrderHistory),
            )
        };
        let ins = |k: u64, v: u64| Txn::new(vec![], vec![rid(k)], BlindWrite { value: v });
        let out = e.execute_sync(vec![history(), ins(105, 7), history()]);
        assert!(out.iter().all(|o| o.committed));
        assert_eq!(out[0].fingerprint, 0, "pre-insert scan is empty");
        assert_ne!(out[2].fingerprint, 0, "post-insert scan sees the row");
        e.shutdown();
    }

    #[test]
    fn oversized_scan_ranges_fall_back_without_allocating() {
        use bohm_common::{ScanRange, TpcCProc};
        // A range wider than annotate_max_reads gets no annotation slots
        // (a declared terabyte-wide range must not allocate per-slot
        // pointers in the sequencer); the fallback probe still serves it.
        let mut cfg = BohmConfig::small();
        cfg.annotate_max_reads = 4;
        let e = Bohm::start(cfg, CatalogSpec::new().table(16, 8, |r| r + 1));
        let wide = Txn::with_scans(
            vec![rid(0)],
            vec![],
            vec![ScanRange::new(0, 0, 16)], // 16 > annotate_max_reads
            Procedure::TpcC(TpcCProc::OrderHistory),
        );
        let out = e.execute_sync(vec![wide]);
        assert!(out[0].committed);
        assert_ne!(out[0].fingerprint, 0, "all 16 seeded rows observed");
        e.shutdown();
    }

    #[test]
    fn scan_blocks_on_pending_producer_within_a_batch() {
        use bohm_common::Procedure::BlindWrite;
        use bohm_common::{ScanRange, TpcCProc};
        // [insert K, scan covering K] in one batch: if the executor reaches
        // the scan first it lands on the insert's pending placeholder and
        // must resolve the producer (NotReady → recursive execution), then
        // observe the row — the §3.3.1 protocol extended to ranges.
        let e = small_engine();
        let ins = Txn::new(vec![], vec![rid(200)], BlindWrite { value: 9 });
        let history = Txn::with_scans(
            vec![rid(0)],
            vec![],
            vec![ScanRange::new(0, 198, 203)],
            Procedure::TpcC(TpcCProc::OrderHistory),
        );
        for _ in 0..20 {
            let out = e.execute_sync(vec![ins.clone(), history.clone()]);
            assert!(out.iter().all(|o| o.committed));
            assert_ne!(out[1].fingerprint, 0, "scan must observe the insert");
        }
        e.shutdown();
    }

    #[test]
    fn user_aborted_delete_leaves_row_readable() {
        use bohm_common::Procedure::GuardedDelete;
        // Guard seeded 0 < min ⇒ user abort; the delete placeholder is
        // copied through from its predecessor, so the row survives.
        let e = Bohm::start(BohmConfig::small(), CatalogSpec::new().table(4, 8, |r| r));
        let del = Txn::new(vec![rid(0)], vec![rid(2)], GuardedDelete { min: 1 });
        let out = e.execute_sync(vec![del]);
        assert!(!out[0].committed);
        assert_eq!(e.read_u64(rid(2)), Some(2), "aborted delete rolls back");
        e.shutdown();
    }

    #[test]
    fn delete_churn_is_reclaimed_by_condition3_gc() {
        use bohm_common::Procedure::{BlindWrite, GuardedDelete};
        // Sustained insert→delete→re-insert cycles on a hot key: superseded
        // values *and* consumed tombstones must flow out through the
        // Condition-3 truncation, not accumulate.
        let e = Bohm::start(BohmConfig::small(), CatalogSpec::new().table(2, 8, |_| 1));
        let guard = rid(0);
        let hot = rid(1);
        let iters = bohm_common::stress_iters(400);
        for _ in 0..iters {
            let out = e.execute_sync(vec![
                Txn::new(vec![guard], vec![hot], GuardedDelete { min: 0 }),
                Txn::new(vec![], vec![hot], BlindWrite { value: 9 }),
            ]);
            assert!(out.iter().all(|o| o.committed));
        }
        assert_eq!(e.read_u64(hot), Some(9));
        assert!(
            e.gc_retired() > iters,
            "delete churn should be reclaimed, got {} after {iters} cycles",
            e.gc_retired()
        );
        e.shutdown();
    }

    #[test]
    fn full_table_delete_churn_returns_index_to_baseline() {
        use bohm_common::Procedure::{BlindWrite, GuardedDelete};
        // The former leak: a fully-deleted key kept one tombstone (its
        // chain head) plus its index entry forever. The CC key sweep must
        // return the index to its preloaded footprint once the GC bound
        // passes the deletes.
        let mut cfg = BohmConfig::small();
        cfg.key_gc_buckets = usize::MAX; // full sweep per batch: deterministic
        let e = Bohm::start(cfg, CatalogSpec::new().table(2, 8, |_| 1));
        let baseline = e.index_keys();
        assert_eq!(baseline, 2);
        let guard = rid(0);
        let inserts: Vec<Txn> = (100..164)
            .map(|k| Txn::new(vec![], vec![rid(k)], BlindWrite { value: k }))
            .collect();
        assert!(e.execute_sync(inserts).iter().all(|o| o.committed));
        assert_eq!(e.index_keys(), baseline + 64);
        let deletes: Vec<Txn> = (100..164)
            .map(|k| Txn::new(vec![guard], vec![rid(k)], GuardedDelete { min: 0 }))
            .collect();
        assert!(e.execute_sync(deletes).iter().all(|o| o.committed));
        // Filler batches advance the GC bound and run the sweep.
        for _ in 0..20 {
            e.execute_sync(vec![rmw(&[0], 0)]);
            if e.index_keys() == baseline {
                break;
            }
        }
        assert_eq!(
            e.index_keys(),
            baseline,
            "full-table churn must not leak index entries"
        );
        assert!(e.keys_retired() >= 64, "got {}", e.keys_retired());
        for k in 100..164 {
            assert_eq!(e.read_u64(rid(k)), None, "reclaimed key reads absent");
        }
        // Reclaimed keys stay insertable (fresh chain through the index).
        let out = e.execute_sync(vec![Txn::new(
            vec![],
            vec![rid(120)],
            BlindWrite { value: 7 },
        )]);
        assert!(out[0].committed);
        assert_eq!(e.read_u64(rid(120)), Some(7));
        assert_eq!(e.index_keys(), baseline + 1);
        e.shutdown();
    }

    #[test]
    fn key_sweep_spares_annotated_and_live_chains() {
        use bohm_common::Procedure::GuardedDelete;
        // Deleting one key and probing it from the same stream: the probe's
        // annotation must never be invalidated (the sweep defers until the
        // annotated transaction has executed), and live keys are untouched.
        let mut cfg = BohmConfig::small();
        cfg.key_gc_buckets = usize::MAX;
        let e = Bohm::start(cfg, CatalogSpec::new().table(8, 8, |r| r + 1));
        let victim = rid(5);
        let probe = Txn::new(
            vec![rid(0), victim],
            vec![],
            Procedure::TpcC(bohm_common::TpcCProc::OrderStatus),
        );
        for _ in 0..50 {
            let del = Txn::new(vec![rid(0)], vec![victim], GuardedDelete { min: 0 });
            let ins = Txn::new(
                vec![],
                vec![victim],
                bohm_common::Procedure::BlindWrite { value: 9 },
            );
            let out = e.execute_sync(vec![del, probe.clone(), ins, probe.clone()]);
            assert!(out.iter().all(|o| o.committed));
            assert_ne!(out[1].fingerprint, out[3].fingerprint);
        }
        assert_eq!(e.read_u64(victim), Some(9));
        assert_eq!(e.index_keys(), 8, "live keys must never be reclaimed");
        e.shutdown();
    }

    #[test]
    fn wal_engine_logs_every_batch_and_replay_rebuilds_state() {
        use bohm_common::wal::{self, DurabilityConfig, FsyncPolicy, Wal};
        let dir = std::env::temp_dir().join(format!("bohm-core-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = || CatalogSpec::new().table(16, 8, |r| r);
        let mut cfg = BohmConfig::small();
        let mut d = DurabilityConfig::new(&dir);
        d.fsync = FsyncPolicy::EveryN(4);
        cfg.durability = Some(d);
        let e = Bohm::start(cfg, catalog());
        for round in 0..5u64 {
            let out = e.execute_sync((0..32).map(|i| rmw(&[(i + round) % 16], 1)).collect());
            assert!(out.iter().all(|o| o.committed));
        }
        assert!(e.wal().is_some());
        assert!(e.log_bytes() > 0);
        assert_eq!(e.truncate_log_before(0).unwrap(), 0);
        let expect: Vec<u64> = (0..16).map(|k| e.read_u64(rid(k)).unwrap()).collect();
        e.shutdown();
        // Recover into a fresh, memory-only engine: same final state.
        let log = Wal::read_log(&dir).unwrap();
        assert_eq!(log.iter().map(|b| b.txns.len()).sum::<usize>(), 160);
        let fresh = Bohm::start(BohmConfig::small(), catalog());
        let outcomes = wal::replay_into(&log, &fresh);
        assert!(outcomes.iter().all(|o| o.committed));
        let got: Vec<u64> = (0..16).map(|k| fresh.read_u64(rid(k)).unwrap()).collect();
        assert_eq!(got, expect, "replayed state must match the logged run");
        fresh.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_then_continue_on_same_dir_never_double_applies() {
        use bohm_common::wal::{DurabilityConfig, FsyncPolicy, Wal};
        let dir = std::env::temp_dir().join(format!("bohm-core-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = || CatalogSpec::new().table(8, 8, |_| 0);
        let cfg = || {
            let mut c = BohmConfig::small();
            let mut d = DurabilityConfig::new(&dir);
            d.fsync = FsyncPolicy::Off;
            c.durability = Some(d);
            c
        };
        let sum = |e: &Bohm| -> u64 { (0..8).map(|k| e.read_u64(rid(k)).unwrap()).sum() };
        // Run 1: 40 increments in 5 separate submissions (5 log records),
        // then "crash" with a torn tail — truncate the live segment
        // mid-record after shutdown.
        let e = Bohm::start(cfg(), catalog());
        for round in 0..5u64 {
            assert!(e
                .execute_sync((0..8).map(|i| rmw(&[(i + round) % 8], 1)).collect())
                .iter()
                .all(|o| o.committed));
        }
        e.shutdown();
        let seg0 = dir.join("wal-00000000.seg");
        let full = std::fs::read(&seg0).unwrap();
        std::fs::write(&seg0, &full[..full.len() - 3]).unwrap();
        let logged = Wal::read_log(&dir)
            .unwrap()
            .iter()
            .map(|b| b.txns.len())
            .sum::<usize>();
        assert!(
            (8..40).contains(&logged),
            "the tear must drop exactly the final record, got {logged}"
        );
        // Recovery 1: replay the surviving prefix on the SAME dir, then
        // continue with fresh work — both must be logged exactly once.
        let (e, outcomes) = Bohm::recover(cfg(), catalog()).unwrap();
        assert_eq!(outcomes.len(), logged);
        assert!(outcomes.iter().all(|o| o.committed));
        assert_eq!(sum(&e), logged as u64, "replayed prefix applied once");
        assert!(e
            .execute_sync((0..40).map(|i| rmw(&[i % 8], 1)).collect())
            .iter()
            .all(|o| o.committed));
        assert_eq!(sum(&e), logged as u64 + 40);
        e.shutdown();
        // Recovery 2: the log must now hold prefix + continuation, each
        // once — a re-logged replay would double them here.
        let (e, outcomes) = Bohm::recover(cfg(), catalog()).unwrap();
        assert_eq!(
            outcomes.len(),
            logged + 40,
            "recovery must not re-log the replayed prefix"
        );
        assert_eq!(sum(&e), logged as u64 + 40);
        e.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_append_failure_fails_waiters_and_submitters_instead_of_hanging() {
        use bohm_common::wal::{DurabilityConfig, FsyncPolicy};
        let dir = std::env::temp_dir().join(format!("bohm-core-walfail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = BohmConfig::small();
        let mut d = DurabilityConfig::new(&dir);
        d.fsync = FsyncPolicy::Off;
        d.segment_bytes = 1; // rotate after every batch
        cfg.durability = Some(d);
        let e = Bohm::start(cfg, CatalogSpec::new().table(8, 8, |_| 0));
        // Sabotage the next rotation target: `create_new` on an existing
        // path fails, so the first sealed batch faults the WAL.
        std::fs::create_dir(dir.join("wal-00000001.seg")).unwrap();
        let session = e.session();
        let observed_fault = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Keep submitting until either a wait panics (poisoned
            // completion) or a submit panics (queue closed) — both are
            // the observable engine fault; hanging here is the bug.
            for i in 0..10_000u64 {
                session.submit(rmw(&[i % 8], 1)).wait();
            }
        }));
        assert!(
            observed_fault.is_err(),
            "clients must observe the WAL fault, not hang or succeed"
        );
        drop(e); // shutdown must not hang either
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tight_inflight_budget_still_completes() {
        // Budget of 2 with single-txn batches: the sequencer must block on
        // the ring and resume as execution retires slots.
        let mut cfg = BohmConfig::with_threads(1, 1);
        cfg.batch_size = 1; // every transaction is its own batch
        cfg.max_inflight_batches = 2;
        cfg.ingest_capacity = 4;
        let e = Bohm::start(cfg, CatalogSpec::new().table(4, 8, |_| 0));
        let handles: Vec<_> = (0..64).map(|i| e.submit(vec![rmw(&[i % 4], 1)])).collect();
        for h in handles {
            assert!(h.outcomes()[0].committed);
        }
        let total: u64 = (0..4).map(|k| e.read_u64(rid(k)).unwrap()).sum();
        assert_eq!(total, 64);
        e.shutdown();
    }
}
