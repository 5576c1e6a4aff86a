//! Steady-state allocation audit of the BOHM pipeline.
//!
//! The arena refactor's core claim is that once the pipeline is warm —
//! chunk pool populated, queues at capacity, epoch bags
//! allocated — a read-only workload runs **allocation-free** per
//! transaction: read/write sets, CC plans and placeholder-pointer buffers
//! all live in recycled batch arenas, and execution reuses per-thread
//! scratch. This test installs a counting global allocator, warms the
//! engine, then measures a window of `N` read-only transactions and
//! asserts the allocation count stays at the *per-batch epsilon* (a
//! completion handle, a `TxnState` vector and an `Arc<Batch>` per sealed
//! batch, an occasional recycled-chunk `Arc`) instead of scaling with
//! per-transaction work — the budget is `N/8 + 128` calls, two orders of
//! magnitude below the pre-arena cost of several allocations per
//! transaction.
//!
//! The write path is held to the same budget: once warm, a hot
//! read-modify-write workload with GC on takes every placeholder version
//! from the CC thread's pool of truncated versions, so writes allocate
//! nothing either (a fresh version plus its payload, and the epoch
//! collector's deferred free, used to cost about three allocations per
//! write).
//!
//! Kept in its own test binary so concurrent tests cannot pollute the
//! measurement window; the tests inside it take turns through [`SERIAL`].
//! Scaled by `BOHM_STRESS_ITERS` like the other stress suites.

use bohm_common::{Procedure, RecordId, Txn};
use bohm_suite::core::{Bohm, BohmConfig, CatalogSpec};
use bohm_suite::testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The allocation counter is process-wide, so the audits run one at a time.
static SERIAL: bohm_sync::Mutex<()> = bohm_sync::Mutex::new(());

const ROWS: u64 = 1024;
const READS_PER_TXN: usize = 10;
const GROUP: usize = 256;
/// Rows the write test updates: few enough that every chain is written
/// (and truncation-probed) several times per batch.
const HOT_ROWS: u64 = 64;

/// Pre-build submission groups so transaction *construction* (client-side
/// `Vec`s, by design) stays outside the measured window. `txn` builds one
/// transaction from a xorshift row source.
fn build_groups(
    n_txns: usize,
    seed: u64,
    txn: impl Fn(&mut dyn FnMut() -> u64) -> Txn,
) -> Vec<Vec<Txn>> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..n_txns.div_ceil(GROUP))
        .map(|g| {
            let in_group = GROUP.min(n_txns - g * GROUP);
            (0..in_group).map(|_| txn(&mut next)).collect()
        })
        .collect()
}

/// Ten uniform reads over the whole table.
fn read_only(next: &mut dyn FnMut() -> u64) -> Txn {
    let reads = (0..READS_PER_TXN)
        .map(|_| RecordId::new(0, next() % ROWS))
        .collect();
    Txn::new(reads, vec![], Procedure::ReadOnly)
}

/// Increment two distinct hot rows.
fn hot_rmw(next: &mut dyn FnMut() -> u64) -> Txn {
    let a = next() % HOT_ROWS;
    let b = (a + 1 + next() % (HOT_ROWS - 1)) % HOT_ROWS;
    let rows = vec![RecordId::new(0, a), RecordId::new(0, b)];
    Txn::new(rows.clone(), rows, Procedure::ReadModifyWrite { delta: 1 })
}

/// Warm `engine` up on `warm`, then count the allocations of running
/// `measured`, asserting every transaction commits.
fn allocations_of(engine: &Bohm, warm: Vec<Vec<Txn>>, measured: Vec<Vec<Txn>>) -> u64 {
    for group in warm {
        for out in engine.submit(group).outcomes() {
            assert!(out.committed);
        }
    }
    let before = CountingAlloc::allocations();
    for group in measured {
        for out in engine.submit(group).outcomes() {
            assert!(out.committed);
        }
    }
    CountingAlloc::allocations() - before
}

#[test]
fn bohm_read_only_steady_state_allocates_nothing_per_txn() {
    let _turn = SERIAL.lock();
    let n = bohm_common::stress_iters(4_096) as usize;
    let cfg = BohmConfig {
        batch_size: GROUP,
        ..BohmConfig::with_threads(1, 1)
    };
    let engine = Bohm::start(cfg, CatalogSpec::new().table(ROWS, 8, |r| r));

    // Warmup: fills the arena chunk pool, queue capacities, epoch
    // thread-locals and the exec threads' scratch buffers.
    let delta = allocations_of(
        &engine,
        build_groups(n.min(2048), 7, read_only),
        build_groups(n, 99, read_only),
    );

    let budget = (n as u64) / 8 + 128;
    eprintln!("steady-state window: {n} txns, {delta} allocations (budget {budget})");
    assert!(
        delta <= budget,
        "steady-state window of {n} read-only txns made {delta} allocations \
         (budget {budget}): a per-transaction allocation crept back into \
         the hot path"
    );
    engine.shutdown();
}

#[test]
fn bohm_hot_write_steady_state_allocates_nothing_per_txn() {
    let _turn = SERIAL.lock();
    let n = bohm_common::stress_iters(4_096) as usize;
    let cfg = BohmConfig {
        batch_size: GROUP,
        ..BohmConfig::with_threads(1, 1)
    };
    assert!(cfg.enable_gc, "the audit covers the GC-on write path");
    let engine = Bohm::start(cfg, CatalogSpec::new().table(ROWS, 8, |r| r));

    // Warmup also grows the CC thread's version pool to the number of
    // versions the GC bound keeps alive; from then on truncation refills
    // it as fast as writes drain it.
    let delta = allocations_of(
        &engine,
        build_groups(n.min(2048), 7, hot_rmw),
        build_groups(n, 99, hot_rmw),
    );

    let budget = (n as u64) / 8 + 128;
    eprintln!("steady-state hot-write window: {n} txns, {delta} allocations (budget {budget})");
    assert!(
        delta <= budget,
        "steady-state window of {n} read-modify-write txns made {delta} \
         allocations (budget {budget}): the write path allocates per write \
         again instead of recycling truncated versions"
    );
    let sum: u64 = (0..HOT_ROWS)
        .map(|r| engine.read_u64(RecordId::new(0, r)).unwrap() - r)
        .sum();
    assert_eq!(sum, 2 * (n.min(2048) + n) as u64, "every increment landed");
    engine.shutdown();
}
