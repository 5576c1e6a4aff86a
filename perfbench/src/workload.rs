//! The benchmark's workloads, their input streams and post-run audits.

use bohm_common::engine::BatchEngine;
use bohm_common::wal::FsyncPolicy;
use bohm_common::{RecordId, Txn};
use bohm_workloads::tpcc::{self, TpccConfig, TpccGen};
use bohm_workloads::ycsb::{YcsbConfig, YcsbGen};
use bohm_workloads::{DatabaseSpec, TxnGen};
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// A closed loop keeps the harness's in-flight depth per BOHM session
/// (`DriverConfig::default().pipeline_depth`).
pub const CLOSED_LOOP_SESSIONS: usize = 2;

#[derive(Clone, Debug)]
pub enum Load {
    Tpcc(TpccConfig),
    Ycsb(YcsbConfig),
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub load: Load,
    /// Open loop at this offered rate (txn/s); `None` = closed loop.
    pub open_rate: Option<f64>,
    /// Open loop: a decision later than this counts as failed.
    pub latency_limit: Duration,
    /// Write-ahead log on every engine (see [`WAL_FSYNC`]).
    pub wal: bool,
    /// Times each engine is built per run (set-up time is their median).
    pub setup_reps: usize,
}

/// The fsync policy of the logging workload. The log is appended on
/// every commit path, but not flushed: on a disk shared with other
/// tenants, flush latency drifts by whole multiples between runs and
/// would swamp every latency figure. `host.fdatasync_us` reports what a
/// flush costs on the host.
pub const WAL_FSYNC: FsyncPolicy = FsyncPolicy::Off;

/// Log segment size of the logging workload: larger than any run's log,
/// so no segment rotation (which syncs the finished segment) lands in a
/// measurement window.
pub const WAL_SEGMENT_BYTES: u64 = 1 << 30;

pub const NAMES: [&str; 3] = ["tpcc-hot", "ycsb-longread", "tpcc-wal-open"];

/// The TPC-C-lite shape of the harness's `fig_tpcc` figures.
fn tpcc(warehouses: u64) -> TpccConfig {
    TpccConfig {
        warehouses,
        districts_per_warehouse: 10,
        customers_per_district: 96,
        order_capacity: 1 << 18,
        order_stripes: 64,
        delivery_batch: 4,
        orders_per_customer: 64,
        unbounded_orders: false,
        think_us: 0,
    }
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Self> {
        let w = match name {
            "tpcc-hot" => Self {
                name: "tpcc-hot",
                load: Load::Tpcc(tpcc(2)),
                open_rate: None,
                latency_limit: Duration::MAX,
                wal: false,
                setup_reps: 9,
            },
            "ycsb-longread" => Self {
                name: "ycsb-longread",
                load: Load::Ycsb(YcsbConfig {
                    records: 1_000_000,
                    record_size: 100,
                    theta: 0.0,
                    read_only_len: 10_000,
                    read_only_fraction: 0.01,
                }),
                open_rate: None,
                latency_limit: Duration::MAX,
                wal: false,
                setup_reps: 3,
            },
            "tpcc-wal-open" => Self {
                name: "tpcc-wal-open",
                load: Load::Tpcc(tpcc(4)),
                open_rate: Some(30_000.0),
                latency_limit: Duration::from_secs(1),
                wal: true,
                setup_reps: 9,
            },
            _ => return None,
        };
        Some(w)
    }

    pub fn spec(&self) -> DatabaseSpec {
        match &self.load {
            Load::Tpcc(c) => c.spec(),
            Load::Ycsb(c) => c.spec(),
        }
    }

    /// Input stream `i` of a run seeded with `seed`.
    pub fn stream(&self, seed: u64, i: usize) -> Stream {
        let s = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64 + 1);
        match &self.load {
            Load::Tpcc(c) => Stream::Tpcc {
                stripe: i as u64,
                gen: TpccGen::new(c.clone(), s, i as u64),
            },
            Load::Ycsb(c) => Stream::Ycsb(YcsbGen::mixed(c, s)),
        }
    }
}

/// One driver's generator, kept after the run for the audit.
pub enum Stream {
    Tpcc { stripe: u64, gen: TpccGen },
    Ycsb(YcsbGen),
}

impl Stream {
    /// The next transaction and whether it writes.
    pub fn next(&mut self) -> (Txn, bool) {
        let t = match self {
            Stream::Tpcc { gen, .. } => gen.next_txn(),
            Stream::Ycsb(g) => g.next_txn(),
        };
        let writes = !t.is_read_only();
        (t, writes)
    }
}

/// Check the engine's final state against what the streams did. The
/// engine must be quiescent.
///
/// * TPC-C-lite: money moved by Payment is conserved between customers
///   and warehouses; the live order rows are exactly those the streams
///   inserted and did not deliver; each stripe's delivery cursor counts
///   the orders its stream delivered.
/// * YCSB: every row is present and the sum of all rows is the seeded sum
///   plus 10 for every committed 10RMW transaction.
pub fn audit<E: BatchEngine>(
    w: &Workload,
    engine: &E,
    streams: &[Stream],
    committed_writes: u64,
) -> Result<(), String> {
    match &w.load {
        Load::Tpcc(cfg) => audit_tpcc(cfg, engine, streams),
        Load::Ycsb(cfg) => audit_ycsb(cfg, engine, committed_writes),
    }
}

fn audit_tpcc<E: BatchEngine>(
    cfg: &TpccConfig,
    engine: &E,
    streams: &[Stream],
) -> Result<(), String> {
    let read = |table: u32, row: u64| engine.read_u64(RecordId::new(table, row));
    let customers: u64 = (0..cfg.customers())
        .map(|c| read(tpcc::tables::CUSTOMER, c).unwrap_or(0))
        .fold(0, u64::wrapping_add);
    let warehouses: u64 = (0..cfg.warehouses)
        .map(|w| read(tpcc::tables::WAREHOUSE, w).unwrap_or(0))
        .fold(0, u64::wrapping_add);
    if (100_000 * cfg.customers()).wrapping_sub(customers) != warehouses {
        return Err(format!(
            "money not conserved: customers paid {} but warehouses hold {warehouses}",
            (100_000 * cfg.customers()).wrapping_sub(customers)
        ));
    }
    let live = (0..cfg.order_capacity)
        .filter(|&row| read(tpcc::tables::ORDER, row).is_some())
        .count() as u64;
    let mut want = 0;
    for s in streams {
        let Stream::Tpcc { stripe, gen } = s else {
            return Err("TPC-C audit over a non-TPC-C stream".into());
        };
        want += gen.orders_live();
        let cursor = read(tpcc::tables::DELIVERY, *stripe).unwrap_or(u64::MAX);
        if cursor != gen.orders_delivered() {
            return Err(format!(
                "stripe {stripe}: delivery cursor {cursor}, stream delivered {}",
                gen.orders_delivered()
            ));
        }
    }
    if live != want {
        return Err(format!("{live} live orders, streams left {want}"));
    }
    Ok(())
}

fn audit_ycsb<E: BatchEngine>(
    cfg: &YcsbConfig,
    engine: &E,
    committed_writes: u64,
) -> Result<(), String> {
    let (mut rows, mut sum) = (0u64, 0u64);
    engine.snapshot_records(&mut |_, data| {
        rows += 1;
        sum = sum.wrapping_add(bohm_common::value::get_u64(data, 0));
    });
    let n = cfg.records;
    let want = (n * (n - 1) / 2).wrapping_add(10 * committed_writes);
    if rows != n {
        return Err(format!("{rows} rows present, {n} seeded"));
    }
    if sum != want {
        return Err(format!(
            "record sum {sum}, want seeded {} + 10 x {committed_writes} committed 10RMW",
            n * (n - 1) / 2
        ));
    }
    Ok(())
}

/// Order-independent digest of every present record: `(records, sum of
/// per-record hashes)`. The engine must be quiescent.
pub fn digest<E: BatchEngine>(engine: &E) -> (u64, u64) {
    let (mut n, mut sum) = (0u64, 0u64);
    engine.snapshot_records(&mut |rid, data| {
        let mut h = std::hash::DefaultHasher::new();
        (rid.table.index(), rid.row, data).hash(&mut h);
        n += 1;
        sum = sum.wrapping_add(h.finish());
    });
    (n, sum)
}

/// Drive `count` transactions of `stream` through one session and return
/// the committed writing transactions (a small synchronous run for tests).
#[cfg(test)]
fn drive<E: BatchEngine>(engine: &E, stream: &mut Stream, count: usize) -> u64 {
    use bohm_common::engine::Session;
    let mut s = engine.open_session();
    let mut writes = Vec::new();
    let mut committed_writes = 0;
    for _ in 0..count {
        let (t, w) = stream.next();
        s.submit(t);
        writes.push(w);
    }
    for w in writes {
        if s.reap().committed && w {
            committed_writes += 1;
        }
    }
    engine.quiesce();
    committed_writes
}

#[cfg(test)]
mod tests {
    use super::*;
    use bohm_bench::engines::EngineKind;
    use bohm_common::engine::Session;
    use bohm_common::Procedure;

    fn small_tpcc() -> Workload {
        let mut cfg = tpcc(1);
        cfg.order_capacity = 1 << 12;
        Workload {
            name: "tpcc-test",
            load: Load::Tpcc(cfg),
            open_rate: None,
            latency_limit: Duration::MAX,
            wal: false,
            setup_reps: 1,
        }
    }

    fn small_ycsb() -> Workload {
        Workload {
            name: "ycsb-test",
            load: Load::Ycsb(YcsbConfig {
                records: 5_000,
                record_size: 100,
                theta: 0.0,
                read_only_len: 200,
                read_only_fraction: 0.05,
            }),
            open_rate: None,
            latency_limit: Duration::MAX,
            wal: false,
            setup_reps: 1,
        }
    }

    #[test]
    fn every_name_builds_a_valid_workload() {
        for n in NAMES {
            let w = Workload::by_name(n).unwrap();
            assert_eq!(w.name, n);
            w.spec();
        }
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn tpcc_audit_passes_and_catches_an_unaccounted_insert() {
        let w = small_tpcc();
        let Load::Tpcc(cfg) = &w.load else {
            unreachable!()
        };
        for kind in [EngineKind::Bohm, EngineKind::Tpl] {
            let engine = kind.build(&w.spec(), 2);
            let mut streams = vec![w.stream(1, 0), w.stream(1, 1)];
            for s in &mut streams {
                drive(&engine, s, 3_000);
            }
            audit(&w, &engine, &streams, 0).unwrap();
            // An order the streams do not know about: the live-order
            // count no longer matches.
            let stray = tpcc::new_order(cfg, 0, 0, 0, cfg.order_capacity - 1, 1);
            let mut s = engine.open_session();
            s.submit(stray);
            assert!(s.reap().committed);
            drop(s);
            engine.quiesce();
            let err = audit(&w, &engine, &streams, 0).unwrap_err();
            assert!(err.contains("live orders"), "{}: {err}", kind.name());
            engine.shutdown();
        }
    }

    #[test]
    fn ycsb_audit_passes_and_catches_an_unaccounted_write() {
        let w = small_ycsb();
        for kind in [EngineKind::Bohm, EngineKind::Hekaton] {
            let engine = kind.build(&w.spec(), 2);
            let mut stream = w.stream(3, 0);
            let committed = drive(&engine, &mut stream, 2_000);
            audit(&w, &engine, &[], committed).unwrap();
            let rid = RecordId::new(0, 17);
            let mut s = engine.open_session();
            s.submit(Txn::new(
                vec![rid],
                vec![rid],
                Procedure::ReadModifyWrite { delta: 1 },
            ));
            assert!(s.reap().committed);
            drop(s);
            engine.quiesce();
            let err = audit(&w, &engine, &[], committed).unwrap_err();
            assert!(err.contains("record sum"), "{}: {err}", kind.name());
            engine.shutdown();
        }
    }

    #[test]
    fn digest_is_order_independent_and_sees_one_write() {
        let w = small_ycsb();
        let a = EngineKind::Bohm.build(&w.spec(), 2);
        let b = EngineKind::Occ.build(&w.spec(), 2);
        assert_eq!(digest(&a), digest(&b));
        let rid = RecordId::new(0, 3);
        let mut s = b.open_session();
        s.submit(Txn::new(
            vec![rid],
            vec![rid],
            Procedure::ReadModifyWrite { delta: 1 },
        ));
        s.reap();
        drop(s);
        assert_ne!(digest(&a), digest(&b));
        a.shutdown();
        b.shutdown();
    }
}
