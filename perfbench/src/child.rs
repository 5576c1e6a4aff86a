//! One engine on one workload, in a process of its own.
//!
//! The child builds its engine, starts its drivers paused and prints
//! `ready`. The parent then hands out windows, one engine at a time,
//! through stdin: `run <window> <seconds> <rewarm seconds>` resumes the
//! drivers, lets the pipeline refill for the rewarm time, measures one
//! window, pauses and drains the drivers, and prints `done`. Interleaving
//! the engines' windows this way spreads every engine's measurement over
//! the whole run, so a slow spell of the host does not land on one engine
//! only. `finish` stops the drivers; the child then audits the engine's
//! final state and prints its raw figures as `value <key> <number>`
//! lines for the parent to assemble.
//!
//! Each engine runs in its own process so that its peak RSS, process CPU
//! time and allocator state are its own.

use crate::cpu::{self, CpuSnapshot};
use crate::driver::{self, Control, Counters, DriverOut, Totals, WINDOWS};
use crate::stats::{median, Histogram};
use crate::trace::{self, Tracer};
use crate::workload::{self, Stream, Workload, CLOSED_LOOP_SESSIONS};
use bohm::{Bohm, BohmConfig, CatalogSpec};
use bohm_bench::engines::{self, AnyEngine, EngineKind};
use bohm_bench::DriverConfig;
use bohm_common::engine::BatchEngine;
use bohm_common::wal::DurabilityConfig;
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Interval of the extra snapshots taken inside traced windows.
const TRACE_SNAPSHOT_EVERY: Duration = Duration::from_millis(100);
/// Longest wait for paused drivers to drain.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

pub struct Plan {
    pub workload: Workload,
    pub engine: EngineKind,
    pub seed: u64,
    pub setup_reps: usize,
    pub trace: bool,
    /// Scratch directory of this child (WAL, trace output).
    pub work: PathBuf,
}

/// Raw results, printed as `key value` lines.
pub struct Report {
    pub values: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub audit: Result<(), String>,
}

impl Default for Report {
    fn default() -> Self {
        Self {
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            audit: Ok(()),
        }
    }
}

impl Report {
    fn set(&mut self, key: impl Into<String>, v: f64) {
        self.values.insert(key.into(), v);
    }

    pub fn print(&self) {
        for (k, v) in &self.values {
            println!("value {k} {v}");
        }
        println!("attempted {}", self.attempted);
        println!("failed {}", self.failed);
        match &self.audit {
            Ok(()) => println!("audit ok"),
            Err(e) => println!("audit fail {e}"),
        }
    }
}

/// BOHM's pipeline counters, read through its public accessors.
#[derive(Clone, Copy, Debug, Default)]
struct EngineStats {
    cc_busy_ns: u64,
    exec_busy_ns: u64,
    gc_retired: u64,
    keys_retired: u64,
    index_keys: u64,
    /// Batches fully executed, counted from `gc_bound` strides.
    batches: u64,
    log_bytes: u64,
    wal_batches: u64,
}

/// Batches finished once the GC bound reads `gc_bound`: batch `b` owns
/// timestamps `1 + b·batch_size ..`, so the bound's stride index is the
/// last finished batch.
fn batches_below(gc_bound: u64, batch_size: u64) -> u64 {
    if gc_bound == 0 {
        0
    } else {
        (gc_bound - 1) / batch_size + 1
    }
}

fn bohm_stats(b: &Bohm, batch_size: u64) -> EngineStats {
    let (cc, exec) = b.busy_times();
    EngineStats {
        cc_busy_ns: cc.as_nanos() as u64,
        exec_busy_ns: exec.as_nanos() as u64,
        gc_retired: b.gc_retired(),
        keys_retired: b.keys_retired(),
        index_keys: b.index_keys() as u64,
        batches: batches_below(b.gc_bound(), batch_size),
        log_bytes: b.log_bytes(),
        wal_batches: b.wal().map_or(0, |w| w.batches_logged()),
    }
}

#[derive(Clone)]
struct Snap {
    wall: Instant,
    cpu: CpuSnapshot,
    drv: Totals,
    eng: EngineStats,
}

/// Window measurement shared by the closed and open loops.
struct Sampler<'a> {
    tracked: Vec<(u32, &'static str)>,
    counters: &'a [Counters],
    engine: &'a dyn Fn() -> EngineStats,
    origin: Instant,
    /// Snapshot lines for the trace file.
    lines: Vec<String>,
    measured: Vec<(Snap, Snap)>,
    traced: Vec<(Snap, Snap)>,
}

impl<'a> Sampler<'a> {
    fn new(counters: &'a [Counters], engine: &'a dyn Fn() -> EngineStats, origin: Instant) -> Self {
        Self {
            tracked: Vec::new(),
            counters,
            engine,
            origin,
            lines: Vec::new(),
            measured: Vec::new(),
            traced: Vec::new(),
        }
    }
}

impl Sampler<'_> {
    fn snap(&self) -> Snap {
        Snap {
            wall: Instant::now(),
            cpu: CpuSnapshot::take(&self.tracked),
            drv: Counters::totals(self.counters),
            eng: (self.engine)(),
        }
    }

    fn log(&mut self, phase: &str, s: &Snap) {
        let layers: Vec<String> = ["driver", "seq", "cc", "exec"]
            .iter()
            .map(|l| {
                let ns: u64 = s
                    .cpu
                    .threads
                    .iter()
                    .filter(|t| t.1 == *l)
                    .map(|t| t.2)
                    .sum();
                format!("\"{l}_cpu_ns\":{ns}")
            })
            .collect();
        self.lines.push(format!(
            "{{\"snapshot\":\"{phase}\",\"t_ns\":{},\"process_cpu_ns\":{},{},\"committed\":{},\"cc_busy_ns\":{},\"exec_busy_ns\":{},\"gc_retired\":{},\"batches\":{},\"log_bytes\":{}}}",
            s.wall.saturating_duration_since(self.origin).as_nanos(),
            s.cpu.process_ns,
            layers.join(","),
            s.drv.committed,
            s.eng.cc_busy_ns,
            s.eng.exec_busy_ns,
            s.eng.gc_retired,
            s.eng.batches,
            s.eng.log_bytes
        ));
    }

    /// Measure window `k` (0 = warm-up, not kept) of `len` after
    /// `rewarm`, then pause and drain the drivers. A traced window also
    /// snapshots every [`TRACE_SNAPSHOT_EVERY`] inside it.
    fn window(&mut self, ctl: &Control, k: usize, len: Duration, rewarm: Duration) {
        ctl.set_window(0);
        ctl.set_paused(false);
        std::thread::sleep(rewarm);
        if self.tracked.is_empty() {
            self.tracked = cpu::layer_threads();
        }
        let name = if driver::traced(k) {
            "traced"
        } else {
            "measure"
        };
        ctl.set_window(k);
        let a = self.snap();
        self.log(name, &a);
        let end = a.wall + len;
        while driver::traced(k) && Instant::now() + TRACE_SNAPSHOT_EVERY < end {
            std::thread::sleep(TRACE_SNAPSHOT_EVERY);
            let s = self.snap();
            self.log("inside", &s);
        }
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
        let b = self.snap();
        ctl.set_window(0);
        ctl.set_paused(true);
        self.log(name, &b);
        // Quiet before the next engine's window: every submitted
        // transaction has its decision.
        let drained_by = Instant::now() + DRAIN_LIMIT;
        loop {
            let t = Counters::totals(self.counters);
            if t.decided >= t.attempted || Instant::now() > drained_by {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        match k {
            0 => {}
            k if driver::traced(k) => self.traced.push((a, b)),
            _ => self.measured.push((a, b)),
        }
    }

    /// Serve `run`/`finish` commands from the parent until `finish` (or
    /// end of input).
    fn serve(&mut self, ctl: &Control) {
        println!("ready");
        let _ = std::io::stdout().flush();
        for line in std::io::stdin().lock().lines() {
            let Ok(line) = line else { break };
            let words: Vec<&str> = line.split_whitespace().collect();
            match words.as_slice() {
                ["run", k, len, rewarm] => {
                    let secs = |s: &str| Duration::from_secs_f64(s.parse().unwrap_or(0.0));
                    let k = k.parse().unwrap_or(0).min(driver::SLOTS - 1);
                    self.window(ctl, k, secs(len), secs(rewarm));
                    println!("done");
                    let _ = std::io::stdout().flush();
                }
                _ => break,
            }
        }
    }
}

/// Per-window figures; `cc`/`exec` are BOHM's thread counts (0 for the
/// baselines).
fn window_metrics(a: &Snap, b: &Snap, cc: usize, exec: usize) -> BTreeMap<&'static str, f64> {
    let dt_ns = (b.wall - a.wall).as_nanos() as f64;
    let committed = (b.drv.committed - a.drv.committed) as f64;
    let per_txn_us = |ns: u64| ns as f64 / committed / 1e3;
    let proc_ns = b.cpu.process_ns - a.cpu.process_ns;
    let tracked = b.cpu.tracked_delta(&a.cpu);
    let mut m = BTreeMap::new();
    m.insert("tps", committed / dt_ns * 1e9);
    m.insert("cpu_us_per_txn", per_txn_us(proc_ns));
    for (name, layer) in [
        ("driver.cpu_us_per_txn", "driver"),
        ("seq.cpu_us_per_txn", "seq"),
        ("cc.cpu_us_per_txn", "cc"),
        ("exec.cpu_us_per_txn", "exec"),
    ] {
        m.insert(name, per_txn_us(b.cpu.layer_delta(&a.cpu, layer)));
    }
    m.insert(
        "unattributed.cpu_us_per_txn",
        per_txn_us(proc_ns.saturating_sub(tracked)),
    );
    m.insert(
        "driver.submit_us_per_txn",
        per_txn_us(b.drv.submit_ns - a.drv.submit_ns),
    );
    m.insert(
        "driver.reap_wait_us_per_txn",
        per_txn_us(b.drv.reap_ns - a.drv.reap_ns),
    );
    m.insert(
        "retries_per_commit",
        (b.drv.cc_retries - a.drv.cc_retries) as f64 / committed,
    );
    if cc > 0 {
        let cc_busy = b.eng.cc_busy_ns - a.eng.cc_busy_ns;
        let exec_busy = b.eng.exec_busy_ns - a.eng.exec_busy_ns;
        m.insert("cc.busy_us_per_txn", per_txn_us(cc_busy));
        m.insert("cc.busy_ratio", cc_busy as f64 / (dt_ns * cc as f64));
        m.insert("exec.busy_us_per_txn", per_txn_us(exec_busy));
        m.insert("exec.busy_ratio", exec_busy as f64 / (dt_ns * exec as f64));
        m.insert(
            "gc.versions_per_txn",
            (b.eng.gc_retired - a.eng.gc_retired) as f64 / committed,
        );
        m.insert(
            "wal.bytes_per_txn",
            (b.eng.log_bytes - a.eng.log_bytes) as f64 / committed,
        );
    }
    m
}

/// Median over windows of every per-window figure, stored as
/// `<prefix>.<name>`; plus counts summed over the windows.
fn report_windows(r: &mut Report, prefix: &str, w: &[(Snap, Snap)], cc: usize, exec: usize) {
    let mut per: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (a, b) in w {
        for (k, v) in window_metrics(a, b, cc, exec) {
            per.entry(k).or_default().push(v);
        }
    }
    for (k, mut vs) in per {
        eprintln!(
            "    {prefix}.{k}: {}",
            vs.iter()
                .map(|v| format!("{v:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        r.set(format!("{prefix}.{k}"), median(&mut vs));
    }
    // Batch ratios pool the windows: a window holds only a few batches.
    let sum = |f: fn(&Snap) -> u64| -> f64 { w.iter().map(|(a, b)| (f(b) - f(a)) as f64).sum() };
    let committed = sum(|s| s.drv.committed);
    for (key, batches) in [
        ("seq.txns_per_batch", sum(|s| s.eng.batches)),
        ("wal.txns_per_append", sum(|s| s.eng.wal_batches)),
    ] {
        if batches > 0.0 {
            r.set(format!("{prefix}.{key}"), committed / batches);
        }
    }
    let keys_retired: u64 = w
        .iter()
        .map(|(a, b)| b.eng.keys_retired - a.eng.keys_retired)
        .sum();
    let keys_delta: f64 = w
        .iter()
        .map(|(a, b)| b.eng.index_keys as f64 - a.eng.index_keys as f64)
        .sum();
    r.set(format!("{prefix}.gc.keys_retired"), keys_retired as f64);
    r.set(format!("{prefix}.index.keys_delta"), keys_delta);
}

/// Latency percentiles of each window (all drivers merged), reported as
/// medians over the phase's windows, plus the phase's sample count.
fn report_latency(r: &mut Report, outs: &[&DriverOut]) {
    for (prefix, base) in [("measure", 0), ("traced", WINDOWS)] {
        let (mut p50, mut p90, mut p99, mut samples) = (Vec::new(), Vec::new(), Vec::new(), 0);
        for w in base + 1..=base + WINDOWS {
            let mut h = Histogram::default();
            for o in outs {
                h.merge(&o.latency[w]);
            }
            if h.count() > 0 {
                p50.push(h.quantile_ns(0.50) / 1e6);
                p90.push(h.quantile_ns(0.90) / 1e6);
                p99.push(h.quantile_ns(0.99) / 1e6);
                samples += h.count();
            }
        }
        if !p50.is_empty() {
            let show = |v: &[f64]| {
                v.iter()
                    .map(|x| format!("{x:.4}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            eprintln!("    {prefix}.lat_p50_ms: {}", show(&p50));
            eprintln!("    {prefix}.lat_p90_ms: {}", show(&p90));
            eprintln!("    {prefix}.lat_p99_ms: {}", show(&p99));
        }
        r.set(format!("{prefix}.lat_p50_ms"), median(&mut p50));
        r.set(format!("{prefix}.lat_p90_ms"), median(&mut p90));
        r.set(format!("{prefix}.lat_p99_ms"), median(&mut p99));
        r.set(format!("{prefix}.lat_samples"), samples as f64);
    }
}

/// Build the engine `reps` times (each replacing the last, which is torn
/// down outside the timing) and keep the final one; reports the median.
fn setup<E>(
    r: &mut Report,
    tracer: &mut Tracer,
    reps: usize,
    build: &dyn Fn(usize) -> E,
    teardown: &dyn Fn(E),
) -> E {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        if let Some(e) = last.take() {
            teardown(e);
        }
        let t = Instant::now();
        let e = build(rep);
        let end = Instant::now();
        tracer.record("build", t, end, 0, 0);
        times.push((end - t).as_secs_f64());
        last = Some(e);
    }
    r.set("setup_s", median(&mut times));
    last.expect("at least one setup repetition")
}

fn fresh_dir(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create scratch directory");
    dir.to_path_buf()
}

fn wal_dir(plan: &Plan, rep: usize) -> PathBuf {
    fresh_dir(&plan.work.join(format!("wal-{rep}")))
}

fn wal_config(dir: PathBuf) -> DurabilityConfig {
    DurabilityConfig {
        fsync: workload::WAL_FSYNC,
        segment_bytes: workload::WAL_SEGMENT_BYTES,
        ..DurabilityConfig::new(dir)
    }
}

fn logged_bohm_config(spec: &bohm_workloads::DatabaseSpec, dir: PathBuf) -> BohmConfig {
    let (cc, exec) = engines::bohm_split(2);
    let mut cfg = BohmConfig::with_threads(cc, exec);
    cfg.index_capacity = (spec.total_capacity() as usize).next_power_of_two();
    cfg.durability = Some(wal_config(dir));
    cfg
}

fn catalog(spec: &bohm_workloads::DatabaseSpec) -> CatalogSpec {
    spec.tables.iter().fold(CatalogSpec::new(), |c, t| {
        c.table(t.rows, t.record_size, t.seed)
    })
}

/// Run the plan and return its report.
pub fn run(plan: &Plan) -> Report {
    fresh_dir(&plan.work);
    let spec = plan.workload.spec();
    let kind = plan.engine;
    let mut report = Report::default();
    let origin = Instant::now();
    let mut tracer = Tracer::new(plan.trace, origin, "main", 0);
    match (kind, plan.workload.wal) {
        (EngineKind::Bohm, true) => {
            let engine = setup(
                &mut report,
                &mut tracer,
                plan.setup_reps,
                &|rep| {
                    engines::build_bohm_with(&spec, logged_bohm_config(&spec, wal_dir(plan, rep)))
                },
                &|e: Bohm| e.shutdown(),
            );
            open_loop_bohm(plan, &mut report, &mut tracer, engine, origin);
        }
        // Every other engine runs memory-only in a closed loop; the
        // baselines do so on the logging workload too, as their logging
        // path (`DurableEngine`) executes and logs each transaction under
        // one commit lock, which measures the disk more than the engine.
        _ => {
            let engine = setup(
                &mut report,
                &mut tracer,
                plan.setup_reps,
                &|_| kind.build(&spec, 2),
                &|e: AnyEngine| e.shutdown(),
            );
            let bs = BohmConfig::default().batch_size as u64;
            let stats = |e: &AnyEngine| {
                e.as_bohm()
                    .map_or_else(EngineStats::default, |b| bohm_stats(b, bs))
            };
            let threads = if kind == EngineKind::Bohm {
                engines::bohm_split(2)
            } else {
                (0, 0)
            };
            closed_loop(
                plan,
                &mut report,
                &mut tracer,
                engine,
                &stats,
                threads,
                origin,
                AnyEngine::shutdown,
            );
        }
    }
    // Drop the logs now: left behind, their dirty pages would be written
    // back to disk during the next run's windows.
    for e in std::fs::read_dir(&plan.work)
        .into_iter()
        .flatten()
        .flatten()
    {
        if e.file_name().to_string_lossy().starts_with("wal-") {
            let _ = std::fs::remove_dir_all(e.path());
        }
    }
    report
}

/// Closed loop on any engine: [`CLOSED_LOOP_SESSIONS`] driver threads.
#[allow(clippy::too_many_arguments)]
fn closed_loop<E: BatchEngine>(
    plan: &Plan,
    r: &mut Report,
    tracer: &mut Tracer,
    owned: E,
    stats: &dyn Fn(&E) -> EngineStats,
    (cc, exec): (usize, usize),
    origin: Instant,
    teardown: impl FnOnce(E),
) {
    let engine = &owned;
    let is_bohm = cc > 0;
    // BOHM keeps the harness's in-flight depth; the interactive engines
    // decide inside `submit`, so they reap right away.
    let depth = if is_bohm {
        DriverConfig::default().pipeline_depth
    } else {
        0
    };
    let ctl = Control::paused();
    let counters: Vec<Counters> = (0..CLOSED_LOOP_SESSIONS)
        .map(|_| Counters::default())
        .collect();
    let engine_stats = || stats(engine);
    let mut sampler = Sampler::new(&counters, &engine_stats, origin);
    let outs: Vec<(Stream, DriverOut)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLOSED_LOOP_SESSIONS)
            .map(|i| {
                let (ctl, c) = (&ctl, &counters[i]);
                let mut stream = plan.workload.stream(plan.seed, i);
                let name: &'static str = ["perf-drv-0", "perf-drv-1"][i];
                let mut out = DriverOut::new(Tracer::new(plan.trace, origin, name, i as u64 + 1));
                std::thread::Builder::new()
                    .name(name.into())
                    .spawn_scoped(s, move || {
                        driver::closed_loop(
                            engine,
                            ctl,
                            c,
                            depth,
                            is_bohm,
                            (i as u64 + 1) << 40,
                            &mut || stream.next(),
                            &mut out,
                        );
                        (stream, out)
                    })
                    .expect("spawn driver thread")
            })
            .collect();
        sampler.serve(&ctl);
        ctl.stop();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    let totals = Counters::totals(&counters);
    report_windows(r, "measure", &sampler.measured, cc, exec);
    report_windows(r, "traced", &sampler.traced, cc, exec);
    report_latency(r, &outs.iter().map(|(_, o)| o).collect::<Vec<_>>());
    let t = tracer.start();
    engine.quiesce();
    tracer.finish("quiesce", t, 0, 0);
    let (streams, outs): (Vec<Stream>, Vec<DriverOut>) = outs.into_iter().unzip();
    let t = tracer.start();
    let audit = workload::audit(&plan.workload, engine, &streams, totals.committed_writes);
    tracer.finish("audit", t, 0, 0);
    r.set("mem_mib", cpu::peak_rss_mib());
    conclude(r, totals, audit);
    let lines = sampler.lines;
    let t = tracer.start();
    teardown(owned);
    tracer.finish("shutdown", t, 0, 0);
    write_trace(plan, tracer, outs, lines);
}

fn conclude(r: &mut Report, totals: Totals, audit: Result<(), String>) {
    r.attempted = totals.attempted;
    r.failed = if audit.is_err() {
        totals.attempted
    } else {
        totals.attempted - totals.decided + totals.over_limit
    };
    r.audit = audit;
}

fn write_trace(plan: &Plan, tracer: &mut Tracer, outs: Vec<DriverOut>, lines: Vec<String>) {
    if !plan.trace {
        return;
    }
    let mut spans = std::mem::take(&mut tracer.spans);
    for o in outs {
        spans.extend(o.tracer.spans);
    }
    for (name, (count, total, own)) in trace::self_times(&spans) {
        eprintln!(
            "    span {name:>9}: {count:>6} spans, total {:>9.3} ms, self {:>9.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    if let Err(e) = trace::write(&plan.work.join("trace.jsonl"), &spans, &lines) {
        eprintln!("    trace not written: {e}");
    }
}

/// Open loop on logging BOHM: one submitter, one reaper; then the WAL
/// cross-checks and a recovery into a fresh engine.
fn open_loop_bohm(plan: &Plan, r: &mut Report, tracer: &mut Tracer, engine: Bohm, origin: Instant) {
    let rate = plan.workload.open_rate.expect("open-loop workload");
    let bs = BohmConfig::default().batch_size as u64;
    let (cc, exec) = engine.thread_counts();
    let ctl = Control::paused();
    let counters = [Counters::default(), Counters::default()];
    let engine_stats = || bohm_stats(&engine, bs);
    let mut sampler = Sampler::new(&counters, &engine_stats, origin);
    let limit = plan.workload.latency_limit;
    let ((stream, sub_out), reap_out) = std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        let (ctl, counters) = (&ctl, &counters);
        let session = engine.session();
        let mut stream = plan.workload.stream(plan.seed, 0);
        let mut sub_out = DriverOut::new(Tracer::new(plan.trace, origin, "perf-submit", 1));
        let submit = std::thread::Builder::new()
            .name("perf-submit".into())
            .spawn_scoped(s, move || {
                driver::submitter(
                    rate,
                    ctl,
                    &counters[0],
                    1 << 40,
                    &mut || stream.next(),
                    &mut |t| session.submit(t),
                    tx,
                    &mut sub_out,
                );
                (stream, sub_out)
            })
            .expect("spawn submitter");
        let mut reap_out = DriverOut::new(Tracer::new(plan.trace, origin, "perf-reap", 2));
        let reap = std::thread::Builder::new()
            .name("perf-reap".into())
            .spawn_scoped(s, move || {
                driver::reaper(
                    rx,
                    &|h: bohm::TxnHandle| h.wait().committed,
                    limit,
                    &counters[1],
                    &mut reap_out,
                    &mut |_, _| {},
                );
                reap_out
            })
            .expect("spawn reaper");
        sampler.serve(ctl);
        ctl.stop();
        let sub = submit.join().expect("submitter panicked");
        let reap = reap.join().expect("reaper panicked");
        (sub, reap)
    });
    let totals = Counters::totals(&counters);
    report_windows(r, "measure", &sampler.measured, cc, exec);
    report_windows(r, "traced", &sampler.traced, cc, exec);
    report_latency(r, &[&reap_out]);
    for (prefix, base) in [("measure", 0), ("traced", WINDOWS)] {
        let mut late = Histogram::default();
        for h in &sub_out.lateness[base + 1..=base + WINDOWS] {
            late.merge(h);
        }
        r.set(
            format!("{prefix}.driver.late_mean_ms"),
            late.mean_ns() / 1e6,
        );
        r.set(
            format!("{prefix}.driver.late_max_ms"),
            late.max_ns() as f64 / 1e6,
        );
    }

    let t = tracer.start();
    engine.quiesce();
    tracer.finish("quiesce", t, 0, 0);
    let t = tracer.start();
    let mut audit = workload::audit(&plan.workload, &engine, std::slice::from_ref(&stream), 0);
    // Every batch the pipeline finished was logged exactly once.
    let wal_batches = engine.wal().map_or(0, |w| w.batches_logged());
    let stride_batches = batches_below(engine.gc_bound(), bs);
    if audit.is_ok() && wal_batches != stride_batches {
        audit = Err(format!(
            "gc_bound strides count {stride_batches} batches, the WAL logged {wal_batches}"
        ));
    }
    let live = workload::digest(&engine);
    tracer.finish("audit", t, 0, 0);
    r.set("mem_mib", cpu::peak_rss_mib());
    let lines = std::mem::take(&mut sampler.lines);
    let dir = engine.wal().expect("a logging engine").dir().to_path_buf();
    let t = tracer.start();
    engine.shutdown();
    tracer.finish("shutdown", t, 0, 0);

    // Recover the log into a fresh engine; it must hold the same records.
    let spec = plan.workload.spec();
    let t = Instant::now();
    let recovered = Bohm::recover(logged_bohm_config(&spec, dir), catalog(&spec));
    let recover_end = Instant::now();
    tracer.record("recover", t, recover_end, 0, 0);
    match recovered {
        Ok((rec, _)) => {
            r.set("wal.recover_s", (recover_end - t).as_secs_f64());
            BatchEngine::quiesce(&rec);
            let got = workload::digest(&rec);
            if audit.is_ok() && got != live {
                audit = Err(format!(
                    "recovered state differs: {} records (digest {:x}) vs live {} ({:x})",
                    got.0, got.1, live.0, live.1
                ));
            }
            rec.shutdown();
        }
        Err(e) => audit = audit.and(Err(format!("recovery failed: {e}"))),
    }
    conclude(r, totals, audit);
    write_trace(plan, tracer, vec![sub_out, reap_out], lines);
}
