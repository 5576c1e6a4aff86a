//! The repo benchmark: one command per workload.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpcc-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each engine the workload runs is measured in a child process of its
//! own (this same binary with `--child <engine>`), so peak RSS and
//! process CPU time belong to that engine alone. The parent sums the
//! children's figures into the workload's metrics, prints every metric by
//! name with its unit, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` adds a traced
//! phase to every child and reports the per-layer metrics (see
//! `perfbench/README.md`).
//!
//! Engines are driven only through their public API; per-layer CPU is
//! attributed by thread name from outside the engine ([`cpu`]).

mod child;
mod cpu;
mod driver;
mod stats;
mod trace;
mod workload;

use bohm_bench::engines::EngineKind;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use workload::Workload;

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("bohm.tps", "txn/s"),
    ("bohm.cpu_us_per_txn", "us"),
    ("bohm.mem_mib", "MiB"),
    ("bohm.lat_p50_ms", "ms"),
    ("bohm.lat_p90_ms", "ms"),
    ("tpl.tps", "txn/s"),
    ("occ.tps", "txn/s"),
    ("si.tps", "txn/s"),
    ("hekaton.tps", "txn/s"),
];

/// Per-layer metrics, reported with `--trace 1`. Most are BOHM's, read
/// from its child's traced windows.
const PER_LAYER: [(&str, &str); 36] = [
    ("driver.cpu_us_per_txn", "us"),
    ("driver.submit_us_per_txn", "us"),
    ("driver.reap_wait_us_per_txn", "us"),
    ("driver.late_mean_ms", "ms"),
    ("driver.late_max_ms", "ms"),
    ("seq.cpu_us_per_txn", "us"),
    ("seq.txns_per_batch", "txn"),
    ("cc.cpu_us_per_txn", "us"),
    ("cc.busy_us_per_txn", "us"),
    ("cc.busy_ratio", "ratio"),
    ("gc.versions_per_txn", "count"),
    ("gc.keys_retired", "count"),
    ("index.keys_delta", "count"),
    ("exec.cpu_us_per_txn", "us"),
    ("exec.busy_us_per_txn", "us"),
    ("exec.busy_ratio", "ratio"),
    ("wal.bytes_per_txn", "bytes"),
    ("wal.txns_per_append", "txn"),
    ("wal.recover_s", "s"),
    ("host.fdatasync_us", "us"),
    ("tpl.cpu_us_per_txn", "us"),
    ("occ.cpu_us_per_txn", "us"),
    ("si.cpu_us_per_txn", "us"),
    ("hekaton.cpu_us_per_txn", "us"),
    ("occ.retries_per_commit", "count"),
    ("si.retries_per_commit", "count"),
    ("hekaton.retries_per_commit", "count"),
    ("unattributed.cpu_us_per_txn", "us"),
    ("bohm.lat_p99_ms", "ms"),
    ("bohm.lat_samples", "count"),
    ("bohm.tps_traced", "txn/s"),
    ("trace.overhead_pct", "%"),
    ("tpl.tps_traced", "txn/s"),
    ("occ.tps_traced", "txn/s"),
    ("si.tps_traced", "txn/s"),
    ("hekaton.tps_traced", "txn/s"),
];

/// The whole run must end within this (the contract allows 180 s).
const RUN_DEADLINE: Duration = Duration::from_secs(170);
/// Unmeasured time a resumed engine gets to refill its pipeline before
/// each window.
const REWARM_S: f64 = 0.1;
/// Warm-up of each engine before its first window: caches fill and lazy
/// set-up finishes outside the measurement.
fn warmup_s(kind: EngineKind) -> f64 {
    if kind == EngineKind::Bohm {
        1.0
    } else {
        0.3
    }
}

const ENGINES: [(&str, EngineKind); 5] = [
    ("bohm", EngineKind::Bohm),
    ("tpl", EngineKind::Tpl),
    ("occ", EngineKind::Occ),
    ("si", EngineKind::Si),
    ("hekaton", EngineKind::Hekaton),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child mode: measure this engine only.
    child: Option<(&'static str, EngineKind)>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let take = |k: &str| flags.get(k).cloned();
    for k in flags.keys() {
        if !["workload", "seed", "seconds", "trace", "child"].contains(&k.as_str()) {
            return Err(format!("unknown flag --{k}"));
        }
    }
    let name = take("workload").ok_or("--workload is required")?;
    let workload = Workload::by_name(&name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; choose one of {}",
            workload::NAMES.join(", ")
        )
    })?;
    let seed = take("seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")
        .unwrap_or_else(|| "10".into())
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match take("trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    let child = match take("child") {
        None => None,
        Some(e) => Some(
            *ENGINES
                .iter()
                .find(|(n, _)| *n == e)
                .ok_or_else(|| format!("unknown engine {e:?}"))?,
        ),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        child,
    })
}

/// Scratch space for logs and traces, inside the benchmark's directory.
fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// Share of `--seconds` one engine's measurement windows take: BOHM, the
/// paper's engine, gets the larger share.
fn share(w: &Workload, engine: EngineKind) -> f64 {
    match (w.open_rate.is_some(), engine) {
        (false, EngineKind::Bohm) => 0.5,
        (false, _) => 0.125,
        (true, EngineKind::Bohm) => 0.4,
        (true, _) => 0.15,
    }
}

fn run_child(args: &Args, name: &'static str, kind: EngineKind) -> ExitCode {
    let plan = child::Plan {
        workload: args.workload.clone(),
        engine: kind,
        seed: args.seed,
        setup_reps: args.workload.setup_reps,
        trace: args.trace,
        work: work_root().join(format!("{}-{name}", args.workload.name)),
    };
    child::run(&plan).print();
    ExitCode::SUCCESS
}

/// What one child reported.
#[derive(Default)]
struct ChildResult {
    values: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    /// Why the child's figures cannot be trusted, if they cannot.
    error: Option<String>,
}

/// A running child: commands go to its stdin, its stdout lines arrive on
/// `lines` (read by a helper thread, so the parent can time out).
struct Child {
    name: &'static str,
    kind: EngineKind,
    proc: std::process::Child,
    stdin: Option<std::process::ChildStdin>,
    lines: mpsc::Receiver<String>,
    result: ChildResult,
}

impl Child {
    fn spawn(args: &Args, name: &'static str, kind: EngineKind) -> std::io::Result<Self> {
        let mut proc = Command::new(std::env::current_exe()?)
            .args(["--child", name, "--workload", args.workload.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = proc.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Self {
            name,
            kind,
            stdin: proc.stdin.take(),
            proc,
            lines,
            result: ChildResult::default(),
        })
    }

    fn ok(&self) -> bool {
        self.result.error.is_none()
    }

    fn fail(&mut self, why: String) {
        if self.result.error.is_none() {
            self.result.error = Some(why);
        }
        let _ = self.proc.kill();
        let _ = self.proc.wait();
    }

    /// Wait for the line `word`; fails the child on anything else.
    fn expect(&mut self, word: &str, deadline: Instant) {
        let left = deadline.saturating_duration_since(Instant::now());
        match self.lines.recv_timeout(left) {
            Ok(l) if l == word => {}
            Ok(l) => self.fail(format!("expected {word:?}, got {l:?}")),
            Err(e) => self.fail(format!("no {word:?}: {e}")),
        }
    }

    fn send(&mut self, cmd: &str) -> bool {
        let sent = self
            .stdin
            .as_mut()
            .is_some_and(|w| writeln!(w, "{cmd}").and_then(|()| w.flush()).is_ok());
        if !sent {
            self.fail(format!("cannot send {cmd:?}"));
        }
        sent
    }

    /// One measurement window of `len` seconds (window 0 is the warm-up).
    fn window(&mut self, k: usize, len: f64, deadline: Instant) {
        if self.ok() && self.send(&format!("run {k} {len} {REWARM_S}")) {
            self.expect("done", deadline);
        }
    }

    /// Stop the child's drivers and collect its report.
    fn finish(&mut self, deadline: Instant) {
        if self.ok() {
            self.send("finish");
        }
        self.stdin = None;
        let mut out = String::new();
        while let Ok(line) = self
            .lines
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
        {
            out.push_str(&line);
            out.push('\n');
        }
        let status = loop {
            match self.proc.try_wait() {
                Ok(Some(st)) => break Some(st),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => break None,
            }
        };
        let error = self.result.error.take();
        self.result = parse_child(&out);
        match (error, status) {
            (Some(e), _) => self.fail(e),
            (None, Some(st)) if st.success() => {}
            (None, Some(st)) => self.result.error = Some(format!("exited with {st}")),
            (None, None) => self.fail("did not exit in time".into()),
        }
    }
}

fn parse_child(out: &str) -> ChildResult {
    let mut r = ChildResult::default();
    let mut audited = false;
    for line in out.lines() {
        let mut parts = line.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("value"), Some(k), Some(v)) => {
                if let Ok(v) = v.parse() {
                    r.values.insert(k.to_string(), v);
                }
            }
            (Some("attempted"), Some(n), None) => r.attempted = n.parse().unwrap_or(0),
            (Some("failed"), Some(n), None) => r.failed = n.parse().unwrap_or(0),
            (Some("audit"), Some("ok"), None) => audited = true,
            (Some("audit"), Some("fail"), msg) => {
                r.error = Some(format!("audit failed: {}", msg.unwrap_or("")));
                audited = true;
            }
            _ => {}
        }
    }
    if !audited && r.error.is_none() {
        r.error = Some("no audit result".into());
    }
    r
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((name, kind)) = args.child {
        return run_child(&args, name, kind);
    }
    let start = Instant::now();
    let deadline = start + RUN_DEADLINE;
    let w = &args.workload;
    let fdatasync = match cpu::fdatasync_us(&work_root(), 200) {
        Ok(us) => us,
        Err(e) => {
            eprintln!("perfbench: cannot write the work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} on {} CPUs; fdatasync {fdatasync:.1} us",
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Set every engine up, one at a time, then hand out the windows in
    // rounds: each engine's windows spread over the whole run.
    let mut children: Vec<Child> = Vec::new();
    for (name, kind) in ENGINES {
        match Child::spawn(&args, name, kind) {
            Ok(mut c) => {
                c.expect("ready", deadline);
                children.push(c);
            }
            Err(e) => {
                correct = false;
                failed += 1;
                attempted += 1;
                eprintln!("  {name}: cannot start: {e}");
            }
        }
    }
    let len = |c: &Child| args.seconds * share(w, c.kind) / driver::WINDOWS as f64;
    eprintln!("  set up in {:.1} s", start.elapsed().as_secs_f64());
    for c in &mut children {
        c.window(0, warmup_s(c.kind), deadline);
    }
    // Traced rounds alternate with untraced ones, so host drift during
    // the run does not bias the tracing overhead.
    let rounds: Vec<usize> = if args.trace {
        (1..=driver::WINDOWS)
            .flat_map(|k| [k, driver::WINDOWS + k])
            .collect()
    } else {
        (1..=driver::WINDOWS).collect()
    };
    for k in rounds {
        for c in &mut children {
            let l = len(c);
            c.window(k, l, deadline);
        }
    }
    eprintln!("  measured by {:.1} s", start.elapsed().as_secs_f64());
    let mut per_engine: BTreeMap<&str, ChildResult> = BTreeMap::new();
    for mut c in children {
        eprintln!("  {}:", c.name);
        c.finish(deadline);
        let r = c.result;
        if let Some(e) = &r.error {
            eprintln!("  {}: {e}", c.name);
            correct = false;
            // A child that reported nothing still attempted its run.
            failed += r.attempted.max(1);
        } else {
            failed += r.failed;
        }
        attempted += r.attempted.max(1);
        per_engine.insert(c.name, r);
    }
    let get = |engine: &str, key: &str| -> Option<f64> {
        per_engine
            .get(engine)
            .and_then(|r| r.values.get(key).copied())
    };
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let v = match name {
                "host.fdatasync_us" => Some(fdatasync),
                "bohm.lat_samples" => get("bohm", "measure.lat_samples"),
                "bohm.lat_p99_ms" => get("bohm", "measure.lat_p99_ms"),
                "trace.overhead_pct" => get("bohm", "traced.tps")
                    .zip(get("bohm", "measure.tps"))
                    .map(|(t, m)| 100.0 * (1.0 - t / m)),
                "wal.recover_s" => get("bohm", name).or(Some(0.0)),
                _ => match name.split_once('.') {
                    Some((e, "tps_traced")) => get(e, "traced.tps"),
                    Some((e @ ("tpl" | "occ" | "si" | "hekaton"), rest)) => {
                        get(e, &format!("traced.{rest}"))
                    }
                    // Open-loop and WAL figures do not exist on the other
                    // workloads: zero there.
                    _ => get("bohm", &format!("traced.{name}")).or(Some(0.0)),
                },
            };
            metrics.push((name, unit, v.unwrap_or(f64::NAN)));
        }
    } else {
        let setup: Option<f64> = ENGINES
            .iter()
            .map(|(e, _)| get(e, "setup_s"))
            .sum::<Option<f64>>();
        for (name, unit) in END_TO_END {
            let v = match name {
                "setup_s" => setup,
                "bohm.mem_mib" => get("bohm", "mem_mib"),
                _ => {
                    let (e, m) = name.split_once('.').expect("engine.metric");
                    get(e, &format!("measure.{m}"))
                }
            };
            metrics.push((name, unit, v.unwrap_or(f64::NAN)));
        }
    }
    for (name, _, v) in &mut metrics {
        if !v.is_finite() {
            eprintln!("perfbench: metric {name} is missing or not finite");
            correct = false;
            *v = 0.0;
        }
    }
    println!("workload {} (seed {})", w.name, args.seed);
    for (name, r) in &per_engine {
        println!(
            "  {name:>8}: attempted {}, failed {}, audit {}",
            r.attempted,
            r.failed,
            r.error.as_deref().unwrap_or("ok")
        );
    }
    for (name, unit, v) in &metrics {
        println!("  {name:<32} {v:>16.4} {unit}");
    }
    if !args.trace {
        println!(
            "  bohm latency samples: {}",
            get("bohm", "measure.lat_samples").unwrap_or(0.0)
        );
    }
    println!("  wall time {:.1} s", start.elapsed().as_secs_f64());
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    ExitCode::SUCCESS
}
