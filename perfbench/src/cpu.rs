//! CPU and memory attribution measured from outside the engine.
//!
//! Threads are found by name (`/proc/self/task/<tid>/comm`) and each one's
//! CPU time is read through its per-thread CPU clock, so the engines need
//! no instrumentation: BOHM already names its threads `bohm-seq`,
//! `bohm-cc-<i>` and `bohm-exec-<i>`, and the benchmark names its own.

use std::path::Path;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clk: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
#[cfg(test)]
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read_clock(clk: i32) -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, correctly laid out `struct timespec` (two
    // 64-bit fields on 64-bit Linux) that the call only writes into.
    let rc = unsafe { clock_gettime(clk, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// The kernel's per-thread CPU clock id for `tid`: `MAKE_THREAD_CPUCLOCK`
/// with `CPUCLOCK_SCHED` (2) and the per-thread flag (4).
fn thread_clock_id(tid: u32) -> i32 {
    ((!(tid as i32)) << 3) | 6
}

/// CPU time of the whole process (all threads, dead ones included), ns.
pub fn process_cpu_ns() -> u64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID).expect("CLOCK_PROCESS_CPUTIME_ID is always available")
}

/// CPU time of the calling thread, ns.
#[cfg(test)]
pub fn own_thread_cpu_ns() -> u64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID).expect("CLOCK_THREAD_CPUTIME_ID is always available")
}

/// CPU time of thread `tid` of this process, ns; `None` once it exited.
pub fn thread_cpu_ns(tid: u32) -> Option<u64> {
    read_clock(thread_clock_id(tid))
}

/// A live thread of this process.
#[derive(Clone, Debug)]
pub struct NamedThread {
    pub tid: u32,
    pub name: String,
}

/// Every live thread of this process with its `comm` name.
pub fn threads() -> Vec<NamedThread> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out: Vec<NamedThread> = dir
        .filter_map(|e| {
            let e = e.ok()?;
            let tid: u32 = e.file_name().to_str()?.parse().ok()?;
            let name = std::fs::read_to_string(e.path().join("comm")).ok()?;
            Some(NamedThread {
                tid,
                name: name.trim_end().to_string(),
            })
        })
        .collect();
    out.sort_by_key(|t| t.tid);
    out
}

/// The layer a thread's CPU is charged to, by its name; `None` for
/// threads outside every layer (the benchmark's own main thread).
pub fn layer_of(name: &str) -> Option<&'static str> {
    if name == "bohm-seq" {
        Some("seq")
    } else if name.starts_with("bohm-cc-") {
        Some("cc")
    } else if name.starts_with("bohm-exec-") {
        Some("exec")
    } else if name.starts_with("perf-") {
        Some("driver")
    } else {
        None
    }
}

/// Per-layer CPU at one instant, plus the process total.
#[derive(Clone, Debug, Default)]
pub struct CpuSnapshot {
    pub process_ns: u64,
    /// `(tid, layer, cpu ns)` of every tracked thread still alive.
    pub threads: Vec<(u32, &'static str, u64)>,
}

/// The threads of this process that belong to a layer.
pub fn layer_threads() -> Vec<(u32, &'static str)> {
    threads()
        .into_iter()
        .filter_map(|t| layer_of(&t.name).map(|l| (t.tid, l)))
        .collect()
}

impl CpuSnapshot {
    pub fn take(tracked: &[(u32, &'static str)]) -> Self {
        let threads = tracked
            .iter()
            .filter_map(|&(tid, layer)| thread_cpu_ns(tid).map(|ns| (tid, layer, ns)))
            .collect();
        Self {
            process_ns: process_cpu_ns(),
            threads,
        }
    }

    /// CPU ns each layer spent between `earlier` and `self` (threads
    /// missing from either snapshot contribute nothing).
    pub fn layer_delta(&self, earlier: &CpuSnapshot, layer: &str) -> u64 {
        self.threads
            .iter()
            .filter(|t| t.1 == layer)
            .filter_map(|&(tid, _, ns)| {
                let before = earlier.threads.iter().find(|t| t.0 == tid)?.2;
                Some(ns.saturating_sub(before))
            })
            .sum()
    }

    /// CPU ns of all tracked threads between `earlier` and `self`.
    pub fn tracked_delta(&self, earlier: &CpuSnapshot) -> u64 {
        ["seq", "cc", "exec", "driver"]
            .iter()
            .map(|l| self.layer_delta(earlier, l))
            .sum()
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median wall time of one small append + `fdatasync` in `dir`, µs: the
/// host's flush cost, recorded to explain latency drift across hosts.
pub fn fdatasync_us(dir: &Path, samples: usize) -> std::io::Result<f64> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let path = dir.join("fdatasync-probe");
    let mut f = std::fs::File::create(&path)?;
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        f.write_all(&[0u8; 256])?;
        let t = Instant::now();
        f.sync_data()?;
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(f);
    std::fs::remove_file(&path)?;
    Ok(crate::stats::median(&mut times))
}

/// Spin until the calling thread has used `cpu` of CPU time.
#[cfg(test)]
pub fn spin_for_cpu(cpu: std::time::Duration) {
    let start = own_thread_cpu_ns();
    while own_thread_cpu_ns() - start < cpu.as_nanos() as u64 {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn tid_of(name: &str) -> u32 {
        threads()
            .into_iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("thread {name} not found"))
            .tid
    }

    #[test]
    fn spinning_thread_reads_its_cpu_and_idle_thread_reads_zero() {
        let (ready_tx, ready_rx) = mpsc::channel::<()>();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<(u64, Duration)>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let spinner = std::thread::Builder::new()
            .name("perf-test-spin".into())
            .spawn(move || {
                ready_tx.send(()).unwrap();
                go_rx.recv().unwrap();
                let wall = Instant::now();
                let cpu0 = own_thread_cpu_ns();
                spin_for_cpu(Duration::from_millis(100));
                done_tx
                    .send((own_thread_cpu_ns() - cpu0, wall.elapsed()))
                    .unwrap();
                // Stay alive (and idle) until the reading is taken.
                release_rx.recv().unwrap();
            })
            .unwrap();
        let (idle_release_tx, idle_release_rx) = mpsc::channel::<()>();
        let (idle_ready_tx, idle_ready_rx) = mpsc::channel::<()>();
        let idle = std::thread::Builder::new()
            .name("perf-test-idle".into())
            .spawn(move || {
                idle_ready_tx.send(()).unwrap();
                idle_release_rx.recv().unwrap()
            })
            .unwrap();
        // Both threads have started (and so carry their names).
        ready_rx.recv().unwrap();
        idle_ready_rx.recv().unwrap();
        let spin_tid = tid_of("perf-test-spin");
        let idle_tid = tid_of("perf-test-idle");
        let spin_before = thread_cpu_ns(spin_tid).unwrap();
        let idle_before = thread_cpu_ns(idle_tid).unwrap();
        go_tx.send(()).unwrap();
        let (own_cpu, wall) = done_rx.recv().unwrap();
        let spin_read = thread_cpu_ns(spin_tid).unwrap() - spin_before;
        let idle_read = thread_cpu_ns(idle_tid).unwrap() - idle_before;
        release_tx.send(()).unwrap();
        idle_release_tx.send(()).unwrap();
        spinner.join().unwrap();
        idle.join().unwrap();

        // Read from outside, the spinner's clock matches what it measured
        // on itself (a few percent for the channel hand-off around it)...
        let own = own_cpu as f64;
        assert!(
            (spin_read as f64 - own).abs() <= 0.05 * own,
            "outside read {spin_read} ns vs own clock {own_cpu} ns"
        );
        // ...and its CPU time tracks its wall time: it only ran while it
        // was on a core, so CPU never exceeds wall by more than clock
        // granularity, and on an unloaded host the two agree closely.
        let wall_ns = wall.as_nanos() as f64;
        assert!(own <= wall_ns * 1.02, "cpu {own} ns > wall {wall_ns} ns");
        assert!(
            own >= wall_ns * 0.5,
            "spinner got {own} ns of CPU in {wall_ns} ns of wall time"
        );
        // The blocked thread accrues (almost) nothing.
        assert!(idle_read < 2_000_000, "idle thread read {idle_read} ns");
    }

    #[test]
    fn layers_follow_thread_names() {
        assert_eq!(layer_of("bohm-seq"), Some("seq"));
        assert_eq!(layer_of("bohm-cc-0"), Some("cc"));
        assert_eq!(layer_of("bohm-exec-3"), Some("exec"));
        assert_eq!(layer_of("perf-drv-1"), Some("driver"));
        assert_eq!(layer_of("perfbench"), None);
    }

    #[test]
    fn process_clock_covers_thread_clocks() {
        let before = process_cpu_ns();
        spin_for_cpu(Duration::from_millis(20));
        assert!(process_cpu_ns() - before >= 20_000_000);
        assert!(peak_rss_mib() > 0.0);
    }
}
