//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every thread owns a [`Tracer`]; spans stay in its buffer until the run
//! ends, when the buffers are merged, summarised (per-name self time) and
//! written out as JSON lines. A disabled tracer records nothing and costs
//! one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span on the same thread (0 = none).
    pub parent: u64,
    /// Transaction id shared by every span of one transaction (0 = none).
    pub txn: u64,
    pub name: &'static str,
    pub thread: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    thread: &'static str,
    /// High bits of this tracer's span ids, unique per tracer.
    id_base: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `index` must be distinct among the tracers of one run.
    pub fn new(enabled: bool, origin: Instant, thread: &'static str, index: u64) -> Self {
        Self {
            enabled,
            origin,
            thread,
            id_base: (index + 1) << 40,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Start time for a span, or `None` when tracing is off.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Close a span opened by [`start`](Self::start); returns its id.
    pub fn finish(
        &mut self,
        name: &'static str,
        start: Option<Instant>,
        parent: u64,
        txn: u64,
    ) -> u64 {
        let Some(start) = start else {
            return 0;
        };
        self.record(name, start, Instant::now(), parent, txn)
    }

    /// Record a span with explicit bounds; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        txn: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next += 1;
        let id = self.id_base | self.next;
        self.spans.push(Span {
            id,
            parent,
            txn,
            name,
            thread: self.thread,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
        });
        id
    }
}

/// Per span name: (count, total ns, self ns). A span's self time is its
/// duration minus the time its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Write `spans` to `path` as JSON lines, followed by `extra` lines.
pub fn write(path: &Path, spans: &[Span], extra: &[String]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            f,
            "{{\"id\":{},\"parent\":{},\"txn\":{},\"name\":\"{}\",\"thread\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.txn, s.name, s.thread, s.start_ns, s.end_ns
        )?;
    }
    for l in extra {
        writeln!(f, "{l}")?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut t = Tracer::new(true, t0, "perf-test", 0);
        let window = t.record("window", at(0), at(100), 0, 0);
        t.record("submit", at(10), at(30), window, 7);
        t.record("reap", at(40), at(50), window, 7);
        let s = self_times(&t.spans);
        assert_eq!(s["window"], (1, 100_000_000, 70_000_000));
        assert_eq!(s["submit"], (1, 20_000_000, 20_000_000));
        assert!(t.spans.iter().filter(|s| s.txn == 7).count() == 2);
        let off = Tracer::new(false, t0, "perf-test", 1);
        assert!(off.start().is_none());
    }
}
