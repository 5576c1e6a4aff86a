//! Load generation: a closed-loop driver for every engine (through the
//! `BatchEngine`/`Session` facade) and an open-loop submitter/reaper pair
//! for BOHM (through `BohmSession::submit` and `TxnHandle`).
//!
//! Driver threads are named `perf-*`, so their CPU is charged to the
//! `driver` layer by [`crate::cpu`].

use crate::stats::Histogram;
use crate::trace::Tracer;
use bohm_common::engine::{BatchEngine, Session};
use bohm_common::Txn;
use bohm_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Measurement windows per phase. A run's windows are numbered: 0 is
/// the warm-up, `1..=WINDOWS` the untraced windows (end-to-end metrics),
/// `WINDOWS+1..=2·WINDOWS` the traced ones (per-layer metrics).
pub const WINDOWS: usize = 5;
/// Number of window slots, warm-up included.
pub const SLOTS: usize = 1 + 2 * WINDOWS;

/// Is window `w` traced?
pub fn traced(w: usize) -> bool {
    w > WINDOWS
}

/// Sample one transaction in this many for per-transaction spans.
const SPAN_SAMPLE: u64 = 64;

/// How often a paused driver looks for work again.
const PAUSE_POLL: Duration = Duration::from_millis(1);

/// Run control shared by the measuring thread and the drivers.
#[derive(Default)]
pub struct Control {
    stop: AtomicBool,
    /// Paused drivers drain what they have in flight, then idle, so the
    /// engine is quiet while another engine's window runs.
    paused: AtomicBool,
    window: AtomicUsize,
}

impl Control {
    /// A control whose drivers start paused.
    pub fn paused() -> Self {
        let c = Self::default();
        c.set_paused(true);
        c
    }

    pub fn set_paused(&self, paused: bool) {
        // RELAXED: drivers poll the flag; the measuring thread waits for
        // the drain through the counters, not through this store.
        self.paused.store(paused, Ordering::Relaxed);
    }

    pub fn is_paused(&self) -> bool {
        // RELAXED: see `set_paused`.
        self.paused.load(Ordering::Relaxed)
    }

    /// The window transactions submitted now belong to.
    pub fn window(&self) -> usize {
        // RELAXED: the window only tags which histogram a sample lands
        // in; a stale read shifts one transaction across a window edge.
        self.window.load(Ordering::Relaxed)
    }

    pub fn set_window(&self, w: usize) {
        // RELAXED: see `window`.
        self.window.store(w.min(SLOTS - 1), Ordering::Relaxed);
    }

    /// Stop the drivers (they drain what is in flight, then return).
    pub fn stop(&self) {
        // RELAXED: the drivers' joins publish everything they did.
        self.stop.store(true, Ordering::Relaxed);
    }

    pub fn stopped(&self) -> bool {
        // RELAXED: bounds the run only; a stale read runs one more txn.
        self.stop.load(Ordering::Relaxed)
    }
}

/// Monotone per-driver counters the measuring thread samples at window
/// boundaries. One writer each; cache-line aligned so drivers do not
/// share a line.
#[repr(align(128))]
#[derive(Default)]
pub struct Counters {
    pub attempted: AtomicU64,
    pub decided: AtomicU64,
    pub committed: AtomicU64,
    /// Committed transactions that write (the YCSB audit's 10RMW count).
    pub committed_writes: AtomicU64,
    pub cc_retries: AtomicU64,
    /// Time inside `submit` (traced phase only), ns.
    pub submit_ns: AtomicU64,
    /// Time blocked waiting for a decision (traced phase only), ns.
    pub reap_ns: AtomicU64,
    /// Open loop: decisions later than the latency limit.
    pub over_limit: AtomicU64,
}

/// A plain copy of [`Counters`] (summed over drivers).
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub attempted: u64,
    pub decided: u64,
    pub committed: u64,
    pub committed_writes: u64,
    pub cc_retries: u64,
    pub submit_ns: u64,
    pub reap_ns: u64,
    pub over_limit: u64,
}

impl Counters {
    fn bump(a: &AtomicU64, n: u64) {
        // RELAXED: statistics counter with a single writer; readers
        // tolerate a value one transaction stale.
        a.fetch_add(n, Ordering::Relaxed);
    }

    pub fn totals(all: &[Counters]) -> Totals {
        let sum = |f: fn(&Counters) -> &AtomicU64| -> u64 {
            // RELAXED: see `bump`.
            all.iter().map(|c| f(c).load(Ordering::Relaxed)).sum()
        };
        Totals {
            attempted: sum(|c| &c.attempted),
            decided: sum(|c| &c.decided),
            committed: sum(|c| &c.committed),
            committed_writes: sum(|c| &c.committed_writes),
            cc_retries: sum(|c| &c.cc_retries),
            submit_ns: sum(|c| &c.submit_ns),
            reap_ns: sum(|c| &c.reap_ns),
            over_limit: sum(|c| &c.over_limit),
        }
    }
}

/// What one driver thread hands back when it stops.
pub struct DriverOut {
    /// Decision latency per window (from submit in a closed loop, from
    /// the due time in an open loop).
    pub latency: Vec<Histogram>,
    /// Open loop: how late the generator submitted, per window.
    pub lateness: Vec<Histogram>,
    pub tracer: Tracer,
}

impl DriverOut {
    pub fn new(tracer: Tracer) -> Self {
        Self {
            latency: vec![Histogram::default(); SLOTS],
            lateness: vec![Histogram::default(); SLOTS],
            tracer,
        }
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Closed loop: submit, keep at most `depth` transactions unreaped, reap
/// in order, until `ctl.stop`; then drain. `time_latency` times every
/// transaction from submit to observed decision; `next` yields a
/// transaction and whether it writes.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop<E: BatchEngine>(
    engine: &E,
    ctl: &Control,
    c: &Counters,
    depth: usize,
    time_latency: bool,
    id_base: u64,
    next: &mut dyn FnMut() -> (Txn, bool),
    out: &mut DriverOut,
) {
    let mut session = engine.open_session();
    let mut fifo: VecDeque<Pending> = VecDeque::with_capacity(depth + 1);
    let mut seq = 0u64;
    while !ctl.stopped() {
        if ctl.is_paused() {
            while session.in_flight() > 0 {
                reap_one(&mut session, &mut fifo, c, time_latency, false, out);
            }
            std::thread::sleep(PAUSE_POLL);
            continue;
        }
        let window = ctl.window();
        let traced = traced(window);
        let (txn, writes) = next();
        seq += 1;
        let id = id_base + seq;
        let submitted = (time_latency || traced).then(Instant::now);
        session.submit(txn);
        Counters::bump(&c.attempted, 1);
        if traced {
            let s = submitted.expect("timed when traced");
            let end = Instant::now();
            Counters::bump(&c.submit_ns, ns(end - s));
            if id.is_multiple_of(SPAN_SAMPLE) {
                out.tracer.record("submit", s, end, 0, id);
            }
        }
        fifo.push_back(Pending {
            submitted,
            writes,
            window,
            id,
        });
        while session.in_flight() > depth {
            reap_one(&mut session, &mut fifo, c, time_latency, traced, out);
        }
    }
    while session.in_flight() > 0 {
        reap_one(&mut session, &mut fifo, c, time_latency, false, out);
    }
}

struct Pending {
    submitted: Option<Instant>,
    writes: bool,
    window: usize,
    id: u64,
}

/// Reap the oldest transaction. Its latency belongs to the window it was
/// submitted in; the wait is timed when the current window is traced.
fn reap_one<S: Session>(
    session: &mut S,
    fifo: &mut VecDeque<Pending>,
    c: &Counters,
    time_latency: bool,
    traced_now: bool,
    out: &mut DriverOut,
) {
    let p = fifo.pop_front().expect("reap with nothing in flight");
    let t0 = traced_now.then(Instant::now);
    let outcome = session.reap();
    let done = (time_latency || traced_now).then(Instant::now);
    Counters::bump(&c.decided, 1);
    if outcome.committed {
        Counters::bump(&c.committed, 1);
        if p.writes {
            Counters::bump(&c.committed_writes, 1);
        }
    }
    if outcome.cc_retries > 0 {
        Counters::bump(&c.cc_retries, outcome.cc_retries);
    }
    if let (Some(s), Some(d)) = (p.submitted, done) {
        out.latency[p.window].record_ns(ns(d - s));
    }
    if let (Some(t0), Some(d)) = (t0, done) {
        Counters::bump(&c.reap_ns, ns(d - t0));
        if p.id.is_multiple_of(SPAN_SAMPLE) {
            out.tracer.record("reap", t0, d, 0, p.id);
        }
    }
}

/// A submitted open-loop transaction on its way to the reaper.
pub struct Ticket<H> {
    pub due: Instant,
    pub window: usize,
    pub writes: bool,
    pub id: u64,
    pub handle: H,
}

/// Open-loop submitter: after each resume at `start`, the `i`-th
/// transaction is due at `start + i / rate`. Sleeps to each due time
/// (submitting every overdue transaction at once when it wakes late),
/// records how late it ran, and hands `(due, handle)` to the reaper.
/// Lateness never shifts the schedule, so a stall is charged to every
/// transaction due during it.
#[allow(clippy::too_many_arguments)]
pub fn submitter<H>(
    rate: f64,
    ctl: &Control,
    c: &Counters,
    id_base: u64,
    next: &mut dyn FnMut() -> (Txn, bool),
    submit: &mut dyn FnMut(Txn) -> H,
    to_reaper: mpsc::Sender<Ticket<H>>,
    out: &mut DriverOut,
) {
    let period_ns = 1e9 / rate;
    let (mut resumed, mut i, mut seq) = (None, 0u64, 0u64);
    while !ctl.stopped() {
        if ctl.is_paused() {
            resumed = None;
            std::thread::sleep(PAUSE_POLL);
            continue;
        }
        let start = *resumed.get_or_insert_with(|| {
            i = 0;
            Instant::now()
        });
        let due = start + Duration::from_nanos((i as f64 * period_ns) as u64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
            continue;
        }
        let window = ctl.window();
        out.lateness[window].record_ns(ns(now - due));
        let (txn, writes) = next();
        seq += 1;
        let id = id_base + seq;
        let handle = submit(txn);
        Counters::bump(&c.attempted, 1);
        if traced(window) {
            let end = Instant::now();
            Counters::bump(&c.submit_ns, ns(end - now));
            if id.is_multiple_of(SPAN_SAMPLE) {
                out.tracer.record("submit", now, end, 0, id);
            }
        }
        let ticket = Ticket {
            due,
            window,
            writes,
            id,
            handle,
        };
        if to_reaper.send(ticket).is_err() {
            break; // reaper gone: it panicked; the run fails on join
        }
        i += 1;
    }
}

/// Open-loop reaper: waits for each decision in submission order and
/// times it from the transaction's **due** time. Decisions later than
/// `limit` count in `over_limit`.
pub fn reaper<H>(
    from_submitter: mpsc::Receiver<Ticket<H>>,
    wait: &dyn Fn(H) -> bool,
    limit: Duration,
    c: &Counters,
    out: &mut DriverOut,
    on_decision: &mut dyn FnMut(Instant, Duration),
) {
    for t in from_submitter {
        let t0 = traced(t.window).then(Instant::now);
        let committed = wait(t.handle);
        let done = Instant::now();
        let latency = done - t.due;
        Counters::bump(&c.decided, 1);
        if committed {
            Counters::bump(&c.committed, 1);
            if t.writes {
                Counters::bump(&c.committed_writes, 1);
            }
        }
        if latency > limit {
            Counters::bump(&c.over_limit, 1);
        }
        out.latency[t.window].record_ns(ns(latency));
        on_decision(t.due, latency);
        if let Some(t0) = t0 {
            Counters::bump(&c.reap_ns, ns(done - t0));
            if t.id % SPAN_SAMPLE == 0 {
                out.tracer.record("reap", t0, done, 0, t.id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bohm_common::{Procedure, RecordId};

    fn noop() -> (Txn, bool) {
        let rid = RecordId::new(0, 0);
        (Txn::new(vec![rid], vec![], Procedure::ReadOnly), false)
    }

    /// One 50 ms stall inside the engine's `submit` (ingest backpressure)
    /// must show up as latency on every transaction due while it lasted:
    /// the schedule does not slide, so none of them is timed from its
    /// late submission (no coordinated omission).
    #[test]
    fn a_stall_is_charged_to_every_transaction_due_during_it() {
        const RATE: f64 = 2_000.0;
        const STALL_AT: u64 = 200; // due at 100 ms
        let stall = Duration::from_millis(50);
        let ctl = Control::default();
        ctl.set_window(1);
        let counters = Counters::default();
        let start = Instant::now();
        let mut decisions: Vec<(Instant, Duration)> = Vec::new();
        let mut stall_end = None;
        let (mut sub_out, mut reap_out) = (
            DriverOut::new(Tracer::new(false, start, "perf-submit", 0)),
            DriverOut::new(Tracer::new(false, start, "perf-reap", 1)),
        );
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel::<Ticket<()>>();
            let (ctl, counters) = (&ctl, &counters);
            let stall_end = &mut stall_end;
            let sub_out = &mut sub_out;
            let submit = s.spawn(move || {
                let mut n = 0u64;
                let mut submit = |_txn: Txn| {
                    if n == STALL_AT {
                        std::thread::sleep(stall);
                        *stall_end = Some(Instant::now());
                    }
                    n += 1;
                };
                submitter(RATE, ctl, counters, 0, &mut noop, &mut submit, tx, sub_out);
            });
            let reap_out = &mut reap_out;
            let decisions = &mut decisions;
            let reap = s.spawn(move || {
                reaper(
                    rx,
                    &|()| true,
                    Duration::from_secs(1),
                    counters,
                    reap_out,
                    &mut |due, lat| decisions.push((due, lat)),
                );
            });
            std::thread::sleep(Duration::from_millis(300));
            ctl.stop();
            submit.join().unwrap();
            reap.join().unwrap();
        });
        let stall_end = stall_end.expect("the stall happened");
        // The stalled transaction's due time opens the stall.
        let stall_start = decisions[STALL_AT as usize].0;
        let during: Vec<_> = decisions
            .iter()
            .filter(|(due, _)| *due >= stall_start && *due < stall_end)
            .collect();
        // ~100 transactions fall due during a 50 ms stall at 2k txn/s.
        assert!(during.len() >= 80, "only {} due in the stall", during.len());
        for (due, lat) in during {
            let owed = stall_end - *due;
            assert!(
                *lat >= owed,
                "txn due {:?} into the stall reported {lat:?}, owed {owed:?}",
                *due - stall_start
            );
        }
        // The generator's own lateness shows the stall as well.
        assert!(sub_out.lateness[1].max_ns() >= 45_000_000);
        let t = Counters::totals(std::slice::from_ref(&counters));
        assert_eq!(t.attempted, t.decided);
        assert_eq!(t.over_limit, 0);
    }
}
