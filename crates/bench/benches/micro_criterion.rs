//! Microbenchmarks of the substrates: the data-structure-level costs
//! underlying the paper's macro results.
//!
//! * zipfian sampling (workload-generation overhead sanity),
//! * version-chain install / visible-lookup,
//! * lock-table acquire/release,
//! * timestamp assignment: BOHM's sequencer (one uncontended add on the
//!   single sequencer thread) vs. a shared atomic counter hammered by many
//!   threads — the §2.1 bottleneck in isolation.
//!
//! (Formerly a `criterion` target; rewritten over a minimal local timing
//! harness because the hermetic build has no access to the criterion
//! crate. The target keeps its historical name.)

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Measure `op` by timed batches until ~`window` elapses; prints ns/op.
fn bench(name: &str, mut op: impl FnMut()) {
    // Warm-up + batch sizing: aim for batches of ~1ms.
    let mut batch = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            op();
        }
        if t0.elapsed() >= Duration::from_millis(1) || batch >= 1 << 30 {
            break;
        }
        batch *= 2;
    }
    let window = Duration::from_millis(300);
    let start = Instant::now();
    let mut iters = 0u64;
    let mut best = f64::INFINITY;
    while start.elapsed() < window {
        let t0 = Instant::now();
        for _ in 0..batch {
            op();
        }
        let ns = t0.elapsed().as_nanos() as f64 / batch as f64;
        best = best.min(ns);
        iters += batch;
    }
    println!("{name:<44} {best:>10.1} ns/op   ({iters} iters)");
}

fn bench_zipf() {
    use bohm_common::rng::FastRng;
    use bohm_common::zipf::Zipf;
    for theta in [0.0, 0.9] {
        let z = Zipf::new(1_000_000, theta);
        let mut rng = FastRng::seed_from(1);
        bench(&format!("zipf/sample_theta_{theta}"), || {
            black_box(z.sample(&mut rng));
        });
    }
}

fn bench_chain() {
    use bohm_mvstore::{Chain, Version};
    let ready = |ts| Box::new(Version::ready(ts, bohm_common::value::of_u64(ts, 8)));
    bench("version_chain/install_64", || {
        let chain = Chain::new();
        for ts in 1..=64u64 {
            chain.install(ready(ts));
        }
        black_box(&chain);
    });
    let chain = Chain::new();
    for ts in 1..=128u64 {
        chain.install(ready(ts));
    }
    bench("version_chain/visible_latest", || {
        black_box(chain.visible(black_box(1_000)));
    });
    bench("version_chain/visible_deep", || {
        black_box(chain.visible(black_box(2)));
    });
}

fn bench_locks() {
    use bohm_lockmgr::{LockMode, LockRequest, LockTable};
    let table = LockTable::new(1 << 20);
    let mut reqs: Vec<LockRequest> = (0..10)
        .map(|i| LockRequest {
            slot: i * 1000,
            mode: if i < 2 {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            },
        })
        .collect();
    LockTable::normalize(&mut reqs);
    bench("lock_table/acquire_release_10", || {
        table.acquire_raw(&reqs);
        table.release(&reqs);
    });
}

fn bench_timestamps() {
    use bohm_sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    // BOHM: the sequencer thread owns the log; assignment is an
    // uncontended add.
    let mut next = 0u64;
    bench("timestamp/sequencer_single_thread", || {
        next += 1;
        black_box(next);
    });
    // Hekaton/SI: every worker hits the same cache line.
    for threads in [1usize, 4, 16] {
        let counter = Arc::new(AtomicU64::new(0));
        let per: u64 = 200_000;
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = Arc::clone(&counter);
                s.spawn(move || {
                    for _ in 0..per {
                        // RELAXED: measuring raw RMW cost; no ordering use.
                        black_box(c.fetch_add(1, Ordering::Relaxed));
                    }
                });
            }
        });
        let ns = t0.elapsed().as_nanos() as f64 / (per * threads as u64) as f64;
        println!(
            "{:<44} {ns:>10.1} ns/op",
            format!("timestamp/atomic_counter_{threads}_threads")
        );
    }
}

fn main() {
    println!("substrate microbenchmarks (best-of batch, ns/op)\n");
    bench_zipf();
    bench_chain();
    bench_locks();
    bench_timestamps();
}
