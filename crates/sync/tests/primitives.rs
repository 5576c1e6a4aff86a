//! The facade's locks, padding and backoff used from ordinary threads.
//!
//! Under `--cfg bohm_modelcheck` these run the instrumented types off any
//! model execution, i.e. their real-primitive fallback, so the suite checks
//! both personalities.

use bohm_sync::{Backoff, CachePadded, Condvar, Mutex, RwLock};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn mutex_guards_exclusive_access() {
    let m = Arc::new(Mutex::new(0u64));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let m = Arc::clone(&m);
        handles.push(std::thread::spawn(move || {
            for _ in 0..1_000 {
                *m.lock() += 1;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*m.lock(), 8_000);
}

#[test]
fn condvar_wait_and_notify() {
    let pair = Arc::new((Mutex::new(false), Condvar::new()));
    let pair2 = Arc::clone(&pair);
    let t = std::thread::spawn(move || {
        let (m, cv) = &*pair2;
        let mut ready = m.lock();
        while !*ready {
            cv.wait(&mut ready);
        }
    });
    std::thread::sleep(Duration::from_millis(5));
    let (m, cv) = &*pair;
    *m.lock() = true;
    cv.notify_all();
    t.join().unwrap();
}

#[test]
fn condvar_wait_until_times_out() {
    let m = Mutex::new(());
    let cv = Condvar::new();
    let mut g = m.lock();
    let t0 = Instant::now();
    let res = cv.wait_until(&mut g, t0 + Duration::from_millis(5));
    assert!(res.timed_out());
    assert!(t0.elapsed() >= Duration::from_millis(4));
    assert!(cv.wait_until(&mut g, t0).timed_out(), "past deadline");
}

#[test]
fn locks_are_not_poisoned_by_panics() {
    let m = Arc::new(Mutex::new(1u32));
    let m2 = Arc::clone(&m);
    let _ = std::thread::spawn(move || {
        let _g = m2.lock();
        panic!("poison attempt");
    })
    .join();
    assert_eq!(*m.lock(), 1, "lock must stay usable after a panic");
}

#[test]
fn rwlock_allows_parallel_readers() {
    let l = RwLock::new(5u32);
    let r1 = l.read();
    let r2 = l.read();
    assert_eq!(*r1 + *r2, 10);
    drop((r1, r2));
    *l.write() = 6;
    assert_eq!(*l.read(), 6);
}

#[test]
fn cache_padded_is_aligned_and_transparent() {
    let p = CachePadded::new(7u64);
    assert_eq!(*p, 7);
    assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
}

#[test]
fn backoff_completes_after_escalation() {
    let b = Backoff::new();
    assert!(!b.is_completed());
    for _ in 0..32 {
        b.snooze();
    }
    assert!(b.is_completed());
}
