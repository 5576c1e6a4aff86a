//! Cache-line padding, spin backoff and `Mutex`'s `Debug`, shared by both
//! personalities.
//!
//! Only the backoff pause differs: each personality supplies `backoff_pause`.
//! Normal builds burn `2^step` pause instructions and escalate to
//! `yield_now`; under `--cfg bohm_modelcheck` every pause is a single
//! scheduling point, because burning `2^step` virtual steps would only
//! shrink the schedules a bounded exploration can reach.

use std::fmt;
use std::ops::Deref;

#[cfg(bohm_modelcheck)]
use crate::model_impl::backoff_pause;
#[cfg(not(bohm_modelcheck))]
use crate::real::backoff_pause;

/// Pads and aligns a value to 128 bytes (two x86-64 cache lines, matching
/// the adjacent-line prefetcher).
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pad `value`.
    pub const fn new(value: T) -> Self {
        Self { value }
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

/// Steps after which the backoff counts as completed.
const YIELD_LIMIT: u32 = 10;

/// Exponential spin/yield backoff for optimistic retry loops.
#[derive(Default)]
pub struct Backoff {
    step: std::cell::Cell<u32>,
}

impl Backoff {
    /// A fresh backoff at step 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Spin first, then yield the thread (for blocking-ish waits).
    pub fn snooze(&self) {
        backoff_pause(self.step.get());
        if self.step.get() <= YIELD_LIMIT {
            self.step.set(self.step.get() + 1);
        }
    }

    /// Has the backoff escalated to the point where parking (or giving up)
    /// beats further spinning?
    pub fn is_completed(&self) -> bool {
        self.step.get() > YIELD_LIMIT
    }
}

impl<T: ?Sized> fmt::Debug for crate::Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Opaque: printing the payload would have to take the lock.
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}
