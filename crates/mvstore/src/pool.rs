//! Per-CC-thread version recycling.
//!
//! A [`VersionPool`] holds the versions its owning CC thread truncated,
//! in free lists keyed by payload length, and hands them back out as the
//! placeholders of later writes. Versions move from a chain into the pool
//! only through [`Chain::truncate`](crate::chain::Chain::truncate), whose
//! GC bound guarantees that no reader still holds them (the watermark rule
//! in [`crate::chain`]), so recycling needs no epoch grace period and
//! steady-state writes touch neither the allocator nor the epoch
//! collector's global defer list.
//!
//! The pool has no cap: in steady state every write pops one version and
//! truncation pushes one back, so its size tracks the number of versions
//! the GC bound currently keeps alive.

// HOT-PATH: `placeholder` runs once per write of every transaction, `put`
// once per truncated version; no clocks, no syscalls, no I/O.

use crate::version::Version;
use bohm_common::Timestamp;
use crossbeam_epoch::Owned;

/// Free lists of unlinked versions, one per payload length.
#[derive(Default)]
pub struct VersionPool {
    /// `(payload length, free versions of that length)`. Tables have a few
    /// distinct record sizes, so a linear scan beats hashing. The versions
    /// stay boxed: each is a heap allocation that chains link to by
    /// address, handed out and taken back whole.
    #[allow(clippy::vec_box)]
    classes: Vec<(usize, Vec<Box<Version>>)>,
}

impl VersionPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A `Pending` placeholder for a write by transaction `begin` on a
    /// record of `size` bytes: a recycled version re-armed in place when
    /// one of that size is free, a fresh allocation otherwise.
    #[inline]
    pub fn placeholder(&mut self, begin: Timestamp, size: usize) -> Owned<Version> {
        match self.class(size).pop() {
            Some(mut v) => {
                v.rearm(begin);
                Owned::from(v)
            }
            None => Owned::new(Version::placeholder(begin, size)),
        }
    }

    /// Take back a version that no reader can reach any more.
    #[inline]
    pub(crate) fn put(&mut self, v: Box<Version>) {
        self.class(v.len()).push(v);
    }

    /// Number of versions waiting to be reused.
    pub fn len(&self) -> usize {
        self.classes.iter().map(|(_, free)| free.len()).sum()
    }

    /// True when no version is waiting to be reused.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    #[allow(clippy::vec_box)] // see `classes`
    fn class(&mut self, size: usize) -> &mut Vec<Box<Version>> {
        let i = match self.classes.iter().position(|(len, _)| *len == size) {
            Some(i) => i,
            None => {
                self.classes.push((size, Vec::new()));
                self.classes.len() - 1
            }
        };
        &mut self.classes[i].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::VersionState;
    use bohm_common::INFINITY_TS;

    #[test]
    fn empty_pool_allocates_fresh_placeholders() {
        let mut pool = VersionPool::new();
        let v = pool.placeholder(3, 16);
        assert_eq!((v.begin(), v.end(), v.len()), (3, INFINITY_TS, 16));
        assert_eq!(v.state(), VersionState::Pending);
        assert!(pool.is_empty());
    }

    #[test]
    fn recycled_versions_keep_their_allocation_and_size_class() {
        let mut pool = VersionPool::new();
        let small = Box::new(Version::ready(1, bohm_common::value::of_u64(5, 8)));
        let addr: *const Version = &*small;
        pool.put(small);
        pool.put(Box::new(Version::placeholder(2, 32)));
        assert_eq!(pool.len(), 2);
        let v = pool.placeholder(9, 8).into_box();
        assert_eq!(&*v as *const Version, addr, "reused, not reallocated");
        assert_eq!((v.begin(), v.end(), v.len()), (9, INFINITY_TS, 8));
        assert_eq!(v.state(), VersionState::Pending);
        assert_eq!(pool.len(), 1, "the 32-byte version is still pooled");
        assert_eq!(pool.placeholder(10, 32).len(), 32);
        assert!(pool.is_empty());
    }
}
