//! Batch-scoped bump arenas for hot-path buffers.
//!
//! The pipeline (sequencer -> CC -> execution) used to allocate four `Vec`s
//! per transaction for the declared read/write/scan sets plus three boxed
//! slices per `TxnState` (the core crate's per-transaction CC record) for
//! the CC plan and annotation pointers. Under a
//! few hundred thousand transactions per second that is millions of
//! malloc/free pairs a second, all of them with identical lifetime: the
//! enclosing batch. An [`Arena`] replaces them with bump allocation out of
//! pooled chunks:
//!
//! * [`ArenaPool`] owns a capped free list of raw chunk buffers. Once the
//!   pool is warm, creating and retiring batches performs **no** heap
//!   allocation for set/annotation storage — buffers circulate between the
//!   pool and the window ring.
//! * [`Arena`] is a single-owner bump pointer over the current chunk. It
//!   hands out [`ASlice`]s, immutable reference-counted views whose backing
//!   chunk returns to the pool when the last slice (in practice: the batch)
//!   drops.
//! * [`SetBuf`] is the `Vec`-or-arena-slice sum type used by `Txn` so that
//!   workload generators keep building plain `Vec`s while the engine repacks
//!   them contiguously at batch-formation time.
//!
//! Arena memory never runs destructors: [`Arena::alloc_with`] statically
//! rejects `T: Drop` via a `needs_drop` assertion. Slices are written exactly
//! once, before the `ASlice` is constructed, and are immutable afterwards;
//! cross-thread visibility of the initialized bytes rides the same
//! release/acquire edges that publish the slice value itself (mutex
//! hand-off, `Arc` into the window ring) — exactly the guarantee that
//! makes sending a `Box<[T]>` sound.
//!
//! `TxnState` is not named in this crate; see `bohm::batch` for the consumer.

use bohm_sync::Mutex;
use std::cell::UnsafeCell;
use std::fmt;
use std::mem::{align_of, needs_drop, size_of, MaybeUninit};
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::{Arc, Weak};

/// Default chunk size. Large enough that a smoke-sized batch (a few thousand
/// TPC-C-lite transactions) needs only a handful of chunks; small enough that
/// a mostly-idle engine pins trivial memory.
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

/// Default cap on pooled (idle) chunks: enough to cover a full window of
/// in-flight batches at the default batch size without re-mallocing.
pub const DEFAULT_MAX_FREE: usize = 64;

type RawBuf = Box<[UnsafeCell<MaybeUninit<u8>>]>;

fn new_buf(bytes: usize) -> RawBuf {
    // UnsafeCell<MaybeUninit<u8>> is a zero-cost wrapper; building the boxed
    // slice directly (rather than casting from Box<[u8]>) keeps this fully
    // safe code.
    (0..bytes)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect()
}

struct PoolShared {
    free: Mutex<Vec<RawBuf>>,
    chunk_bytes: usize,
    max_free: usize,
}

/// A shared, capped free list of chunk buffers. Cloning is cheap (one `Arc`).
///
/// The pool is deliberately dumb: a mutex around a `Vec` of buffers. It is
/// touched only on chunk turnover (once per ~64 KiB of packed transaction
/// input), never per transaction.
#[derive(Clone)]
pub struct ArenaPool {
    shared: Arc<PoolShared>,
}

impl Default for ArenaPool {
    fn default() -> Self {
        Self::new(DEFAULT_CHUNK_BYTES, DEFAULT_MAX_FREE)
    }
}

impl ArenaPool {
    /// A pool handing out `chunk_bytes`-sized chunks, keeping at most
    /// `max_free` idle buffers for reuse.
    pub fn new(chunk_bytes: usize, max_free: usize) -> Self {
        assert!(chunk_bytes > 0, "arena chunk size must be non-zero");
        ArenaPool {
            shared: Arc::new(PoolShared {
                free: Mutex::new(Vec::new()),
                chunk_bytes,
                max_free,
            }),
        }
    }

    /// Start a fresh bump allocator drawing from this pool.
    pub fn arena(&self) -> Arena {
        Arena {
            pool: self.clone(),
            current: None,
            offset: 0,
        }
    }

    /// Number of idle buffers currently held for reuse (test/metrics hook).
    pub fn free_chunks(&self) -> usize {
        self.shared.free.lock().len()
    }

    /// Pop a recycled buffer able to hold `min_bytes`, or allocate one.
    /// Oversized requests get a dedicated buffer that is *not* recycled
    /// (`put_buf` filters on length), so one pathological transaction cannot
    /// permanently bloat the pool.
    fn take_chunk(&self, min_bytes: usize) -> Arc<Chunk> {
        let buf = if min_bytes <= self.shared.chunk_bytes {
            self.shared
                .free
                .lock()
                .pop()
                .unwrap_or_else(|| new_buf(self.shared.chunk_bytes))
        } else {
            new_buf(min_bytes)
        };
        Arc::new(Chunk {
            buf: Some(buf),
            pool: Arc::downgrade(&self.shared),
        })
    }
}

impl PoolShared {
    fn put_buf(&self, buf: RawBuf) {
        if buf.len() != self.chunk_bytes {
            return; // oversized one-off; let it free
        }
        let mut free = self.free.lock();
        if free.len() < self.max_free {
            free.push(buf);
        }
    }
}

/// One bump-allocated buffer. Dropping the last `Arc<Chunk>` (in practice:
/// when a batch retires out of the window ring and its `TxnState`s drop)
/// returns the raw buffer to the pool instead of freeing it.
struct Chunk {
    /// `None` only transiently inside `Drop`.
    buf: Option<RawBuf>,
    pool: Weak<PoolShared>,
}

// SAFETY: the UnsafeCell interior is written only by the owning `Arena`
// (through `&mut Arena`, single-threaded by construction) and only in the
// not-yet-published tail of the buffer; published regions are immutable.
unsafe impl Send for Chunk {}
// SAFETY: same single-writer/published-immutable argument as `Send`.
unsafe impl Sync for Chunk {}

impl Chunk {
    fn base(&self) -> *mut u8 {
        self.buf.as_ref().unwrap().as_ptr() as *mut u8
    }

    fn capacity(&self) -> usize {
        self.buf.as_ref().unwrap().len()
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        if let (Some(buf), Some(pool)) = (self.buf.take(), self.pool.upgrade()) {
            pool.put_buf(buf);
        }
    }
}

/// Single-owner bump allocator over pooled chunks.
///
/// The sequencer keeps one `Arena` alive across batches: consecutive batches
/// share a chunk boundary instead of each wasting a partial chunk, and a
/// chunk recycles as soon as *every* batch holding slices into it has
/// retired (bounded by the window depth, so at most `max_inflight_batches`
/// batches pin any one chunk).
pub struct Arena {
    pool: ArenaPool,
    current: Option<Arc<Chunk>>,
    /// Bytes of `current` already handed out.
    offset: usize,
}

impl Arena {
    /// Copy `src` into the arena. Zero-length slices allocate nothing.
    pub fn alloc_copy<T: Copy>(&mut self, src: &[T]) -> ASlice<T> {
        self.alloc_with(src.len(), |i| src[i])
    }

    /// Allocate `len` elements, initializing element `i` with `f(i)`.
    ///
    /// `T` must not need `Drop`: arena memory is recycled wholesale, never
    /// destructed element-by-element.
    pub fn alloc_with<T>(&mut self, len: usize, mut f: impl FnMut(usize) -> T) -> ASlice<T> {
        assert!(
            !needs_drop::<T>(),
            "arena slices never run destructors; T must not impl Drop"
        );
        if len == 0 {
            return ASlice::empty();
        }
        let bytes = size_of::<T>()
            .checked_mul(len)
            .expect("arena allocation size overflow");
        loop {
            if let Some(chunk) = &self.current {
                let base = chunk.base() as usize;
                let aligned = (base + self.offset).next_multiple_of(align_of::<T>());
                let start = aligned - base;
                if start
                    .checked_add(bytes)
                    .is_some_and(|end| end <= chunk.capacity())
                {
                    // Compute only the *offset* in integer space; derive the
                    // element pointer from the chunk base so it keeps the
                    // allocation's provenance (an `aligned as *mut T` cast
                    // would round-trip through usize and lose it).
                    // SAFETY: `start` is in bounds per the check above.
                    let ptr = unsafe { chunk.base().add(start) } as *mut T;
                    // SAFETY: [start, start+bytes) lies inside the chunk, is
                    // aligned for T, and no previously returned ASlice
                    // overlaps it (they all end at or before `offset`). The
                    // chunk outlives the returned slice via the Arc.
                    unsafe {
                        for i in 0..len {
                            ptr.add(i).write(f(i));
                        }
                    }
                    self.offset = start + bytes;
                    return ASlice {
                        chunk: Some(chunk.clone()),
                        // SAFETY: `ptr` came from a live allocation offset,
                        // never null.
                        ptr: unsafe { NonNull::new_unchecked(ptr) },
                        len,
                    };
                }
            }
            // Worst-case padding for alignment, then retry with a new chunk.
            self.current = Some(self.pool.take_chunk(bytes + align_of::<T>()));
            self.offset = 0;
        }
    }
}

/// An immutable, reference-counted slice carved out of an arena chunk.
///
/// Behaves like an `Arc<[T]>` that is cheap to mint (bump pointer, no
/// per-slice allocation) and whose backing store is recycled. `Deref`s to
/// `[T]`, so any `&[T]` consumer works unchanged.
pub struct ASlice<T> {
    /// Keepalive for the backing storage; `None` iff `len == 0`.
    chunk: Option<Arc<Chunk>>,
    ptr: NonNull<T>,
    len: usize,
}

// SAFETY: ASlice only hands out shared references to its (immutable,
// initialized) elements; the chunk keepalive is Send+Sync.
unsafe impl<T: Send + Sync> Send for ASlice<T> {}
// SAFETY: same shared-immutable argument as `Send` above.
unsafe impl<T: Send + Sync> Sync for ASlice<T> {}

impl<T> ASlice<T> {
    /// The canonical empty slice; allocates nothing and pins no chunk.
    pub fn empty() -> Self {
        ASlice {
            chunk: None,
            ptr: NonNull::dangling(),
            len: 0,
        }
    }
}

impl<T> Deref for ASlice<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: `ptr..ptr+len` was initialized before construction and the
        // chunk (if any) is kept alive by `self.chunk`.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> Clone for ASlice<T> {
    fn clone(&self) -> Self {
        ASlice {
            chunk: self.chunk.clone(),
            ptr: self.ptr,
            len: self.len,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for ASlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: PartialEq> PartialEq for ASlice<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for ASlice<T> {}

impl<'a, T> IntoIterator for &'a ASlice<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A transaction set buffer: either a client-built `Vec` or an engine-packed
/// arena slice. `Deref`s to `[T]` so call sites are agnostic.
#[derive(Clone)]
pub enum SetBuf<T> {
    /// A client-built `Vec` (as submitted, before the sequencer repacks).
    Owned(Vec<T>),
    /// A contiguous arena slice packed by the sequencer.
    Packed(ASlice<T>),
}

impl<T: fmt::Debug> fmt::Debug for SetBuf<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T> SetBuf<T> {
    /// Whether this buffer has been repacked into an arena slice.
    pub fn is_packed(&self) -> bool {
        matches!(self, SetBuf::Packed(_))
    }
}

impl<T> Deref for SetBuf<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            SetBuf::Owned(v) => v,
            SetBuf::Packed(s) => s,
        }
    }
}

impl<T> From<Vec<T>> for SetBuf<T> {
    fn from(v: Vec<T>) -> Self {
        SetBuf::Owned(v)
    }
}

impl<T> Default for SetBuf<T> {
    fn default() -> Self {
        SetBuf::Owned(Vec::new())
    }
}

impl<T: PartialEq> PartialEq for SetBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for SetBuf<T> {}

impl<T: PartialEq> PartialEq<Vec<T>> for SetBuf<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == other[..]
    }
}

impl<T: PartialEq> PartialEq<[T]> for SetBuf<T> {
    fn eq(&self, other: &[T]) -> bool {
        **self == *other
    }
}

impl<'a, T> IntoIterator for &'a SetBuf<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_contents() {
        let pool = ArenaPool::new(256, 4);
        let mut arena = pool.arena();
        let a = arena.alloc_copy(&[1u64, 2, 3]);
        let b = arena.alloc_copy(&[9u32; 7]);
        assert_eq!(&*a, &[1, 2, 3]);
        assert_eq!(&*b, &[9; 7]);
        // Slices from the same chunk are disjoint.
        let c = arena.alloc_with(4, |i| i as u16);
        assert_eq!(&*c, &[0, 1, 2, 3]);
        assert_eq!(&*a, &[1, 2, 3]);
    }

    // Regression for the provenance fix in `alloc_with`: padding inserted
    // for alignment must land the next slice at the right chunk offset and
    // the derived pointer must cover the slice's full extent.
    #[test]
    fn aligned_allocations_after_odd_offsets() {
        let pool = ArenaPool::new(512, 4);
        let mut arena = pool.arena();
        let a = arena.alloc_copy(&[7u8; 3]); // leaves the bump offset odd
        let b = arena.alloc_with(5, |i| (i as u64) << 40);
        assert_eq!(b.as_ptr() as usize % align_of::<u64>(), 0);
        let c = arena.alloc_copy(&[1u8]);
        assert_eq!(&*a, &[7; 3]);
        assert_eq!(&*b, &[0, 1 << 40, 2 << 40, 3 << 40, 4 << 40]);
        assert_eq!(&*c, &[1]);
    }

    #[test]
    fn empty_slices_pin_nothing() {
        let pool = ArenaPool::new(256, 4);
        let mut arena = pool.arena();
        let e: ASlice<u64> = arena.alloc_copy(&[]);
        assert!(e.is_empty());
        assert!(e.chunk.is_none());
        let e2 = e.clone();
        assert!(e2.is_empty());
    }

    #[test]
    fn chunks_recycle_through_the_pool() {
        let pool = ArenaPool::new(256, 4);
        let mut arena = pool.arena();
        let s = arena.alloc_copy(&[0u8; 200]);
        assert_eq!(pool.free_chunks(), 0);
        drop(arena); // arena still held the chunk
        assert_eq!(pool.free_chunks(), 0);
        drop(s); // last reference: buffer returns to the pool
        assert_eq!(pool.free_chunks(), 1);

        // The recycled buffer is reused, not re-malloced.
        let mut arena = pool.arena();
        let s2 = arena.alloc_copy(&[7u8; 200]);
        assert_eq!(pool.free_chunks(), 0);
        assert_eq!(&*s2, &[7u8; 200]);
    }

    #[test]
    fn oversized_allocations_bypass_the_free_list() {
        let pool = ArenaPool::new(64, 4);
        let mut arena = pool.arena();
        let big = arena.alloc_copy(&[1u8; 1000]);
        assert_eq!(big.len(), 1000);
        drop(arena);
        drop(big);
        // Oversized buffer was freed, not pooled.
        assert_eq!(pool.free_chunks(), 0);
    }

    #[test]
    fn free_list_is_capped() {
        let pool = ArenaPool::new(64, 2);
        let mut slices = Vec::new();
        for _ in 0..5 {
            let mut arena = pool.arena();
            slices.push(arena.alloc_copy(&[1u8; 60]));
        }
        drop(slices);
        assert_eq!(pool.free_chunks(), 2);
    }

    #[test]
    fn alignment_is_respected() {
        let pool = ArenaPool::new(256, 4);
        let mut arena = pool.arena();
        let _skew = arena.alloc_copy(&[1u8]); // offset now 1
        let aligned = arena.alloc_copy(&[0u64, 1]);
        assert_eq!(aligned.as_ptr() as usize % align_of::<u64>(), 0);
        assert_eq!(&*aligned, &[0, 1]);
    }

    #[test]
    fn setbuf_compares_across_representations() {
        let pool = ArenaPool::default();
        let mut arena = pool.arena();
        let owned: SetBuf<u64> = vec![1, 2, 3].into();
        let packed = SetBuf::Packed(arena.alloc_copy(&[1u64, 2, 3]));
        assert_eq!(owned, packed);
        assert!(packed.is_packed());
        assert_eq!(format!("{owned:?}"), format!("{:?}", vec![1u64, 2, 3]));
        let cloned = packed.clone();
        assert_eq!(cloned, owned);
    }

    #[test]
    fn slices_survive_cross_thread_handoff() {
        let pool = ArenaPool::default();
        let mut arena = pool.arena();
        let s = arena.alloc_copy(&[42u64; 128]);
        let h = std::thread::spawn(move || s.iter().sum::<u64>());
        assert_eq!(h.join().unwrap(), 42 * 128);
    }

    #[test]
    #[should_panic(expected = "never run destructors")]
    fn dropful_types_are_rejected() {
        let pool = ArenaPool::default();
        let mut arena = pool.arena();
        let _ = arena.alloc_with(1, |_| String::from("no"));
    }
}
