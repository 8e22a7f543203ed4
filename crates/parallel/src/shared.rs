//! A `Sync` view over a mutable slice for pool loops that write disjoint
//! slots.
//!
//! Safe Rust cannot hand the same `&mut [T]` to every worker of a
//! [`ThreadPool`](crate::ThreadPool) region, yet the build pipeline's
//! scatter/compact stages and the block-partitioned edge generators all
//! write *provably disjoint* positions of one output buffer. A
//! [`SharedSlice`] borrows the slice once and exposes raw per-index
//! writes; each call site states the disjointness argument that makes it
//! sound (per-worker windows that tile the buffer, one writer per index,
//! or a block partition).

use std::marker::PhantomData;

/// A shareable view over `&mut [T]` whose accessors are `unsafe` because
/// the *caller* guarantees disjointness between concurrent accesses.
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the view only moves `T` values across threads (requiring
// `T: Send`); disjointness of the actual accesses is the obligation each
// unsafe accessor documents.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Borrows `slice` for shared disjoint writes.
    pub fn new(slice: &'a mut [T]) -> Self {
        SharedSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Overwrites slot `index` (dropping the old value).
    ///
    /// # Safety
    ///
    /// `index < len()`, and no other thread reads or writes slot `index`
    /// concurrently.
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        debug_assert!(index < self.len);
        unsafe { *self.ptr.add(index) = value };
    }

    /// Reads slot `index` by copy.
    ///
    /// # Safety
    ///
    /// `index < len()`, and no other thread writes slot `index`
    /// concurrently.
    #[inline]
    pub unsafe fn read(&self, index: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(index < self.len);
        unsafe { *self.ptr.add(index) }
    }

    /// Reborrows `[lo, hi)` mutably — the per-row accessor the sort/
    /// compact stages use, where rows partition the buffer.
    ///
    /// # Safety
    ///
    /// `lo <= hi <= len()`, and no other thread accesses any slot in
    /// `[lo, hi)` for as long as the returned borrow lives.
    #[inline]
    #[allow(clippy::mut_from_ref)] // disjointness is the caller's stated obligation
    pub unsafe fn range_mut(&self, lo: usize, hi: usize) -> &mut [T] {
        debug_assert!(lo <= hi && hi <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) }
    }

    /// Copies `src` into slots `[offset, offset + src.len())`.
    ///
    /// # Safety
    ///
    /// The destination range is in bounds and no other thread accesses
    /// it concurrently.
    #[inline]
    pub unsafe fn copy_from(&self, offset: usize, src: &[T])
    where
        T: Copy,
    {
        debug_assert!(offset + src.len() <= self.len);
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(offset), src.len()) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Schedule, ThreadPool};

    #[test]
    fn disjoint_writes_land_in_their_slots() {
        let pool = ThreadPool::new(4);
        let mut out = vec![0usize; 1000];
        let shared = SharedSlice::new(&mut out);
        // SAFETY: each index is written by exactly one loop iteration.
        pool.for_each_index(1000, Schedule::Dynamic(64), |i| unsafe {
            shared.write(i, i * 3);
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 3));
    }

    #[test]
    fn range_mut_partitions_rows() {
        let pool = ThreadPool::new(3);
        let mut out: Vec<u32> = (0..120).rev().collect();
        let shared = SharedSlice::new(&mut out);
        // SAFETY: the 8 ranges [15r, 15r+15) partition the slice.
        pool.for_each_index(8, Schedule::Static, |r| {
            let row = unsafe { shared.range_mut(r * 15, r * 15 + 15) };
            row.sort_unstable();
        });
        for r in 0..8 {
            assert!(out[r * 15..r * 15 + 15].is_sorted());
        }
    }
}
