//! Per-worker accumulator slots for mutex-free output paths.
//!
//! A pool loop that produces a variable number of results per index has
//! two classic output strategies: push every result through a shared
//! `Mutex<Vec<_>>` (simple, but the lock serializes the hot path), or
//! give each worker a private spill buffer and concatenate after the
//! region. [`PerWorker`] is the second strategy as a reusable type: one
//! cache-line-padded slot per worker, indexed by the `tid` that
//! [`ThreadPool::for_each_index_tid`](crate::ThreadPool::for_each_index_tid)
//! hands the loop body.
//!
//! Access is `unsafe` for the same reason [`SharedSlice`](crate::SharedSlice)
//! is: the *caller* guarantees disjointness — here, that slot `tid` is
//! only touched from the worker currently running as `tid`. Inside a
//! pool region that invariant holds by construction (each `tid` is
//! driven by exactly one thread at a time, including the inlined
//! single-thread and nested-region paths).

use std::cell::UnsafeCell;

/// One padded slot per pool worker; see the module docs.
pub struct PerWorker<T> {
    slots: Vec<Slot<T>>,
}

/// Padding keeps two workers' spill headers off the same cache line —
/// the whole point is that the output path never write-shares.
#[repr(align(128))]
struct Slot<T>(UnsafeCell<T>);

// SAFETY: a `&PerWorker<T>` only ever moves `T` values between threads
// (requiring `T: Send`); exclusivity of each slot is the documented
// obligation of `get_mut`.
unsafe impl<T: Send> Sync for PerWorker<T> {}

impl<T> PerWorker<T> {
    /// One slot per worker, each initialised with `init()`.
    pub fn new(workers: usize, mut init: impl FnMut() -> T) -> Self {
        PerWorker {
            slots: (0..workers)
                .map(|_| Slot(UnsafeCell::new(init())))
                .collect(),
        }
    }

    /// Mutable access to worker `tid`'s slot.
    ///
    /// # Safety
    ///
    /// `tid < len()`, and no other borrow of slot `tid` exists for as
    /// long as the returned borrow lives — in a pool region that means
    /// only the body invocation currently running as worker `tid` may
    /// call this, and it must not hold the borrow across the region
    /// boundary.
    #[inline]
    #[allow(clippy::mut_from_ref)] // exclusivity is the caller's stated obligation
    pub unsafe fn get_mut(&self, tid: usize) -> &mut T {
        debug_assert!(tid < self.slots.len());
        unsafe { &mut *self.slots[tid].0.get() }
    }

    /// Safe exclusive iteration over all slots (requires `&mut self`,
    /// so no region can be live).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().map(|s| s.0.get_mut())
    }

    /// Consumes the slots in worker order.
    #[must_use]
    pub fn into_inner(self) -> Vec<T> {
        self.slots.into_iter().map(|s| s.0.into_inner()).collect()
    }
}

impl<T: Default> PerWorker<T> {
    /// One default-initialised slot per worker.
    #[must_use]
    pub fn with_default(workers: usize) -> Self {
        PerWorker::new(workers, T::default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Schedule, ThreadPool};

    #[test]
    fn spills_collect_every_index_exactly_once() {
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let spills: PerWorker<Vec<usize>> = PerWorker::with_default(pool.num_threads());
            pool.for_each_index_tid(1000, Schedule::Dynamic(16), |tid, i| {
                // SAFETY: slot `tid` is exclusive to the worker running
                // as `tid` for the duration of this body.
                unsafe { spills.get_mut(tid) }.push(i);
            });
            let mut all: Vec<usize> = spills.into_inner().into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..1000).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn iter_mut_sees_region_writes() {
        let pool = ThreadPool::new(3);
        let mut sums: PerWorker<u64> = PerWorker::with_default(pool.num_threads());
        pool.for_each_index_tid(100, Schedule::Static, |tid, i| {
            // SAFETY: as above.
            unsafe { *sums.get_mut(tid) += i as u64 };
        });
        let total: u64 = sums.iter_mut().map(|s| *s).sum();
        assert_eq!(total, 99 * 100 / 2);
    }
}
