//! Reusable operation workspaces: the allocation story of the engine.
//!
//! SuiteSparse keeps per-operation scratch (sparse accumulators, bucket
//! buffers) alive between calls; our old engine allocated a fresh
//! `vec![None; n]` accumulator on *every* `vxm` — once per BFS level,
//! once per SSSP bucket wave. [`OpWorkspace`] is the fix: a type-keyed
//! pool of scratch buffers threaded through `LaGraphContext`, checked
//! out at the top of an operation and checked back in (with capacity
//! intact) at the bottom. The only lock sits at that boundary — never on
//! an output path.
//!
//! The central buffer is the **generation-stamped sparse accumulator**
//! ([`Spa`]): a dense `(stamp, value)` pair of arrays where "occupied
//! this call" means `stamp[j] == generation`. Resetting between calls is
//! a single integer increment, so the O(n) clear the old engine paid per
//! call disappears entirely.

use crate::GrbIndex;
use gapbs_parallel::sync::Mutex;
use std::any::{Any, TypeId};
use std::collections::HashMap;

/// A type-keyed pool of reusable operation scratch buffers.
///
/// `Clone` intentionally produces an *empty* workspace: buffers are pure
/// caches, so a cloned context starts cold rather than sharing (or
/// deep-copying) scratch memory.
#[derive(Default)]
pub struct OpWorkspace {
    inner: Mutex<HashMap<TypeId, Box<dyn Any + Send>>>,
}

impl OpWorkspace {
    /// An empty workspace.
    #[must_use]
    pub fn new() -> Self {
        OpWorkspace::default()
    }

    /// Checks out the buffer of type `B`, or a default-constructed one
    /// if none is pooled (first call, or a concurrent op holds it).
    pub(crate) fn take<B: Any + Send + Default>(&self) -> B {
        self.inner
            .lock()
            .remove(&TypeId::of::<B>())
            .and_then(|b| b.downcast::<B>().ok())
            .map_or_else(B::default, |b| *b)
    }

    /// Returns a buffer to the pool so the next call reuses its capacity.
    pub(crate) fn put<B: Any + Send>(&self, buf: B) {
        self.inner.lock().insert(TypeId::of::<B>(), Box::new(buf));
    }
}

impl Clone for OpWorkspace {
    fn clone(&self) -> Self {
        OpWorkspace::new()
    }
}

impl std::fmt::Debug for OpWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpWorkspace").finish_non_exhaustive()
    }
}

/// A generation-stamped sparse accumulator over index space `0..n`.
///
/// Slot `j` is live iff `stamps[j] == generation`; values of dead slots
/// are stale garbage that is never read. [`begin`](Spa::begin) makes
/// every slot dead in O(1) by bumping the generation (with a full stamp
/// reset only on the u32 wraparound, once per ~4 billion calls).
#[derive(Debug)]
pub(crate) struct Spa<Y> {
    stamps: Vec<u32>,
    values: Vec<Option<Y>>,
    generation: u32,
}

impl<Y> Default for Spa<Y> {
    fn default() -> Self {
        Spa {
            stamps: Vec::new(),
            values: Vec::new(),
            generation: 0,
        }
    }
}

impl<Y> Spa<Y> {
    /// Starts a new accumulation over `0..n`: all slots dead.
    pub(crate) fn begin(&mut self, n: usize) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamps.fill(0);
            self.generation = 1;
        }
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
            self.values.resize_with(n, || None);
        }
    }

    /// Combines `value` into slot `j`: returns `true` on a hit (the slot
    /// was live and `combine` ran) and `false` on a first insert.
    #[inline]
    pub(crate) fn upsert(&mut self, j: usize, value: Y, combine: impl FnOnce(Y, Y) -> Y) -> bool {
        if self.stamps[j] == self.generation {
            let old = self.values[j].take().expect("live SPA slot holds a value");
            self.values[j] = Some(combine(old, value));
            true
        } else {
            self.stamps[j] = self.generation;
            self.values[j] = Some(value);
            false
        }
    }

    /// `true` if slot `j` is live this generation.
    #[inline]
    pub(crate) fn is_live(&self, j: usize) -> bool {
        self.stamps[j] == self.generation
    }

    /// The value in live slot `j`.
    #[inline]
    pub(crate) fn peek(&self, j: usize) -> &Y {
        debug_assert!(self.is_live(j));
        self.values[j]
            .as_ref()
            .expect("live SPA slot holds a value")
    }

    /// Moves the value out of live slot `j` (the slot stays live but
    /// empty — only call once per slot per generation, at emit time).
    #[inline]
    pub(crate) fn take_value(&mut self, j: usize) -> Y {
        debug_assert!(self.is_live(j));
        self.values[j].take().expect("live SPA slot holds a value")
    }

    /// Raw stamp/value arrays plus the live generation, for pool regions
    /// that partition the index space into disjoint worker-owned ranges.
    pub(crate) fn parts_mut(&mut self) -> (&mut [u32], &mut [Option<Y>], u32) {
        (&mut self.stamps, &mut self.values, self.generation)
    }
}

/// Scratch for `vxm` (SpMSpV): the SPA plus the radix-pass buffers of
/// the parallel path. All vectors keep their capacity across calls.
pub(crate) struct VxmScratch<Y> {
    /// The shared accumulator (serial path and parallel phase B).
    pub spa: Spa<Y>,
    /// Serial path: indices touched this call, emitted in sorted order.
    pub touched: Vec<GrbIndex>,
    /// Parallel phase A output: `blocks × ranges` product buckets,
    /// flat-indexed `block * ranges + range`, drained by phase B.
    pub buckets: Vec<Vec<(GrbIndex, Y)>>,
    /// Parallel phase B: per-range touched-index lists.
    pub range_touched: Vec<Vec<GrbIndex>>,
    /// Parallel phase B: per-range sorted output entries, concatenated
    /// in range order into the result.
    pub range_entries: Vec<Vec<(GrbIndex, Y)>>,
}

impl<Y> Default for VxmScratch<Y> {
    fn default() -> Self {
        VxmScratch {
            spa: Spa::default(),
            touched: Vec::new(),
            buckets: Vec::new(),
            range_touched: Vec::new(),
            range_entries: Vec::new(),
        }
    }
}

/// A k-wide generation-stamped sparse accumulator: the [`Spa`] idea
/// widened to one row of `k` column slots per vertex. Slot `j` is live
/// iff stamped this generation; a live slot carries an `active` word
/// saying which of its `k` columns hold a value. Values are k-strided
/// (`values[j * k + c]`), and dead or inactive slots hold stale garbage
/// that is never read — this is the generalization of the `SlotMap`
/// machinery `bc_batch` used before the multi-column `vxm` existed.
#[derive(Debug)]
pub(crate) struct MultiSpa<Y> {
    stamps: Vec<u32>,
    active: Vec<u64>,
    values: Vec<Y>,
    generation: u32,
    k: usize,
}

impl<Y> Default for MultiSpa<Y> {
    fn default() -> Self {
        MultiSpa {
            stamps: Vec::new(),
            active: Vec::new(),
            values: Vec::new(),
            generation: 0,
            k: 0,
        }
    }
}

impl<Y: Clone + Default> MultiSpa<Y> {
    /// Starts a new k-wide accumulation over `0..n`: all slots dead.
    pub(crate) fn begin(&mut self, n: usize, k: usize) {
        self.k = k;
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamps.fill(0);
            self.generation = 1;
        }
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
            self.active.resize(n, 0);
        }
        if self.values.len() < n * k {
            self.values.resize_with(n * k, Y::default);
        }
    }

    /// `true` if slot `j` is live this generation.
    #[inline]
    pub(crate) fn is_live(&self, j: usize) -> bool {
        self.stamps[j] == self.generation
    }

    /// Stamps slot `j` live with no active columns yet.
    #[inline]
    pub(crate) fn make_live(&mut self, j: usize) {
        self.stamps[j] = self.generation;
        self.active[j] = 0;
    }

    /// Active-column word of live slot `j`.
    #[inline]
    pub(crate) fn active_word(&self, j: usize) -> u64 {
        debug_assert!(self.is_live(j));
        self.active[j]
    }

    /// `true` if column `c` of live slot `j` holds a value.
    #[inline]
    pub(crate) fn col_active(&self, j: usize, c: usize) -> bool {
        debug_assert!(self.is_live(j));
        self.active[j] >> c & 1 != 0
    }

    /// The value in active column `c` of slot `j`.
    #[inline]
    pub(crate) fn peek(&self, j: usize, c: usize) -> &Y {
        debug_assert!(self.col_active(j, c));
        &self.values[j * self.k + c]
    }

    /// Writes column `c` of live slot `j`, marking it active.
    #[inline]
    pub(crate) fn set(&mut self, j: usize, c: usize, value: Y) {
        debug_assert!(self.is_live(j));
        self.values[j * self.k + c] = value;
        self.active[j] |= 1 << c;
    }

    /// Raw stamp/active/value arrays plus the live generation, for pool
    /// regions that partition the index space into disjoint worker-owned
    /// ranges (the value window of range `[lo, hi)` is `[lo*k, hi*k)`).
    pub(crate) fn parts_mut(&mut self) -> (&mut [u32], &mut [u64], &mut [Y], u32) {
        (
            &mut self.stamps,
            &mut self.active,
            &mut self.values,
            self.generation,
        )
    }
}

/// Scratch for the multi-column `vxm` over a frontier matrix: the k-wide
/// SPA plus the radix-pass buffers of its parallel path. All vectors keep
/// their capacity across calls.
pub(crate) struct MultiVxmScratch<Y> {
    /// The shared k-wide accumulator (serial path and parallel phase B).
    pub spa: MultiSpa<Y>,
    /// Serial path: indices touched this call, emitted in sorted order.
    pub touched: Vec<GrbIndex>,
    /// Parallel phase A output: `blocks × ranges` buckets of
    /// `(output column, frontier row, weight)` triples, flat-indexed
    /// `block * ranges + range`, drained by phase B.
    pub buckets: Vec<Vec<(GrbIndex, u32, i32)>>,
    /// Parallel phase B: per-range touched-index lists.
    pub range_touched: Vec<Vec<GrbIndex>>,
    /// Parallel phase B: per-range output rows, concatenated in range
    /// order into the result.
    pub range_rows: Vec<crate::frontier::FrontierMatrix<Y>>,
}

impl<Y> Default for MultiVxmScratch<Y> {
    fn default() -> Self {
        MultiVxmScratch {
            spa: MultiSpa::default(),
            touched: Vec::new(),
            buckets: Vec::new(),
            range_touched: Vec::new(),
            range_rows: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_reuses_capacity_across_checkouts() {
        let ws = OpWorkspace::new();
        let mut scratch: VxmScratch<u64> = ws.take();
        scratch.spa.begin(100);
        assert!(!scratch.spa.upsert(7, 1, |a, b| a + b));
        assert!(scratch.spa.upsert(7, 2, |a, b| a + b));
        assert_eq!(scratch.spa.take_value(7), 3);
        scratch.touched.reserve(4096);
        let cap = scratch.touched.capacity();
        ws.put(scratch);

        let scratch: VxmScratch<u64> = ws.take();
        assert!(scratch.touched.capacity() >= cap, "capacity must survive");
        // A second checkout while the first is out gets a fresh default.
        let fresh: VxmScratch<u64> = ws.take();
        assert_eq!(fresh.touched.capacity(), 0);
    }

    #[test]
    fn spa_generations_isolate_calls() {
        let mut spa: Spa<u32> = Spa::default();
        spa.begin(10);
        spa.upsert(3, 30, |_, _| unreachable!());
        spa.begin(10);
        assert!(!spa.is_live(3), "new generation must kill old slots");
        assert!(!spa.upsert(3, 31, |_, _| unreachable!()));
        assert_eq!(spa.take_value(3), 31);
    }

    #[test]
    fn multi_spa_generations_isolate_calls_per_column() {
        let mut spa: MultiSpa<f64> = MultiSpa::default();
        spa.begin(8, 4);
        assert!(!spa.is_live(5));
        spa.make_live(5);
        assert!(spa.is_live(5));
        assert_eq!(spa.active_word(5), 0);
        spa.set(5, 2, 1.5);
        assert!(spa.col_active(5, 2));
        assert!(!spa.col_active(5, 0));
        assert_eq!(*spa.peek(5, 2), 1.5);
        assert_eq!(spa.active_word(5), 0b100);
        spa.begin(8, 4);
        assert!(!spa.is_live(5), "new generation must kill old slots");
    }

    #[test]
    fn cloned_workspace_starts_cold() {
        let ws = OpWorkspace::new();
        ws.put::<Vec<u64>>(Vec::with_capacity(64));
        let cold = ws.clone();
        let buf: Vec<u64> = cold.take();
        assert_eq!(buf.capacity(), 0);
        let warm: Vec<u64> = ws.take();
        assert!(warm.capacity() >= 64);
    }
}
