//! Bulk GraphBLAS operations: masked matrix-vector products over semirings,
//! assignment, apply, reduce, element-wise combination, and the masked
//! matrix-matrix product triangle counting uses.
//!
//! Push (`vxm`) scatters from the sparse input vector; pull (`mxv`)
//! gathers per output row and parallelizes across rows. Masks follow the
//! GraphBLAS convention: `C<M> = ...` touches only positions `M` allows,
//! and a *complemented* mask (`C<!M>`) allows positions where `M` has no
//! entry.
//!
//! # Engine design
//!
//! Every operation draws scratch from an [`OpWorkspace`] and runs on a
//! [`ThreadPool`], and every output path is lock-free:
//!
//! * `vxm` is a two-phase SpMSpV. Phase A partitions the frontier into
//!   fixed blocks and radix-buckets each block's `(index, product)`
//!   pairs by output range; phase B gives each range worker a disjoint
//!   window of one shared generation-stamped SPA and replays buckets in
//!   block order. Because the per-index combine order equals the serial
//!   frontier order regardless of which worker runs what, results are
//!   **bit-identical at every thread count** — even for order-sensitive
//!   monoids like `any` and floating-point `plus`.
//! * `mxv` spills per-worker `(row, value)` pairs (`PerWorker`) and
//!   concatenates after the region; rows are unique, so one sort by
//!   index restores a canonical order. No mutex is touched.
//! * `mxm_pair_masked_sum` is a pure per-row reduction of counts.
//! * `reduce`/`apply`/`select` route through the pool
//!   above a size cutoff; `reduce` folds fixed blocks in block order so
//!   float reductions associate identically at every thread count.
//!
//! Masks over Bitmap-stored vectors probe the word-packed presence
//! bitset — one shift/AND per test instead of a binary search.

use crate::matrix::GrbMatrix;
use crate::semiring::{AddMonoid, Semiring};
use crate::vector::GrbVector;
use crate::workspace::{OpWorkspace, VxmScratch};
use crate::GrbIndex;
use gapbs_graph::intersect;
use gapbs_parallel::{Schedule, SharedSlice, ThreadPool};
use gapbs_telemetry::{record, trace, Counter};

/// Frontier entries per phase-A block of the parallel `vxm`. Fixed (not
/// thread-derived) so block boundaries — and therefore combine order —
/// never depend on the pool. Shared with the multi-column
/// [`vxm_multi`](crate::frontier::vxm_multi) so both engines partition
/// frontiers identically.
pub(crate) const VXM_BLOCK: usize = 128;

/// Below this frontier size `vxm` runs its serial SPA path: two region
/// launches would cost more than the scatter.
pub(crate) const VXM_PAR_CUTOFF: usize = 256;

/// Entry block width for the deterministic blocked `reduce` and the
/// blocked `apply`/`select` gathers.
const ENTRY_BLOCK: usize = 4096;

/// A structural mask over vector positions.
#[derive(Debug, Clone, Copy)]
pub struct Mask<'a, M: Clone> {
    vector: &'a GrbVector<M>,
    complemented: bool,
}

impl<'a, M: Clone> Mask<'a, M> {
    /// `C<!M>`: positions where `vector` has *no* entry.
    pub fn complement(vector: &'a GrbVector<M>) -> Self {
        Mask {
            vector,
            complemented: true,
        }
    }
}

/// A mask resolved to its storage once per operation, so the per-edge
/// test is a slice probe instead of a storage dispatch.
enum MaskProbe<'a, M> {
    Sparse {
        entries: &'a [(GrbIndex, M)],
        complemented: bool,
    },
    /// The word-packed fast path for Bitmap-stored masks.
    Words {
        words: &'a [u64],
        complemented: bool,
    },
    Full {
        complemented: bool,
    },
}

impl<'a, M: Clone> MaskProbe<'a, M> {
    fn new(mask: &Mask<'a, M>) -> Self {
        let complemented = mask.complemented;
        if let Some(entries) = mask.vector.sparse_entries() {
            MaskProbe::Sparse {
                entries,
                complemented,
            }
        } else if let Some((words, _)) = mask.vector.bitmap_slots() {
            MaskProbe::Words {
                words,
                complemented,
            }
        } else {
            MaskProbe::Full { complemented }
        }
    }

    /// Whether position `j` may be written.
    #[inline]
    fn allows(&self, j: GrbIndex) -> bool {
        match self {
            MaskProbe::Sparse {
                entries,
                complemented,
            } => entries.binary_search_by_key(&j, |&(i, _)| i).is_ok() != *complemented,
            MaskProbe::Words {
                words,
                complemented,
            } => (words[j as usize / 64] >> (j % 64) & 1 != 0) != *complemented,
            MaskProbe::Full { complemented } => !*complemented,
        }
    }

    /// `true` when tests hit the word-packed bitmap fast path.
    fn words_backed(&self) -> bool {
        matches!(self, MaskProbe::Words { .. })
    }
}

/// The input vector of a pull product, resolved to its storage once.
enum VecProbe<'a, X> {
    Sparse(&'a [(GrbIndex, X)]),
    Bitmap(&'a [Option<X>]),
    Full(&'a [X]),
}

impl<'a, X: Clone> VecProbe<'a, X> {
    fn new(x: &'a GrbVector<X>) -> Self {
        if let Some(entries) = x.sparse_entries() {
            VecProbe::Sparse(entries)
        } else if let Some((_, slots)) = x.bitmap_slots() {
            VecProbe::Bitmap(slots)
        } else {
            VecProbe::Full(x.as_full_slice())
        }
    }

    #[inline]
    fn get(&self, k: GrbIndex) -> Option<&X> {
        match self {
            VecProbe::Sparse(entries) => entries
                .binary_search_by_key(&k, |&(i, _)| i)
                .ok()
                .map(|pos| &entries[pos].1),
            VecProbe::Bitmap(slots) => slots[k as usize].as_ref(),
            VecProbe::Full(values) => Some(&values[k as usize]),
        }
    }
}

/// Wraps one engine operation in a session-gated `grb:{op}` trace event.
pub(crate) fn traced<R>(op: &'static str, f: impl FnOnce() -> R) -> R {
    if !trace::is_on() {
        return f();
    }
    let start = trace::now_ns();
    let out = f();
    trace::grb_op(op, start);
    out
}

/// Push-direction product `y<mask> = x' * A`: every entry `x_k` scatters
/// along row `k` of `A`, accumulating into a workspace SPA. Above
/// `VXM_PAR_CUTOFF` frontier entries the scatter runs on `pool` via the
/// radix two-phase described in the module docs; the result is
/// bit-identical to the serial path at every pool size.
pub fn vxm<X, Y, S, M>(
    semiring: &S,
    x: &GrbVector<X>,
    a: &GrbMatrix,
    mask: Option<&Mask<'_, M>>,
    ws: &OpWorkspace,
    pool: &ThreadPool,
) -> GrbVector<Y>
where
    X: Clone + Sync,
    Y: Clone + Send + 'static,
    M: Clone + Sync,
    S: Semiring<X, Y> + Sync,
    S::Add: Sync,
{
    traced("vxm", || {
        let n = a.ncols();
        let mut scratch: VxmScratch<Y> = ws.take();
        let mask_probe = mask.map(MaskProbe::new);
        let frontier = x.sparse_entries();
        let out = match frontier {
            Some(entries) if pool.num_threads() > 1 && entries.len() >= VXM_PAR_CUTOFF && n > 0 => {
                vxm_parallel(
                    semiring,
                    entries,
                    a,
                    mask_probe.as_ref(),
                    &mut scratch,
                    pool,
                )
            }
            Some(entries) => vxm_serial(
                semiring,
                entries.iter().map(|(k, xv)| (*k, xv)),
                a,
                mask_probe.as_ref(),
                &mut scratch,
            ),
            None => vxm_serial(semiring, x.iter(), a, mask_probe.as_ref(), &mut scratch),
        };
        ws.put(scratch);
        out
    })
}

/// The serial SPA scatter: exact GraphBLAS semantics, no per-call O(n)
/// allocation — the accumulator is generation-reset in O(1).
fn vxm_serial<'a, X, Y, S, M>(
    semiring: &S,
    frontier: impl Iterator<Item = (GrbIndex, &'a X)>,
    a: &GrbMatrix,
    mask: Option<&MaskProbe<'_, M>>,
    scratch: &mut VxmScratch<Y>,
) -> GrbVector<Y>
where
    X: Clone + 'a,
    Y: Clone,
    M: Clone,
    S: Semiring<X, Y>,
{
    let n = a.ncols();
    let add = semiring.add();
    scratch.spa.begin(n as usize);
    scratch.touched.clear();
    let bitmap_mask = mask.is_some_and(MaskProbe::words_backed);
    let (mut scanned, mut hits, mut inserts) = (0u64, 0u64, 0u64);
    for (k, xv) in frontier {
        let (cols, weights) = a.row_parts(k);
        scanned += cols.len() as u64;
        for (t, &j) in cols.iter().enumerate() {
            if let Some(m) = mask {
                if !m.allows(j) {
                    continue;
                }
            }
            let ju = j as usize;
            if scratch.spa.is_live(ju) && add.is_terminal(scratch.spa.peek(ju)) {
                continue;
            }
            let product = semiring.multiply(k, weights[t], xv);
            let value = add.combine(add.identity(), product);
            if scratch
                .spa
                .upsert(ju, value, |cur, new| add.combine(cur, new))
            {
                hits += 1;
            } else {
                inserts += 1;
                scratch.touched.push(j);
            }
        }
    }
    record(Counter::EdgesExamined, scanned);
    if bitmap_mask {
        record(Counter::MaskBitmapTests, scanned);
    }
    record(Counter::SpaHits, hits);
    record(Counter::SpaInserts, inserts);
    scratch.touched.sort_unstable();
    let entries = scratch
        .touched
        .iter()
        .map(|&j| (j, scratch.spa.take_value(j as usize)))
        .collect();
    GrbVector::from_sorted_entries(n, entries)
}

/// The two-phase radix SpMSpV. Phase A buckets products by output range
/// in frontier order; phase B replays buckets in block order into
/// disjoint windows of the shared SPA. See the determinism argument in
/// the module docs.
fn vxm_parallel<X, Y, S, M>(
    semiring: &S,
    frontier: &[(GrbIndex, X)],
    a: &GrbMatrix,
    mask: Option<&MaskProbe<'_, M>>,
    scratch: &mut VxmScratch<Y>,
    pool: &ThreadPool,
) -> GrbVector<Y>
where
    X: Clone + Sync,
    Y: Clone + Send,
    M: Clone + Sync,
    S: Semiring<X, Y> + Sync,
    S::Add: Sync,
{
    let n = a.ncols() as usize;
    let add = semiring.add();
    let blocks = frontier.len().div_ceil(VXM_BLOCK);
    // Range count tracks the pool for load balance; the output is
    // partition-independent, so this does not affect results.
    let range_width = n.div_ceil((4 * pool.num_threads()).min(n));
    let ranges = n.div_ceil(range_width);

    let VxmScratch {
        spa,
        touched: _,
        buckets,
        range_touched,
        range_entries,
    } = scratch;
    if buckets.len() < blocks * ranges {
        buckets.resize_with(blocks * ranges, Vec::new);
    }
    debug_assert!(
        buckets.iter().all(Vec::is_empty),
        "buckets drained per call"
    );
    if range_touched.len() < ranges {
        range_touched.resize_with(ranges, Vec::new);
    }
    if range_entries.len() < ranges {
        range_entries.resize_with(ranges, Vec::new);
    }

    // Phase A: scatter products into per-(block, range) buckets. Each
    // block is owned by exactly one worker, so its `ranges` bucket slots
    // are written disjointly.
    let bucket_slice = SharedSlice::new(&mut buckets[..blocks * ranges]);
    let bitmap_mask = mask.is_some_and(MaskProbe::words_backed);
    pool.for_each_index(blocks, Schedule::Dynamic(1), |b| {
        // SAFETY: block `b` owns bucket slots `[b*ranges, (b+1)*ranges)`.
        let mine = unsafe { bucket_slice.range_mut(b * ranges, (b + 1) * ranges) };
        let lo = b * VXM_BLOCK;
        let hi = (lo + VXM_BLOCK).min(frontier.len());
        let mut scanned = 0u64;
        for (k, xv) in &frontier[lo..hi] {
            let (cols, weights) = a.row_parts(*k);
            scanned += cols.len() as u64;
            for (t, &j) in cols.iter().enumerate() {
                if let Some(m) = mask {
                    if !m.allows(j) {
                        continue;
                    }
                }
                let product = semiring.multiply(*k, weights[t], xv);
                mine[j as usize / range_width].push((j, product));
            }
        }
        record(Counter::EdgesExamined, scanned);
        if bitmap_mask {
            record(Counter::MaskBitmapTests, scanned);
        }
    });

    // Phase B: each range replays its buckets in block order into its
    // disjoint SPA window — per-index combine order is therefore the
    // serial frontier order.
    spa.begin(n);
    let (stamps, values, generation) = spa.parts_mut();
    let stamp_slice = SharedSlice::new(&mut stamps[..n]);
    let value_slice = SharedSlice::new(&mut values[..n]);
    let touched_slice = SharedSlice::new(&mut range_touched[..ranges]);
    let entries_slice = SharedSlice::new(&mut range_entries[..ranges]);
    pool.for_each_index(ranges, Schedule::Dynamic(1), |r| {
        let jlo = r * range_width;
        let jhi = (jlo + range_width).min(n);
        // SAFETY: range `r` owns SPA window `[jlo, jhi)`, bucket slots
        // `b*ranges + r` for every block, and its own output vectors.
        let stamps_r = unsafe { stamp_slice.range_mut(jlo, jhi) };
        let values_r = unsafe { value_slice.range_mut(jlo, jhi) };
        let touched = &mut unsafe { touched_slice.range_mut(r, r + 1) }[0];
        let out = &mut unsafe { entries_slice.range_mut(r, r + 1) }[0];
        let (mut hits, mut inserts) = (0u64, 0u64);
        for b in 0..blocks {
            let bucket =
                &mut unsafe { bucket_slice.range_mut(b * ranges + r, b * ranges + r + 1) }[0];
            for (j, product) in bucket.drain(..) {
                let jj = j as usize - jlo;
                if stamps_r[jj] == generation {
                    let cur = values_r[jj].as_ref().expect("live SPA slot holds a value");
                    if add.is_terminal(cur) {
                        continue;
                    }
                    let old = values_r[jj].take().expect("live SPA slot holds a value");
                    // Same shape as the serial path (`combine(identity,
                    // product)` first) so results match bit-for-bit.
                    values_r[jj] = Some(add.combine(old, add.combine(add.identity(), product)));
                    hits += 1;
                } else {
                    stamps_r[jj] = generation;
                    values_r[jj] = Some(add.combine(add.identity(), product));
                    inserts += 1;
                    touched.push(j);
                }
            }
        }
        touched.sort_unstable();
        out.extend(touched.drain(..).map(|j| {
            (
                j,
                values_r[j as usize - jlo]
                    .take()
                    .expect("touched slot is live"),
            )
        }));
        record(Counter::SpaHits, hits);
        record(Counter::SpaInserts, inserts);
    });

    // Ranges cover ascending index windows, so concatenation in range
    // order yields the globally sorted entry list.
    let total = range_entries.iter().map(Vec::len).sum();
    let mut entries = Vec::with_capacity(total);
    for out in range_entries.iter_mut() {
        entries.append(out);
    }
    GrbVector::from_sorted_entries(n as GrbIndex, entries)
}

/// Pull-direction product `y<mask> = A * x`: each permitted output row `i`
/// gathers over its entries, with early exit when the monoid hits a
/// terminal value. Rows are processed in parallel; each worker spills
/// finished rows into its own buffer, so the output path has no lock.
pub fn mxv<X, Y, S, M>(
    semiring: &S,
    a: &GrbMatrix,
    x: &GrbVector<X>,
    mask: Option<&Mask<'_, M>>,
    ws: &OpWorkspace,
    pool: &ThreadPool,
) -> GrbVector<Y>
where
    X: Clone + Sync,
    Y: Clone + Send + 'static,
    M: Clone + Sync,
    S: Semiring<X, Y> + Sync,
{
    traced("mxv", || {
        let n = a.nrows();
        let threads = pool.num_threads();
        let mut spills: Vec<Vec<(GrbIndex, Y)>> = ws.take();
        if spills.len() < threads {
            spills.resize_with(threads, Vec::new);
        }
        debug_assert!(spills.iter().all(Vec::is_empty), "spills drained per call");
        let probe = VecProbe::new(x);
        let mask_probe = mask.map(MaskProbe::new);
        let bitmap_mask = mask_probe.as_ref().is_some_and(MaskProbe::words_backed);
        let spill_slice = SharedSlice::new(&mut spills[..threads]);
        // Degree-aware strips: each worker walks rows whose combined
        // entry mass fits the LLC budget, keeping the gathered slice of
        // `x` and the output spill warm for the whole strip.
        let strips = a.pull_strips();
        pool.for_each_index_tid(strips.len(), Schedule::Dynamic(1), |tid, s| {
            let mut scanned = 0u64;
            let mut bitmap_tests = 0u64;
            for i in strips.range(s) {
                let i = i as GrbIndex;
                if let Some(m) = &mask_probe {
                    if bitmap_mask {
                        bitmap_tests += 1;
                    }
                    if !m.allows(i) {
                        continue;
                    }
                }
                let add = semiring.add();
                let mut acc: Option<Y> = None;
                let (cols, weights) = a.row_parts(i);
                for (t, &k) in cols.iter().enumerate() {
                    scanned += 1;
                    if let Some(xv) = probe.get(k) {
                        let product = semiring.multiply(k, weights[t], xv);
                        acc = Some(match acc.take() {
                            Some(cur) => add.combine(cur, product),
                            None => add.combine(add.identity(), product),
                        });
                        if add.is_terminal(acc.as_ref().expect("just set")) {
                            break;
                        }
                    }
                }
                if let Some(y) = acc {
                    // SAFETY: slot `tid` is exclusive to the worker
                    // running as `tid` for the duration of this body.
                    let spill = unsafe { &mut spill_slice.range_mut(tid, tid + 1)[0] };
                    spill.push((i, y));
                }
            }
            record(Counter::EdgesExamined, scanned);
            if bitmap_tests > 0 {
                record(Counter::MaskBitmapTests, bitmap_tests);
            }
        });
        // Row indices are unique, so one sort restores canonical order
        // regardless of which worker produced which row.
        let total = spills.iter().map(Vec::len).sum();
        let mut entries = Vec::with_capacity(total);
        for spill in &mut spills {
            entries.append(spill);
        }
        ws.put(spills);
        entries.sort_unstable_by_key(|&(i, _)| i);
        GrbVector::from_sorted_entries(n, entries)
    })
}

/// Reduces a vector's entries with a monoid.
///
/// Above `ENTRY_BLOCK` entries the fold runs on the pool in fixed
/// blocks whose partials combine in block order — the choice of path and
/// the association both depend only on the entry count, so the result is
/// identical at every thread count even for floating-point monoids.
pub fn reduce<T, A>(vec: &GrbVector<T>, add: &A, pool: &ThreadPool) -> T
where
    T: Clone + Send + Sync,
    A: AddMonoid<T> + Sync,
{
    traced("reduce", || {
        if let Some(values) = vec.full_values() {
            return reduce_blocked(values, |v| v.clone(), add, pool);
        }
        if let Some(entries) = vec.sparse_entries() {
            return reduce_blocked(entries, |(_, v)| v.clone(), add, pool);
        }
        let mut acc = add.identity();
        for (_, v) in vec.iter() {
            acc = add.combine(acc, v.clone());
        }
        acc
    })
}

/// Fixed-block fold: block partials combine in block index order, so the
/// association is a pure function of `items.len()`.
fn reduce_blocked<I, T, A>(
    items: &[I],
    value: impl Fn(&I) -> T + Sync,
    add: &A,
    pool: &ThreadPool,
) -> T
where
    I: Sync,
    T: Clone + Send + Sync,
    A: AddMonoid<T> + Sync,
{
    if items.len() < 2 * ENTRY_BLOCK {
        return items
            .iter()
            .fold(add.identity(), |acc, i| add.combine(acc, value(i)));
    }
    let blocks = items.len().div_ceil(ENTRY_BLOCK);
    let mut partials: Vec<Option<T>> = vec![None; blocks];
    let out = SharedSlice::new(&mut partials);
    pool.for_each_index(blocks, Schedule::Dynamic(1), |b| {
        let lo = b * ENTRY_BLOCK;
        let hi = (lo + ENTRY_BLOCK).min(items.len());
        let acc = items[lo..hi]
            .iter()
            .fold(add.identity(), |acc, i| add.combine(acc, value(i)));
        // SAFETY: one writer per block slot.
        unsafe { out.write(b, Some(acc)) };
    });
    partials
        .into_iter()
        .map(|p| p.expect("every block reduced"))
        .fold(add.identity(), |acc, p| add.combine(acc, p))
}

/// Applies a function to every entry, producing a new (sparse) vector.
/// Large Sparse/Full inputs map their entry blocks on the pool.
#[cfg(test)]
pub(crate) fn apply<T, U, F>(vec: &GrbVector<T>, f: F, pool: &ThreadPool) -> GrbVector<U>
where
    T: Clone + Sync,
    U: Clone + Send,
    F: Fn(GrbIndex, &T) -> U + Sync,
{
    traced("apply", || {
        let entries = gather_blocked(vec, |i, v| Some((i, f(i, v))), pool);
        GrbVector::from_sorted_entries(vec.size(), entries)
    })
}

/// Keeps entries satisfying a predicate (GraphBLAS `select`). Large
/// Sparse/Full inputs filter their entry blocks on the pool.
pub(crate) fn select<T, F>(vec: &GrbVector<T>, keep: F, pool: &ThreadPool) -> GrbVector<T>
where
    T: Clone + Send + Sync,
    F: Fn(GrbIndex, &T) -> bool + Sync,
{
    traced("select", || {
        let entries = gather_blocked(vec, |i, v| keep(i, v).then(|| (i, v.clone())), pool);
        GrbVector::from_sorted_entries(vec.size(), entries)
    })
}

/// Maps a vector's present entries through `f` in index order,
/// parallelizing over fixed blocks whose outputs concatenate in block
/// order (so the result is identical to the serial scan).
fn gather_blocked<T, U>(
    vec: &GrbVector<T>,
    f: impl Fn(GrbIndex, &T) -> Option<(GrbIndex, U)> + Sync,
    pool: &ThreadPool,
) -> Vec<(GrbIndex, U)>
where
    T: Clone + Sync,
    U: Send,
{
    enum Items<'a, T> {
        Entries(&'a [(GrbIndex, T)]),
        Values(&'a [T]),
    }
    let items = if let Some(entries) = vec.sparse_entries() {
        Items::Entries(entries)
    } else if let Some(values) = vec.full_values() {
        Items::Values(values)
    } else {
        return vec.iter().filter_map(|(i, v)| f(i, v)).collect();
    };
    let len = match &items {
        Items::Entries(e) => e.len(),
        Items::Values(v) => v.len(),
    };
    let visit = |t: usize| match &items {
        Items::Entries(e) => {
            let (i, v) = &e[t];
            f(*i, v)
        }
        Items::Values(v) => f(t as GrbIndex, &v[t]),
    };
    if len < 2 * ENTRY_BLOCK || pool.num_threads() == 1 {
        return (0..len).filter_map(visit).collect();
    }
    let blocks = len.div_ceil(ENTRY_BLOCK);
    let mut per_block: Vec<Vec<(GrbIndex, U)>> = Vec::new();
    per_block.resize_with(blocks, Vec::new);
    let out = SharedSlice::new(&mut per_block);
    pool.for_each_index(blocks, Schedule::Dynamic(1), |b| {
        let lo = b * ENTRY_BLOCK;
        let hi = (lo + ENTRY_BLOCK).min(len);
        let local: Vec<(GrbIndex, U)> = (lo..hi).filter_map(visit).collect();
        // SAFETY: one writer per block slot.
        unsafe { out.write(b, local) };
    });
    let mut entries = Vec::with_capacity(per_block.iter().map(Vec::len).sum());
    for mut block in per_block {
        entries.append(&mut block);
    }
    entries
}

/// Masked matrix-matrix product reduced to a scalar with the `plus_pair`
/// semiring: `sum(C)` where `C<L> = L * U'`. This is Gustavson's masked
/// SpGEMM with the mask as the scatter target: row `i` of `L` is marked
/// once, each `C_ij = |L_i ∩ U'_j|` for `j ∈ L_i` is a sum of mark probes
/// over row `j` of `U'`, and the entries are summed as they are produced
/// (the shared marked-row engine, [`gapbs_graph::intersect`]). `U'` must
/// have an empty diagonal, as `triu(A, 1)'` does: a row of `L` with a
/// single entry then contributes nothing, and the engine skips it.
pub fn mxm_pair_masked_sum(l: &GrbMatrix, u_t: &GrbMatrix, pool: &ThreadPool) -> u64 {
    traced("mxm", || {
        let found = intersect::count_marked(
            l.nrows() as usize,
            l.ncols().max(u_t.ncols()) as usize,
            pool,
            Schedule::Dynamic(128),
            |i| l.row(i as GrbIndex),
            |j| u_t.row(j),
        );
        // Marks set and probed feed both counters so `tc_intersections <=
        // edges_examined` holds by construction.
        record(Counter::TcIntersections, found.comparisons);
        record(Counter::EdgesExamined, l.nvals() + found.comparisons);
        found.count
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{AnySecondI, MinPlus, PlusSecond};
    use gapbs_graph::edgelist::edges;
    use gapbs_graph::Builder;

    fn pool() -> ThreadPool {
        ThreadPool::new(2)
    }

    fn ws() -> OpWorkspace {
        OpWorkspace::new()
    }

    fn path_matrix() -> GrbMatrix {
        // 0 -> 1 -> 2
        let g = Builder::new().build(edges([(0, 1), (1, 2)])).unwrap();
        GrbMatrix::from_graph(&g)
    }

    #[test]
    fn vxm_push_step_finds_children() {
        let a = path_matrix();
        let q = GrbVector::from_entries(3, vec![(0, ())]);
        let s = AnySecondI::default();
        let next: GrbVector<Option<GrbIndex>> =
            vxm(&s, &q, &a, None::<&Mask<'_, ()>>, &ws(), &pool());
        assert_eq!(next.nvals(), 1);
        assert_eq!(next.get(1), Some(&Some(0)), "parent of 1 is 0");
    }

    #[test]
    fn vxm_respects_complement_mask() {
        let a = path_matrix();
        let q = GrbVector::from_entries(3, vec![(0, ())]);
        let mut pi: GrbVector<GrbIndex> = GrbVector::new(3);
        pi.set(1, 99); // pretend 1 is already visited
        let s = AnySecondI::default();
        let masked = Mask::complement(&pi);
        let next: GrbVector<Option<GrbIndex>> = vxm(&s, &q, &a, Some(&masked), &ws(), &pool());
        assert_eq!(next.nvals(), 0, "visited vertex must not be rediscovered");
    }

    #[test]
    fn mxv_pull_step_gathers() {
        // Pull over A': children gather from parents. A' row 1 = {0}.
        let at = path_matrix().transpose();
        let q = GrbVector::from_entries(3, vec![(0, ())]);
        let s = AnySecondI::default();
        let next: GrbVector<Option<GrbIndex>> =
            mxv(&s, &at, &q, None::<&Mask<'_, ()>>, &ws(), &pool());
        assert_eq!(next.get(1), Some(&Some(0)));
        assert!(next.get(2).is_none());
    }

    #[test]
    fn min_plus_vxm_relaxes_distances() {
        use gapbs_graph::edgelist::wedges;
        let wg = Builder::new()
            .build_weighted(wedges([(0, 1, 5), (0, 2, 2), (2, 1, 1)]))
            .unwrap();
        let a = GrbMatrix::from_wgraph(&wg);
        let s = MinPlus::default();
        let d0 = GrbVector::from_entries(3, vec![(0, 0i64)]);
        let d1: GrbVector<i64> = vxm(&s, &d0, &a, None::<&Mask<'_, ()>>, &ws(), &pool());
        assert_eq!(d1.get(1), Some(&5));
        assert_eq!(d1.get(2), Some(&2));
    }

    #[test]
    fn plus_second_sums_contributions() {
        // two sources point at vertex 2
        let g = Builder::new().build(edges([(0, 2), (1, 2)])).unwrap();
        let at = GrbMatrix::from_graph(&g).transpose();
        let x = GrbVector::from_entries(3, vec![(0, 0.25f64), (1, 0.5)]);
        let s = PlusSecond::default();
        let y: GrbVector<f64> = mxv(&s, &at, &x, None::<&Mask<'_, ()>>, &ws(), &pool());
        assert_eq!(y.get(2), Some(&0.75));
    }

    #[test]
    fn masked_mxm_counts_triangles() {
        let g = Builder::new()
            .symmetrize(true)
            .build(edges([(0, 1), (1, 2), (2, 0), (2, 3)]))
            .unwrap();
        let a = GrbMatrix::from_graph(&g);
        let (l, u) = (a.tril(), a.triu());
        let count = mxm_pair_masked_sum(&l, &u.transpose(), &pool());
        assert_eq!(count, 1);
    }

    #[test]
    fn reduce_apply_select_roundtrip() {
        use crate::semiring::PlusMonoid;
        let p = pool();
        let v = GrbVector::from_entries(5, vec![(0, 1.0f64), (3, 2.0)]);
        let doubled = apply(&v, |_, x| x * 2.0, &p);
        assert_eq!(reduce(&doubled, &PlusMonoid, &p), 6.0);
        let big = select(&doubled, |_, x| *x > 3.0, &p);
        assert_eq!(big.nvals(), 1);
        assert_eq!(big.get(3), Some(&4.0));
    }

    #[test]
    fn parallel_vxm_is_bit_identical_to_serial() {
        // A frontier big enough to cross VXM_PAR_CUTOFF on a random-ish
        // graph, compared entry-for-entry across pool sizes.
        use gapbs_graph::gen;
        let g = gen::urand(10, 8, 42);
        let a = GrbMatrix::from_graph(&g);
        let n = a.nrows();
        let frontier: Vec<(GrbIndex, i64)> =
            (0..n).step_by(2).map(|i| (i, (i as i64) % 17)).collect();
        assert!(frontier.len() >= VXM_PAR_CUTOFF);
        let x = GrbVector::from_entries(n, frontier);
        let mut visited: GrbVector<()> = GrbVector::new(n);
        visited.convert(crate::vector::Storage::Bitmap, None);
        for i in (0..n).step_by(3) {
            visited.set(i, ());
        }
        let s = MinPlus::default();
        let serial = ThreadPool::new(1);
        let mask = Mask::complement(&visited);
        let reference: GrbVector<i64> = vxm(&s, &x, &a, Some(&mask), &ws(), &serial);
        for threads in [2, 3, 7] {
            let p = ThreadPool::new(threads);
            let w = ws();
            for _ in 0..2 {
                // twice: the second call reuses warm workspace buffers
                let got: GrbVector<i64> = vxm(&s, &x, &a, Some(&mask), &w, &p);
                assert_eq!(got.nvals(), reference.nvals(), "threads={threads}");
                assert!(got.iter().eq(reference.iter()), "threads={threads}");
            }
        }
    }

    #[test]
    fn mxv_is_thread_count_independent() {
        use gapbs_graph::gen;
        let g = gen::urand(9, 6, 7);
        let at = GrbMatrix::from_graph(&g).transpose();
        let n = at.nrows();
        let x =
            GrbVector::from_entries(n, (0..n).step_by(2).map(|i| (i, i as f64 * 0.5)).collect());
        let s = PlusSecond::default();
        let reference: GrbVector<f64> = mxv(
            &s,
            &at,
            &x,
            None::<&Mask<'_, ()>>,
            &ws(),
            &ThreadPool::new(1),
        );
        for threads in [2, 5] {
            let got: GrbVector<f64> = mxv(
                &s,
                &at,
                &x,
                None::<&Mask<'_, ()>>,
                &ws(),
                &ThreadPool::new(threads),
            );
            assert!(got.iter().eq(reference.iter()), "threads={threads}");
        }
    }

    #[test]
    fn blocked_reduce_matches_itself_across_pool_sizes() {
        use crate::semiring::PlusMonoid;
        let n = 3 * ENTRY_BLOCK as GrbIndex;
        let v = GrbVector::full(n, 0.1f64);
        let one = reduce(&v, &PlusMonoid, &ThreadPool::new(1));
        let four = reduce(&v, &PlusMonoid, &ThreadPool::new(4));
        assert_eq!(one.to_bits(), four.to_bits(), "association must be fixed");
    }
}
