//! The frontier matrix and its multi-column SpMSpV.
//!
//! Batched traversals have the data shape the paper describes for LAGraph
//! BC (§V-E): "most of the operations are matrix-matrix, where one matrix
//! is dense and 4-by-n". [`FrontierMatrix`] is that n×k operand stored as
//! the union of k sparse column frontiers: each stored row is a vertex
//! active in at least one column, with an `active` bitmask saying which
//! columns and k column values.
//!
//! [`vxm_multi`] advances all k columns through the adjacency matrix in a
//! single sweep — the `mxm` every batched kernel (BFS k=1, batch BC k=4,
//! MS-BFS up to k=64) reduces to. It reuses the two-phase deterministic
//! radix scatter of the single-column `vxm`: phase A partitions the
//! frontier into fixed blocks and buckets `(column, frontier-row, weight)`
//! triples by output range in frontier order; phase B replays buckets in
//! block order into disjoint windows of one shared k-wide
//! generation-stamped SPA. Per-(vertex, column) combine order therefore
//! equals the serial frontier order regardless of which worker runs what,
//! so results are **bit-identical at every thread count** — even for
//! order-sensitive monoids like `any` and floating-point `plus`.
//!
//! Per-column masking goes through a `col_mask` closure mapping an output
//! vertex to the word of columns allowed to write it. That is the
//! complemented-parent mask of BFS (all-or-nothing across k=1), and the
//! "columns that have not discovered this vertex" mask of batch BC.

use crate::matrix::GrbMatrix;
use crate::ops::{traced, VXM_BLOCK, VXM_PAR_CUTOFF};
use crate::semiring::{AddMonoid, Semiring};
use crate::workspace::{MultiVxmScratch, OpWorkspace};
use crate::GrbIndex;
use gapbs_parallel::{Schedule, SharedSlice, ThreadPool};
use gapbs_telemetry::{record, Counter};

/// Maximum column count of a frontier matrix: one bit per column in the
/// `active` / mask words.
pub(crate) const MAX_COLUMNS: usize = 64;

/// A sparse n×k matrix of k column frontiers, stored row-major over the
/// union of the columns' structures. Rows are kept in the order they were
/// pushed; [`vxm_multi`] outputs rows sorted by vertex index.
#[derive(Debug, Clone)]
pub(crate) struct FrontierMatrix<X> {
    k: usize,
    indices: Vec<GrbIndex>,
    active: Vec<u64>,
    values: Vec<X>,
}

impl<X> Default for FrontierMatrix<X> {
    fn default() -> Self {
        FrontierMatrix {
            k: 0,
            indices: Vec::new(),
            active: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<X> FrontierMatrix<X> {
    /// An empty frontier matrix with `k` columns.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds [`MAX_COLUMNS`].
    pub(crate) fn new(k: usize) -> Self {
        let mut fm = FrontierMatrix::default();
        fm.reset(k);
        fm
    }

    /// Clears all rows and sets the column count, keeping capacity.
    pub(crate) fn reset(&mut self, k: usize) {
        assert!(
            (1..=MAX_COLUMNS).contains(&k),
            "column count {k} outside 1..={MAX_COLUMNS}"
        );
        self.k = k;
        self.indices.clear();
        self.active.clear();
        self.values.clear();
    }

    /// Number of columns.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Number of stored rows (vertices active in at least one column).
    pub(crate) fn len(&self) -> usize {
        self.indices.len()
    }

    /// `true` when no column has an active vertex.
    pub(crate) fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Appends a row: vertex `index`, the word of columns it is active
    /// in, and its `k` column values (inactive slots are ignored).
    pub(crate) fn push_row(&mut self, index: GrbIndex, active: u64, values: &[X])
    where
        X: Clone,
    {
        debug_assert_eq!(values.len(), self.k, "row value stride mismatch");
        debug_assert!(active != 0, "a stored row must be active somewhere");
        debug_assert!(self.k == 64 || active < 1u64 << self.k);
        self.indices.push(index);
        self.active.push(active);
        self.values.extend_from_slice(values);
    }

    /// Appends a row whose values come from `value_of(column)`.
    pub(crate) fn push_row_with(
        &mut self,
        index: GrbIndex,
        active: u64,
        mut value_of: impl FnMut(usize) -> X,
    ) {
        debug_assert!(active != 0, "a stored row must be active somewhere");
        self.indices.push(index);
        self.active.push(active);
        for c in 0..self.k {
            self.values.push(value_of(c));
        }
    }

    /// Row `t` as `(vertex, active columns, k values)`.
    pub(crate) fn row(&self, t: usize) -> (GrbIndex, u64, &[X]) {
        (
            self.indices[t],
            self.active[t],
            &self.values[t * self.k..(t + 1) * self.k],
        )
    }

    /// Iterates rows as `(vertex, active columns, k values)`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (GrbIndex, u64, &[X])> + '_ {
        (0..self.len()).map(move |t| self.row(t))
    }

    /// Moves every row of `other` onto the end of `self`.
    ///
    /// # Panics
    ///
    /// Panics when the column counts differ.
    pub(crate) fn append(&mut self, other: &mut FrontierMatrix<X>) {
        assert_eq!(self.k, other.k, "column count mismatch");
        self.indices.append(&mut other.indices);
        self.active.append(&mut other.active);
        self.values.append(&mut other.values);
    }
}

/// Multi-column push product `Y<col_mask> = X' * A`: every frontier row
/// scatters along its adjacency row, advancing all k columns at once.
/// `col_mask(j)` is the word of columns allowed to write output vertex
/// `j`; it must be pure for the duration of the call (both phases of the
/// parallel path re-evaluate it). Above [`VXM_PAR_CUTOFF`] frontier rows
/// the scatter runs on `pool` via the radix two-phase described in the
/// module docs; the result is bit-identical to the serial path at every
/// pool size. Output rows are sorted by vertex index, and inactive value
/// slots hold `Y::default()` so equal inputs produce equal outputs.
pub(crate) fn vxm_multi<X, Y, S, F>(
    semiring: &S,
    x: &FrontierMatrix<X>,
    a: &GrbMatrix,
    col_mask: &F,
    ws: &OpWorkspace,
    pool: &ThreadPool,
) -> FrontierMatrix<Y>
where
    X: Clone + Sync,
    Y: Clone + Default + Send + 'static,
    S: Semiring<X, Y> + Sync,
    S::Add: Sync,
    F: Fn(GrbIndex) -> u64 + Sync,
{
    traced("vxm_multi", || {
        let n = a.ncols();
        let mut scratch: MultiVxmScratch<Y> = ws.take();
        let out = if pool.num_threads() > 1 && x.len() >= VXM_PAR_CUTOFF && n > 0 {
            vxm_multi_parallel(semiring, x, a, col_mask, &mut scratch, pool)
        } else {
            vxm_multi_serial(semiring, x, a, col_mask, &mut scratch)
        };
        ws.put(scratch);
        out
    })
}

/// The serial k-wide SPA scatter — the combine-order reference the
/// parallel path reproduces.
fn vxm_multi_serial<X, Y, S, F>(
    semiring: &S,
    x: &FrontierMatrix<X>,
    a: &GrbMatrix,
    col_mask: &F,
    scratch: &mut MultiVxmScratch<Y>,
) -> FrontierMatrix<Y>
where
    X: Clone,
    Y: Clone + Default,
    S: Semiring<X, Y>,
    F: Fn(GrbIndex) -> u64,
{
    let n = a.ncols() as usize;
    let k = x.k();
    let add = semiring.add();
    scratch.spa.begin(n, k);
    scratch.touched.clear();
    let (mut scanned, mut hits, mut inserts) = (0u64, 0u64, 0u64);
    for (u, row_active, row_vals) in x.iter() {
        let (cols, weights) = a.row_parts(u);
        scanned += cols.len() as u64;
        for (e, &j) in cols.iter().enumerate() {
            let mut allowed = row_active & col_mask(j);
            if allowed == 0 {
                continue;
            }
            let ju = j as usize;
            if !scratch.spa.is_live(ju) {
                scratch.spa.make_live(ju);
                scratch.touched.push(j);
            }
            while allowed != 0 {
                let c = allowed.trailing_zeros() as usize;
                allowed &= allowed - 1;
                if scratch.spa.col_active(ju, c) {
                    if add.is_terminal(scratch.spa.peek(ju, c)) {
                        continue;
                    }
                    let product = semiring.multiply(u, weights[e], &row_vals[c]);
                    // Same shape as the single-column engine
                    // (`combine(identity, product)` first) so the two
                    // agree bit-for-bit at k = 1.
                    let value = add.combine(add.identity(), product);
                    let cur = scratch.spa.peek(ju, c).clone();
                    scratch.spa.set(ju, c, add.combine(cur, value));
                    hits += 1;
                } else {
                    let product = semiring.multiply(u, weights[e], &row_vals[c]);
                    scratch.spa.set(ju, c, add.combine(add.identity(), product));
                    inserts += 1;
                }
            }
        }
    }
    record(Counter::EdgesExamined, scanned);
    record(Counter::SpaHits, hits);
    record(Counter::SpaInserts, inserts);
    scratch.touched.sort_unstable();
    let mut out = FrontierMatrix::new(k);
    let spa = &scratch.spa;
    for &j in &scratch.touched {
        let ju = j as usize;
        let active = spa.active_word(ju);
        out.push_row_with(j, active, |c| {
            if active >> c & 1 != 0 {
                spa.peek(ju, c).clone()
            } else {
                Y::default()
            }
        });
    }
    out
}

/// The two-phase radix k-wide SpMSpV. Phase A buckets cheap
/// `(column, frontier-row, weight)` triples by output range in frontier
/// order; phase B replays buckets in block order into disjoint windows of
/// the shared k-wide SPA, recomputing products there. See the determinism
/// argument in the module docs.
fn vxm_multi_parallel<X, Y, S, F>(
    semiring: &S,
    x: &FrontierMatrix<X>,
    a: &GrbMatrix,
    col_mask: &F,
    scratch: &mut MultiVxmScratch<Y>,
    pool: &ThreadPool,
) -> FrontierMatrix<Y>
where
    X: Clone + Sync,
    Y: Clone + Default + Send,
    S: Semiring<X, Y> + Sync,
    S::Add: Sync,
    F: Fn(GrbIndex) -> u64 + Sync,
{
    let n = a.ncols() as usize;
    let k = x.k();
    let add = semiring.add();
    let blocks = x.len().div_ceil(VXM_BLOCK);
    // Range count tracks the pool for load balance; the output is
    // partition-independent, so this does not affect results.
    let range_width = n.div_ceil((4 * pool.num_threads()).min(n));
    let ranges = n.div_ceil(range_width);

    let MultiVxmScratch {
        spa,
        touched: _,
        buckets,
        range_touched,
        range_rows,
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
    if range_rows.len() < ranges {
        range_rows.resize_with(ranges, FrontierMatrix::default);
    }
    for rows in range_rows.iter_mut().take(ranges) {
        rows.reset(k);
    }

    // Phase A: bucket (column, frontier-row, weight) triples by output
    // range. Each block is owned by exactly one worker, so its `ranges`
    // bucket slots are written disjointly.
    let bucket_slice = SharedSlice::new(&mut buckets[..blocks * ranges]);
    pool.for_each_index(blocks, Schedule::Dynamic(1), |b| {
        // SAFETY: block `b` owns bucket slots `[b*ranges, (b+1)*ranges)`.
        let mine = unsafe { bucket_slice.range_mut(b * ranges, (b + 1) * ranges) };
        let lo = b * VXM_BLOCK;
        let hi = (lo + VXM_BLOCK).min(x.len());
        let mut scanned = 0u64;
        for t in lo..hi {
            let (u, row_active, _) = x.row(t);
            let (cols, weights) = a.row_parts(u);
            scanned += cols.len() as u64;
            for (e, &j) in cols.iter().enumerate() {
                if row_active & col_mask(j) == 0 {
                    continue;
                }
                mine[j as usize / range_width].push((j, t as u32, weights[e]));
            }
        }
        record(Counter::EdgesExamined, scanned);
    });

    // Phase B: each range replays its buckets in block order into its
    // disjoint SPA window — per-(vertex, column) combine order is
    // therefore the serial frontier order.
    spa.begin(n, k);
    let (stamps, active, values, generation) = spa.parts_mut();
    let stamp_slice = SharedSlice::new(&mut stamps[..n]);
    let active_slice = SharedSlice::new(&mut active[..n]);
    let value_slice = SharedSlice::new(&mut values[..n * k]);
    let touched_slice = SharedSlice::new(&mut range_touched[..ranges]);
    let rows_slice = SharedSlice::new(&mut range_rows[..ranges]);
    pool.for_each_index(ranges, Schedule::Dynamic(1), |r| {
        let jlo = r * range_width;
        let jhi = (jlo + range_width).min(n);
        // SAFETY: range `r` owns SPA window `[jlo, jhi)` (values window
        // `[jlo*k, jhi*k)`), bucket slots `b*ranges + r` for every block,
        // and its own output vectors.
        let stamps_r = unsafe { stamp_slice.range_mut(jlo, jhi) };
        let active_r = unsafe { active_slice.range_mut(jlo, jhi) };
        let values_r = unsafe { value_slice.range_mut(jlo * k, jhi * k) };
        let touched = &mut unsafe { touched_slice.range_mut(r, r + 1) }[0];
        let out = &mut unsafe { rows_slice.range_mut(r, r + 1) }[0];
        let (mut hits, mut inserts) = (0u64, 0u64);
        for b in 0..blocks {
            let bucket =
                &mut unsafe { bucket_slice.range_mut(b * ranges + r, b * ranges + r + 1) }[0];
            for (j, t, w) in bucket.drain(..) {
                let jj = j as usize - jlo;
                let (u, row_active, row_vals) = x.row(t as usize);
                // Pure closure + unchanged inputs: the same nonzero word
                // phase A saw.
                let mut allowed = row_active & col_mask(j);
                if stamps_r[jj] != generation {
                    stamps_r[jj] = generation;
                    active_r[jj] = 0;
                    touched.push(j);
                }
                while allowed != 0 {
                    let c = allowed.trailing_zeros() as usize;
                    allowed &= allowed - 1;
                    let slot = jj * k + c;
                    if active_r[jj] >> c & 1 != 0 {
                        if add.is_terminal(&values_r[slot]) {
                            continue;
                        }
                        let product = semiring.multiply(u, w, &row_vals[c]);
                        // Same shape as the serial path (`combine(identity,
                        // product)` first) so results match bit-for-bit.
                        let value = add.combine(add.identity(), product);
                        let cur = values_r[slot].clone();
                        values_r[slot] = add.combine(cur, value);
                        hits += 1;
                    } else {
                        let product = semiring.multiply(u, w, &row_vals[c]);
                        values_r[slot] = add.combine(add.identity(), product);
                        active_r[jj] |= 1 << c;
                        inserts += 1;
                    }
                }
            }
        }
        touched.sort_unstable();
        for j in touched.drain(..) {
            let jj = j as usize - jlo;
            let aw = active_r[jj];
            out.push_row_with(j, aw, |c| {
                if aw >> c & 1 != 0 {
                    values_r[jj * k + c].clone()
                } else {
                    Y::default()
                }
            });
        }
        record(Counter::SpaHits, hits);
        record(Counter::SpaInserts, inserts);
    });

    // Ranges cover ascending index windows, so concatenation in range
    // order yields the globally sorted row list.
    let mut out = FrontierMatrix::new(k);
    for rows in range_rows.iter_mut().take(ranges) {
        out.append(rows);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{vxm, Mask};
    use crate::semiring::{AnySecondI, PlusSecond};
    use crate::vector::{GrbVector, Storage};
    use gapbs_graph::gen;

    fn all_columns(_: GrbIndex) -> u64 {
        u64::MAX
    }

    #[test]
    fn single_column_agrees_with_vxm() {
        let g = gen::kron(8, 8, 3);
        let a = GrbMatrix::from_graph(&g);
        let ws = OpWorkspace::new();
        let pool = ThreadPool::new(2);
        let semiring = AnySecondI::default();
        // A parent bitmap covering some vertices, complemented as the mask.
        let mut pi: GrbVector<GrbIndex> = GrbVector::new(a.ncols());
        pi.convert(Storage::Bitmap, None);
        for v in (0..a.ncols()).step_by(3) {
            pi.set(v, v);
        }
        let frontier: Vec<GrbIndex> = (0..a.ncols()).step_by(5).collect();
        let x: GrbVector<()> =
            GrbVector::from_sorted_entries(a.ncols(), frontier.iter().map(|&v| (v, ())).collect());
        let mask = Mask::complement(&pi);
        let expect = vxm(&semiring, &x, &a, Some(&mask), &ws, &pool);

        let mut fm: FrontierMatrix<()> = FrontierMatrix::new(1);
        for &v in &frontier {
            fm.push_row(v, 1, &[()]);
        }
        let (words, _) = pi.bitmap_slots().expect("pi is bitmap");
        let unseen = |j: GrbIndex| u64::from(words[j as usize / 64] >> (j % 64) & 1 == 0);
        let got = vxm_multi(&semiring, &fm, &a, &unseen, &ws, &pool);

        let expect_entries = expect.sparse_entries().expect("vxm output is sparse");
        assert_eq!(got.len(), expect_entries.len());
        for (t, &(j, p)) in expect_entries.iter().enumerate() {
            let (gj, ga, gv) = got.row(t);
            assert_eq!(gj, j);
            assert_eq!(ga, 1);
            assert_eq!(gv[0], p, "parent mismatch at {j}");
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial_across_widths() {
        for &k in &[1usize, 3, 64] {
            let g = gen::kron(10, 8, 7);
            let a = GrbMatrix::from_graph(&g);
            let n = a.ncols();
            let semiring = PlusSecond::default();
            // A wide frontier with k staggered columns of float values.
            let mut fm: FrontierMatrix<f64> = FrontierMatrix::new(k);
            for v in 0..n {
                if v.is_multiple_of(2) {
                    let active = (0..k)
                        .filter(|c| !(v as usize + c).is_multiple_of(3))
                        .fold(0u64, |m, c| m | 1 << c);
                    if active == 0 {
                        continue;
                    }
                    let vals: Vec<f64> =
                        (0..k).map(|c| 1.0 + (v as f64) * 0.25 + c as f64).collect();
                    fm.push_row(v, active, &vals);
                }
            }
            assert!(fm.len() >= VXM_PAR_CUTOFF, "test must cross the cutoff");
            let mask = |j: GrbIndex| if j.is_multiple_of(7) { 0 } else { u64::MAX };

            let serial_ws = OpWorkspace::new();
            let serial_pool = ThreadPool::new(1);
            let expect = vxm_multi(&semiring, &fm, &a, &mask, &serial_ws, &serial_pool);
            assert!(!expect.is_empty());
            for threads in [2, 3, 7] {
                let ws = OpWorkspace::new();
                let pool = ThreadPool::new(threads);
                // Twice per pool: the second call reuses warm scratch.
                for _ in 0..2 {
                    let got = vxm_multi(&semiring, &fm, &a, &mask, &ws, &pool);
                    assert_eq!(got.len(), expect.len(), "{threads} threads, k={k}");
                    for t in 0..expect.len() {
                        let (ej, ea, ev) = expect.row(t);
                        let (gj, ga, gv) = got.row(t);
                        assert_eq!((gj, ga), (ej, ea), "{threads} threads, k={k}");
                        for c in 0..k {
                            assert!(
                                gv[c].to_bits() == ev[c].to_bits(),
                                "row {ej} col {c}: {} vs {} ({threads} threads, k={k})",
                                gv[c],
                                ev[c]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn col_mask_gates_columns_independently() {
        // Path 0 -> 1 -> 2; column 0 may write vertex 1, column 1 may not.
        let g = gapbs_graph::Builder::new()
            .build(gapbs_graph::edgelist::edges([(0, 1), (1, 2)]))
            .unwrap();
        let a = GrbMatrix::from_graph(&g);
        let ws = OpWorkspace::new();
        let pool = ThreadPool::new(1);
        let semiring = PlusSecond::default();
        let mut fm: FrontierMatrix<f64> = FrontierMatrix::new(2);
        fm.push_row(0, 0b11, &[2.0, 5.0]);
        let mask = |j: GrbIndex| if j == 1 { 0b01 } else { 0b11 };
        let got = vxm_multi(&semiring, &fm, &a, &mask, &ws, &pool);
        assert_eq!(got.len(), 1);
        let (j, active, vals) = got.row(0);
        assert_eq!(j, 1);
        assert_eq!(active, 0b01, "column 1 must be masked out");
        assert_eq!(vals[0], 2.0);
        assert_eq!(vals[1], 0.0, "inactive slots hold the default");
    }

    #[test]
    fn duplicate_contributions_combine_in_frontier_order() {
        // Two frontier rows both reach vertex 2.
        let g = gapbs_graph::Builder::new()
            .build(gapbs_graph::edgelist::edges([(0, 2), (1, 2)]))
            .unwrap();
        let a = GrbMatrix::from_graph(&g);
        let ws = OpWorkspace::new();
        let pool = ThreadPool::new(1);
        let semiring = PlusSecond::default();
        let mut fm: FrontierMatrix<f64> = FrontierMatrix::new(2);
        fm.push_row(0, 0b11, &[1.0, 10.0]);
        fm.push_row(1, 0b01, &[2.0, 0.0]);
        let got = vxm_multi(&semiring, &fm, &a, &all_columns, &ws, &pool);
        assert_eq!(got.len(), 1);
        let (j, active, vals) = got.row(0);
        assert_eq!(j, 2);
        assert_eq!(active, 0b11);
        assert_eq!(vals[0], 3.0, "column 0 sums both rows");
        assert_eq!(vals[1], 10.0, "column 1 sees only row 0");
    }

    #[test]
    fn empty_frontier_yields_empty_output() {
        let g = gen::kron(6, 4, 1);
        let a = GrbMatrix::from_graph(&g);
        let ws = OpWorkspace::new();
        let pool = ThreadPool::new(2);
        let fm: FrontierMatrix<f64> = FrontierMatrix::new(4);
        let got = vxm_multi(&PlusSecond::default(), &fm, &a, &all_columns, &ws, &pool);
        assert!(got.is_empty());
        assert_eq!(got.k(), 4);
    }
}
