//! Sorted-set intersection for triangle counting: marked rows.
//!
//! The paper credits the TC wins to degree relabeling plus a
//! hardware-shaped set intersection (§V-F, Table III), and its SuiteSparse
//! and GraphBLAST rows compute the same count as a masked SpGEMM. This
//! module is that formulation: over an *oriented* adjacency (row `u` holds
//! only the neighbors ordered before `u`, see
//! [`perm::apply_oriented_in`](crate::perm::apply_oriented_in)), row `u` is
//! scattered once into a per-worker byte array ([`RowMarks`]) and
//! `|row_u ∩ row_v|` for every `v` in the row is a branch-free sum of mark
//! reads over `row_v` — no searches, no ceiling tests, one probe per
//! element read. [`count_marked`] runs that over all rows on a pool, and
//! [`count_triangles`] over a graph. Marks are bytes, not bits: bit-packing
//! pays a shift and a mask per probe and measured slower (DESIGN.md §9).
//!
//! [`merge_count`] is the scalar two-pointer merge the marks are tested
//! against; [`contains`] serves `has_edge`.

use crate::graph::Graph;
use crate::perm;
use crate::types::NodeId;
use gapbs_parallel::{PerWorker, Schedule, ThreadPool};
use gapbs_telemetry::{Phase, Span};

/// Result of one intersection: the match count plus the adjacency
/// elements touched finding it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Intersection {
    /// Number of elements present in both lists.
    pub count: u64,
    /// Work spent: merge steps for [`merge_count`]; marks set plus mark
    /// probes (one per element of a probed row) for [`RowMarks`].
    pub comparisons: u64,
}

impl std::ops::AddAssign for Intersection {
    fn add_assign(&mut self, rhs: Self) {
        self.count += rhs.count;
        self.comparisons += rhs.comparisons;
    }
}

/// Scalar branch-free two-pointer merge: the independent oracle the
/// marked rows are tested against.
pub fn merge_count<T: Copy + Ord>(a: &[T], b: &[T]) -> Intersection {
    let mut out = Intersection::default();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.count += u64::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
        out.comparisons += 1;
    }
    out
}

/// One worker's mark array: a byte per index, all zero between rows.
///
/// Generic over the index type (`u32` adjacency rows, grb's `u64` column
/// indices). Indexing is bounds-checked: an index past the array panics.
#[derive(Debug)]
pub struct RowMarks {
    marks: Vec<u8>,
}

impl RowMarks {
    /// A cleared mark array for indices `0..n`.
    pub fn new(n: usize) -> Self {
        RowMarks { marks: vec![0; n] }
    }

    fn set<T: Copy + Into<u64>>(&mut self, row: &[T], value: u8) {
        for &x in row {
            self.marks[x.into() as usize] = value;
        }
    }

    /// Marks every element of `row`.
    pub fn mark<T: Copy + Into<u64>>(&mut self, row: &[T]) {
        self.set(row, 1);
    }

    /// Clears the marks of `row` by re-walking it (O(|row|), not O(n)).
    pub fn unmark<T: Copy + Into<u64>>(&mut self, row: &[T]) {
        self.set(row, 0);
    }

    /// `|marked ∩ row|` as a branch-free sum of mark reads.
    pub fn probe<T: Copy + Into<u64>>(&self, row: &[T]) -> u64 {
        row.iter()
            .map(|&x| u64::from(self.marks[x.into() as usize]))
            .sum()
    }

    /// `Σ_{v ∈ row_u} |row_u ∩ probed(v)|` — every triangle closed at this
    /// row when the rows are oriented. Leaves the array cleared. A row
    /// shorter than 2 cannot hold both other corners and is skipped.
    pub fn count_row<'a, T, P>(&mut self, row_u: &[T], probed: P) -> Intersection
    where
        T: Copy + Into<u64> + 'a,
        P: Fn(T) -> &'a [T],
    {
        if row_u.len() < 2 {
            return Intersection::default();
        }
        self.mark(row_u);
        let mut out = Intersection {
            count: 0,
            comparisons: row_u.len() as u64,
        };
        for &v in row_u {
            let row_v = probed(v);
            out.count += self.probe(row_v);
            out.comparisons += row_v.len() as u64;
        }
        self.unmark(row_u);
        out
    }
}

/// Sums [`RowMarks::count_row`] over rows `0..rows` on `pool`:
/// `marked(u)` is the row scattered into the marks, `probed(v)` the row
/// read against them (the same accessor for a graph; `L` and `U'` for the
/// masked product `C<L> = L·U'`). Every index in a row must be below
/// `index_bound`. One mark array per worker lives for this call only.
pub fn count_marked<'a, T, M, P>(
    rows: usize,
    index_bound: usize,
    pool: &ThreadPool,
    schedule: Schedule,
    marked: M,
    probed: P,
) -> Intersection
where
    T: Copy + Into<u64> + 'a,
    M: Fn(usize) -> &'a [T] + Sync,
    P: Fn(T) -> &'a [T] + Sync,
{
    let workers = PerWorker::new(pool.num_threads(), || {
        (RowMarks::new(index_bound), Intersection::default())
    });
    pool.for_each_index_tid(rows, schedule, |tid, u| {
        // SAFETY: `tid < pool.num_threads()` and a pool region drives each
        // tid from exactly one thread at a time, so slot `tid` has no
        // other borrow while this body runs; the borrow ends with it.
        let (marks, total) = unsafe { workers.get_mut(tid) };
        *total += marks.count_row(marked(u), &probed);
    });
    let mut out = Intersection::default();
    for (_, total) in workers.into_inner() {
        out += total;
    }
    out
}

/// Counts the triangles of undirected `g` with [`count_marked`], each once
/// at its largest-id vertex. With `relabel` the ids are first permuted by
/// descending degree into an oriented DAG (timed as [`Phase::Relabel`]);
/// without it — the flat-degree graphs every heuristic declines — the ids
/// stay and each sorted row is sliced at its own id, one short binary
/// search per row read, which measured cheaper than building an oriented
/// copy under the identity (DESIGN.md §9). The caller owns the relabel
/// decision, the schedule and the telemetry.
pub fn count_triangles(
    g: &Graph,
    relabel: bool,
    pool: &ThreadPool,
    schedule: Schedule,
) -> Intersection {
    let n = g.num_vertices();
    if relabel {
        let dag = {
            let _relabel = Span::enter(Phase::Relabel);
            perm::apply_oriented_in(g, &perm::degree_descending(g), pool)
        };
        let row = |u: NodeId| dag.neighbors(u);
        count_marked(n, n, pool, schedule, |u| row(u as NodeId), row)
    } else {
        let row = |u: NodeId| {
            let adj = g.out_neighbors(u);
            &adj[..adj.partition_point(|&x| x < u)]
        };
        count_marked(n, n, pool, schedule, |u| row(u as NodeId), row)
    }
}

/// `true` if sorted `row` contains `v`, via exponential-then-binary seek
/// (cheap for the low-id targets oriented adjacency favors, logarithmic in
/// the worst case).
pub fn contains<T: Copy + Ord>(row: &[T], v: T) -> bool {
    let pos = gallop_seek(row, v);
    row.get(pos).is_some_and(|&y| y == v)
}

/// First index in sorted `s` whose element is `>= x`, found by
/// exponential bracketing from the front followed by binary search.
fn gallop_seek<T: Copy + Ord>(s: &[T], x: T) -> usize {
    if s.is_empty() || s[0] >= x {
        return 0;
    }
    // Invariant: s[lo - 1] < x. Double the probe distance until an element
    // >= x brackets the answer.
    let mut lo = 1usize;
    let mut step = 1usize;
    let mut hi = loop {
        let probe = lo + step;
        if probe > s.len() {
            break s.len();
        }
        if s[probe - 1] < x {
            lo = probe;
            step *= 2;
        } else {
            break probe - 1;
        }
    };
    // Binary search in s[lo..hi] for the first element >= x.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if s[mid] < x {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference intersection via std sets.
    fn oracle(a: &[NodeId], b: &[NodeId]) -> u64 {
        let sb: std::collections::BTreeSet<_> = b.iter().copied().collect();
        a.iter().filter(|x| sb.contains(x)).count() as u64
    }

    fn strided(start: NodeId, stride: NodeId, len: usize) -> Vec<NodeId> {
        (0..len as NodeId).map(|i| start + i * stride).collect()
    }

    /// `|a ∩ b|` through the marks in both index widths, asserting the
    /// whole array is zero again afterwards.
    fn marked(marks: &mut RowMarks, a: &[NodeId], b: &[NodeId]) -> u64 {
        marks.mark(a);
        let narrow = marks.probe(b);
        marks.unmark(a);
        assert!(marks.marks.iter().all(|&m| m == 0), "marks left set");
        let (a64, b64): (Vec<u64>, Vec<u64>) = (
            a.iter().map(|&x| u64::from(x)).collect(),
            b.iter().map(|&x| u64::from(x)).collect(),
        );
        marks.mark(&a64);
        let wide = marks.probe(&b64);
        marks.unmark(&a64);
        assert!(marks.marks.iter().all(|&m| m == 0), "marks left set (u64)");
        assert_eq!(narrow, wide, "u32 and u64 indices disagree");
        narrow
    }

    #[test]
    fn marks_and_merge_agree_with_oracle() {
        let cases: Vec<(Vec<NodeId>, Vec<NodeId>)> = vec![
            (vec![], vec![]),
            (vec![], vec![1, 2, 3]),
            (vec![5], vec![1, 2, 3, 4, 5, 6]),
            (strided(0, 2, 50), strided(0, 3, 50)),
            (strided(0, 1, 7), strided(0, 1, 7)),
            (strided(0, 1, 8), strided(4, 1, 200)),
            (strided(100, 1, 3), strided(0, 1, 90)),
            (strided(0, 7, 1000), strided(0, 11, 1000)),
        ];
        let mut marks = RowMarks::new(11_000);
        for (a, b) in cases {
            let want = oracle(&a, &b);
            assert_eq!(marked(&mut marks, &a, &b), want, "marks on {a:?} ∩ {b:?}");
            assert_eq!(marked(&mut marks, &b, &a), want, "marks are symmetric");
            assert_eq!(merge_count(&a, &b).count, want, "merge on {a:?} ∩ {b:?}");
        }
    }

    #[test]
    fn skew_ratio_sweep_agrees_with_merge() {
        // Adversarial cardinality skews from 1:1 to 1:10⁴ in both
        // directions, plus the degenerate shapes an oriented row produces.
        let long = strided(0, 3, 30_000);
        let mut marks = RowMarks::new(97 * 30_000 + 2);
        for small_len in [1usize, 3, 30, 300, 3_000, 30_000] {
            for stride in [1, 2, 97] {
                let small = strided(1, stride, small_len);
                let want = merge_count(&small, &long).count;
                assert_eq!(want, oracle(&small, &long), "merge oracle");
                let skew = 30_000 / small_len;
                assert_eq!(
                    marked(&mut marks, &small, &long),
                    want,
                    "skew 1:{skew} stride {stride}"
                );
                assert_eq!(
                    marked(&mut marks, &long, &small),
                    want,
                    "reversed skew, stride {stride}"
                );
            }
        }
        // Subset: every element of the small side hits.
        let subset = strided(0, 300, 100);
        assert_eq!(marked(&mut marks, &subset, &long), 100);
        assert_eq!(merge_count(&subset, &long).count, 100);
        // Disjoint: interleaved but never equal.
        let disjoint = strided(1, 3, 10_000);
        assert_eq!(marked(&mut marks, &disjoint, &long), 0);
        assert_eq!(merge_count(&disjoint, &long).count, 0);
        // Empty against everything.
        assert_eq!(marked(&mut marks, &[], &long), 0);
        assert_eq!(marked(&mut marks, &long, &[]), 0);
    }

    /// Lower-triangular rows of K4 plus a pendant vertex 4 attached to 3.
    const ROWS: [&[NodeId]; 5] = [&[], &[0], &[0, 1], &[0, 1, 2], &[3]];

    #[test]
    fn count_row_counts_triangles_closed_at_the_row_and_clears() {
        let mut marks = RowMarks::new(ROWS.len());
        let per_row: Vec<Intersection> = ROWS
            .iter()
            .map(|row| {
                let r = marks.count_row(row, |v| ROWS[v as usize]);
                assert!(marks.marks.iter().all(|&m| m == 0), "row {row:?}");
                r
            })
            .collect();
        // Rows shorter than 2 are skipped outright: no marks, no probes.
        for short in [0, 1, 4] {
            assert_eq!(per_row[short], Intersection::default());
        }
        // Row 2 closes {0,1,2}: 2 marks + probes of rows 0 and 1.
        assert_eq!(
            per_row[2],
            Intersection {
                count: 1,
                comparisons: 3
            }
        );
        // Row 3 closes the other three: 3 marks + probes of rows 0, 1, 2.
        assert_eq!(
            per_row[3],
            Intersection {
                count: 3,
                comparisons: 6
            }
        );
    }

    #[test]
    fn count_marked_is_thread_invariant_in_count_and_work() {
        for threads in [1, 2, 7, 16] {
            let pooled = count_marked(
                ROWS.len(),
                ROWS.len(),
                &ThreadPool::new(threads),
                Schedule::Dynamic(1),
                |u| ROWS[u],
                |v| ROWS[v as usize],
            );
            let want = Intersection {
                count: 4,
                comparisons: 9,
            };
            assert_eq!(pooled, want, "@ {threads} threads");
        }
    }

    #[test]
    fn relabeling_does_not_change_the_count() {
        let g = crate::gen::kron(9, 12, 9);
        let pool = ThreadPool::new(4);
        let plain = count_triangles(&g, false, &pool, Schedule::Dynamic(64));
        let relabeled = count_triangles(&g, true, &pool, Schedule::Dynamic(64));
        assert!(plain.count > 0);
        assert_eq!(plain.count, relabeled.count);
    }

    #[test]
    fn contains_agrees_with_linear_scan() {
        let row = strided(3, 5, 37);
        for v in 0..200 {
            assert_eq!(contains(&row, v), row.contains(&v), "element {v}");
        }
        assert!(!contains::<u32>(&[], 7));
    }
}
