//! Edge-list to CSR graph construction.
//!
//! The builder reproduces the construction pipeline the paper describes as
//! common to all evaluated frameworks: adjacency lists are sorted by
//! destination and duplicate edges are removed. Symmetrization (for the
//! undirected Kron and Urand inputs) and both adjacency directions are built
//! here, ahead of timing, matching GAP's rule that graph transposition is not
//! timed because the reference implementation stores both forms.
//!
//! Construction runs as a staged pipeline on a [`ThreadPool`] (mirroring
//! the GAP reference's parallel `BuilderBase`):
//!
//! 1. **count** — per-worker row histograms over a static, contiguous
//!    partition of the input (private tables: no shared writes in the hot
//!    loop),
//! 2. **scan** — histogram merge plus a parallel exclusive prefix sum
//!    ([`gapbs_parallel::scan`]) turning degrees into row offsets, and the
//!    histograms into each worker's window of every row,
//! 3. **scatter** — a *stable* counting-sort scatter
//!    ([`gapbs_parallel::scatter`]): every worker re-walks its own slice
//!    and writes through its own windows, so there are no atomics and the
//!    slot order inside a row is input order at every thread count;
//!    symmetrized mirrors are *virtual* input items, so no second edge
//!    `Vec` is ever materialized, and self-loop filtering happens here
//!    rather than in an up-front `retain` pass,
//! 4. **sort_dedup** — chunked per-row `sort_unstable` + first-wins dedup
//!    (for weighted rows the `(dst, weight)` tuple sort makes first-wins
//!    keep the minimum weight),
//! 5. **compact** — a second scan over the kept counts and a parallel
//!    copy into the final buffer.
//!
//! Structures derived from a finished CSR skip stages 4 and 5. Scattering
//! the arcs of sorted, duplicate-free rows in ascending source order
//! yields sorted, duplicate-free rows because the scatter is stable, so
//! the incoming direction of a directed graph is a transpose of the
//! finished outgoing CSR (stages 1–3 over the deduplicated arcs), and
//! [`symmetrize_graph`] is a per-row merge of the two directions with no
//! scatter at all.
//!
//! Every stage is deterministic for a given input regardless of thread
//! count or schedule. A builder without a pool runs the same pipeline on
//! a one-thread pool, which executes inline — serial construction is the
//! one-thread special case, not a separate code path.

use crate::csr::{CsrGraph, WCsrGraph};
use crate::edgelist::{Edge, WEdge};
use crate::error::BuildError;
use crate::graph::{Graph, WGraph};
use crate::types::{NodeId, Weight};
use gapbs_parallel::scatter::{self, RowCounts};
use gapbs_parallel::{scan, Schedule, SharedSlice, ThreadPool};
use gapbs_telemetry::{record, trace, Counter};

/// Configurable edge-list-to-graph builder.
///
/// # Example
///
/// ```
/// use gapbs_graph::{Builder, edgelist::edges};
///
/// let g = Builder::new()
///     .symmetrize(true)
///     .build(edges([(0, 1), (1, 2), (0, 1)]))  // duplicate removed
///     .unwrap();
/// assert_eq!(g.num_edges(), 2);
/// assert!(!g.is_directed());
/// ```
#[derive(Debug, Clone)]
pub struct Builder {
    num_vertices: Option<usize>,
    symmetrize: bool,
    remove_self_loops: bool,
    pool: Option<ThreadPool>,
}

impl Default for Builder {
    fn default() -> Self {
        Self::new()
    }
}

impl Builder {
    /// Creates a builder with GAP defaults: vertex count inferred from the
    /// edge list, directed output, self-loops kept, duplicates removed.
    pub fn new() -> Self {
        Builder {
            num_vertices: None,
            symmetrize: false,
            remove_self_loops: false,
            pool: None,
        }
    }

    /// Fixes the vertex count instead of inferring `max endpoint + 1`.
    pub fn num_vertices(mut self, n: usize) -> Self {
        self.num_vertices = Some(n);
        self
    }

    /// When `true`, every edge is mirrored and the result is undirected.
    pub fn symmetrize(mut self, yes: bool) -> Self {
        self.symmetrize = yes;
        self
    }

    /// When `true`, self-loops are dropped during construction.
    pub fn remove_self_loops(mut self, yes: bool) -> Self {
        self.remove_self_loops = yes;
        self
    }

    /// Runs construction on `pool`. Without a pool the same pipeline runs
    /// on a private one-thread pool (inline — today's serial behavior),
    /// and the output is identical either way.
    pub fn pool(mut self, pool: &ThreadPool) -> Self {
        self.pool = Some(pool.clone());
        self
    }

    fn runtime(&self) -> ThreadPool {
        self.pool.clone().unwrap_or_else(|| ThreadPool::new(1))
    }

    fn resolve_n(&self, max_endpoint: Option<NodeId>) -> Result<usize, BuildError> {
        match (self.num_vertices, max_endpoint) {
            (Some(n), Some(max)) => {
                if (max as usize) < n {
                    Ok(n)
                } else {
                    Err(BuildError::EndpointOutOfRange {
                        node: u64::from(max),
                        num_vertices: n as u64,
                    })
                }
            }
            (Some(n), None) => Ok(n),
            (None, Some(max)) => Ok(max as usize + 1),
            (None, None) => Ok(0),
        }
    }

    /// Builds an unweighted [`Graph`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::EndpointOutOfRange`] if an endpoint exceeds a
    /// fixed vertex count, or [`BuildError::ArcCountOverflow`] if the arc
    /// count does not fit the `u32` row offsets.
    pub fn build(&self, edges: Vec<Edge>) -> Result<Graph, BuildError> {
        let pool = self.runtime();
        let drop_loops = self.remove_self_loops;
        let live = |e: &Edge| !(drop_loops && e.is_self_loop());
        let max = max_endpoint(&pool, edges.len(), |i| {
            let e = edges[i];
            live(&e).then(|| e.src.max(e.dst))
        });
        let n = self.resolve_n(max)?;
        let m = edges.len();
        let edges = edges.as_slice();
        if self.symmetrize {
            // Item space: forward edges then their mirrors, both virtual.
            let item = |i: usize| {
                let e = if i < m {
                    edges[i]
                } else {
                    edges[i - m].reversed()
                };
                live(&e).then_some((e.src as usize, e.dst))
            };
            let (offsets, targets) = build_rows(&pool, n, 2 * m, &item);
            check_arc_count(&offsets)?;
            Ok(Graph::undirected(CsrGraph::from_scan_unchecked(
                offsets, targets,
            )))
        } else {
            let out_item = |i: usize| {
                let e = edges[i];
                live(&e).then_some((e.src as usize, e.dst))
            };
            let (oo, ot) = build_rows(&pool, n, m, &out_item);
            check_arc_count(&oo)?;
            let (io, it) = transpose_rows(&pool, &oo, &ot);
            Ok(Graph::directed(
                CsrGraph::from_scan_unchecked(oo, ot),
                CsrGraph::from_scan_unchecked(io, it),
            ))
        }
    }

    /// Builds a weighted [`WGraph`].
    ///
    /// Duplicate `(src, dst)` pairs keep the smallest weight, a deterministic
    /// choice consistent with shortest-path semantics.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::NonPositiveWeight`] for weights `<= 0` and
    /// [`BuildError::EndpointOutOfRange`] if an endpoint exceeds a fixed
    /// vertex count, and [`BuildError::ArcCountOverflow`] as in
    /// [`Self::build`].
    pub fn build_weighted(&self, edges: Vec<WEdge>) -> Result<WGraph, BuildError> {
        let pool = self.runtime();
        let drop_loops = self.remove_self_loops;
        let live = |e: &WEdge| !(drop_loops && e.src == e.dst);
        // One extent pass validates weights (lowest offending index, so
        // the reported edge matches a serial scan) and finds the max
        // endpoint — no separate validation sweep.
        let (max, bad) = pool.reduce_index(
            edges.len(),
            Schedule::Static,
            (None, None),
            |i| {
                let e = edges[i];
                (
                    live(&e).then(|| e.src.max(e.dst)),
                    (e.weight <= 0).then_some(i),
                )
            },
            |(max_a, bad_a), (max_b, bad_b)| {
                (
                    merge_max(max_a, max_b),
                    match (bad_a, bad_b) {
                        (Some(x), Some(y)) => Some(x.min(y)),
                        (x, None) => x,
                        (None, y) => y,
                    },
                )
            },
        );
        if let Some(i) = bad {
            let e = edges[i];
            return Err(BuildError::NonPositiveWeight {
                src: u64::from(e.src),
                dst: u64::from(e.dst),
                weight: i64::from(e.weight),
            });
        }
        let n = self.resolve_n(max)?;
        let m = edges.len();
        let edges = edges.as_slice();
        if self.symmetrize {
            let item = |i: usize| {
                let e = if i < m {
                    edges[i]
                } else {
                    edges[i - m].reversed()
                };
                live(&e).then_some((e.src as usize, (e.dst, e.weight)))
            };
            let (offsets, pairs) = build_rows(&pool, n, 2 * m, &item);
            check_arc_count(&offsets)?;
            Ok(WGraph::undirected(wcsr(&pool, offsets, &pairs)))
        } else {
            let out_item = |i: usize| {
                let e = edges[i];
                live(&e).then_some((e.src as usize, (e.dst, e.weight)))
            };
            let (oo, op) = build_rows(&pool, n, m, &out_item);
            check_arc_count(&oo)?;
            let (io, ip) = transpose_rows(&pool, &oo, &op);
            Ok(WGraph::directed(wcsr(&pool, oo, &op), wcsr(&pool, io, &ip)))
        }
    }
}

/// Verifies the scanned arc total fits `u32` row offsets before
/// narrowing.
fn check_arc_count(offsets: &[usize]) -> Result<(), BuildError> {
    let total = offsets.last().copied().unwrap_or(0);
    if u32::try_from(total).is_ok() {
        Ok(())
    } else {
        Err(BuildError::ArcCountOverflow { arcs: total as u64 })
    }
}

/// Symmetrizes a directed graph on `pool`: row `u` of the result is the
/// union of `u`'s stored out- and in-neighbors. Both are sorted and
/// duplicate-free, so the union is a two-pointer merge per row (count,
/// scan, merge-write) with no scatter and no sort.
pub fn symmetrize_graph(g: &Graph, pool: &ThreadPool) -> Graph {
    let n = g.num_vertices();
    let row = |u: usize| sorted_union(g.out_neighbors(u as NodeId), g.in_neighbors(u as NodeId));
    let mut offsets = vec![0usize; n + 1];
    scatter::fill_with(pool, &mut offsets[..n], Schedule::Guided, |u| {
        row(u).count()
    });
    let total = scan::exclusive_scan_in_place(pool, &mut offsets);
    assert!(
        u32::try_from(total).is_ok(),
        "symmetrized arc count overflows u32 offsets"
    );
    let mut adj = vec![0 as NodeId; total];
    {
        let rows = SharedSlice::new(&mut adj);
        let offsets = &offsets;
        pool.for_each_index(n, Schedule::Guided, |u| {
            // SAFETY: `offsets` is a monotone scan ending at `adj.len()`,
            // so rows partition the buffer and row `u` has one borrower.
            let dst = unsafe { rows.range_mut(offsets[u], offsets[u + 1]) };
            for (slot, v) in dst.iter_mut().zip(row(u)) {
                *slot = v;
            }
        });
    }
    Graph::undirected(CsrGraph::from_scan_unchecked(offsets, adj))
}

/// Merges two sorted duplicate-free lists into their sorted duplicate-free
/// union.
fn sorted_union<'a>(mut a: &'a [NodeId], mut b: &'a [NodeId]) -> impl Iterator<Item = NodeId> + 'a {
    std::iter::from_fn(move || {
        let v = match (a.first(), b.first()) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) | (None, Some(&x)) => x,
            (None, None) => return None,
        };
        if a.first() == Some(&v) {
            a = &a[1..];
        }
        if b.first() == Some(&v) {
            b = &b[1..];
        }
        Some(v)
    })
}

/// Expands a CSR offset table, read through `start(u)` = first arc of row
/// `u`, into the per-arc source-vertex array the virtual item spaces
/// index by (`srcs[arc]` = row owning `arc`).
pub(crate) fn arc_sources(
    pool: &ThreadPool,
    n: usize,
    m: usize,
    start: impl Fn(usize) -> usize + Sync,
) -> Vec<NodeId> {
    let mut srcs = vec![0 as NodeId; m];
    let shared = SharedSlice::new(&mut srcs);
    pool.for_each_index(n, Schedule::Guided, |u| {
        for arc in start(u)..start(u + 1) {
            // SAFETY: rows partition the arc array.
            unsafe { shared.write(arc, u as NodeId) };
        }
    });
    srcs
}

/// One scattered adjacency entry: what a row is sorted by, plus the
/// destination that duplicate detection compares.
pub(crate) trait AdjEntry: Copy + Ord + Default + Send + Sync {
    /// The destination vertex duplicates are detected on.
    fn dedup_key(self) -> NodeId;
    /// The same entry pointing at `v` instead (the arc seen from its
    /// other endpoint).
    fn retarget(self, v: NodeId) -> Self;
}

impl AdjEntry for NodeId {
    fn dedup_key(self) -> NodeId {
        self
    }
    fn retarget(self, v: NodeId) -> NodeId {
        v
    }
}

impl AdjEntry for (NodeId, Weight) {
    fn dedup_key(self) -> NodeId {
        self.0
    }
    fn retarget(self, v: NodeId) -> Self {
        (v, self.1)
    }
}

fn merge_max(a: Option<NodeId>, b: Option<NodeId>) -> Option<NodeId> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

fn max_endpoint<F>(pool: &ThreadPool, n_items: usize, f: F) -> Option<NodeId>
where
    F: Fn(usize) -> Option<NodeId> + Sync,
{
    pool.reduce_index(n_items, Schedule::Static, None, f, merge_max)
}

/// Wraps one build stage in a session-gated trace duration event.
fn staged<R>(stage: &'static str, f: impl FnOnce() -> R) -> R {
    let start = trace::now_ns();
    let out = f();
    trace::build_stage(stage, start);
    out
}

/// Stages 1–3, a stable counting sort by row: `item(i)` yields
/// `(row, entry)` for every live input item (`None` filters it out) and
/// the result is `(offsets, entries)` with each row's entries in input
/// order, whatever the pool's thread count.
fn scatter_rows<T, F>(pool: &ThreadPool, n: usize, n_items: usize, item: &F) -> (Vec<usize>, Vec<T>)
where
    T: AdjEntry,
    F: Fn(usize) -> Option<(usize, T)> + Sync,
{
    let counts = staged("count", || {
        RowCounts::count(pool, n, n_items, |i| item(i).map(|(row, _)| row))
    });
    let windows = staged("scan", || counts.scan(pool));
    let (offsets, slots) = staged("scatter", || windows.scatter(pool, T::default(), item));
    record(Counter::BuildEdgesScattered, slots.len() as u64);
    (offsets, slots)
}

/// Transposes a finished CSR: row `v` of the result lists, for every arc
/// `u → v`, the entry retargeted at `u`. The input rows are visited in
/// ascending `u` and the scatter is stable, so the output rows come out
/// sorted and as duplicate-free as the input — no sort or compact stage.
pub(crate) fn transpose_rows<T: AdjEntry>(
    pool: &ThreadPool,
    offsets: &[usize],
    entries: &[T],
) -> (Vec<usize>, Vec<T>) {
    let n = offsets.len() - 1;
    let srcs = arc_sources(pool, n, entries.len(), |u| offsets[u]);
    let item = |arc: usize| {
        let entry = entries[arc];
        Some((entry.dedup_key() as usize, entry.retarget(srcs[arc])))
    };
    scatter_rows(pool, n, entries.len(), &item)
}

/// The staged parallel pipeline: [`scatter_rows`], then a per-row sort
/// and dedup; the result is the sorted, deduplicated `(offsets, entries)`
/// CSR pair. Deterministic for a given item space regardless of the
/// pool's thread count.
pub(crate) fn build_rows<T, F>(
    pool: &ThreadPool,
    n: usize,
    n_items: usize,
    item: &F,
) -> (Vec<usize>, Vec<T>)
where
    T: AdjEntry,
    F: Fn(usize) -> Option<(usize, T)> + Sync,
{
    let (offsets, mut slots) = scatter_rows(pool, n, n_items, item);
    let total = slots.len();

    // Stage 4: canonicalize each row — sort, then first-wins dedup (for
    // weighted entries the tuple sort puts the minimum weight first).
    let mut kept = vec![0usize; n + 1];
    staged("sort_dedup", || {
        let rows = SharedSlice::new(&mut slots);
        let counts = SharedSlice::new(&mut kept[..n]);
        let offsets = &offsets;
        pool.for_each_index(n, Schedule::Guided, |u| {
            // SAFETY: rows partition the slot buffer.
            let row = unsafe { rows.range_mut(offsets[u], offsets[u + 1]) };
            row.sort_unstable();
            let mut k = 0usize;
            for i in 0..row.len() {
                if k == 0 || row[k - 1].dedup_key() != row[i].dedup_key() {
                    row[k] = row[i];
                    k += 1;
                }
            }
            // SAFETY: one writer per vertex.
            unsafe { counts.write(u, k) };
        });
    });

    // Stage 5: scan the kept counts and compact the row prefixes.
    let (new_offsets, out) = staged("compact", || {
        let final_total = scan::exclusive_scan_in_place(pool, &mut kept);
        record(Counter::BuildDupsDropped, (total - final_total) as u64);
        let mut out: Vec<T> = vec![T::default(); final_total];
        {
            let dst = SharedSlice::new(&mut out);
            let (offsets, new_offsets, slots) = (&offsets, &kept, &slots);
            pool.for_each_index(n, Schedule::Guided, |u| {
                let lo = offsets[u];
                let nlo = new_offsets[u];
                let len = new_offsets[u + 1] - nlo;
                // SAFETY: destination rows partition the output buffer.
                unsafe { dst.copy_from(nlo, &slots[lo..lo + len]) };
            });
        }
        (kept, out)
    });
    (new_offsets, out)
}

/// Splits built `(dst, weight)` rows into the parallel target/weight
/// arrays a [`WCsrGraph`] stores.
fn wcsr(pool: &ThreadPool, offsets: Vec<usize>, pairs: &[(NodeId, Weight)]) -> WCsrGraph {
    let mut targets = vec![0 as NodeId; pairs.len()];
    let mut weights = vec![0 as Weight; pairs.len()];
    {
        let t = SharedSlice::new(&mut targets);
        let w = SharedSlice::new(&mut weights);
        pool.for_each_index(pairs.len(), Schedule::Static, |i| {
            // SAFETY: one writer per index in both arrays.
            unsafe {
                t.write(i, pairs[i].0);
                w.write(i, pairs[i].1);
            }
        });
    }
    let csr = CsrGraph::from_scan_unchecked(offsets, targets);
    WCsrGraph::from_parts(csr, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::{edges, wedges};

    #[test]
    fn builds_sorted_deduped_directed_graph() {
        let g = Builder::new()
            .build(edges([(2, 0), (0, 2), (0, 1), (0, 2), (2, 1)]))
            .unwrap();
        assert!(g.is_directed());
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.out_neighbors(2), &[0, 1]);
        assert_eq!(g.in_neighbors(1), &[0, 2]);
        assert_eq!(g.in_neighbors(2), &[0]);
    }

    #[test]
    fn symmetrize_produces_undirected() {
        let g = Builder::new()
            .symmetrize(true)
            .build(edges([(0, 1), (1, 2)]))
            .unwrap();
        assert!(!g.is_directed());
        assert_eq!(g.out_neighbors(1), &[0, 2]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_arcs(), 4);
    }

    #[test]
    fn fixed_vertex_count_allows_isolated_vertices() {
        let g = Builder::new()
            .num_vertices(10)
            .build(edges([(0, 1)]))
            .unwrap();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.out_degree(9), 0);
    }

    #[test]
    fn out_of_range_endpoint_is_an_error() {
        let err = Builder::new()
            .num_vertices(2)
            .build(edges([(0, 5)]))
            .unwrap_err();
        assert!(matches!(
            err,
            BuildError::EndpointOutOfRange { node: 5, .. }
        ));
    }

    #[test]
    fn self_loop_removal_is_optional() {
        let keep = Builder::new().build(edges([(1, 1)])).unwrap();
        assert_eq!(keep.num_edges(), 1);
        let drop = Builder::new()
            .remove_self_loops(true)
            .num_vertices(2)
            .build(edges([(1, 1)]))
            .unwrap();
        assert_eq!(drop.num_edges(), 0);
    }

    #[test]
    fn arc_count_check_stops_at_the_u32_offset_limit() {
        let max = u32::MAX as usize;
        assert_eq!(check_arc_count(&[0, max]), Ok(()));
        assert_eq!(
            check_arc_count(&[0, max + 1]),
            Err(BuildError::ArcCountOverflow {
                arcs: u64::from(u32::MAX) + 1
            })
        );
    }

    #[test]
    fn weighted_duplicates_keep_minimum_weight() {
        let g = Builder::new()
            .build_weighted(wedges([(0, 1, 9), (0, 1, 3), (0, 1, 7)]))
            .unwrap();
        assert_eq!(g.out_wcsr().weights(0), &[3]);
    }

    #[test]
    fn weighted_rejects_non_positive_weights() {
        let err = Builder::new()
            .build_weighted(wedges([(0, 1, 0)]))
            .unwrap_err();
        assert!(matches!(err, BuildError::NonPositiveWeight { .. }));
    }

    #[test]
    fn weighted_symmetrize_mirrors_weights() {
        let g = Builder::new()
            .symmetrize(true)
            .build_weighted(wedges([(0, 1, 4)]))
            .unwrap();
        let back: Vec<_> = g.out_neighbors_weighted(1).collect();
        assert_eq!(back, vec![(0, 4)]);
    }

    #[test]
    fn empty_edge_list_builds_empty_graph() {
        let g = Builder::new().build(Vec::new()).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn pooled_build_matches_serial_build() {
        let list: Vec<(u32, u32)> = (0..500u32).map(|i| (i % 37, (i * 7 + 3) % 53)).collect();
        let serial = Builder::new()
            .symmetrize(true)
            .build(edges(list.clone()))
            .unwrap();
        let pool = ThreadPool::new(4);
        let pooled = Builder::new()
            .symmetrize(true)
            .pool(&pool)
            .build(edges(list))
            .unwrap();
        assert_eq!(
            serial.out_csr().offsets_raw(),
            pooled.out_csr().offsets_raw()
        );
        assert_eq!(
            serial.out_csr().targets_raw(),
            pooled.out_csr().targets_raw()
        );
    }

    #[test]
    fn symmetrize_graph_matches_builder_symmetrize() {
        let list: Vec<(u32, u32)> = (0..300u32).map(|i| (i % 29, (i * 11) % 31)).collect();
        let directed = Builder::new().build(edges(list.clone())).unwrap();
        let pool = ThreadPool::new(3);
        let sym = symmetrize_graph(&directed, &pool);
        let expect = Builder::new()
            .num_vertices(directed.num_vertices())
            .symmetrize(true)
            .build(edges(list))
            .unwrap();
        assert_eq!(sym.out_csr().offsets_raw(), expect.out_csr().offsets_raw());
        assert_eq!(sym.out_csr().targets_raw(), expect.out_csr().targets_raw());
    }
}
