//! Vertex relabeling (permutation) utilities.
//!
//! Several frameworks in the paper relabel vertices by degree before
//! triangle counting ("heuristic-controlled graph relabelling", Table III
//! footnote 2). The benchmark rules require such restructuring to be timed
//! inside the kernel, so relabeling lives here as a reusable, measurable
//! operation.

use crate::builder::{arc_sources, build_rows, transpose_rows};
use crate::csr::CsrGraph;
use crate::graph::Graph;
use crate::types::NodeId;
use gapbs_parallel::ThreadPool;

/// A bijective relabeling of vertex ids.
///
/// `new_id(old)` gives the new id of an old vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    new_of_old: Vec<NodeId>,
}

impl Permutation {
    /// Builds a permutation from a `new_of_old` mapping.
    ///
    /// # Panics
    ///
    /// Panics if the mapping is not a bijection on `0..len`.
    pub fn new(new_of_old: Vec<NodeId>) -> Self {
        let n = new_of_old.len();
        let mut seen = vec![false; n];
        for &v in &new_of_old {
            assert!((v as usize) < n, "permutation image {v} out of range");
            assert!(!seen[v as usize], "permutation image {v} duplicated");
            seen[v as usize] = true;
        }
        Permutation { new_of_old }
    }

    /// The identity permutation on `n` vertices.
    pub fn identity(n: usize) -> Self {
        Permutation {
            new_of_old: (0..n as NodeId).collect(),
        }
    }

    /// New id of `old`.
    pub fn new_id(&self, old: NodeId) -> NodeId {
        self.new_of_old[old as usize]
    }

    /// Number of vertices.
    pub(crate) fn len(&self) -> usize {
        self.new_of_old.len()
    }

    /// The inverse mapping (`old_of_new`).
    pub fn inverse(&self) -> Permutation {
        let mut old_of_new = vec![0 as NodeId; self.len()];
        for (old, &new) in self.new_of_old.iter().enumerate() {
            old_of_new[new as usize] = old as NodeId;
        }
        Permutation {
            new_of_old: old_of_new,
        }
    }
}

/// Builds the degree-descending relabeling used by TC implementations:
/// high-degree vertices get small ids so that orientation by id bounds the
/// search work (ties broken by old id for determinism).
///
/// Relabeling TC kernels run this inside the timed region, so it is a
/// counting sort over degree, `O(n + max_degree)`: vertices are handed
/// out in ascending old id, which is the tie-break.
pub fn degree_descending(g: &Graph) -> Permutation {
    let max_degree = g.vertices().map(|u| g.out_degree(u)).max().unwrap_or(0);
    // `next[d]`: the next new id for a vertex of degree `d`; starts at
    // the number of vertices with a larger degree.
    let mut next = vec![0 as NodeId; max_degree + 1];
    for u in g.vertices() {
        next[g.out_degree(u)] += 1;
    }
    let mut larger = 0;
    for slot in next.iter_mut().rev() {
        let count = *slot;
        *slot = larger;
        larger += count;
    }
    let new_of_old = g
        .vertices()
        .map(|u| {
            let slot = &mut next[g.out_degree(u)];
            *slot += 1;
            *slot - 1
        })
        .collect();
    Permutation { new_of_old }
}

/// Applies a permutation, producing the relabeled graph (adjacency is
/// re-sorted by the builder). Serial convenience wrapper over
/// [`apply_in`].
pub fn apply(g: &Graph, perm: &Permutation) -> Graph {
    apply_in(g, perm, &ThreadPool::new(1))
}

/// Applies a permutation on `pool`, producing the relabeled graph.
///
/// The stored arcs are fed straight into the parallel build pipeline as
/// virtual items — no intermediate edge `Vec` — and the result is
/// identical to [`apply`] for every thread count. Relabeling is a *timed*
/// operation under the paper's rules, which is why it shares the
/// kernels' pool instead of staying serial.
pub fn apply_in(g: &Graph, perm: &Permutation, pool: &ThreadPool) -> Graph {
    assert_eq!(perm.len(), g.num_vertices());
    let n = g.num_vertices();
    let csr = g.out_csr();
    let targets = csr.targets_raw();
    let m = targets.len();
    let srcs = arc_sources(pool, n, m, |u| csr.offset(u as NodeId));
    let map = perm.new_of_old.as_slice();
    let out_item =
        |arc: usize| Some((map[srcs[arc] as usize] as usize, map[targets[arc] as usize]));
    let (offsets, adj) = build_rows(pool, n, m, &out_item);
    if g.is_directed() {
        let (in_offsets, in_adj) = transpose_rows(pool, &offsets, &adj);
        Graph::directed(
            CsrGraph::from_scan_unchecked(offsets, adj),
            CsrGraph::from_scan_unchecked(in_offsets, in_adj),
        )
    } else {
        // The arcs were already symmetric, so the one direction is the
        // whole adjacency.
        Graph::undirected(CsrGraph::from_scan_unchecked(offsets, adj))
    }
}

/// Applies a permutation on `pool` and keeps only the arcs that point to
/// a *smaller* new id: row `u` of the result is
/// `{new(w) : w ∈ N(old(u)), new(w) < u}`, sorted — the lower-triangular
/// half of [`apply_in`]'s output, i.e. exactly the prefix lists oriented
/// triangle counting intersects. Half the arcs are scattered and sorted,
/// and the rows need no `partition_point` to find their prefix.
///
/// # Panics
///
/// Panics if `g` is directed or `perm` has the wrong length.
pub(crate) fn apply_oriented_in(g: &Graph, perm: &Permutation, pool: &ThreadPool) -> CsrGraph {
    assert!(!g.is_directed(), "orientation expects a symmetric graph");
    assert_eq!(perm.len(), g.num_vertices());
    let n = g.num_vertices();
    let csr = g.out_csr();
    let targets = csr.targets_raw();
    let m = targets.len();
    let srcs = arc_sources(pool, n, m, |u| csr.offset(u as NodeId));
    let map = perm.new_of_old.as_slice();
    let item = |arc: usize| {
        let (u, w) = (map[srcs[arc] as usize], map[targets[arc] as usize]);
        (w < u).then_some((u as usize, w))
    };
    let (offsets, adj) = build_rows(pool, n, m, &item);
    CsrGraph::from_scan_unchecked(offsets, adj)
}

/// The degree sample every framework's relabel-or-not heuristic reads:
/// up to 1000 evenly strided vertices of `0..n`, returned as
/// `(mean, median)` of `degree(v)`. `None` below 10 vertices, where every
/// heuristic declines. Each framework keeps its own threshold expression
/// over the pair (GAP's `WorthRelabelling` floors the mean; GKC compares
/// the real ratio).
pub fn sampled_degrees(n: usize, degree: impl Fn(usize) -> usize) -> Option<(f64, usize)> {
    if n < 10 {
        return None;
    }
    let sample_size = 1000.min(n);
    let stride = (n / sample_size).max(1);
    let mut sample: Vec<usize> = (0..n)
        .step_by(stride)
        .take(sample_size)
        .map(degree)
        .collect();
    sample.sort_unstable();
    let mean = sample.iter().sum::<usize>() as f64 / sample.len() as f64;
    Some((mean, sample[sample.len() / 2]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::edgelist::edges;

    fn star() -> Graph {
        // 0 is the hub of a 4-star, undirected.
        Builder::new()
            .symmetrize(true)
            .build(edges([(0, 1), (0, 2), (0, 3), (0, 4)]))
            .unwrap()
    }

    #[test]
    fn identity_roundtrip() {
        let g = star();
        let p = Permutation::identity(g.num_vertices());
        assert_eq!(apply(&g, &p), g);
    }

    #[test]
    fn degree_descending_puts_hub_first() {
        let g = star();
        let p = degree_descending(&g);
        assert_eq!(p.new_id(0), 0, "hub should map to id 0");
    }

    /// The comparison sort the counting sort replaced: the definition.
    fn degree_descending_by_sorting(g: &Graph) -> Permutation {
        let mut order: Vec<NodeId> = g.vertices().collect();
        order.sort_by_key(|&u| (std::cmp::Reverse(g.out_degree(u)), u));
        let mut new_of_old = vec![0 as NodeId; g.num_vertices()];
        for (new, &old) in order.iter().enumerate() {
            new_of_old[old as usize] = new as NodeId;
        }
        Permutation::new(new_of_old)
    }

    #[test]
    fn degree_descending_equals_the_sorted_definition() {
        use crate::gen::{GraphSpec, Scale};
        let pool = ThreadPool::new(2);
        for scale in [Scale::Tiny, Scale::Small, Scale::Medium] {
            for spec in GraphSpec::TABLE_ORDER {
                let g = spec.generate_in(scale, &pool);
                assert_eq!(
                    degree_descending(&g),
                    degree_descending_by_sorting(&g),
                    "{spec} @ {scale}"
                );
            }
        }
        let build = |n: usize, list: Vec<(u32, u32)>| {
            Builder::new()
                .num_vertices(n)
                .symmetrize(true)
                .build(edges(list))
                .unwrap()
        };
        for g in [
            build(0, vec![]),                                     // empty graph
            build(5, vec![]),                                     // all degrees equal (0)
            build(6, (0..6).map(|i| (i, (i + 1) % 6)).collect()), // all equal (2)
            star(),                                               // single hub
            build(9, (1..6).map(|i| (7, i)).collect()),           // hub with a high old id
        ] {
            assert_eq!(degree_descending(&g), degree_descending_by_sorting(&g));
        }
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Permutation::new(vec![2, 0, 1]);
        let inv = p.inverse();
        for old in 0..3 {
            assert_eq!(inv.new_id(p.new_id(old)), old);
        }
    }

    #[test]
    fn relabeling_preserves_degrees_multiset() {
        let g = star();
        let p = degree_descending(&g);
        let h = apply(&g, &p);
        let mut dg: Vec<_> = g.vertices().map(|u| g.out_degree(u)).collect();
        let mut dh: Vec<_> = h.vertices().map(|u| h.out_degree(u)).collect();
        dg.sort_unstable();
        dh.sort_unstable();
        assert_eq!(dg, dh);
        assert_eq!(g.num_arcs(), h.num_arcs());
    }

    #[test]
    #[should_panic(expected = "duplicated")]
    fn non_bijective_mapping_rejected() {
        Permutation::new(vec![0, 0, 1]);
    }

    #[test]
    fn apply_in_matches_apply_for_directed_graphs() {
        let g = Builder::new()
            .build(edges([(0, 1), (1, 2), (2, 0), (3, 1), (0, 3), (4, 4)]))
            .unwrap();
        let p = degree_descending(&g);
        let serial = apply(&g, &p);
        for threads in [2, 5] {
            let pool = ThreadPool::new(threads);
            assert_eq!(apply_in(&g, &p, &pool), serial, "@ {threads} threads");
        }
    }

    #[test]
    fn directed_apply_relabels_both_directions() {
        let g = crate::gen::GraphSpec::Twitter.generate(crate::gen::Scale::Tiny);
        let p = degree_descending(&g);
        let h = apply_in(&g, &p, &ThreadPool::new(3));
        let relabeled = |row: &[NodeId]| {
            let mut row: Vec<NodeId> = row.iter().map(|&w| p.new_id(w)).collect();
            row.sort_unstable();
            row
        };
        for u in g.vertices() {
            assert_eq!(h.out_neighbors(p.new_id(u)), relabeled(g.out_neighbors(u)));
            assert_eq!(h.in_neighbors(p.new_id(u)), relabeled(g.in_neighbors(u)));
        }
    }

    /// `apply_in`, then keep `w < u`: the definition the oriented relabel
    /// must reproduce row for row.
    fn lower_half(g: &Graph) -> Vec<Vec<NodeId>> {
        g.vertices()
            .map(|u| {
                let row = g.out_neighbors(u);
                row[..row.partition_point(|&w| w < u)].to_vec()
            })
            .collect()
    }

    fn assert_oriented_matches(g: &Graph) {
        for p in [
            degree_descending(g),
            Permutation::identity(g.num_vertices()),
        ] {
            let want = lower_half(&apply(g, &p));
            for threads in [1, 2, 7, 16] {
                let dag = apply_oriented_in(g, &p, &ThreadPool::new(threads));
                assert_eq!(dag.num_vertices(), g.num_vertices());
                assert_eq!(dag.num_edges() * 2, g.num_arcs() - self_loops(g));
                for u in g.vertices() {
                    assert_eq!(
                        dag.neighbors(u),
                        want[u as usize].as_slice(),
                        "row {u} @ {threads} threads"
                    );
                }
            }
        }
    }

    fn self_loops(g: &Graph) -> usize {
        g.vertices().filter(|&u| g.out_csr().has_edge(u, u)).count()
    }

    #[test]
    fn oriented_relabel_is_the_lower_half_of_apply_in() {
        let list = crate::gen::kron_edges(9, 8, 3);
        let builder = Builder::new().num_vertices(1 << 9).symmetrize(true);
        assert_oriented_matches(&builder.build(list).unwrap());
        // Self-loops and duplicate-heavy input survive the filter.
        let loopy = Builder::new()
            .symmetrize(true)
            .build(edges([
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 0),
                (2, 2),
                (0, 1),
            ]))
            .unwrap();
        assert_oriented_matches(&loopy);
    }

    #[test]
    fn sampled_degrees_reports_mean_and_median() {
        assert_eq!(sampled_degrees(9, |_| 5), None);
        assert_eq!(sampled_degrees(10, |v| v), Some((4.5, 5)));
        // Above 1000 vertices the sample is strided: 0, 3, 6, ...
        let (mean, median) = sampled_degrees(3000, |v| v).unwrap();
        assert_eq!((mean, median), (1498.5, 1500));
    }
}
