//! GraphIt triangle counting: order-invariant orientation count whose
//! set-intersection method is a schedule knob.
//!
//! "For the Optimized data set, GraphIt was originally slower than GAP on
//! Road because it used a set intersection method that was inefficient
//! for smaller graphs. Changing back to the naive intersection method
//! used in GAP improved performance" (§V-F). [`Intersection::Merge`] is
//! the branch-light merge (good on large skewed graphs, less branch
//! misprediction); [`Intersection::Naive`] probes the longer list by
//! binary search (good on small graphs).

use crate::schedule::Intersection;
use gapbs_graph::perm;
use gapbs_graph::types::NodeId;
use gapbs_graph::Graph;
use gapbs_parallel::{Schedule as LoopSched, ThreadPool};

/// Counts triangles of an undirected graph under the given intersection
/// schedule (relabeling decided by heuristic, timed in-kernel).
///
/// # Panics
///
/// Panics if `g` is directed.
pub fn tc(g: &Graph, intersection: Intersection, pool: &ThreadPool) -> u64 {
    assert!(!g.is_directed(), "TC expects the symmetrized graph");
    if skewed(g) {
        let relabeled = {
            let _relabel = gapbs_telemetry::Span::enter(gapbs_telemetry::Phase::Relabel);
            perm::apply_in(g, &perm::degree_descending(g), pool)
        };
        count(&relabeled, intersection, pool)
    } else {
        count(g, intersection, pool)
    }
}

fn skewed(g: &Graph) -> bool {
    perm::sampled_degrees(g.num_vertices(), |u| g.out_degree(u as NodeId))
        .is_some_and(|(mean, median)| mean as usize > 2 * median.max(1))
}

fn count(g: &Graph, intersection: Intersection, pool: &ThreadPool) -> u64 {
    // Per row: (triangles, element comparisons, adjacency entries read).
    let (triangles, comparisons, read) = pool.reduce_index(
        g.num_vertices(),
        LoopSched::Dynamic(64),
        (0u64, 0u64, 0u64),
        |u| {
            let u = u as NodeId;
            let adj_u = g.out_neighbors(u);
            let prefix_u = &adj_u[..adj_u.partition_point(|&x| x < u)];
            let mut row = (0u64, 0u64, adj_u.len() as u64);
            for &v in prefix_u {
                let adj_v = g.out_neighbors(v);
                let (found, compared) = match intersection {
                    Intersection::Merge => merge_below(prefix_u, adj_v, v),
                    Intersection::Naive => probe_below(prefix_u, adj_v, v),
                };
                row.0 += found;
                row.1 += compared;
            }
            row
        },
        |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2),
    );
    // TcIntersections counts element comparisons (shared definition
    // across frameworks); each one examines an adjacency element.
    gapbs_telemetry::record(gapbs_telemetry::Counter::TcIntersections, comparisons);
    gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, read + comparisons);
    triangles
}

/// Returns `(matches, element comparisons)`.
fn merge_below(a: &[NodeId], b: &[NodeId], ceiling: NodeId) -> (u64, u64) {
    let (mut i, mut j, mut c, mut cmp) = (0usize, 0usize, 0u64, 0u64);
    while i < a.len() && j < b.len() && a[i] < ceiling && b[j] < ceiling {
        // Branch-reduced merge step.
        let (x, y) = (a[i], b[j]);
        cmp += 1;
        c += u64::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    (c, cmp)
}

/// Returns `(matches, element comparisons)`; each binary search is
/// charged its ceil(log2) probe count.
fn probe_below(a: &[NodeId], b: &[NodeId], ceiling: NodeId) -> (u64, u64) {
    // Probe elements of the shorter prefix into the longer one.
    let at = &a[..a.partition_point(|&x| x < ceiling)];
    let bt = &b[..b.partition_point(|&x| x < ceiling)];
    let (probe, into) = if at.len() <= bt.len() {
        (at, bt)
    } else {
        (bt, at)
    };
    let per_probe = u64::from((into.len() + 1).next_power_of_two().trailing_zeros()).max(1);
    let c = probe
        .iter()
        .filter(|&&x| into.binary_search(&x).is_ok())
        .count() as u64;
    (c, probe.len() as u64 * per_probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::gen;

    fn brute(g: &Graph) -> u64 {
        let mut c = 0;
        for u in g.vertices() {
            for &v in g.out_neighbors(u) {
                if v <= u {
                    continue;
                }
                for &w in g.out_neighbors(v) {
                    if w > v && g.out_csr().has_edge(u, w) {
                        c += 1;
                    }
                }
            }
        }
        c
    }

    #[test]
    fn both_intersections_match_brute_force() {
        for seed in [2, 5] {
            let g = gen::kron(8, 10, seed);
            let want = brute(&g);
            let p = ThreadPool::new(4);
            assert_eq!(tc(&g, Intersection::Merge, &p), want);
            assert_eq!(tc(&g, Intersection::Naive, &p), want);
        }
    }

    #[test]
    fn road_counts_agree_across_methods() {
        let g = gen::road(&gen::RoadConfig::gap_like(20), 9);
        // road is directed; symmetrize first like the harness does.
        let sym = gapbs_graph::Builder::new()
            .symmetrize(true)
            .num_vertices(g.num_vertices())
            .build(
                g.out_csr()
                    .iter_edges()
                    .map(|(u, v)| gapbs_graph::Edge::new(u, v))
                    .collect(),
            )
            .unwrap();
        let p = ThreadPool::new(2);
        assert_eq!(
            tc(&sym, Intersection::Merge, &p),
            tc(&sym, Intersection::Naive, &p)
        );
    }
}
