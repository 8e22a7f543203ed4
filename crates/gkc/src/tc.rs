//! GKC triangle counting: the Lee & Low family — provably correct exact
//! counting over a degree-ordered orientation, with skewness-driven
//! relabeling and the branch-free marked-row intersection
//! ([`gapbs_graph::intersect`], the "SIMD set intersection" stand-in).
//!
//! "GKC sorts vertices depending on degree skewness, then ... performs
//! set intersections with vectors that were previously visited, thereby
//! increasing data reuse in caches" (§V-F). The combination wins on every
//! graph in Table V — including Road, where the heuristic *declines* to
//! sort and the naive path's low overhead wins.

use gapbs_graph::perm;
use gapbs_graph::types::NodeId;
use gapbs_graph::{intersect, Graph};
use gapbs_parallel::{Schedule, ThreadPool};

/// Counts triangles of an undirected graph.
///
/// # Panics
///
/// Panics if `g` is directed.
pub fn tc(g: &Graph, pool: &ThreadPool) -> u64 {
    assert!(!g.is_directed(), "TC expects the symmetrized graph");
    // Rows are walked in ascending id order and each `v` in a row is an
    // earlier row, so the probed lists are the "previously visited
    // vectors" still warm in cache. When the heuristic declines (Road),
    // the engine's no-sort, no-copy path is the low-overhead naive one.
    let relabel = degree_skewness(g) > 2.0;
    let found = intersect::count_triangles(g, relabel, pool, Schedule::Dynamic(64));
    // Marks set and probed feed both counters so `tc_intersections <=
    // edges_examined` holds by construction (see `perf_compare --lint`).
    gapbs_telemetry::record(gapbs_telemetry::Counter::TcIntersections, found.comparisons);
    gapbs_telemetry::record(
        gapbs_telemetry::Counter::EdgesExamined,
        g.num_arcs() as u64 + found.comparisons,
    );
    found.count
}

/// Sampled skewness proxy: mean degree over median degree (0 when the
/// graph is too small to sample).
pub fn degree_skewness(g: &Graph) -> f64 {
    perm::sampled_degrees(g.num_vertices(), |u| g.out_degree(u as NodeId))
        .map_or(0.0, |(mean, median)| mean / median.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::edgelist::edges;
    use gapbs_graph::{gen, Builder};

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
    fn matches_brute_force_on_random_graphs() {
        for seed in 1..4 {
            let g = gen::kron(8, 10, seed);
            assert_eq!(tc(&g, &ThreadPool::new(4)), brute(&g), "seed {seed}");
        }
    }

    #[test]
    fn skewness_heuristic_separates_topologies() {
        let road = gen::road(&gen::RoadConfig::gap_like(32), 1);
        assert!(degree_skewness(&road) <= 2.0, "road must not relabel");
        let kron = gen::kron(11, 16, 1);
        assert!(degree_skewness(&kron) > 2.0, "kron must relabel");
    }

    #[test]
    fn k5_counts_ten() {
        let mut e = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                e.push((i, j));
            }
        }
        let g = Builder::new().symmetrize(true).build(edges(e)).unwrap();
        assert_eq!(tc(&g, &ThreadPool::new(2)), 10);
    }
}
