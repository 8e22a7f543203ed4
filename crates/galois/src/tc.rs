//! Galois triangle counting: the same order-invariant algorithm as GAP
//! (Table III), with aggressive work stealing for load balance.
//!
//! The paper: on skewed Web, "Galois performance benefits from better work
//! stealing and load balancing"; on uniform Urand it loses to GAP "due to
//! the overheads of work stealing when the load is already well balanced"
//! (§V-F). Accordingly this implementation uses very fine-grained dynamic
//! chunks. In Optimized mode the harness excludes relabeling time by
//! passing a pre-relabeled graph, as the Galois team did.

use gapbs_graph::perm;
use gapbs_graph::types::NodeId;
use gapbs_graph::Graph;
use gapbs_parallel::{Schedule, ThreadPool};

/// Relabel handling for a TC run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relabeling {
    /// Decide by degree-skew heuristic and relabel inside the kernel
    /// (Baseline: preprocessing is timed).
    HeuristicTimed,
    /// The caller already relabeled the graph; count directly (Optimized:
    /// preprocessing excluded from timing).
    AlreadyRelabeled,
}

/// Counts triangles of an undirected graph.
///
/// # Panics
///
/// Panics if `g` is directed.
pub fn tc(g: &Graph, relabeling: Relabeling, pool: &ThreadPool) -> u64 {
    assert!(!g.is_directed(), "TC expects the symmetrized graph");
    match relabeling {
        Relabeling::HeuristicTimed => {
            if skewed(g) {
                let relabeled = {
                    let _relabel = gapbs_telemetry::Span::enter(gapbs_telemetry::Phase::Relabel);
                    perm::apply_in(g, &perm::degree_descending(g), pool)
                };
                count(&relabeled, pool)
            } else {
                count(g, pool)
            }
        }
        Relabeling::AlreadyRelabeled => count(g, pool),
    }
}

/// Produces the relabeled graph for Optimized mode (run outside timing).
pub fn relabel_for_optimized(g: &Graph, pool: &ThreadPool) -> Graph {
    if skewed(g) {
        perm::apply_in(g, &perm::degree_descending(g), pool)
    } else {
        g.clone()
    }
}

fn skewed(g: &Graph) -> bool {
    perm::sampled_degrees(g.num_vertices(), |u| g.out_degree(u as NodeId))
        .is_some_and(|(mean, median)| mean as usize > 2 * median.max(1))
}

fn count(g: &Graph, pool: &ThreadPool) -> u64 {
    // Per row: (triangles, element comparisons, adjacency entries read).
    // Chunk size 16: finer than GAP's, trading steal overhead for balance.
    let (triangles, comparisons, read) = pool.reduce_index(
        g.num_vertices(),
        Schedule::Dynamic(16),
        (0u64, 0u64, 0u64),
        |u| {
            let u = u as NodeId;
            let adj_u = g.out_neighbors(u);
            let prefix_u = &adj_u[..adj_u.partition_point(|&x| x < u)];
            let (mut local, mut comparisons) = (0u64, 0u64);
            for &v in prefix_u {
                let adj_v = g.out_neighbors(v);
                let (mut i, mut j) = (0usize, 0usize);
                while i < prefix_u.len() && j < adj_v.len() && prefix_u[i] < v && adj_v[j] < v {
                    comparisons += 1;
                    match prefix_u[i].cmp(&adj_v[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            local += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
            (local, comparisons, adj_u.len() as u64)
        },
        |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2),
    );
    // TcIntersections counts element comparisons (shared definition
    // across frameworks); they examine adjacency elements, so they feed
    // EdgesExamined too.
    gapbs_telemetry::record(gapbs_telemetry::Counter::TcIntersections, comparisons);
    gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, read + comparisons);
    triangles
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::edgelist::edges;
    use gapbs_graph::{gen, Builder};

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

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
    fn counts_match_brute_force() {
        for seed in 1..4 {
            let g = gen::kron(8, 10, seed);
            assert_eq!(tc(&g, Relabeling::HeuristicTimed, &pool()), brute(&g));
        }
    }

    #[test]
    fn optimized_path_matches_baseline() {
        let g = gen::kron(9, 12, 7);
        let p = pool();
        let base = tc(&g, Relabeling::HeuristicTimed, &p);
        let pre = relabel_for_optimized(&g, &p);
        let opt = tc(&pre, Relabeling::AlreadyRelabeled, &p);
        assert_eq!(base, opt);
    }

    #[test]
    fn k4_has_four_triangles() {
        let mut e = Vec::new();
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                e.push((i, j));
            }
        }
        let g = Builder::new().symmetrize(true).build(edges(e)).unwrap();
        assert_eq!(tc(&g, Relabeling::HeuristicTimed, &pool()), 4);
    }
}
