//! Output verifiers for every GAP kernel.
//!
//! The paper calls out "considerable ambiguity in the procedures to
//! validate results" and recommends formally specified verification (§VI).
//! This crate is that specification for the reproduction: each verifier is
//! a *sequential, independent* oracle (no shared code with the parallel
//! kernels) that the harness runs on every trial's output.
//!
//! | Kernel | Check |
//! |--------|-------|
//! | BFS    | parent tree is consistent with true BFS depths |
//! | SSSP   | distances equal sequential Dijkstra |
//! | PR     | scores sum to 1 and are a fixed point of the PageRank map |
//! | CC     | labeling induces exactly the true component partition |
//! | BC     | scores match a sequential Brandes run |
//! | TC     | count matches a sequential orientation count |

pub mod oracles;

use gapbs_graph::types::{Distance, NodeId, Score, NO_PARENT};
use gapbs_graph::{Graph, WGraph};
use std::fmt;

/// A verification failure: which check failed and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    kernel: &'static str,
    message: String,
}

impl VerifyError {
    fn new(kernel: &'static str, message: impl Into<String>) -> Self {
        VerifyError {
            kernel,
            message: message.into(),
        }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} verification failed: {}", self.kernel, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a BFS parent array against true depths from `source`.
///
/// # Errors
///
/// Fails if the root is not its own parent, a parent edge is missing from
/// the graph, a parent's depth is not exactly one less, or reachability
/// disagrees with a sequential BFS.
pub fn verify_bfs(g: &Graph, source: NodeId, parent: &[NodeId]) -> Result<(), VerifyError> {
    const K: &str = "bfs";
    if parent.len() != g.num_vertices() {
        return Err(VerifyError::new(K, "parent array length mismatch"));
    }
    if g.num_vertices() == 0 {
        return Ok(());
    }
    let depth = oracles::bfs_depths(g, source);
    if parent[source as usize] != source {
        return Err(VerifyError::new(K, "source is not its own parent"));
    }
    for v in g.vertices() {
        let p = parent[v as usize];
        match (p == NO_PARENT, depth[v as usize].is_none()) {
            (true, true) => continue,
            (true, false) => {
                return Err(VerifyError::new(
                    K,
                    format!("vertex {v} is reachable but has no parent"),
                ))
            }
            (false, true) => {
                return Err(VerifyError::new(
                    K,
                    format!("vertex {v} is unreachable but has parent {p}"),
                ))
            }
            (false, false) => {}
        }
        if v == source {
            continue;
        }
        if !g.out_csr().has_edge(p, v) {
            return Err(VerifyError::new(
                K,
                format!("claimed parent edge ({p}, {v}) does not exist"),
            ));
        }
        let (dv, dp) = (depth[v as usize].unwrap(), depth[p as usize].unwrap());
        if dp + 1 != dv {
            return Err(VerifyError::new(
                K,
                format!("vertex {v} at depth {dv} has parent {p} at depth {dp}"),
            ));
        }
    }
    Ok(())
}

/// Verifies SSSP distances against sequential Dijkstra.
///
/// # Errors
///
/// Fails on any per-vertex disagreement.
pub fn verify_sssp(g: &WGraph, source: NodeId, dist: &[Distance]) -> Result<(), VerifyError> {
    const K: &str = "sssp";
    if dist.len() != g.num_vertices() {
        return Err(VerifyError::new(K, "distance array length mismatch"));
    }
    let want = oracles::dijkstra(g, source);
    for v in 0..dist.len() {
        if dist[v] != want[v] {
            return Err(VerifyError::new(
                K,
                format!("vertex {v}: got {}, dijkstra says {}", dist[v], want[v]),
            ));
        }
    }
    Ok(())
}

/// Verifies PageRank scores: they must sum to 1 and be (approximately) a
/// fixed point of one damped power-iteration step with uniform dangling
/// redistribution.
///
/// # Errors
///
/// Fails if the total mass deviates from 1 or one PageRank step moves the
/// scores by more than `slack` (typically ~10× the kernel tolerance, since
/// Jacobi and Gauss–Seidel stop at slightly different points).
pub fn verify_pr(g: &Graph, scores: &[Score], slack: f64) -> Result<(), VerifyError> {
    const K: &str = "pr";
    if scores.len() != g.num_vertices() {
        return Err(VerifyError::new(K, "score array length mismatch"));
    }
    if g.num_vertices() == 0 {
        return Ok(());
    }
    if scores.iter().any(|s| !s.is_finite() || *s < 0.0) {
        return Err(VerifyError::new(
            K,
            "scores must be finite and non-negative",
        ));
    }
    let total: Score = scores.iter().sum();
    if (total - 1.0).abs() > 1e-3 {
        return Err(VerifyError::new(
            K,
            format!("scores sum to {total}, expected 1"),
        ));
    }
    let next = oracles::pagerank_step(g, scores, 0.85);
    let residual: f64 = scores
        .iter()
        .zip(next.iter())
        .map(|(a, b)| (a - b).abs())
        .sum();
    if residual > slack {
        return Err(VerifyError::new(
            K,
            format!("not a fixed point: one step moves scores by {residual} > {slack}"),
        ));
    }
    Ok(())
}

/// Verifies that a component labeling induces exactly the true weak-
/// connectivity partition.
///
/// # Errors
///
/// Fails if two connected vertices have different labels or two vertices
/// in different components share one.
pub fn verify_cc(g: &Graph, labels: &[NodeId]) -> Result<(), VerifyError> {
    const K: &str = "cc";
    if labels.len() != g.num_vertices() {
        return Err(VerifyError::new(K, "label array length mismatch"));
    }
    let want = oracles::components(g);
    let mut fwd = std::collections::HashMap::new();
    let mut bwd = std::collections::HashMap::new();
    for v in 0..labels.len() {
        let (got, exp) = (labels[v], want[v]);
        if *fwd.entry(got).or_insert(exp) != exp {
            return Err(VerifyError::new(
                K,
                format!("label {got} spans two true components (at vertex {v})"),
            ));
        }
        if *bwd.entry(exp).or_insert(got) != got {
            return Err(VerifyError::new(
                K,
                format!("true component {exp} received two labels (at vertex {v})"),
            ));
        }
    }
    Ok(())
}

/// Verifies BC scores against a sequential Brandes oracle.
///
/// # Errors
///
/// Fails if any normalized score deviates by more than `1e-6`.
pub fn verify_bc(g: &Graph, sources: &[NodeId], scores: &[Score]) -> Result<(), VerifyError> {
    const K: &str = "bc";
    if scores.len() != g.num_vertices() {
        return Err(VerifyError::new(K, "score array length mismatch"));
    }
    let want = oracles::brandes(g, sources);
    for v in 0..scores.len() {
        if (scores[v] - want[v]).abs() > 1e-6 {
            return Err(VerifyError::new(
                K,
                format!("vertex {v}: got {}, oracle says {}", scores[v], want[v]),
            ));
        }
    }
    Ok(())
}

/// Verifies a triangle count against a sequential orientation count.
///
/// # Errors
///
/// Fails on mismatch.
pub fn verify_tc(g: &Graph, count: u64) -> Result<(), VerifyError> {
    const K: &str = "tc";
    let want = oracles::triangles(g);
    if count != want {
        return Err(VerifyError::new(
            K,
            format!("got {count} triangles, oracle says {want}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::edgelist::{edges, wedges};
    use gapbs_graph::Builder;

    fn path() -> Graph {
        Builder::new()
            .symmetrize(true)
            .build(edges([(0, 1), (1, 2)]))
            .unwrap()
    }

    #[test]
    fn bfs_accepts_valid_tree_and_rejects_corruption() {
        let g = path();
        let good = vec![0, 0, 1];
        assert!(verify_bfs(&g, 0, &good).is_ok());
        let wrong_depth = vec![0, 2, 1]; // parent(1)=2 has depth 2, not 0
        assert!(verify_bfs(&g, 0, &wrong_depth).is_err());
        let missing = vec![0, 0, NO_PARENT];
        assert!(verify_bfs(&g, 0, &missing).is_err());
    }

    #[test]
    fn sssp_rejects_wrong_distance() {
        let g = Builder::new()
            .build_weighted(wedges([(0, 1, 3), (1, 2, 4)]))
            .unwrap();
        assert!(verify_sssp(&g, 0, &[0, 3, 7]).is_ok());
        assert!(verify_sssp(&g, 0, &[0, 3, 8]).is_err());
    }

    #[test]
    fn pr_rejects_unnormalized_scores() {
        let g = path();
        let err = verify_pr(&g, &[0.9, 0.9, 0.9], 1e-2).unwrap_err();
        assert!(err.to_string().contains("sum"));
    }

    #[test]
    fn cc_accepts_any_consistent_label_names() {
        let g = Builder::new()
            .symmetrize(true)
            .num_vertices(4)
            .build(edges([(0, 1), (2, 3)]))
            .unwrap();
        assert!(verify_cc(&g, &[7, 7, 9, 9]).is_ok());
        assert!(verify_cc(&g, &[7, 7, 7, 9]).is_err());
        assert!(verify_cc(&g, &[7, 7, 9, 7]).is_err());
    }

    #[test]
    fn tc_detects_off_by_one() {
        let g = Builder::new()
            .symmetrize(true)
            .build(edges([(0, 1), (1, 2), (2, 0)]))
            .unwrap();
        assert!(verify_tc(&g, 1).is_ok());
        assert!(verify_tc(&g, 2).is_err());
    }

    #[test]
    fn error_display_names_the_kernel() {
        let g = path();
        let err = verify_bfs(&g, 0, &[0, 0]).unwrap_err();
        assert!(err.to_string().starts_with("bfs"));
    }
}
