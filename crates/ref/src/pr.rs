//! PageRank via Jacobi-style sparse matrix-vector products.
//!
//! The GAP reference pulls contributions over *incoming* edges and keeps
//! two score arrays (Jacobi iteration): updated values become visible only
//! at the next iteration. The paper's discussion (§V-D and §VI) notes this
//! is no longer competitive with the Gauss–Seidel variants several
//! frameworks use — a contrast this reproduction preserves.

use gapbs_graph::types::{NodeId, Score};
use gapbs_graph::{Graph, Strips};
use gapbs_parallel::{Schedule, ThreadPool};

/// PageRank parameters.
#[derive(Debug, Clone, Copy)]
pub struct PrConfig {
    /// Damping factor (0.85 across the suite).
    pub damping: f64,
    /// L1 convergence tolerance on the score change per iteration.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iters: usize,
}

impl Default for PrConfig {
    fn default() -> Self {
        PrConfig {
            damping: crate::PR_DAMPING,
            tolerance: crate::PR_TOLERANCE,
            max_iters: crate::PR_MAX_ITERS,
        }
    }
}

/// Result of a PageRank run: scores plus the iteration count, which the
/// benchmark report uses to show the Jacobi/Gauss–Seidel convergence gap.
#[derive(Debug, Clone)]
pub struct PrResult {
    /// Per-vertex scores (sums to ~1).
    pub scores: Vec<Score>,
    /// Iterations executed before convergence (or the cap).
    pub iterations: usize,
}

/// Runs Jacobi PageRank until the L1 residual drops below the tolerance.
pub fn pr(g: &Graph, pool: &ThreadPool) -> PrResult {
    pr_with_config(g, pool, &PrConfig::default())
}

/// [`pr`] with explicit parameters.
pub fn pr_with_config(g: &Graph, pool: &ThreadPool, config: &PrConfig) -> PrResult {
    let n = g.num_vertices();
    if n == 0 {
        return PrResult {
            scores: Vec::new(),
            iterations: 0,
        };
    }
    let init = 1.0 / n as Score;
    let base = (1.0 - config.damping) / n as Score;
    // Jacobi keeps two score arrays; they swap roles every iteration
    // instead of a fresh one being allocated (every entry of `next` is
    // overwritten by the sweep, the strips cover `0..n`).
    let mut scores = vec![init; n];
    let mut next = vec![0.0 as Score; n];
    let mut outgoing = vec![0.0 as Score; n];
    let mut iterations = 0usize;
    // LLC-sized vertex strips: each pull sweep walks a strip's in-edges
    // while its slice of `next` stays cache-resident.
    let strips = Strips::pull(g.in_csr());

    // Dangling vertices (out-degree 0) spread their mass uniformly; GAP's
    // reference skips this, but the GAP spec scores remain comparable
    // because every framework here does the same redistribution. The list
    // is in ascending vertex order, so summing over it adds the same
    // values in the same order as a scan of all vertices.
    let dangling: Vec<NodeId> = g.vertices().filter(|&v| g.out_degree(v) == 0).collect();
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        gapbs_telemetry::record(gapbs_telemetry::Counter::PrIterations, 1);
        gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
        gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, g.num_arcs() as u64);
        // Phase 1: per-vertex outgoing contribution.
        {
            let (scores, outgoing_cells) = (&scores, as_score_cells(&mut outgoing));
            pool.for_each_index(n, Schedule::Static, |v| {
                let d = g.out_degree(v as NodeId);
                outgoing_cells[v].store(if d > 0 { scores[v] / d as Score } else { 0.0 });
            });
        }
        let dangling_mass: Score =
            dangling.iter().map(|&v| scores[v as usize]).sum::<Score>() / n as Score;
        // Phase 2: pull over incoming edges into the other array (Jacobi).
        let outgoing_ref = &outgoing;
        {
            let next_cells = as_score_cells(&mut next);
            pool.for_each_index(strips.len(), Schedule::Dynamic(1), |s| {
                for v in strips.range(s) {
                    let mut sum = 0.0;
                    for &u in g.in_neighbors(v as NodeId) {
                        sum += outgoing_ref[u as usize];
                    }
                    let val = base + config.damping * (sum + dangling_mass);
                    next_cells[v].store(val);
                }
            });
        }
        let error: Score = pool.reduce_index(
            n,
            Schedule::Static,
            0.0,
            |v| (next[v] - scores[v]).abs(),
            |a, b| a + b,
        );
        std::mem::swap(&mut scores, &mut next);
        gapbs_telemetry::trace_iter!(PrSweep {
            sweep: iterations as u32,
            residual: error
        });
        if error < config.tolerance {
            break;
        }
    }
    PrResult { scores, iterations }
}

/// Views a `&mut [f64]` as independently writable cells for a parallel
/// region (each index written by exactly one closure invocation).
fn as_score_cells(slice: &mut [Score]) -> &[gapbs_parallel::atomics::AtomicF64] {
    // Safety: AtomicF64 wraps an AtomicU64 with the same layout as f64 on
    // all supported platforms; the exclusive borrow prevents non-atomic
    // aliasing during the region.
    unsafe { &*(slice as *mut [Score] as *const [gapbs_parallel::atomics::AtomicF64]) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::edgelist::edges;
    use gapbs_graph::{gen, Builder};

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn scores_sum_to_one() {
        let g = gen::kron(8, 8, 7);
        let result = pr(&g, &pool());
        let total: Score = result.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "total = {total}");
    }

    #[test]
    fn symmetric_star_center_dominates() {
        let g = Builder::new()
            .symmetrize(true)
            .build(edges([(0, 1), (0, 2), (0, 3), (0, 4)]))
            .unwrap();
        let result = pr(&g, &pool());
        let center = result.scores[0];
        for leaf in 1..5 {
            assert!(center > result.scores[leaf]);
        }
    }

    #[test]
    fn two_cycle_is_uniform() {
        let g = Builder::new().build(edges([(0, 1), (1, 0)])).unwrap();
        let result = pr(&g, &pool());
        assert!((result.scores[0] - result.scores[1]).abs() < 1e-9);
        assert!((result.scores[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn converges_before_cap_on_small_graphs() {
        let g = gen::urand(8, 8, 1);
        let result = pr(&g, &pool());
        assert!(
            result.iterations < crate::PR_MAX_ITERS,
            "did not converge: {} iterations",
            result.iterations
        );
    }

    #[test]
    fn dangling_mass_is_conserved() {
        // 0 -> 1, 1 has no out-edges (dangling).
        let g = Builder::new().build(edges([(0, 1)])).unwrap();
        let result = pr(&g, &pool());
        let total: Score = result.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "total = {total}");
    }
}
