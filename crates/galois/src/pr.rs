//! Galois PageRank: Gauss–Seidel-style in-place updates.
//!
//! Unlike the reference's Jacobi sweep (two arrays, updates visible next
//! iteration), the Gauss–Seidel variant updates a single score array in
//! place, so later vertices in the same sweep already see earlier
//! vertices' new values. It "converges faster and performs fewer
//! operations" (§V-D) — the benefit grows with graph diameter, giving the
//! 3.6× Road win the paper reports.

use gapbs_graph::types::{NodeId, Score};
use gapbs_graph::{Graph, Strips};
use gapbs_parallel::atomics::AtomicF64;
use gapbs_parallel::ThreadPool;

/// Runs Gauss–Seidel PageRank; returns `(scores, iterations)`.
pub fn pr(
    g: &Graph,
    damping: f64,
    tolerance: f64,
    max_iters: usize,
    pool: &ThreadPool,
) -> (Vec<Score>, usize) {
    let n = g.num_vertices();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let nf = n as Score;
    let base = (1.0 - damping) / nf;
    // One shared array read and written in place. Races between readers
    // and the single writer of a slot only exchange old/new values —
    // both fixed-point iterates — so convergence is unaffected (this is
    // "chaotic relaxation", the essence of asynchronous Gauss–Seidel).
    let scores: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(1.0 / nf)).collect();
    let out_degree: Vec<usize> = g.vertices().map(|u| g.out_degree(u)).collect();
    // Chaotic relaxation tolerates any visit order, so walking LLC-sized
    // strips of in-edge mass costs nothing semantically and keeps each
    // strip's score window resident.
    let strips = Strips::pull(g.in_csr());
    let mut iterations = 0;
    for iter in 0..max_iters {
        iterations = iter + 1;
        gapbs_telemetry::record(gapbs_telemetry::Counter::PrIterations, 1);
        gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
        gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, g.num_arcs() as u64);
        let dangling: Score = (0..n)
            .filter(|&v| out_degree[v] == 0)
            .map(|v| scores[v].load())
            .sum::<Score>()
            / nf;
        let error = pool.reduce_index(
            strips.len(),
            gapbs_parallel::Schedule::Dynamic(1),
            0.0f64,
            |s| {
                let mut strip_error = 0.0;
                for v in strips.range(s) {
                    let mut sum = 0.0;
                    for &u in g.in_neighbors(v as NodeId) {
                        // In-place read: may already be this sweep's value.
                        sum += scores[u as usize].load() / out_degree[u as usize] as Score;
                    }
                    let new = base + damping * (sum + dangling);
                    let old = scores[v].load();
                    scores[v].store(new);
                    strip_error += (new - old).abs();
                }
                strip_error
            },
            |a, b| a + b,
        );
        // In-place sweeps let updated values re-feed within the sweep,
        // inflating total mass; without renormalization the excess decays
        // only geometrically and dominates the error tail. One O(n)
        // rescale per sweep restores the faster-than-Jacobi convergence
        // Gauss–Seidel PageRank is known for.
        let mass = pool.reduce_index(
            n,
            gapbs_parallel::Schedule::Static,
            0.0f64,
            |v| scores[v].load(),
            |a, b| a + b,
        );
        if mass > 0.0 {
            pool.for_each_index(n, gapbs_parallel::Schedule::Static, |v| {
                scores[v].store(scores[v].load() / mass);
            });
        }
        gapbs_telemetry::trace_iter!(PrSweep {
            sweep: iterations as u32,
            residual: error
        });
        if error < tolerance {
            break;
        }
    }
    (scores.iter().map(|s| s.load()).collect(), iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::gen;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn scores_sum_to_one() {
        let g = gen::kron(8, 8, 4);
        let (scores, _) = pr(&g, 0.85, 1e-6, 200, &pool());
        let total: Score = scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-4, "total {total}");
    }

    #[test]
    fn converges_in_fewer_iterations_than_jacobi() {
        // The paper's §V-D claim, checked directly: Gauss–Seidel needs
        // fewer sweeps than Jacobi at the same tolerance.
        let g = gen::road(&gen::RoadConfig::gap_like(40), 6);
        let p = ThreadPool::new(1); // deterministic sweep order
        let (_, gs_iters) = pr(&g, 0.85, 1e-7, 500, &p);
        let jacobi = gapbs_ref_jacobi_iters(&g, 1e-7);
        assert!(
            gs_iters < jacobi,
            "gauss-seidel {gs_iters} vs jacobi {jacobi}"
        );
    }

    /// Minimal local Jacobi iteration-counter (independent of gapbs-ref to
    /// avoid a dev-dependency cycle).
    fn gapbs_ref_jacobi_iters(g: &Graph, tol: f64) -> usize {
        let n = g.num_vertices();
        let nf = n as f64;
        let mut scores = vec![1.0 / nf; n];
        for iter in 0..500 {
            let dangling: f64 = (0..n)
                .filter(|&v| g.out_degree(v as NodeId) == 0)
                .map(|v| scores[v])
                .sum::<f64>()
                / nf;
            let next: Vec<f64> = (0..n)
                .map(|v| {
                    let sum: f64 = g
                        .in_neighbors(v as NodeId)
                        .iter()
                        .map(|&u| scores[u as usize] / g.out_degree(u) as f64)
                        .sum();
                    (1.0 - 0.85) / nf + 0.85 * (sum + dangling)
                })
                .collect();
            let err: f64 = scores.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            scores = next;
            if err < tol {
                return iter + 1;
            }
        }
        500
    }

    #[test]
    fn fixed_point_is_the_pagerank_vector() {
        let g = gen::urand(8, 8, 2);
        let (scores, _) = pr(&g, 0.85, 1e-10, 1000, &pool());
        // One exact Jacobi step must (approximately) reproduce the vector.
        let n = g.num_vertices();
        let nf = n as f64;
        let dangling: f64 = (0..n)
            .filter(|&v| g.out_degree(v as NodeId) == 0)
            .map(|v| scores[v])
            .sum::<f64>()
            / nf;
        for v in 0..n {
            let sum: f64 = g
                .in_neighbors(v as NodeId)
                .iter()
                .map(|&u| scores[u as usize] / g.out_degree(u) as f64)
                .sum();
            let expect = (1.0 - 0.85) / nf + 0.85 * (sum + dangling);
            assert!((scores[v] - expect).abs() < 1e-7, "vertex {v}");
        }
    }
}
