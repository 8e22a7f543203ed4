//! GKC PageRank: Gauss–Seidel sweeps (Table III) with tight scalar inner
//! loops over the raw CSR slices.

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
    let scores: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(1.0 / nf)).collect();
    // Precompute reciprocal out-degrees: one multiply instead of a divide
    // in the hot loop (the scalar micro-optimization GKC would inline).
    let inv_degree: Vec<Score> = g
        .vertices()
        .map(|u| {
            let d = g.out_degree(u);
            if d > 0 {
                1.0 / d as Score
            } else {
                0.0
            }
        })
        .collect();
    // Strip the sweep by in-edge mass so each strip's score window stays
    // LLC-resident; Gauss–Seidel stays in-place, the strip order merely
    // bounds how much of `scores` a worker touches at once.
    let strips = Strips::pull(g.in_csr());
    let mut iterations = 0;
    for iter in 0..max_iters {
        iterations = iter + 1;
        gapbs_telemetry::record(gapbs_telemetry::Counter::PrIterations, 1);
        gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
        gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, g.num_arcs() as u64);
        let dangling: Score = (0..n)
            .filter(|&v| g.out_degree(v as NodeId) == 0)
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
                    let row = g.in_neighbors(v as NodeId);
                    let mut sum = 0.0;
                    let mut k = 0;
                    while k < row.len() {
                        let u = row[k] as usize;
                        sum += scores[u].load() * inv_degree[u];
                        k += 1;
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
        // Per-sweep mass renormalization: in-place updates inflate total
        // mass, and the excess decays too slowly to hit the tolerance in
        // the expected sweep count.
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
    (scores.iter().map(AtomicF64::load).collect(), iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::gen;

    #[test]
    fn scores_sum_to_one_and_converge() {
        let g = gen::kron(8, 8, 1);
        let (scores, iters) = pr(&g, 0.85, 1e-7, 300, &ThreadPool::new(4));
        let total: Score = scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-4, "total {total}");
        assert!(iters < 300);
    }

    #[test]
    fn fixed_point_property_holds() {
        let g = gen::urand(8, 8, 6);
        let (scores, _) = pr(&g, 0.85, 1e-10, 1000, &ThreadPool::new(1));
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
            let expect = 0.15 / nf + 0.85 * (sum + dangling);
            assert!((scores[v] - expect).abs() < 1e-7, "vertex {v}");
        }
    }
}
