//! GraphIt PageRank: Jacobi pull with optional *cache tiling* ("making
//! caches work for graph analytics", §V-D). The Optimized schedule builds
//! cache-efficient source-blocked subgraphs from CSR; the paper notes this
//! preprocessing "is amortized within 2–5 iterations", and the build time
//! is part of the kernel here for the same reason.

use gapbs_graph::types::{NodeId, Score};
use gapbs_graph::Graph;
use gapbs_parallel::{Schedule as LoopSched, ThreadPool};

/// Source-block size for the tiled schedule (vertices per tile).
const TILE: usize = 4096;

/// One entry per tile: the vertices whose in-neighbors fall in that
/// source block, with those neighbors.
type TileSegments = Vec<Vec<(NodeId, Vec<NodeId>)>>;

/// Runs PageRank; returns `(scores, iterations)`.
pub fn pr(
    g: &Graph,
    damping: f64,
    tolerance: f64,
    max_iters: usize,
    cache_tiling: bool,
    pool: &ThreadPool,
) -> (Vec<Score>, usize) {
    let n = g.num_vertices();
    if n == 0 {
        return (Vec::new(), 0);
    }
    // Tiled schedule: segment each vertex's in-neighbors by source block,
    // so each pass over a block keeps its source scores cache-resident.
    let tiles: Option<TileSegments> = cache_tiling.then(|| {
        let num_tiles = n.div_ceil(TILE);
        let mut tiles: TileSegments = vec![Vec::new(); num_tiles];
        for v in g.vertices() {
            let mut per_tile: Vec<Vec<NodeId>> = vec![Vec::new(); num_tiles];
            for &u in g.in_neighbors(v) {
                per_tile[u as usize / TILE].push(u);
            }
            for (t, sources) in per_tile.into_iter().enumerate() {
                if !sources.is_empty() {
                    tiles[t].push((v, sources));
                }
            }
        }
        tiles
    });

    let nf = n as Score;
    let base = (1.0 - damping) / nf;
    let mut scores = vec![1.0 / nf; n];
    let mut outgoing = vec![0.0; n];
    let mut iterations = 0;
    for iter in 0..max_iters {
        iterations = iter + 1;
        gapbs_telemetry::record(gapbs_telemetry::Counter::PrIterations, 1);
        gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
        gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, g.num_arcs() as u64);
        for v in 0..n {
            let d = g.out_degree(v as NodeId);
            outgoing[v] = if d > 0 { scores[v] / d as Score } else { 0.0 };
        }
        let dangling: Score = (0..n)
            .filter(|&v| g.out_degree(v as NodeId) == 0)
            .map(|v| scores[v])
            .sum::<Score>()
            / nf;
        let mut next = vec![base + damping * dangling; n];
        match &tiles {
            Some(tiles) => {
                // Per-tile gather: all reads of `outgoing` stay within one
                // source block per pass.
                for tile in tiles {
                    for (v, sources) in tile {
                        let sum: Score = sources.iter().map(|&u| outgoing[u as usize]).sum();
                        next[*v as usize] += damping * sum;
                    }
                }
            }
            None => {
                let outgoing_ref = &outgoing;
                let cells = as_cells(&mut next);
                pool.for_each_index(n, LoopSched::Dynamic(256), |v| {
                    let sum: Score = g
                        .in_neighbors(v as NodeId)
                        .iter()
                        .map(|&u| outgoing_ref[u as usize])
                        .sum();
                    cells[v].fetch_add(damping * sum);
                });
            }
        }
        let error: Score = scores.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        scores = next;
        gapbs_telemetry::trace_iter!(PrSweep {
            sweep: iterations as u32,
            residual: error
        });
        if error < tolerance {
            break;
        }
    }
    (scores, iterations)
}

fn as_cells(slice: &mut [Score]) -> &[gapbs_parallel::atomics::AtomicF64] {
    // Safety: AtomicF64 is layout-compatible with f64; exclusive borrow
    // prevents non-atomic aliasing for the region's duration.
    unsafe { &*(slice as *mut [Score] as *const [gapbs_parallel::atomics::AtomicF64]) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::gen;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn tiled_and_untiled_agree() {
        let g = gen::kron(9, 8, 3);
        let p = pool();
        let (a, ia) = pr(&g, 0.85, 1e-8, 300, false, &p);
        let (b, ib) = pr(&g, 0.85, 1e-8, 300, true, &p);
        assert_eq!(ia, ib, "tiling must not change iteration count");
        for v in 0..a.len() {
            assert!((a[v] - b[v]).abs() < 1e-9, "vertex {v}");
        }
    }

    #[test]
    fn scores_sum_to_one() {
        let g = gen::urand(9, 8, 5);
        let (scores, _) = pr(&g, 0.85, 1e-7, 300, true, &pool());
        let total: Score = scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-5);
    }
}
