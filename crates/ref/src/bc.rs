//! Approximate betweenness centrality via Brandes' algorithm, batched over
//! a small set of root vertices (the GAP spec uses four roots per trial).
//!
//! The forward pass is a level-synchronous BFS that counts shortest paths
//! (`sigma`); following GAP, the edges on shortest paths are recorded in a
//! per-arc *successor bitmap*, which the backward pass walks to accumulate
//! dependencies — the optimization the paper credits for GAP beating
//! Galois on BC (§V-E).

use gapbs_graph::types::{NodeId, Score};
use gapbs_graph::Graph;
use gapbs_parallel::atomics::AtomicF64;
use gapbs_parallel::sync::Mutex;
use gapbs_parallel::{AtomicBitmap, ThreadPool};
use std::sync::atomic::{AtomicU32, Ordering};

const UNVISITED: u32 = u32::MAX;

/// Runs Brandes from each vertex in `sources`, returning centrality scores
/// normalized by the largest score (matching the GAP reference output).
pub fn bc(g: &Graph, sources: &[NodeId], pool: &ThreadPool) -> Vec<Score> {
    let n = g.num_vertices();
    let mut scores = vec![0.0 as Score; n];
    if n == 0 {
        return scores;
    }
    let succ = AtomicBitmap::new(g.num_arcs());
    for &source in sources {
        succ.clear();
        single_source(g, source, pool, &succ, &mut scores);
    }
    // Normalize to [0, 1] like the GAP reference.
    let max = scores.iter().cloned().fold(0.0, Score::max);
    if max > 0.0 {
        for s in &mut scores {
            *s /= max;
        }
    }
    scores
}

fn single_source(
    g: &Graph,
    source: NodeId,
    pool: &ThreadPool,
    succ: &AtomicBitmap,
    scores: &mut [Score],
) {
    let n = g.num_vertices();
    let depth: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNVISITED)).collect();
    let sigma: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
    depth[source as usize].store(0, Ordering::Relaxed);
    sigma[source as usize].store(1.0);

    // Forward: level-synchronous shortest-path counting.
    let mut levels: Vec<Vec<NodeId>> = vec![vec![source]];
    loop {
        let frontier = levels.last().expect("at least the root level");
        if frontier.is_empty() {
            levels.pop();
            break;
        }
        gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
        let d = (levels.len() - 1) as u32;
        gapbs_telemetry::trace_iter!(BcLevel {
            depth: d,
            frontier: frontier.len() as u64
        });
        let next = Mutex::new(Vec::new());
        let nthreads = pool.num_threads();
        pool.run(|tid| {
            let mut local_next = Vec::new();
            let mut local_edges = 0u64;
            let mut i = tid;
            while i < frontier.len() {
                let u = frontier[i];
                let base = g.out_csr().offset(u);
                let su = sigma[u as usize].load();
                local_edges += g.out_degree(u) as u64;
                for (k, &v) in g.out_neighbors(u).iter().enumerate() {
                    let dv = depth[v as usize].load(Ordering::Relaxed);
                    if dv == UNVISITED
                        && depth[v as usize]
                            .compare_exchange(
                                UNVISITED,
                                d + 1,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                    {
                        local_next.push(v);
                        sigma[v as usize].fetch_add(su);
                        succ.set(base + k);
                        continue;
                    }
                    if depth[v as usize].load(Ordering::Relaxed) == d + 1 {
                        sigma[v as usize].fetch_add(su);
                        succ.set(base + k);
                    }
                }
                i += nthreads;
            }
            gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, local_edges);
            next.lock().append(&mut local_next);
        });
        let next = next.into_inner();
        levels.push(next);
    }

    // Backward: dependency accumulation over the successor bitmap.
    let delta: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
    for level in levels.iter().rev().skip(1) {
        let nthreads = pool.num_threads();
        pool.run(|tid| {
            let mut i = tid;
            while i < level.len() {
                let u = level[i];
                let base = g.out_csr().offset(u);
                let su = sigma[u as usize].load();
                let mut acc = 0.0;
                for (k, &v) in g.out_neighbors(u).iter().enumerate() {
                    if succ.get(base + k) {
                        acc += (su / sigma[v as usize].load()) * (1.0 + delta[v as usize].load());
                    }
                }
                delta[u as usize].store(acc);
                i += nthreads;
            }
        });
    }
    for v in 0..n {
        if v as NodeId != source {
            scores[v] += delta[v].load();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::edgelist::edges;
    use gapbs_graph::{gen, Builder};
    use gapbs_verify::oracles::brandes;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    fn assert_close(a: &[Score], b: &[Score]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() < 1e-9, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn path_graph_middle_vertex_is_central() {
        let g = Builder::new()
            .symmetrize(true)
            .build(edges([(0, 1), (1, 2), (2, 3), (3, 4)]))
            .unwrap();
        let scores = bc(&g, &[0], &pool());
        // From source 0, vertex 1 lies on paths to 2,3,4.
        assert!(scores[1] > scores[3]);
        assert_eq!(scores[0], 0.0);
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 1..4 {
            let g = gen::kron(8, 8, seed);
            let sources = [0, 7, 13, 42];
            let got = bc(&g, &sources, &pool());
            let want = brandes(&g, &sources);
            assert_close(&got, &want);
        }
    }

    #[test]
    fn diamond_counts_multiple_shortest_paths() {
        // 0->1->3, 0->2->3: sigma(3) = 2, so 1 and 2 each get 0.5.
        let g = Builder::new()
            .build(edges([(0, 1), (0, 2), (1, 3), (2, 3)]))
            .unwrap();
        let got = bc(&g, &[0], &pool());
        let want = brandes(&g, &[0]);
        assert_close(&got, &want);
        assert!((got[1] - got[2]).abs() < 1e-12);
    }

    #[test]
    fn multiple_sources_accumulate() {
        let g = gen::urand(8, 6, 3);
        let got = bc(&g, &[1, 2, 3, 4], &pool());
        let want = brandes(&g, &[1, 2, 3, 4]);
        assert_close(&got, &want);
    }
}
