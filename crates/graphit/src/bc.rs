//! GraphIt betweenness centrality: Brandes with a bit-vector frontier and
//! a *transposed backward pass*.
//!
//! "Unlike GAP's implementation, GraphIt transposes the graph for the
//! backward pass ... GraphIt uses a bitvector to represent the frontier,
//! which is advantageous when there are many active elements" (§V-E). The
//! backward pass here pulls dependency contributions over *incoming*
//! edges of each level, scattering into the shallower level with atomic
//! adds — a genuinely different data-flow from GAP's successor bitmap.

use crate::schedule::FrontierLayout;
use gapbs_graph::types::{NodeId, Score};
use gapbs_graph::Graph;
use gapbs_parallel::atomics::AtomicF64;
use gapbs_parallel::sync::Mutex;
use gapbs_parallel::{AtomicBitmap, ThreadPool};
use std::sync::atomic::{AtomicU32, Ordering};

const UNVISITED: u32 = u32::MAX;

/// Runs Brandes BC from `sources` under the given frontier layout,
/// normalized by the maximum score.
pub fn bc(
    g: &Graph,
    sources: &[NodeId],
    frontier_layout: FrontierLayout,
    pool: &ThreadPool,
) -> Vec<Score> {
    let n = g.num_vertices();
    let mut scores = vec![0.0; n];
    if n == 0 {
        return scores;
    }
    for &s in sources {
        single_source(g, s, frontier_layout, pool, &mut scores);
    }
    let max = scores.iter().cloned().fold(0.0, Score::max);
    if max > 0.0 {
        for v in &mut scores {
            *v /= max;
        }
    }
    scores
}

fn single_source(
    g: &Graph,
    source: NodeId,
    frontier_layout: FrontierLayout,
    pool: &ThreadPool,
    scores: &mut [Score],
) {
    let n = g.num_vertices();
    let depth: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNVISITED)).collect();
    let sigma: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
    depth[source as usize].store(0, Ordering::Relaxed);
    sigma[source as usize].store(1.0);
    let mut levels: Vec<Vec<NodeId>> = vec![vec![source]];
    // Forward pass, frontier as list or bitvector per the schedule.
    loop {
        let frontier = levels.last().expect("root level exists");
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
        let next: Vec<NodeId> = match frontier_layout {
            FrontierLayout::BitVector => {
                let bits = AtomicBitmap::new(n);
                expand(g, frontier, d, &depth, &sigma, pool, |v| {
                    bits.set(v as usize)
                });
                bits.iter_ones().map(|v| v as NodeId).collect()
            }
            FrontierLayout::SparseQueue => {
                let list = Mutex::new(Vec::new());
                expand(g, frontier, d, &depth, &sigma, pool, |v| {
                    list.lock().push(v)
                });
                let mut next = list.into_inner();
                next.sort_unstable();
                next
            }
        };
        levels.push(next);
    }
    // Backward pass over the transposed graph: level-d vertices push their
    // dependency share to in-neighbors one level shallower.
    let delta: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
    for d in (1..levels.len()).rev() {
        let level = &levels[d];
        let stride = pool.num_threads();
        pool.run(|tid| {
            let mut i = tid;
            while i < level.len() {
                let w = level[i];
                let share = (1.0 + delta[w as usize].load()) / sigma[w as usize].load();
                for &u in g.in_neighbors(w) {
                    if depth[u as usize].load(Ordering::Relaxed) == (d - 1) as u32 {
                        delta[u as usize].fetch_add(sigma[u as usize].load() * share);
                    }
                }
                i += stride;
            }
        });
    }
    for v in 0..n {
        if v as NodeId != source {
            scores[v] += delta[v].load();
        }
    }
}

fn expand<F: Fn(NodeId) + Sync>(
    g: &Graph,
    frontier: &[NodeId],
    d: u32,
    depth: &[AtomicU32],
    sigma: &[AtomicF64],
    pool: &ThreadPool,
    record: F,
) {
    let stride = pool.num_threads();
    pool.run(|tid| {
        let mut i = tid;
        let mut examined = 0u64;
        while i < frontier.len() {
            let u = frontier[i];
            let su = sigma[u as usize].load();
            examined += g.out_degree(u) as u64;
            for &v in g.out_neighbors(u) {
                let dv = depth[v as usize].load(Ordering::Relaxed);
                if dv == UNVISITED
                    && depth[v as usize]
                        .compare_exchange(UNVISITED, d + 1, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                {
                    record(v);
                    sigma[v as usize].fetch_add(su);
                    continue;
                }
                if depth[v as usize].load(Ordering::Relaxed) == d + 1 {
                    sigma[v as usize].fetch_add(su);
                }
            }
            i += stride;
        }
        gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, examined);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::gen;
    use gapbs_verify::oracles::brandes;

    #[test]
    fn both_layouts_match_oracle() {
        for seed in [3, 4] {
            let g = gen::kron(8, 8, seed);
            let sources = [0, 2, 9, 17];
            let want = brandes(&g, &sources);
            let p = ThreadPool::new(4);
            for layout in [FrontierLayout::BitVector, FrontierLayout::SparseQueue] {
                let got = bc(&g, &sources, layout, &p);
                for v in 0..want.len() {
                    assert!(
                        (got[v] - want[v]).abs() < 1e-9,
                        "{layout:?} vertex {v}: {} vs {}",
                        got[v],
                        want[v]
                    );
                }
            }
        }
    }

    #[test]
    fn directed_graph_backward_pass_uses_in_edges() {
        use gapbs_graph::{edgelist::edges, Builder};
        let g = Builder::new()
            .build(edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]))
            .unwrap();
        let want = brandes(&g, &[0]);
        let got = bc(&g, &[0], FrontierLayout::BitVector, &ThreadPool::new(2));
        for v in 0..want.len() {
            assert!((got[v] - want[v]).abs() < 1e-9, "vertex {v}");
        }
    }
}
