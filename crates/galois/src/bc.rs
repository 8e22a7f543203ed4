//! Galois betweenness centrality: Brandes in the operator formulation.
//!
//! Depths come from an asynchronous label-correcting pass on high-diameter
//! graphs (or a synchronous one otherwise); path counts and dependencies
//! are then accumulated level by level *without* GAP's successor bitmap —
//! the backward pass re-checks `depth[v] == depth[u] + 1` per edge, which
//! is exactly why the paper finds GAP faster here (§V-E).

use crate::heuristic::ExecutionStyle;
use gapbs_graph::types::{NodeId, Score};
use gapbs_graph::Graph;
use gapbs_parallel::atomics::AtomicF64;
use gapbs_parallel::{ChunkedWorklist, ThreadPool};
use std::sync::atomic::{AtomicU32, Ordering};

const UNVISITED: u32 = u32::MAX;

/// Runs Brandes BC from `sources`, normalized by the maximum score.
pub fn bc(g: &Graph, sources: &[NodeId], style: ExecutionStyle, pool: &ThreadPool) -> Vec<Score> {
    let n = g.num_vertices();
    let mut scores = vec![0.0; n];
    if n == 0 {
        return scores;
    }
    for &s in sources {
        single_source(g, s, style, pool, &mut scores);
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
    style: ExecutionStyle,
    pool: &ThreadPool,
    scores: &mut [Score],
) {
    let n = g.num_vertices();
    // Depth labels.
    let depth: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNVISITED)).collect();
    depth[source as usize].store(0, Ordering::Relaxed);
    match style {
        ExecutionStyle::Asynchronous => {
            let worklist = ChunkedWorklist::new(pool.clone());
            worklist.for_each(vec![source], |u, push| {
                let du = depth[u as usize].load(Ordering::Relaxed);
                for &v in g.out_neighbors(u) {
                    let nd = du + 1;
                    let mut cur = depth[v as usize].load(Ordering::Relaxed);
                    while nd < cur {
                        match depth[v as usize].compare_exchange_weak(
                            cur,
                            nd,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => {
                                push(v);
                                break;
                            }
                            Err(actual) => cur = actual,
                        }
                    }
                }
                g.out_degree(u) as u64
            });
        }
        ExecutionStyle::BulkSynchronous => {
            let mut frontier = vec![source];
            let mut d = 0u32;
            while !frontier.is_empty() {
                gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
                gapbs_telemetry::trace_iter!(BcLevel {
                    depth: d,
                    frontier: frontier.len() as u64
                });
                let next = gapbs_parallel::sync::Mutex::new(Vec::new());
                let stride = pool.num_threads();
                pool.run(|tid| {
                    let mut local = Vec::new();
                    let mut examined = 0u64;
                    let mut i = tid;
                    while i < frontier.len() {
                        examined += g.out_degree(frontier[i]) as u64;
                        for &v in g.out_neighbors(frontier[i]) {
                            if depth[v as usize]
                                .compare_exchange(
                                    UNVISITED,
                                    d + 1,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                )
                                .is_ok()
                            {
                                local.push(v);
                            }
                        }
                        i += stride;
                    }
                    gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, examined);
                    next.lock().append(&mut local);
                });
                frontier = next.into_inner();
                d += 1;
            }
        }
    }
    // Bucket vertices by depth, then sweep levels forward for sigma and
    // backward for delta.
    let max_depth = (0..n)
        .filter_map(|v| {
            let d = depth[v].load(Ordering::Relaxed);
            (d != UNVISITED).then_some(d)
        })
        .max()
        .unwrap_or(0);
    let mut levels: Vec<Vec<NodeId>> = vec![Vec::new(); max_depth as usize + 1];
    for (v, dv) in depth.iter().enumerate() {
        let d = dv.load(Ordering::Relaxed);
        if d != UNVISITED {
            levels[d as usize].push(v as NodeId);
        }
    }
    let sigma: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
    sigma[source as usize].store(1.0);
    for level in &levels {
        let stride = pool.num_threads();
        pool.run(|tid| {
            let mut i = tid;
            while i < level.len() {
                let u = level[i];
                let du = depth[u as usize].load(Ordering::Relaxed);
                let su = sigma[u as usize].load();
                for &v in g.out_neighbors(u) {
                    if depth[v as usize].load(Ordering::Relaxed) == du + 1 {
                        sigma[v as usize].fetch_add(su);
                    }
                }
                i += stride;
            }
        });
    }
    let delta: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
    for level in levels.iter().rev().skip(1) {
        let stride = pool.num_threads();
        pool.run(|tid| {
            let mut i = tid;
            while i < level.len() {
                let u = level[i];
                let du = depth[u as usize].load(Ordering::Relaxed);
                let su = sigma[u as usize].load();
                let mut acc = 0.0;
                // No successor bitmap: re-check depths on every edge.
                for &v in g.out_neighbors(u) {
                    if depth[v as usize].load(Ordering::Relaxed) == du + 1 {
                        acc += (su / sigma[v as usize].load()) * (1.0 + delta[v as usize].load());
                    }
                }
                delta[u as usize].store(acc);
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

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::gen;
    use gapbs_verify::oracles::brandes;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn both_styles_match_oracle() {
        for seed in [1, 2] {
            let g = gen::kron(8, 8, seed);
            let sources = [0, 3, 11, 19];
            let want = brandes(&g, &sources);
            let p = pool();
            for style in [
                ExecutionStyle::Asynchronous,
                ExecutionStyle::BulkSynchronous,
            ] {
                let got = bc(&g, &sources, style, &p);
                for v in 0..want.len() {
                    assert!(
                        (got[v] - want[v]).abs() < 1e-9,
                        "{style:?} seed {seed} vertex {v}: {} vs {}",
                        got[v],
                        want[v]
                    );
                }
            }
        }
    }

    #[test]
    fn road_depth_pass_is_consistent() {
        let g = gen::road(&gen::RoadConfig::gap_like(16), 2);
        let want = brandes(&g, &[0]);
        let got = bc(&g, &[0], ExecutionStyle::Asynchronous, &pool());
        for v in 0..want.len() {
            assert!((got[v] - want[v]).abs() < 1e-9, "vertex {v}");
        }
    }
}
