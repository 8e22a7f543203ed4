//! Galois SSSP: delta-stepping with a bulk-synchronous variant for
//! (assumed) low-diameter graphs and an asynchronous OBIM-ordered
//! variant for high-diameter graphs.
//!
//! Neither variant has GAP's bucket-fusion optimization — the paper
//! explains that this is why GAP outruns Galois on SSSP even though both
//! use delta-stepping (§V-B).

use crate::heuristic::ExecutionStyle;
use gapbs_graph::types::{Distance, NodeId, INF_DIST};
use gapbs_graph::{WGraph, Weight};
use gapbs_parallel::atomics::{as_atomic_i64, fetch_min_i64};
use gapbs_parallel::buckets::file_relaxations;
use gapbs_parallel::sync::Mutex;
use gapbs_parallel::{OrderedWorklist, ThreadPool};
use std::sync::atomic::Ordering;

/// Runs SSSP from `source` using the given execution style.
pub fn sssp(
    g: &WGraph,
    source: NodeId,
    delta: Weight,
    style: ExecutionStyle,
    pool: &ThreadPool,
) -> Vec<Distance> {
    match style {
        ExecutionStyle::BulkSynchronous => bulk_sync(g, source, delta, pool),
        ExecutionStyle::Asynchronous => asynchronous(g, source, pool),
    }
}

/// Asynchronous relaxation over an OBIM-style ordered worklist: items are
/// bucketed by `dist / delta` and threads drain the lowest bucket without
/// global rounds — Galois' actual SSSP scheduler. Compared to a plain
/// FIFO worklist, the approximate priority order removes most redundant
/// relaxations while staying barrier-free.
fn asynchronous(g: &WGraph, source: NodeId, pool: &ThreadPool) -> Vec<Distance> {
    // Priority granularity mirrors delta-stepping's bucket width.
    const PRIORITY_DELTA: Distance = 32;
    let n = g.num_vertices();
    let mut dist = vec![INF_DIST; n];
    if n == 0 {
        return dist;
    }
    dist[source as usize] = 0;
    let cells = as_atomic_i64(&mut dist);
    let worklist = OrderedWorklist::new(pool.clone());
    worklist.for_each(vec![(0usize, source)], |u, push| {
        let du = cells[u as usize].load(Ordering::Relaxed);
        for (v, w) in g.out_neighbors_weighted(u) {
            let nd = du + Distance::from(w);
            if fetch_min_i64(&cells[v as usize], nd) {
                push((nd / PRIORITY_DELTA) as usize, v);
            }
        }
        g.out_degree(u) as u64
    });
    dist
}

/// Bulk-synchronous delta-stepping *without* bucket fusion: every bucket
/// drain is a synchronized parallel round.
fn bulk_sync(g: &WGraph, source: NodeId, delta: Weight, pool: &ThreadPool) -> Vec<Distance> {
    let n = g.num_vertices();
    let mut dist = vec![INF_DIST; n];
    if n == 0 {
        return dist;
    }
    let delta = Distance::from(delta.max(1));
    dist[source as usize] = 0;
    let cells = as_atomic_i64(&mut dist);
    let mut buckets: Vec<Vec<NodeId>> = vec![vec![source]];
    let mut current = 0usize;
    loop {
        while current < buckets.len() && buckets[current].is_empty() {
            current += 1;
        }
        if current >= buckets.len() {
            break;
        }
        loop {
            let frontier = std::mem::take(&mut buckets[current]);
            if frontier.is_empty() {
                break;
            }
            gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
            gapbs_telemetry::trace_iter!(SsspBucket {
                bucket: current as u64,
                size: frontier.len() as u64
            });
            let level = current as Distance;
            let collected = Mutex::new(Vec::new());
            let stride = pool.num_threads();
            pool.run(|tid| {
                let mut out = Vec::new();
                let mut examined = 0u64;
                let mut i = tid;
                while i < frontier.len() {
                    let u = frontier[i];
                    let du = cells[u as usize].load(Ordering::Relaxed);
                    if du / delta == level {
                        for (v, w) in g.out_neighbors_weighted(u) {
                            examined += 1;
                            let nd = du + Distance::from(w);
                            if fetch_min_i64(&cells[v as usize], nd) {
                                out.push(((nd / delta) as usize, v));
                            }
                        }
                    }
                    i += stride;
                }
                gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, examined);
                collected.lock().append(&mut out);
            });
            file_relaxations(&mut buckets, current, collected.into_inner());
        }
        current += 1;
        if current >= buckets.len() {
            break;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::gen;
    use gapbs_verify::oracles::dijkstra;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn async_matches_dijkstra() {
        let edges = gen::kron_edges(8, 10, 3);
        let g = gen::weighted_companion(256, &edges, true, 3);
        let got = sssp(&g, 0, 8, ExecutionStyle::Asynchronous, &pool());
        assert_eq!(got, dijkstra(&g, 0));
    }

    #[test]
    fn sync_matches_dijkstra_across_deltas() {
        let edges = gen::road_edges(&gen::RoadConfig::gap_like(16), 5);
        let g = gen::weighted_companion(256, &edges, false, 5);
        for delta in [2, 32, 1000] {
            let got = sssp(&g, 0, delta, ExecutionStyle::BulkSynchronous, &pool());
            assert_eq!(got, dijkstra(&g, 0), "delta {delta}");
        }
    }

    #[test]
    fn styles_agree() {
        let edges = gen::urand_edges(8, 8, 9);
        let g = gen::weighted_companion(256, &edges, true, 9);
        let p = pool();
        let a = sssp(&g, 3, 16, ExecutionStyle::Asynchronous, &p);
        let b = sssp(&g, 3, 16, ExecutionStyle::BulkSynchronous, &p);
        assert_eq!(a, b);
    }
}
