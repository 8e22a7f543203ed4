//! GKC SSSP: delta-stepping with per-thread relaxation buffers.
//!
//! No bucket fusion (that is GraphIt's and GAP's edge), which is why the
//! paper shows GKC SSSP strong on shallow graphs (113–119% of GAP) but
//! weak on Road (18%) where synchronization dominates.

use gapbs_graph::types::{Distance, NodeId, INF_DIST};
use gapbs_graph::{WGraph, Weight};
use gapbs_parallel::atomics::{as_atomic_i64, fetch_min_i64};
use gapbs_parallel::buckets::file_relaxations;
use gapbs_parallel::sync::Mutex;
use gapbs_parallel::{LocalBuffer, ThreadPool};
use std::sync::atomic::Ordering;

/// Runs delta-stepping from `source`.
pub fn sssp(g: &WGraph, source: NodeId, delta: Weight, pool: &ThreadPool) -> Vec<Distance> {
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
                // Cache-sized local buffer of produced (bucket, vertex)
                // pairs, flushed in bulk to minimize shared-lock traffic.
                let mut buf: LocalBuffer<(usize, NodeId)> = LocalBuffer::new();
                let mut sink = |items: &mut Vec<(usize, NodeId)>| {
                    collected.lock().append(items);
                };
                let mut i = tid;
                let mut examined = 0u64;
                while i < frontier.len() {
                    let u = frontier[i];
                    let du = cells[u as usize].load(Ordering::Relaxed);
                    if du / delta == level {
                        for (v, w) in g.out_neighbors_weighted(u) {
                            examined += 1;
                            let nd = du + Distance::from(w);
                            if fetch_min_i64(&cells[v as usize], nd) {
                                buf.push(((nd / delta) as usize, v), &mut sink);
                            }
                        }
                    }
                    i += stride;
                }
                buf.flush(&mut sink);
                gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, examined);
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

    #[test]
    fn matches_dijkstra_on_kron_and_road() {
        let p = ThreadPool::new(4);
        let e1 = gen::kron_edges(8, 10, 2);
        let g1 = gen::weighted_companion(256, &e1, true, 2);
        assert_eq!(sssp(&g1, 0, 32, &p), dijkstra(&g1, 0));
        let e2 = gen::road_edges(&gen::RoadConfig::gap_like(16), 2);
        let g2 = gen::weighted_companion(256, &e2, false, 2);
        assert_eq!(sssp(&g2, 0, 2, &p), dijkstra(&g2, 0));
    }
}
