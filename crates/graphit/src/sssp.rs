//! GraphIt SSSP: delta-stepping with *bucket fusion* — GraphIt's own
//! contribution (§VI): "if a thread sees that the next bucket has the same
//! priority as the current bucket, it can process the next bucket without
//! synchronizing with other threads ... reducing the number of rounds /
//! synchronizations by a factor of ten while maintaining a strict priority
//! order. It sets a threshold on the next bucket size to avoid load
//! imbalance."

use gapbs_graph::types::{Distance, NodeId, INF_DIST};
use gapbs_graph::{WGraph, Weight};
use gapbs_parallel::atomics::{as_atomic_i64, fetch_min_i64};
use gapbs_parallel::buckets::file_relaxations;
use gapbs_parallel::sync::Mutex;
use gapbs_parallel::ThreadPool;
use std::sync::atomic::Ordering;

/// The bucket-size threshold below which a fused (synchronization-free)
/// drain is used.
pub(crate) const FUSION_THRESHOLD: usize = 512;

/// Runs delta-stepping from `source`; `bucket_fusion` toggles the
/// optimization (the Schedule's knob).
pub fn sssp(
    g: &WGraph,
    source: NodeId,
    delta: Weight,
    bucket_fusion: bool,
    pool: &ThreadPool,
) -> Vec<Distance> {
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
            let fused = bucket_fusion && frontier.len() <= FUSION_THRESHOLD;
            let produced: Vec<(usize, NodeId)> = if fused || pool.num_threads() == 1 {
                let mut out = Vec::new();
                let examined: u64 = frontier
                    .iter()
                    .map(|&u| relax(g, u, level, delta, cells, &mut out))
                    .sum();
                gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, examined);
                out
            } else {
                let collected = Mutex::new(Vec::new());
                let stride = pool.num_threads();
                pool.run(|tid| {
                    let mut out = Vec::new();
                    let mut examined = 0u64;
                    let mut i = tid;
                    while i < frontier.len() {
                        examined += relax(g, frontier[i], level, delta, cells, &mut out);
                        i += stride;
                    }
                    gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, examined);
                    collected.lock().append(&mut out);
                });
                collected.into_inner()
            };
            file_relaxations(&mut buckets, current, produced);
        }
        current += 1;
        if current >= buckets.len() {
            break;
        }
    }
    dist
}

/// Relaxes `u`'s out-edges if it is still in the bucket being drained;
/// returns the number of edges examined.
fn relax(
    g: &WGraph,
    u: NodeId,
    level: Distance,
    delta: Distance,
    cells: &[std::sync::atomic::AtomicI64],
    out: &mut Vec<(usize, NodeId)>,
) -> u64 {
    let du = cells[u as usize].load(Ordering::Relaxed);
    if du / delta != level {
        return 0;
    }
    for (v, w) in g.out_neighbors_weighted(u) {
        let nd = du + Distance::from(w);
        if fetch_min_i64(&cells[v as usize], nd) {
            out.push(((nd / delta) as usize, v));
        }
    }
    g.out_degree(u) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::gen;
    use gapbs_verify::oracles::dijkstra;

    #[test]
    fn fused_and_unfused_match_dijkstra() {
        let edges = gen::road_edges(&gen::RoadConfig::gap_like(18), 4);
        let g = gen::weighted_companion(18 * 18, &edges, false, 4);
        let p = ThreadPool::new(4);
        let want = dijkstra(&g, 0);
        for fusion in [true, false] {
            assert_eq!(sssp(&g, 0, 2, fusion, &p), want, "fusion={fusion}");
        }
    }

    #[test]
    fn works_on_power_law_graphs() {
        let edges = gen::kron_edges(8, 10, 12);
        let g = gen::weighted_companion(256, &edges, true, 12);
        let p = ThreadPool::new(4);
        assert_eq!(sssp(&g, 7, 32, true, &p), dijkstra(&g, 7));
    }
}
