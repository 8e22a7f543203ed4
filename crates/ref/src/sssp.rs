//! Delta-stepping single-source shortest paths (Meyer & Sanders) with the
//! bucket-fusion optimization GraphIt contributed back to GAP (§V-B).
//!
//! Tentative distances are bucketed by `dist / delta`. Buckets are drained
//! in order; each drain is a parallel relaxation round, except that small
//! drains are executed inline by the coordinating thread (bucket fusion) —
//! eliding the synchronization of a full parallel round, which is exactly
//! the overhead that dominates small, high-diameter graphs like Road.

use gapbs_graph::types::{Distance, NodeId, INF_DIST};
use gapbs_graph::{WGraph, Weight};
use gapbs_parallel::atomics::{as_atomic_i64, fetch_min_i64};
use gapbs_parallel::buckets::file_relaxations;
use gapbs_parallel::sync::Mutex;
use gapbs_parallel::ThreadPool;
use std::sync::atomic::Ordering;

/// Drains of at most this many vertices run fused (inline on the
/// coordinating thread, no parallel round).
const FUSION_THRESHOLD: usize = 512;

/// Runs delta-stepping from `source`, returning tentative distances
/// ([`INF_DIST`] for unreachable vertices).
pub fn sssp(g: &WGraph, source: NodeId, delta: Weight, pool: &ThreadPool) -> Vec<Distance> {
    let n = g.num_vertices();
    let mut dist = vec![INF_DIST; n];
    if n == 0 {
        return dist;
    }
    let delta = Distance::from(delta.max(1));
    dist[source as usize] = 0;

    // Buckets, managed by the coordinator between parallel rounds.
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new()];
    buckets[0].push(source);
    let mut current = 0usize;

    let dist_atomic = as_atomic_i64(&mut dist);
    loop {
        // Find the next non-empty bucket.
        while current < buckets.len() && buckets[current].is_empty() {
            current += 1;
        }
        if current >= buckets.len() {
            break;
        }
        // Drain the current bucket to a fixed point (re-relaxations within
        // the same bucket are processed in the same wave).
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
            let fused = frontier.len() <= FUSION_THRESHOLD;
            let new_items: Vec<(usize, NodeId)> = if fused || pool.num_threads() == 1 {
                // Fused drain: no parallel round, no synchronization.
                let mut out = Vec::new();
                let examined: u64 = frontier
                    .iter()
                    .map(|&u| relax_vertex(g, u, level, delta, dist_atomic, &mut out))
                    .sum();
                gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, examined);
                out
            } else {
                let collected = Mutex::new(Vec::new());
                let nthreads = pool.num_threads();
                pool.run(|tid| {
                    let mut out = Vec::new();
                    let mut examined = 0u64;
                    let mut i = tid;
                    while i < frontier.len() {
                        examined +=
                            relax_vertex(g, frontier[i], level, delta, dist_atomic, &mut out);
                        i += nthreads;
                    }
                    gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, examined);
                    collected.lock().append(&mut out);
                });
                collected.into_inner()
            };
            // Stale entries for completed buckets go to the current one.
            file_relaxations(&mut buckets, current, new_items);
        }
        current += 1;
        if current >= buckets.len() {
            break;
        }
    }
    dist
}

/// Relaxes all out-edges of `u` if `u`'s distance still belongs to the
/// bucket being drained. Improved vertices are reported with their new
/// bucket level; returns the number of edges examined.
fn relax_vertex(
    g: &WGraph,
    u: NodeId,
    level: Distance,
    delta: Distance,
    dist: &[std::sync::atomic::AtomicI64],
    out: &mut Vec<(usize, NodeId)>,
) -> u64 {
    let du = dist[u as usize].load(Ordering::Relaxed);
    if du / delta != level {
        return 0; // stale: u was improved into a later wave of this bucket
    }
    for (v, w) in g.out_neighbors_weighted(u) {
        let nd = du + Distance::from(w);
        if relax_to(&dist[v as usize], nd) {
            out.push(((nd / delta) as usize, v));
        }
    }
    g.out_degree(u) as u64
}

fn relax_to(slot: &std::sync::atomic::AtomicI64, value: Distance) -> bool {
    fetch_min_i64(slot, value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::edgelist::wedges;
    use gapbs_graph::{gen, Builder};
    use gapbs_verify::oracles::dijkstra;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn tiny_graph_distances() {
        // 0 -(1)-> 1 -(1)-> 2; 0 -(5)-> 2
        let g = Builder::new()
            .build_weighted(wedges([(0, 1, 1), (1, 2, 1), (0, 2, 5)]))
            .unwrap();
        let dist = sssp(&g, 0, 2, &pool());
        assert_eq!(dist, vec![0, 1, 2]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = Builder::new()
            .num_vertices(3)
            .build_weighted(wedges([(0, 1, 1)]))
            .unwrap();
        let dist = sssp(&g, 0, 4, &pool());
        assert_eq!(dist[2], INF_DIST);
    }

    #[test]
    fn matches_dijkstra_on_random_graphs() {
        for seed in [1, 2, 3] {
            let g = {
                let edges = gen::kron_edges(8, 10, seed);
                gen::weighted_companion(1 << 8, &edges, true, seed)
            };
            for delta in [1, 8, 64] {
                let got = sssp(&g, 0, delta, &pool());
                let want = dijkstra(&g, 0);
                assert_eq!(got, want, "seed={seed} delta={delta}");
            }
        }
    }
}
