//! Delta-stepping single-source shortest paths (Meyer & Sanders) with the
//! bucket-fusion optimization GraphIt contributed back to GAP (§V-B).
//!
//! Tentative distances are bucketed by `dist / delta`. Buckets are drained
//! in order; each drain is a parallel relaxation round. With fusion
//! enabled, small drains are executed inline by the coordinating thread —
//! eliding the synchronization of a full parallel round, which is exactly
//! the overhead that dominates small, high-diameter graphs like Road.

use gapbs_graph::types::{Distance, NodeId, INF_DIST};
use gapbs_graph::{WGraph, Weight};
use gapbs_parallel::atomics::{as_atomic_i64, fetch_min_i64};
use gapbs_parallel::buckets::file_relaxations;
use gapbs_parallel::sync::Mutex;
use gapbs_parallel::ThreadPool;
use std::sync::atomic::Ordering;

/// Tuning knobs for delta-stepping.
#[derive(Debug, Clone, Copy)]
pub struct SsspConfig {
    /// Bucket width. GAP allows tuning delta per graph; the harness uses
    /// [`default_delta`] unless overridden.
    pub delta: Weight,
    /// Enable bucket fusion (process small buckets without a parallel
    /// round). The GAP reference has this on by default.
    pub bucket_fusion: bool,
    /// Frontier size below which a fused (sequential) drain is used.
    pub fusion_threshold: usize,
}

impl SsspConfig {
    /// GAP-style defaults for the given delta.
    pub fn with_delta(delta: Weight) -> Self {
        SsspConfig {
            delta,
            bucket_fusion: true,
            fusion_threshold: 512,
        }
    }
}

/// A reasonable per-graph delta: GAP's experiments use 2 for road-like
/// graphs (small weights dominate) and a large delta for low-diameter
/// graphs. The harness passes topology-appropriate values.
pub fn default_delta(avg_degree: f64) -> Weight {
    if avg_degree < 4.0 {
        2
    } else {
        32
    }
}

/// Runs delta-stepping from `source`, returning tentative distances
/// ([`INF_DIST`] for unreachable vertices).
pub fn sssp(g: &WGraph, source: NodeId, delta: Weight, pool: &ThreadPool) -> Vec<Distance> {
    sssp_with_config(g, source, pool, &SsspConfig::with_delta(delta))
}

/// [`sssp`] with explicit knobs.
pub fn sssp_with_config(
    g: &WGraph,
    source: NodeId,
    pool: &ThreadPool,
    config: &SsspConfig,
) -> Vec<Distance> {
    let n = g.num_vertices();
    let mut dist = vec![INF_DIST; n];
    if n == 0 {
        return dist;
    }
    let delta = Distance::from(config.delta.max(1));
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
            let fused = config.bucket_fusion && frontier.len() <= config.fusion_threshold;
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

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    /// Sequential Dijkstra oracle.
    fn dijkstra(g: &WGraph, source: NodeId) -> Vec<Distance> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut dist = vec![INF_DIST; g.num_vertices()];
        let mut heap = BinaryHeap::new();
        dist[source as usize] = 0;
        heap.push(Reverse((0i64, source)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for (v, w) in g.out_neighbors_weighted(u) {
                let nd = d + Distance::from(w);
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
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

    #[test]
    fn fusion_and_no_fusion_agree() {
        let edges = gen::road_edges(&gen::RoadConfig::gap_like(20), 3);
        let g = gen::weighted_companion(400, &edges, false, 3);
        let p = pool();
        let fused = sssp_with_config(&g, 0, &p, &SsspConfig::with_delta(2));
        let unfused = sssp_with_config(
            &g,
            0,
            &p,
            &SsspConfig {
                delta: 2,
                bucket_fusion: false,
                fusion_threshold: 0,
            },
        );
        assert_eq!(fused, unfused);
    }

    #[test]
    fn delta_choice_is_topology_aware() {
        assert_eq!(default_delta(2.4), 2);
        assert_eq!(default_delta(24.0), 32);
    }
}
