//! LAGraph SSSP: delta-stepping over the `min-plus` tropical semiring.
//!
//! Each relaxation wave is a whole-vector `vxm`; bucket membership is
//! recomputed with `select` over the full distance vector. The paper notes
//! SuiteSparse SSSP "cannot yet exploit the bitmap data structure", so
//! every bucket pays bulk-operation overhead — the source of its extreme
//! slowness on Road (Table V).

use super::LaGraphContext;
use crate::ops::{select, vxm, Mask};
use crate::semiring::MinPlus;
use crate::vector::GrbVector;
use crate::GrbIndex;
use gapbs_graph::types::{Distance, NodeId, INF_DIST};
use gapbs_graph::Weight;
use gapbs_parallel::{Schedule, ThreadPool};

/// Below this vector length the next-bucket scan runs serially.
const SCAN_CUTOFF: usize = 1 << 13;

/// Runs delta-stepping from `source`, returning distances.
///
/// # Panics
///
/// Panics if the context has no weighted matrix.
pub fn sssp(
    ctx: &LaGraphContext,
    source: NodeId,
    delta: Weight,
    pool: &ThreadPool,
) -> Vec<Distance> {
    let aw = ctx
        .aw
        .as_ref()
        .expect("LaGraphContext::from_wgraph required for SSSP");
    let n = ctx.num_vertices();
    let mut dist = vec![INF_DIST; n as usize];
    if n == 0 {
        return dist;
    }
    let delta_d = Distance::from(delta.max(1));
    let semiring = MinPlus::default();

    // t: full distance vector (GraphBLAS full storage).
    let mut t: GrbVector<Distance> = GrbVector::full(n, INF_DIST);
    t.set(GrbIndex::from(source), 0);

    let mut bucket: i64 = 0;
    loop {
        // Active vertices of the current bucket, via select over t — the
        // O(n) whole-vector scan LAGraph pays per bucket.
        let lo = bucket * delta_d;
        let hi = lo + delta_d;
        let mut active = select(&t, |_, &d| d >= lo && d < hi, pool);
        // Drain the bucket to a fixed point.
        while active.nvals() > 0 {
            gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
            gapbs_telemetry::trace_iter!(SsspBucket {
                bucket: bucket as u64,
                size: active.nvals()
            });
            let reach: GrbVector<Distance> = vxm(
                &semiring,
                &active,
                aw,
                None::<&Mask<'_, ()>>,
                &ctx.workspace,
                pool,
            );
            let reached = reach.sparse_entries().expect("engine products are sparse");
            let mut next_active = Vec::new();
            let mut relaxed = 0u64;
            {
                let tv = t.as_full_slice_mut();
                for &(j, nd) in reached {
                    if nd < tv[j as usize] {
                        tv[j as usize] = nd;
                        relaxed += 1;
                        if nd < hi {
                            next_active.push((j, nd));
                        }
                    }
                }
            }
            gapbs_telemetry::record(gapbs_telemetry::Counter::BucketRelaxations, relaxed);
            active = GrbVector::from_sorted_entries(n, next_active);
        }
        // Find the next non-empty bucket by scanning the minimum
        // unfinished distance (full-vector reduce; min is
        // order-independent, so the pooled scan is deterministic).
        let tv = t.as_full_slice();
        let scan_min = |d: Distance| (d >= hi && d < INF_DIST).then_some(d);
        let next_min = if tv.len() < SCAN_CUTOFF {
            tv.iter().filter_map(|&d| scan_min(d)).min()
        } else {
            pool.reduce_index(
                tv.len(),
                Schedule::Static,
                None,
                |i| scan_min(tv[i]),
                |a, b| match (a, b) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    (x, None) => x,
                    (None, y) => y,
                },
            )
        };
        match next_min {
            Some(d) => bucket = d / delta_d,
            None => break,
        }
    }

    dist.copy_from_slice(t.as_full_slice());
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::edgelist::wedges;
    use gapbs_graph::{gen, Builder};
    use gapbs_verify::oracles::dijkstra;

    fn pool() -> ThreadPool {
        ThreadPool::new(2)
    }

    #[test]
    fn tiny_graph_distances() {
        let g = Builder::new()
            .build_weighted(wedges([(0, 1, 1), (1, 2, 1), (0, 2, 5)]))
            .unwrap();
        let gd = Builder::new()
            .build(gapbs_graph::edgelist::edges([(0, 1), (1, 2), (0, 2)]))
            .unwrap();
        let ctx = LaGraphContext::from_wgraph(&gd, &g);
        assert_eq!(sssp(&ctx, 0, 2, &pool()), vec![0, 1, 2]);
    }

    #[test]
    fn matches_dijkstra_for_multiple_deltas() {
        let edges = gen::kron_edges(7, 8, 11);
        let wg = gen::weighted_companion(128, &edges, true, 11);
        let g = {
            let mut b = Vec::new();
            for u in wg.vertices() {
                for v in wg.out_neighbors(u) {
                    b.push(gapbs_graph::Edge::new(u, *v));
                }
            }
            Builder::new().num_vertices(128).build(b).unwrap()
        };
        let ctx = LaGraphContext::from_wgraph(&g, &wg);
        let want = dijkstra(&wg, 0);
        let pool = pool();
        for delta in [1, 16, 300] {
            assert_eq!(sssp(&ctx, 0, delta, &pool), want, "delta={delta}");
        }
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        let g = Builder::new()
            .num_vertices(3)
            .build(gapbs_graph::edgelist::edges([(0, 1)]))
            .unwrap();
        let wg = Builder::new()
            .num_vertices(3)
            .build_weighted(wedges([(0, 1, 2)]))
            .unwrap();
        let ctx = LaGraphContext::from_wgraph(&g, &wg);
        let d = sssp(&ctx, 0, 4, &pool());
        assert_eq!(d, vec![0, 2, INF_DIST]);
    }
}
