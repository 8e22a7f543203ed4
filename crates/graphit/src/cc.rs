//! GraphIt connected components: **label propagation** — the algorithmic
//! outlier of Table III.
//!
//! "GraphIt does not yet support sampling algorithms and uses a
//! label-propagation approach which runs in O(E·D)" (§V-C); GAP's Afforest
//! runs in ~O(V), which is why GraphIt CC is deep red across Table V, and
//! catastrophically so on high-diameter Road (0.17%). The Optimized Road
//! schedule adds *short-circuiting* (pointer jumping) because "vertex
//! chains tend to go longer on high-diameter graphs" — a 3× improvement
//! that still loses to Afforest.

use gapbs_graph::types::NodeId;
use gapbs_graph::Graph;
use gapbs_parallel::atomics::{as_atomic_u32, fetch_min_u32};
use gapbs_parallel::{AtomicBitmap, Schedule as LoopSched, ThreadPool};
use std::sync::atomic::Ordering;

/// Runs label propagation; `short_circuit` enables the pointer-jumping
/// pass of the Optimized Road schedule.
pub fn cc(g: &Graph, short_circuit: bool, pool: &ThreadPool) -> Vec<NodeId> {
    let n = g.num_vertices();
    let mut labels: Vec<NodeId> = (0..n as NodeId).collect();
    if n == 0 {
        return labels;
    }
    let cells = as_atomic_u32(&mut labels);
    // Frontier-driven propagation: only vertices whose label changed last
    // round push again.
    let mut active = AtomicBitmap::new(n);
    for v in 0..n {
        active.set(v);
    }
    let mut round: u32 = 0;
    loop {
        gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
        let next = AtomicBitmap::new(n);
        let scanned = pool.reduce_index(
            n,
            LoopSched::Dynamic(512),
            0u64,
            |u| {
                if !active.get(u) {
                    return 0;
                }
                let lu = cells[u].load(Ordering::Relaxed);
                for &v in g.out_neighbors(u as NodeId) {
                    if fetch_min_u32(&cells[v as usize], lu) {
                        next.set(v as usize);
                    }
                    // Propagation is symmetric: also pull the neighbor's label.
                    let lv = cells[v as usize].load(Ordering::Relaxed);
                    if fetch_min_u32(&cells[u], lv) {
                        next.set(u);
                    }
                }
                let mut scanned = g.out_degree(u as NodeId) as u64;
                if g.is_directed() {
                    for &v in g.in_neighbors(u as NodeId) {
                        let lu = cells[u].load(Ordering::Relaxed);
                        if fetch_min_u32(&cells[v as usize], lu) {
                            next.set(v as usize);
                        }
                    }
                    scanned += g.in_degree(u as NodeId) as u64;
                }
                scanned
            },
            |a, b| a + b,
        );
        gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, scanned);
        if short_circuit {
            // Pointer jumping: collapse label chains each round.
            pool.for_each_index(n, LoopSched::Static, |u| {
                let mut l = cells[u].load(Ordering::Relaxed);
                loop {
                    let ll = cells[l as usize].load(Ordering::Relaxed);
                    if ll >= l {
                        break;
                    }
                    l = ll;
                }
                cells[u].store(l, Ordering::Relaxed);
            });
        }
        let changed = next.count_ones() as u64;
        gapbs_telemetry::trace_iter!(CcRound { round, changed });
        round += 1;
        if changed == 0 {
            break;
        }
        active = next;
    }
    // Final normalization: labels must be component-consistent even after
    // short-circuit races; one more jump pass settles them.
    pool.for_each_index(n, LoopSched::Static, |u| {
        let mut l = cells[u].load(Ordering::Relaxed);
        loop {
            let ll = cells[l as usize].load(Ordering::Relaxed);
            if ll >= l {
                break;
            }
            l = ll;
        }
        cells[u].store(l, Ordering::Relaxed);
    });
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::gen;
    use gapbs_verify::verify_cc;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn matches_oracle_with_and_without_short_circuit() {
        for seed in [1, 2] {
            let g = gen::urand(8, 6, seed);
            let p = pool();
            for sc in [false, true] {
                let got = cc(&g, sc, &p);
                verify_cc(&g, &got).unwrap_or_else(|e| panic!("sc={sc} seed={seed}: {e}"));
            }
        }
    }

    #[test]
    fn high_diameter_road_converges() {
        let g = gen::road(&gen::RoadConfig::gap_like(24), 6);
        let got = cc(&g, true, &pool());
        verify_cc(&g, &got).unwrap();
    }

    #[test]
    fn directed_weak_connectivity() {
        use gapbs_graph::{edgelist::edges, Builder};
        let g = Builder::new().build(edges([(0, 1), (2, 1)])).unwrap();
        let got = cc(&g, false, &pool());
        assert_eq!(got[0], got[1]);
        assert_eq!(got[1], got[2]);
    }
}
