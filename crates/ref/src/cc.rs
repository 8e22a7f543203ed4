//! Connected components via Afforest (Sutton, Ben-Nun, Barak).
//!
//! Afforest exploits the skew of real graphs: two cheap neighbor-sampling
//! rounds union most of the graph into one giant component; a vertex sample
//! then identifies that component, and only vertices *outside* it process
//! their remaining edges. On skewed graphs the final pass touches almost
//! nothing, giving the near-O(V) behaviour the paper contrasts with label
//! propagation (§V-C).

use gapbs_graph::types::NodeId;
use gapbs_graph::Graph;
use gapbs_parallel::atomics::as_atomic_u32;
use gapbs_parallel::{Schedule, ThreadPool};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};

/// Number of neighbor-sampling rounds before the skip-heavy final pass.
const NEIGHBOR_ROUNDS: usize = 2;
/// Number of vertices sampled to guess the giant component.
const SAMPLE_SIZE: usize = 1024;

/// Runs Afforest, returning per-vertex component labels. Two vertices are
/// weakly connected iff their labels are equal; labels are each component's
/// minimum-reachable representative after compression (an arbitrary but
/// consistent vertex id within the component).
pub fn cc(g: &Graph, pool: &ThreadPool) -> Vec<NodeId> {
    let n = g.num_vertices();
    let mut comp: Vec<NodeId> = (0..n as NodeId).collect();
    if n == 0 {
        return comp;
    }
    {
        let comp_atomic = as_atomic_u32(&mut comp);
        // Phase 1: sample the first NEIGHBOR_ROUNDS neighbors of every
        // vertex.
        for round in 0..NEIGHBOR_ROUNDS {
            gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
            gapbs_telemetry::trace_iter!(CcRound {
                round: round as u32,
                changed: 0
            });
            let sampled = pool.reduce_index(
                n,
                Schedule::Dynamic(512),
                0u64,
                |u| match g.out_neighbors(u as NodeId).get(round) {
                    Some(&v) => {
                        link(u as NodeId, v, comp_atomic);
                        1
                    }
                    None => 0,
                },
                |a, b| a + b,
            );
            gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, sampled);
            compress(comp_atomic, pool);
        }

        // Phase 2: identify the likely giant component from a sample.
        let giant = sample_largest(comp_atomic, n);

        // Phase 3: only vertices outside the giant component finish their
        // adjacency (skipping the first NEIGHBOR_ROUNDS already done).
        let scanned = pool.reduce_index(
            n,
            Schedule::Dynamic(512),
            0u64,
            |u| {
                if find(comp_atomic, u as NodeId) == giant {
                    return 0;
                }
                let mut scanned = 0u64;
                for &v in g.out_neighbors(u as NodeId).iter().skip(NEIGHBOR_ROUNDS) {
                    scanned += 1;
                    link(u as NodeId, v, comp_atomic);
                }
                if g.is_directed() {
                    // Weak connectivity on directed graphs needs in-edges too.
                    for &v in g.in_neighbors(u as NodeId) {
                        scanned += 1;
                        link(u as NodeId, v, comp_atomic);
                    }
                }
                scanned
            },
            |a, b| a + b,
        );
        gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, scanned);
        compress(comp_atomic, pool);
    }
    comp
}

/// Union-find hook: joins the trees of `u` and `v` by pointing the larger
/// root at the smaller (lock-free, as in the Afforest paper).
fn link(u: NodeId, v: NodeId, comp: &[AtomicU32]) {
    let mut p1 = comp[u as usize].load(Ordering::Relaxed);
    let mut p2 = comp[v as usize].load(Ordering::Relaxed);
    while p1 != p2 {
        let (high, low) = if p1 > p2 { (p1, p2) } else { (p2, p1) };
        let p_high = comp[high as usize].load(Ordering::Relaxed);
        // Already hooked by a racing thread, or we win the hook.
        if p_high == low
            || (p_high == high
                && comp[high as usize]
                    .compare_exchange(high, low, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok())
        {
            break;
        }
        // Walk both trees upward (GAP's Link does exactly this).
        let ph = comp[high as usize].load(Ordering::Relaxed);
        p1 = comp[ph as usize].load(Ordering::Relaxed);
        p2 = comp[low as usize].load(Ordering::Relaxed);
    }
}

/// Pointer-jumps every vertex to its root.
fn compress(comp: &[AtomicU32], pool: &ThreadPool) {
    pool.for_each_index(comp.len(), Schedule::Static, |u| {
        let mut c = comp[u].load(Ordering::Relaxed);
        while c != comp[c as usize].load(Ordering::Relaxed) {
            c = comp[c as usize].load(Ordering::Relaxed);
        }
        comp[u].store(c, Ordering::Relaxed);
    });
}

fn find(comp: &[AtomicU32], u: NodeId) -> NodeId {
    let mut c = comp[u as usize].load(Ordering::Relaxed);
    while c != comp[c as usize].load(Ordering::Relaxed) {
        c = comp[c as usize].load(Ordering::Relaxed);
    }
    c
}

/// Samples vertices and returns the most frequent component label.
fn sample_largest(comp: &[AtomicU32], n: usize) -> NodeId {
    let mut counts: HashMap<NodeId, usize> = HashMap::new();
    // Deterministic stride sample (GAP uses a random sample; determinism
    // aids reproducibility and has the same effect).
    let stride = (n / SAMPLE_SIZE).max(1);
    for i in (0..n).step_by(stride) {
        *counts.entry(find(comp, i as NodeId)).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(label, count)| (count, std::cmp::Reverse(label)))
        .map(|(label, _)| label)
        .unwrap_or(0)
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
    fn two_islands_get_two_labels() {
        let g = Builder::new()
            .symmetrize(true)
            .num_vertices(6)
            .build(edges([(0, 1), (1, 2), (3, 4)]))
            .unwrap();
        let labels = cc(&g, &pool());
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[5], labels[0]);
        assert_ne!(labels[5], labels[3]);
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 1..5 {
            let g = gen::urand(9, 6, seed);
            let got = cc(&g, &pool());
            verify_cc(&g, &got).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn directed_graph_uses_weak_connectivity() {
        // 0 -> 1, 2 -> 1: all three weakly connected.
        let g = Builder::new().build(edges([(0, 1), (2, 1)])).unwrap();
        let labels = cc(&g, &pool());
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
    }

    #[test]
    fn road_graph_components_match_oracle() {
        let g = gen::road(&gen::RoadConfig::gap_like(24), 4);
        verify_cc(&g, &cc(&g, &pool())).unwrap();
    }
}
