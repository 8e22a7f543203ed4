//! Galois connected components: Afforest, with an *edge-blocked* final
//! pass as the Optimized-mode variant.
//!
//! The paper: "For the Optimized case and Web, the edge blocking variant
//! of the Afforest algorithm used in Galois performs much better due to
//! better load balancing" (§V-C). Blocking splits the skip-heavy final
//! phase into fixed-size edge blocks instead of whole vertices, so one
//! mega-hub cannot serialize a thread.

use gapbs_graph::types::NodeId;
use gapbs_graph::Graph;
use gapbs_parallel::atomics::as_atomic_u32;
use gapbs_parallel::{Schedule, ThreadPool};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};

const NEIGHBOR_ROUNDS: usize = 2;
const SAMPLE_SIZE: usize = 1024;
/// Edge-block granularity of the Optimized variant.
const EDGE_BLOCK: usize = 4096;

/// Variant selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcVariant {
    /// Vertex-granular final pass (Baseline).
    VertexAfforest,
    /// Edge-blocked final pass (Optimized; better balance on skew).
    EdgeBlockedAfforest,
}

/// Runs Afforest, returning component labels.
pub fn cc(g: &Graph, variant: CcVariant, pool: &ThreadPool) -> Vec<NodeId> {
    let n = g.num_vertices();
    let mut comp: Vec<NodeId> = (0..n as NodeId).collect();
    if n == 0 {
        return comp;
    }
    {
        let cells = as_atomic_u32(&mut comp);
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
                        link(u as NodeId, v, cells);
                        1
                    }
                    None => 0,
                },
                |a, b| a + b,
            );
            gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, sampled);
            compress(cells, pool);
        }
        let giant = sample_largest(cells, n);
        let scanned = match variant {
            CcVariant::VertexAfforest => pool.reduce_index(
                n,
                Schedule::Dynamic(512),
                0u64,
                |u| {
                    if find(cells, u as NodeId) == giant {
                        return 0;
                    }
                    finish_vertex(g, u as NodeId, cells)
                },
                |a, b| a + b,
            ),
            CcVariant::EdgeBlockedAfforest => {
                // Collect the remaining work as (vertex) spans, then walk
                // them in fixed-size edge blocks.
                let pending: Vec<NodeId> = (0..n as NodeId)
                    .filter(|&u| find(cells, u) != giant)
                    .collect();
                let mut blocks: Vec<(usize, usize)> = Vec::new(); // (start idx, len) into pending by edges
                let mut start = 0usize;
                let mut edges_in_block = 0usize;
                for (i, &u) in pending.iter().enumerate() {
                    edges_in_block += g.out_degree(u) + g.in_degree(u);
                    if edges_in_block >= EDGE_BLOCK {
                        blocks.push((start, i + 1 - start));
                        start = i + 1;
                        edges_in_block = 0;
                    }
                }
                if start < pending.len() {
                    blocks.push((start, pending.len() - start));
                }
                pool.reduce_index(
                    blocks.len(),
                    Schedule::Dynamic(1),
                    0u64,
                    |b| {
                        let (s, len) = blocks[b];
                        pending[s..s + len]
                            .iter()
                            .map(|&u| finish_vertex(g, u, cells))
                            .sum()
                    },
                    |a, b| a + b,
                )
            }
        };
        gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, scanned);
        compress(cells, pool);
    }
    comp
}

/// Links `u`'s edges past the sampled prefix; returns the number scanned.
fn finish_vertex(g: &Graph, u: NodeId, cells: &[AtomicU32]) -> u64 {
    let mut scanned = 0u64;
    for &v in g.out_neighbors(u).iter().skip(NEIGHBOR_ROUNDS) {
        scanned += 1;
        link(u, v, cells);
    }
    if g.is_directed() {
        for &v in g.in_neighbors(u) {
            scanned += 1;
            link(u, v, cells);
        }
    }
    scanned
}

fn link(u: NodeId, v: NodeId, comp: &[AtomicU32]) {
    let mut p1 = comp[u as usize].load(Ordering::Relaxed);
    let mut p2 = comp[v as usize].load(Ordering::Relaxed);
    while p1 != p2 {
        let (high, low) = if p1 > p2 { (p1, p2) } else { (p2, p1) };
        let p_high = comp[high as usize].load(Ordering::Relaxed);
        if p_high == low
            || (p_high == high
                && comp[high as usize]
                    .compare_exchange(high, low, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok())
        {
            break;
        }
        let ph = comp[high as usize].load(Ordering::Relaxed);
        p1 = comp[ph as usize].load(Ordering::Relaxed);
        p2 = comp[low as usize].load(Ordering::Relaxed);
    }
}

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

fn sample_largest(comp: &[AtomicU32], n: usize) -> NodeId {
    let mut counts: HashMap<NodeId, usize> = HashMap::new();
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
    use gapbs_graph::gen;
    use gapbs_verify::verify_cc;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn both_variants_match_oracle() {
        for seed in 1..4 {
            let g = gen::kron(9, 8, seed);
            let p = pool();
            for variant in [CcVariant::VertexAfforest, CcVariant::EdgeBlockedAfforest] {
                let got = cc(&g, variant, &p);
                verify_cc(&g, &got).unwrap_or_else(|e| panic!("{variant:?} seed {seed}: {e}"));
            }
        }
    }

    #[test]
    fn works_on_directed_road() {
        let g = gen::road(&gen::RoadConfig::gap_like(20), 8);
        let got = cc(&g, CcVariant::VertexAfforest, &pool());
        verify_cc(&g, &got).unwrap();
    }
}
