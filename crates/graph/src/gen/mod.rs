//! Seeded graph generators reproducing the topology classes of Table I.
//!
//! The paper's corpus cannot be redistributed here (Twitter/Web/Road are
//! multi-gigabyte downloads), so each real-world graph is replaced by a
//! synthetic generator matching the attributes GAP's workload study found
//! decisive: degree-distribution family, average degree, and diameter
//! regime. The two synthetic graphs (Kron, Urand) use the same generator
//! definitions as the originals. See DESIGN.md §2 for the substitution
//! rationale.
//!
//! All generators are deterministic given a seed.

mod erdos;
mod rmat;
mod road;

pub(crate) mod corpus;

pub use corpus::{GraphSpec, Scale};
pub use erdos::{urand, urand_edges, urand_edges_in};
pub use rmat::{kron, kron_edges, kron_edges_in};
pub use road::{road, road_edges, road_edges_in, RoadConfig};

use crate::builder::Builder;
use crate::edgelist::{Edge, WEdge};
use crate::graph::{Graph, WGraph};
use crate::rng::mix64;
use crate::types::Weight;
use gapbs_parallel::{scatter, Schedule, ThreadPool};

/// Maximum generated edge weight, exclusive. GAP draws uniform integer
/// weights from `[1, 256)`.
pub(crate) const MAX_WEIGHT: Weight = 256;

/// Edge tuples emitted per RNG block by the parallel generators. Fixed
/// (never derived from the thread count) so the emitted stream is a pure
/// function of the seed.
pub(crate) const EDGE_BLOCK: usize = 4096;

/// Attaches uniform random weights in `[1, 256)` to an edge list, the way
/// GAP synthesizes weights for SSSP inputs (serial wrapper over
/// [`with_uniform_weights_in`]).
pub fn with_uniform_weights(edges: &[Edge], seed: u64) -> Vec<WEdge> {
    with_uniform_weights_in(edges, seed, &ThreadPool::new(1))
}

/// [`with_uniform_weights`] on a pool. Weights are *counter-based*: each
/// edge's weight is a hash of the seed, the edge's list position, and
/// its endpoints — no sequential RNG stream — so assignment is
/// order-independent, embarrassingly parallel, and identical for every
/// pool size.
pub fn with_uniform_weights_in(edges: &[Edge], seed: u64, pool: &ThreadPool) -> Vec<WEdge> {
    let base = seed ^ 0x5747_4150; // "GAPW"
    let mut out = vec![WEdge::new(0, 0, 1); edges.len()];
    scatter::fill_with(pool, &mut out, Schedule::Static, |i| {
        let e = edges[i];
        WEdge::new(e.src, e.dst, weight_at(base, i, e))
    });
    out
}

/// The counter-based weight of the edge at `index`: uniform in
/// `[1, MAX_WEIGHT)` (the modulo bias over 255 buckets of a 64-bit hash
/// is ~2^-56, far below anything the corpus statistics can see).
fn weight_at(base: u64, index: usize, e: Edge) -> Weight {
    let h = mix64(
        mix64(base, index as u64),
        (u64::from(e.src) << 32) | u64::from(e.dst),
    );
    (1 + (h % (MAX_WEIGHT as u64 - 1))) as Weight
}

/// Builds an unweighted graph from generated edges.
///
/// # Panics
///
/// Panics only on internal generator bugs (endpoints are generated in
/// range by construction).
pub(crate) fn build_graph(n: usize, edges: Vec<Edge>, symmetrize: bool) -> Graph {
    build_graph_in(n, edges, symmetrize, &ThreadPool::new(1))
}

/// [`build_graph`] with construction running on `pool`.
pub(crate) fn build_graph_in(
    n: usize,
    edges: Vec<Edge>,
    symmetrize: bool,
    pool: &ThreadPool,
) -> Graph {
    Builder::new()
        .num_vertices(n)
        .symmetrize(symmetrize)
        .pool(pool)
        .build(edges)
        .expect("generator produced in-range endpoints")
}

/// Builds the weighted companion of a generated graph, reusing the edge
/// list so that the weighted and unweighted graphs have identical topology.
pub fn weighted_companion(n: usize, edges: &[Edge], symmetrize: bool, seed: u64) -> WGraph {
    weighted_companion_in(n, edges, symmetrize, seed, &ThreadPool::new(1))
}

/// [`weighted_companion`] with weight assignment and construction on
/// `pool` (identical output for every pool size).
pub fn weighted_companion_in(
    n: usize,
    edges: &[Edge],
    symmetrize: bool,
    seed: u64,
    pool: &ThreadPool,
) -> WGraph {
    let wedges = with_uniform_weights_in(edges, seed, pool);
    Builder::new()
        .num_vertices(n)
        .symmetrize(symmetrize)
        .pool(pool)
        .build_weighted(wedges)
        .expect("generator produced in-range endpoints and positive weights")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::edges;

    #[test]
    fn weights_are_in_gap_range_and_deterministic() {
        let el = edges([(0, 1), (1, 2), (2, 0)]);
        let w1 = with_uniform_weights(&el, 7);
        let w2 = with_uniform_weights(&el, 7);
        assert_eq!(w1, w2);
        assert!(w1.iter().all(|e| (1..MAX_WEIGHT).contains(&e.weight)));
        let w3 = with_uniform_weights(&el, 8);
        assert_ne!(w1, w3, "different seeds should give different weights");
    }

    #[test]
    fn weights_are_counter_based_not_sequential() {
        // Editing one edge must leave every other edge's weight alone —
        // the property a sequential RNG stream cannot provide.
        let el = edges([(0, 1), (1, 2), (2, 0), (3, 1)]);
        let mut el2 = el.clone();
        el2[1] = Edge::new(1, 3);
        let w1 = with_uniform_weights(&el, 7);
        let w2 = with_uniform_weights(&el2, 7);
        for i in [0, 2, 3] {
            assert_eq!(w1[i], w2[i], "weight at untouched index {i} changed");
        }
    }

    #[test]
    fn weight_assignment_is_pool_size_independent() {
        let el = kron_edges(7, 8, 5);
        let serial = with_uniform_weights(&el, 11);
        for threads in [2, 7] {
            let pool = ThreadPool::new(threads);
            assert_eq!(serial, with_uniform_weights_in(&el, 11, &pool));
        }
    }

    #[test]
    fn weighted_companion_matches_topology() {
        let el = edges([(0, 1), (1, 2)]);
        let g = build_graph(3, el.clone(), true);
        let wg = weighted_companion(3, &el, true, 1);
        assert_eq!(g.num_vertices(), wg.num_vertices());
        assert_eq!(g.num_arcs(), wg.num_arcs());
        for u in g.vertices() {
            assert_eq!(g.out_neighbors(u), wg.out_neighbors(u));
        }
    }
}
