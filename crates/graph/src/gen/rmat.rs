//! R-MAT / Kronecker edge generation (the `Kron`, `Twitter`-like and
//! `Web`-like inputs).
//!
//! The Kron graph in GAP is produced by the Graph500 Kronecker generator,
//! which is equivalent to R-MAT with partition probabilities
//! `A = 0.57, B = 0.19, C = 0.19`. The Twitter- and Web-like stand-ins use
//! the same recursive process with different skew so that their degree
//! distributions are power-law like the originals (see Table I).
//!
//! The sampler draws one 53-bit integer per recursion level and compares
//! it with the cumulative quadrant probabilities as integer thresholds
//! (`quadrant_thresholds`): the same quadrant a cascade of `gen_f64() < p`
//! tests picks from the same RNG stream, at a fraction of the cost — the
//! cascade's three data-dependent branches mispredict on nearly every
//! level.

use super::{build_graph, EDGE_BLOCK};
use crate::edgelist::Edge;
use crate::graph::Graph;
use crate::rng::{mix64, SeededRng};
use crate::types::NodeId;
use gapbs_parallel::{Schedule, SharedSlice, ThreadPool};

/// Stream constant deriving the id-shuffle generator from the master
/// seed (far above any plausible block index, so streams never collide).
const SHUFFLE_STREAM: u64 = 0x5348_5546_464c_4531;

/// Parameters of an R-MAT recursive edge generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RmatConfig {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Average number of generated edge tuples per vertex.
    pub edges_per_vertex: usize,
    /// Probability of recursing into the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// Randomly permute vertex ids afterwards, hiding locality the way
    /// Graph500 prescribes.
    pub shuffle_ids: bool,
}

impl RmatConfig {
    /// Graph500 Kronecker parameters at the given scale and edge factor.
    pub(crate) fn graph500(scale: u32, edges_per_vertex: usize) -> Self {
        RmatConfig {
            scale,
            edges_per_vertex,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            shuffle_ids: true,
        }
    }

    /// Number of vertices implied by `scale`.
    pub(crate) fn num_vertices(&self) -> usize {
        1usize << self.scale
    }
}

/// Generates a directed R-MAT edge list (serial wrapper over
/// [`rmat_edges_in`]; the output is identical for every pool size).
///
/// # Panics
///
/// Panics if the quadrant probabilities are malformed (`a + b + c >= 1`
/// must leave a positive remainder for the fourth quadrant).
pub(crate) fn rmat_edges(config: &RmatConfig, seed: u64) -> Vec<Edge> {
    rmat_edges_in(config, seed, &ThreadPool::new(1))
}

/// Generates a directed R-MAT edge list on `pool`.
///
/// The output is carved into fixed-size blocks, each drawn from its own
/// RNG stream derived as `mix64(seed, block)`, so the edge list depends
/// only on the seed — never on thread count or schedule. The Graph500
/// id shuffle uses a separately derived stream: the permutation is built
/// serially (Fisher–Yates is inherently sequential) and applied in
/// parallel.
///
/// # Panics
///
/// Panics if the quadrant probabilities are malformed.
pub(crate) fn rmat_edges_in(config: &RmatConfig, seed: u64, pool: &ThreadPool) -> Vec<Edge> {
    let d = 1.0 - config.a - config.b - config.c;
    assert!(
        d > 0.0 && config.a > 0.0 && config.b >= 0.0 && config.c >= 0.0,
        "rmat quadrant probabilities must be positive and sum below 1"
    );
    let thresholds = quadrant_thresholds(config);
    let n = config.num_vertices();
    let m = n * config.edges_per_vertex;
    let mut edges = vec![Edge::new(0, 0); m];
    {
        let out = SharedSlice::new(&mut edges);
        pool.for_each_index(m.div_ceil(EDGE_BLOCK), Schedule::Dynamic(1), |block| {
            let mut rng = SeededRng::seed_from_u64(mix64(seed, block as u64));
            let lo = block * EDGE_BLOCK;
            let hi = (lo + EDGE_BLOCK).min(m);
            for i in lo..hi {
                let (mut src, mut dst) = (0 as NodeId, 0 as NodeId);
                for _ in 0..config.scale {
                    let (src_bit, dst_bit) = quadrant_bits(rng.next_u64() >> 11, &thresholds);
                    src = (src << 1) | NodeId::from(src_bit);
                    dst = (dst << 1) | NodeId::from(dst_bit);
                }
                // SAFETY: blocks partition the output.
                unsafe { out.write(i, Edge::new(src, dst)) };
            }
        });
    }
    if config.shuffle_ids {
        let mut rng = SeededRng::seed_from_u64(mix64(seed, SHUFFLE_STREAM));
        let perm = random_permutation(n, &mut rng);
        let perm = perm.as_slice();
        let out = SharedSlice::new(&mut edges);
        pool.for_each_index(m, Schedule::Static, |i| {
            // SAFETY: each index is read and rewritten by exactly one
            // iteration.
            unsafe {
                let e = out.read(i);
                out.write(i, Edge::new(perm[e.src as usize], perm[e.dst as usize]));
            }
        });
    }
    edges
}

/// The cumulative quadrant probabilities `a`, `a + b`, `a + b + c` as
/// integer thresholds on the 53-bit draw `x = next_u64() >> 11`.
///
/// [`SeededRng::gen_f64`] returns `x · 2⁻⁵³` exactly, so for a
/// probability `p` the float test `x · 2⁻⁵³ < p` is `x < p · 2⁵³`, and
/// with `x` an integer that is `x < ceil(p · 2⁵³)` (scaling an `f64` by
/// a power of two is exact). The sampler therefore picks the quadrant a
/// cascade of `gen_f64() < p` tests over the same sums would pick, bit
/// for bit.
fn quadrant_thresholds(config: &RmatConfig) -> [u64; 3] {
    let threshold = |p: f64| (p * (1u64 << 53) as f64).ceil() as u64;
    [
        threshold(config.a),
        threshold(config.a + config.b),
        threshold(config.a + config.b + config.c),
    ]
}

/// The `(src, dst)` bits of the quadrant a 53-bit draw `x` falls in.
/// Quadrants in threshold order: top-left (no bit), top-right (`dst`),
/// bottom-left (`src`), bottom-right (both) — three compares and no
/// data-dependent branch.
#[inline]
fn quadrant_bits(x: u64, &[t_a, t_ab, t_abc]: &[u64; 3]) -> (bool, bool) {
    let (ge_a, ge_ab, ge_abc) = (x >= t_a, x >= t_ab, x >= t_abc);
    (ge_ab, (ge_a ^ ge_ab) | ge_abc)
}

fn random_permutation(n: usize, rng: &mut SeededRng) -> Vec<NodeId> {
    let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
    // Fisher–Yates
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// Generates Kron edges: Graph500 Kronecker parameters, undirected intent
/// (callers symmetrize).
pub fn kron_edges(scale: u32, edges_per_vertex: usize, seed: u64) -> Vec<Edge> {
    rmat_edges(&RmatConfig::graph500(scale, edges_per_vertex / 2), seed)
}

/// [`kron_edges`] on a pool (identical output for every pool size).
pub fn kron_edges_in(
    scale: u32,
    edges_per_vertex: usize,
    seed: u64,
    pool: &ThreadPool,
) -> Vec<Edge> {
    rmat_edges_in(
        &RmatConfig::graph500(scale, edges_per_vertex / 2),
        seed,
        pool,
    )
}

/// Generates the undirected `Kron` benchmark graph.
///
/// `edges_per_vertex` is the target *arc* degree (Table I reports 15.7 for
/// the full-scale graph); half as many edge tuples are generated and then
/// mirrored.
pub fn kron(scale: u32, edges_per_vertex: usize, seed: u64) -> Graph {
    let edges = kron_edges(scale, edges_per_vertex, seed);
    build_graph(1 << scale, edges, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kron_is_undirected_with_requested_size() {
        let g = kron(8, 16, 42);
        assert_eq!(g.num_vertices(), 256);
        assert!(!g.is_directed());
        // Dedup and self-loop collisions shave some arcs; expect within 40%.
        let target = 256 * 16;
        assert!(g.num_arcs() > target / 2, "arcs = {}", g.num_arcs());
        assert!(g.num_arcs() <= target + target / 5);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = kron_edges(7, 8, 1);
        let b = kron_edges(7, 8, 1);
        assert_eq!(a, b);
        let c = kron_edges(7, 8, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn rmat_skew_creates_hubs() {
        // With heavy skew, the max degree should dwarf the average.
        let cfg = RmatConfig {
            scale: 10,
            edges_per_vertex: 8,
            a: 0.65,
            b: 0.15,
            c: 0.15,
            shuffle_ids: false,
        };
        let g = build_graph(1 << 10, rmat_edges(&cfg, 3), false);
        let max_deg = g.vertices().map(|u| g.out_degree(u)).max().unwrap();
        let avg = g.average_degree();
        assert!(
            (max_deg as f64) > avg * 8.0,
            "max {max_deg} vs avg {avg} is not skewed"
        );
    }

    /// The `gen_f64` cascade the integer sampler stands in for.
    fn quadrant_bits_by_float(x: u64, cfg: &RmatConfig) -> (bool, bool) {
        let r = x as f64 * (1.0 / (1u64 << 53) as f64);
        if r < cfg.a {
            (false, false)
        } else if r < cfg.a + cfg.b {
            (false, true)
        } else if r < cfg.a + cfg.b + cfg.c {
            (true, false)
        } else {
            (true, true)
        }
    }

    #[test]
    fn integer_thresholds_pick_the_float_cascades_quadrant() {
        let with = |a, b, c| RmatConfig {
            scale: 1,
            edges_per_vertex: 1,
            a,
            b,
            c,
            shuffle_ids: false,
        };
        // Twitter, Web, Graph500, then random splits of the unit interval.
        let mut configs = vec![
            with(0.65, 0.15, 0.15),
            with(0.60, 0.19, 0.19),
            with(0.57, 0.19, 0.19),
        ];
        let mut rng = SeededRng::seed_from_u64(53);
        for _ in 0..1000 {
            let parts = [(); 4].map(|()| rng.gen_f64() + 1e-9);
            let sum: f64 = parts.iter().sum();
            configs.push(with(parts[0] / sum, parts[1] / sum, parts[2] / sum));
        }
        let top = (1u64 << 53) - 1;
        for cfg in &configs {
            let thresholds = quadrant_thresholds(cfg);
            assert!(thresholds.is_sorted() && thresholds[2] <= top);
            let around = thresholds
                .iter()
                .flat_map(|&t| [t.saturating_sub(1), t, t + 1]);
            for x in around.chain([0, top]).map(|x| x.min(top)) {
                assert_eq!(
                    quadrant_bits(x, &thresholds),
                    quadrant_bits_by_float(x, cfg),
                    "x = {x} with {cfg:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "quadrant")]
    fn malformed_probabilities_panic() {
        let cfg = RmatConfig {
            scale: 4,
            edges_per_vertex: 4,
            a: 0.5,
            b: 0.3,
            c: 0.3,
            shuffle_ids: false,
        };
        let _ = rmat_edges(&cfg, 0);
    }
}
