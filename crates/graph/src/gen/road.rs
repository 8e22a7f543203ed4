//! Road-network-like generation (the `Road` input).
//!
//! GAP's Road graph (USA road network) is the outlier of the corpus:
//! bounded degree (average 2.4), enormous diameter (~6,300), directed but
//! nearly symmetric. The stand-in is a sparse 2-D lattice: each grid point
//! connects to a subset of its 4-neighborhood (random deletions keep the
//! average degree near 2.4 and stretch the diameter), plus a sprinkle of
//! diagonal "shortcut" streets. The giant component of such a lattice has
//! diameter Θ(width + height), reproducing the many-iteration behaviour
//! that makes Road hard for bulk-synchronous frameworks (§VI).

use super::build_graph;
use crate::edgelist::Edge;
use crate::graph::Graph;
use crate::rng::{mix64, SeededRng};
use crate::types::NodeId;
use gapbs_parallel::{Schedule, SharedSlice, ThreadPool};

/// Diagonal shortcuts drawn per RNG block.
const DIAG_BLOCK: usize = 1024;

/// Stream constants deriving the independent sub-generators (lattice
/// rows, diagonal shortcuts, backbone stitching) from the master seed.
const ROWS_STREAM: u64 = 0x524f_5753_0000_0001;
const DIAG_STREAM: u64 = 0x4449_4147_0000_0002;
const BACK_STREAM: u64 = 0x4241_434b_0000_0003;

/// Parameters of the road-like lattice generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoadConfig {
    /// Grid width.
    pub width: usize,
    /// Grid height.
    pub height: usize,
    /// Percentage (0–100) of lattice edges kept.
    pub keep_percent: u32,
    /// Number of random diagonal shortcut edges per 100 vertices.
    pub diagonals_per_100: u32,
}

impl RoadConfig {
    /// A configuration matching Road's Table I attributes at a given grid
    /// side length: average degree ≈ 2.4, huge diameter.
    pub fn gap_like(side: usize) -> Self {
        RoadConfig {
            width: side,
            height: side,
            keep_percent: 62,
            diagonals_per_100: 2,
        }
    }

    /// Number of vertices in the lattice.
    pub(crate) fn num_vertices(&self) -> usize {
        self.width * self.height
    }
}

/// Generates the directed (symmetric) road-like edge list (serial
/// wrapper over [`road_edges_in`]).
pub fn road_edges(config: &RoadConfig, seed: u64) -> Vec<Edge> {
    road_edges_in(config, seed, &ThreadPool::new(1))
}

/// [`road_edges`] on a pool. Each grid row, each diagonal block, and the
/// backbone pass draw from independently derived RNG streams, so the
/// edge list depends only on the seed and the grid — never on thread
/// count or schedule.
pub fn road_edges_in(config: &RoadConfig, seed: u64, pool: &ThreadPool) -> Vec<Edge> {
    let (w, h) = (config.width, config.height);
    let id = |x: usize, y: usize| (y * w + x) as NodeId;
    let push_both = |edges: &mut Vec<Edge>, a: NodeId, b: NodeId| {
        edges.push(Edge::new(a, b));
        edges.push(Edge::new(b, a));
    };
    // Lattice: one derived stream per grid row, emitted into per-row
    // buckets and flattened in row order.
    let mut rows: Vec<Vec<Edge>> = vec![Vec::new(); h];
    {
        let out = SharedSlice::new(&mut rows);
        pool.for_each_index(h, Schedule::Dynamic(8), |y| {
            let mut rng = SeededRng::seed_from_u64(mix64(mix64(seed, ROWS_STREAM), y as u64));
            let mut row = Vec::new();
            for x in 0..w {
                if x + 1 < w && rng.gen_range(0..100) < config.keep_percent {
                    push_both(&mut row, id(x, y), id(x + 1, y));
                }
                if y + 1 < h && rng.gen_range(0..100) < config.keep_percent {
                    push_both(&mut row, id(x, y), id(x, y + 1));
                }
            }
            // SAFETY: one writer per row bucket.
            unsafe { out.write(y, row) };
        });
    }
    let mut edges: Vec<Edge> = rows.into_iter().flatten().collect();
    // Diagonal shortcuts: local streets cutting corners, not long-range
    // links (long-range links would collapse the diameter). Each diagonal
    // owns a fixed pair of output slots.
    let diagonals = config.num_vertices() * config.diagonals_per_100 as usize / 100;
    if diagonals > 0 && w > 1 && h > 1 {
        let mut diag = vec![Edge::new(0, 0); diagonals * 2];
        {
            let out = SharedSlice::new(&mut diag);
            pool.for_each_index(
                diagonals.div_ceil(DIAG_BLOCK),
                Schedule::Dynamic(1),
                |block| {
                    let mut rng =
                        SeededRng::seed_from_u64(mix64(mix64(seed, DIAG_STREAM), block as u64));
                    let lo = block * DIAG_BLOCK;
                    let hi = (lo + DIAG_BLOCK).min(diagonals);
                    for d in lo..hi {
                        let x = rng.gen_range(0..w - 1);
                        let y = rng.gen_range(0..h - 1);
                        // SAFETY: diagonal `d` owns slots 2d and 2d+1.
                        unsafe {
                            out.write(2 * d, Edge::new(id(x, y), id(x + 1, y + 1)));
                            out.write(2 * d + 1, Edge::new(id(x + 1, y + 1), id(x, y)));
                        }
                    }
                },
            );
        }
        edges.extend_from_slice(&diag);
    }
    // Stitch each row's first column to the next row so the giant component
    // spans the grid even with deletions (mirrors highway backbones).
    // Serial: O(height) draws from a dedicated stream.
    let mut rng = SeededRng::seed_from_u64(mix64(seed, BACK_STREAM));
    for y in 0..h.saturating_sub(1) {
        if rng.gen_range(0..100) < 80 {
            push_both(&mut edges, id(0, y), id(0, y + 1));
        }
    }
    edges
}

/// Generates the `Road` benchmark graph.
///
/// The output is *directed* (like GAP's Road) but symmetric, since roads
/// carry both directions in the source data's overwhelming majority.
pub fn road(config: &RoadConfig, seed: u64) -> Graph {
    let edges = road_edges(config, seed);
    build_graph(config.num_vertices(), edges, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn road_has_bounded_degree_and_directed_flag() {
        let g = road(&RoadConfig::gap_like(40), 11);
        assert!(g.is_directed());
        assert_eq!(g.num_vertices(), 1600);
        let avg = g.average_degree();
        assert!(
            (1.6..3.4).contains(&avg),
            "average degree {avg} outside road-like band"
        );
        let max_deg = g.vertices().map(|u| g.out_degree(u)).max().unwrap();
        assert!(max_deg <= 8, "lattice degree bound violated: {max_deg}");
    }

    #[test]
    fn road_is_symmetric_despite_directedness() {
        let g = road(&RoadConfig::gap_like(16), 5);
        for u in g.vertices() {
            for &v in g.out_neighbors(u) {
                assert!(
                    g.out_neighbors(v).contains(&u),
                    "missing reverse arc {v}->{u}"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = RoadConfig::gap_like(12);
        assert_eq!(road_edges(&cfg, 1), road_edges(&cfg, 1));
        assert_ne!(road_edges(&cfg, 1), road_edges(&cfg, 2));
    }
}
