//! The benchmark specification: trial counts, source selection and
//! kernel parameters, following the GAP spec's rules.

use gapbs_graph::types::NodeId;

pub use gapbs_ref::{PR_DAMPING, PR_MAX_ITERS, PR_TOLERANCE};
/// BC roots per trial (the GAP spec approximates BC with four).
pub const BC_ROOTS: usize = 4;

/// Deterministic source selector: a seeded linear-congruential walk over
/// the non-degenerate vertices (GAP draws uniform random sources with
/// non-zero out-degree; determinism makes runs reproducible and gives
/// every framework identical sources).
#[derive(Debug, Clone)]
pub struct SourcePicker {
    candidates: Vec<NodeId>,
    state: u64,
}

impl SourcePicker {
    /// Builds a picker over vertices with non-zero out-degree.
    #[cfg(test)]
    pub(crate) fn new(g: &gapbs_graph::Graph, seed: u64) -> Self {
        let candidates: Vec<NodeId> = g.vertices().filter(|&u| g.out_degree(u) > 0).collect();
        Self::from_candidates(candidates, seed)
    }

    /// Builds a picker over an explicit candidate set (the harness passes
    /// the giant component's vertices).
    pub fn from_candidates(candidates: Vec<NodeId>, seed: u64) -> Self {
        SourcePicker {
            candidates,
            state: seed | 1,
        }
    }

    /// Next source vertex.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no vertex with outgoing edges.
    pub fn next_source(&mut self) -> NodeId {
        assert!(
            !self.candidates.is_empty(),
            "graph has no vertex with outgoing edges"
        );
        // SplitMix64 step — deterministic, well distributed.
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        self.candidates[(z % self.candidates.len() as u64) as usize]
    }

    /// Next batch of `k` sources (BC roots).
    pub fn next_sources(&mut self, k: usize) -> Vec<NodeId> {
        (0..k).map(|_| self.next_source()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::edgelist::edges;
    use gapbs_graph::{gen, Builder};

    #[test]
    fn sources_are_deterministic_and_non_degenerate() {
        let g = gen::kron(8, 8, 1);
        let mut a = SourcePicker::new(&g, 42);
        let mut b = SourcePicker::new(&g, 42);
        for _ in 0..10 {
            let (x, y) = (a.next_source(), b.next_source());
            assert_eq!(x, y);
            assert!(g.out_degree(x) > 0);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let g = gen::kron(8, 8, 1);
        let mut a = SourcePicker::new(&g, 1);
        let mut b = SourcePicker::new(&g, 2);
        let xs: Vec<_> = (0..8).map(|_| a.next_source()).collect();
        let ys: Vec<_> = (0..8).map(|_| b.next_source()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    #[should_panic(expected = "no vertex with outgoing edges")]
    fn empty_graph_panics() {
        let g = Builder::new().num_vertices(3).build(edges([])).unwrap();
        SourcePicker::new(&g, 0).next_source();
    }
}
