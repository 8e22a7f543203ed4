//! The range-of-ranges abstraction: graphs as iterables of neighbor
//! iterables.

use gapbs_graph::types::{NodeId, Weight};
use gapbs_graph::{Graph, WGraph};

/// A graph viewed as a range of neighbor ranges.
///
/// Implementors provide a neighbor *iterator* per vertex; algorithms never
/// see a concrete adjacency layout. Users can adapt their own structures
/// (the NWGraph pitch: "data structures are almost never graphs per se").
pub trait AdjacencyRange: Sync {
    /// The per-vertex neighbor iterator.
    type Neighbors<'a>: Iterator<Item = NodeId> + 'a
    where
        Self: 'a;
    /// Number of vertices.
    fn num_vertices(&self) -> usize;
    /// Number of stored arcs.
    fn num_arcs(&self) -> usize;
    /// Neighbors of `u`.
    fn neighbors(&self, u: NodeId) -> Self::Neighbors<'_>;
    /// Degree of `u` (defaults to counting the range).
    fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).count()
    }
}

/// Weighted counterpart of [`AdjacencyRange`].
pub trait WeightedAdjacencyRange: Sync {
    /// The per-vertex `(neighbor, weight)` iterator.
    type NeighborsW<'a>: Iterator<Item = (NodeId, Weight)> + 'a
    where
        Self: 'a;
    /// Number of vertices.
    fn num_vertices(&self) -> usize;
    /// Weighted neighbors of `u`.
    fn neighbors_weighted(&self, u: NodeId) -> Self::NeighborsW<'_>;
}

/// Out-edge view of a [`Graph`].
#[derive(Debug, Clone, Copy)]
pub struct OutRange<'g>(pub &'g Graph);

impl AdjacencyRange for OutRange<'_> {
    type Neighbors<'a>
        = std::iter::Copied<std::slice::Iter<'a, NodeId>>
    where
        Self: 'a;
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }
    fn num_arcs(&self) -> usize {
        self.0.num_arcs()
    }
    fn neighbors(&self, u: NodeId) -> Self::Neighbors<'_> {
        self.0.out_neighbors(u).iter().copied()
    }
    fn degree(&self, u: NodeId) -> usize {
        self.0.out_degree(u)
    }
}

/// In-edge view of a [`Graph`].
#[derive(Debug, Clone, Copy)]
pub struct InRange<'g>(pub &'g Graph);

impl AdjacencyRange for InRange<'_> {
    type Neighbors<'a>
        = std::iter::Copied<std::slice::Iter<'a, NodeId>>
    where
        Self: 'a;
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }
    fn num_arcs(&self) -> usize {
        self.0.num_arcs()
    }
    fn neighbors(&self, u: NodeId) -> Self::Neighbors<'_> {
        self.0.in_neighbors(u).iter().copied()
    }
    fn degree(&self, u: NodeId) -> usize {
        self.0.in_degree(u)
    }
}

/// Weighted out-edge view of a [`WGraph`].
#[derive(Debug, Clone, Copy)]
pub struct WeightedOutRange<'g>(pub &'g WGraph);

impl WeightedAdjacencyRange for WeightedOutRange<'_> {
    type NeighborsW<'a>
        = std::iter::Zip<
        std::iter::Copied<std::slice::Iter<'a, NodeId>>,
        std::iter::Copied<std::slice::Iter<'a, Weight>>,
    >
    where
        Self: 'a;
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }
    fn neighbors_weighted(&self, u: NodeId) -> Self::NeighborsW<'_> {
        self.0
            .out_wcsr()
            .neighbors(u)
            .iter()
            .copied()
            .zip(self.0.out_wcsr().weights(u).iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::edgelist::{edges, wedges};
    use gapbs_graph::Builder;

    #[test]
    fn out_range_views_out_edges() {
        let g = Builder::new().build(edges([(0, 1), (0, 2)])).unwrap();
        let r = OutRange(&g);
        assert_eq!(r.num_vertices(), 3);
        assert_eq!(r.neighbors(0).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(r.degree(0), 2);
        assert_eq!(r.neighbors(1).count(), 0);
    }

    #[test]
    fn in_range_views_reversed() {
        let g = Builder::new().build(edges([(0, 1), (2, 1)])).unwrap();
        let r = InRange(&g);
        assert_eq!(r.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn weighted_range_pairs_weights() {
        let g = Builder::new()
            .build_weighted(wedges([(0, 1, 5), (0, 2, 7)]))
            .unwrap();
        let r = WeightedOutRange(&g);
        assert_eq!(
            r.neighbors_weighted(0).collect::<Vec<_>>(),
            vec![(1, 5), (2, 7)]
        );
    }

    /// A user-defined adjacency (Vec of Vecs) also satisfies the trait —
    /// the generic-library claim.
    struct VecOfVecs(Vec<Vec<NodeId>>);

    impl AdjacencyRange for VecOfVecs {
        type Neighbors<'a> = std::iter::Copied<std::slice::Iter<'a, NodeId>>;
        fn num_vertices(&self) -> usize {
            self.0.len()
        }
        fn num_arcs(&self) -> usize {
            self.0.iter().map(Vec::len).sum()
        }
        fn neighbors(&self, u: NodeId) -> Self::Neighbors<'_> {
            self.0[u as usize].iter().copied()
        }
    }

    #[test]
    fn user_types_can_run_algorithms() {
        let g = VecOfVecs(vec![vec![1, 2], vec![0, 2], vec![0, 1]]);
        let pool = gapbs_parallel::ThreadPool::new(2);
        let labels = crate::algorithms::cc(&g, &pool);
        assert!(labels.iter().all(|&l| l == labels[0]));
    }
}
