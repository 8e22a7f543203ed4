//! The full graph types consumed by kernels: both adjacency directions,
//! directedness, and (for [`WGraph`]) edge weights.
//!
//! Following the GAP reference implementation, a graph stores *both* its
//! outgoing and incoming adjacency so that pull-direction traversal never
//! needs an (untimed) transposition inside a kernel. For undirected graphs
//! the two directions coincide and are stored once.
//!
//! Both types hold [`CsrGraph`]s, so their row offsets are `u32` (see the
//! [`crate::csr`] module docs for where that limit is checked).

use crate::csr::{CsrGraph, WCsrGraph};
use crate::types::{NodeId, Weight};

/// An unweighted graph with both adjacency directions available.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    out: CsrGraph,
    /// `None` for undirected graphs (incoming == outgoing).
    incoming: Option<CsrGraph>,
    directed: bool,
}

impl Graph {
    /// Creates a directed graph from its out- and in-adjacency.
    ///
    /// # Panics
    ///
    /// Panics if the two directions disagree on vertex or edge counts.
    pub(crate) fn directed(out: CsrGraph, incoming: CsrGraph) -> Self {
        assert_eq!(out.num_vertices(), incoming.num_vertices());
        assert_eq!(out.num_edges(), incoming.num_edges());
        Graph {
            out,
            incoming: Some(incoming),
            directed: true,
        }
    }

    /// Creates an undirected graph from a symmetric adjacency.
    pub fn undirected(adj: CsrGraph) -> Self {
        Graph {
            out: adj,
            incoming: None,
            directed: false,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of stored directed arcs (an undirected edge counts twice).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.out.num_edges()
    }

    /// Number of edges as GAP reports them: arcs for directed graphs,
    /// arc-count / 2 for undirected graphs.
    #[inline]
    pub fn num_edges(&self) -> usize {
        if self.directed {
            self.out.num_edges()
        } else {
            self.out.num_edges() / 2
        }
    }

    /// `true` if the graph is directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out.degree(u)
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.in_csr().degree(u)
    }

    /// Sorted out-neighbors of `u`.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.out.neighbors(u)
    }

    /// Sorted in-neighbors of `u`.
    #[inline]
    pub fn in_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.in_csr().neighbors(u)
    }

    /// The outgoing CSR.
    #[inline]
    pub fn out_csr(&self) -> &CsrGraph {
        &self.out
    }

    /// The incoming CSR (same object as outgoing when undirected).
    #[inline]
    pub fn in_csr(&self) -> &CsrGraph {
        self.incoming.as_ref().unwrap_or(&self.out)
    }

    /// Iterates over all vertex ids.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_vertices() as NodeId
    }

    /// Average out-degree.
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.num_vertices() as f64
        }
    }

    /// Resident adjacency bytes across every stored direction.
    pub fn graph_bytes(&self) -> usize {
        self.out.graph_bytes() + self.incoming.as_ref().map_or(0, CsrGraph::graph_bytes)
    }
}

/// A weighted graph with both adjacency directions available.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WGraph {
    out: WCsrGraph,
    incoming: Option<WCsrGraph>,
    directed: bool,
}

impl WGraph {
    /// Creates a directed weighted graph from its two adjacency directions.
    ///
    /// # Panics
    ///
    /// Panics if the directions disagree on vertex or edge counts.
    pub(crate) fn directed(out: WCsrGraph, incoming: WCsrGraph) -> Self {
        assert_eq!(out.num_vertices(), incoming.num_vertices());
        assert_eq!(out.num_edges(), incoming.num_edges());
        WGraph {
            out,
            incoming: Some(incoming),
            directed: true,
        }
    }

    /// Creates an undirected weighted graph from a symmetric adjacency.
    pub fn undirected(adj: WCsrGraph) -> Self {
        WGraph {
            out: adj,
            incoming: None,
            directed: false,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of stored directed arcs.
    #[cfg(test)]
    pub(crate) fn num_arcs(&self) -> usize {
        self.out.num_edges()
    }

    /// `true` if the graph is directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out.degree(u)
    }

    /// Sorted out-neighbors of `u`.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.out.neighbors(u)
    }

    /// `(neighbor, weight)` pairs of `u` in the outgoing direction.
    #[inline]
    pub fn out_neighbors_weighted(&self, u: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        self.out.neighbors_weighted(u)
    }

    /// `(neighbor, weight)` pairs of `u` in the incoming direction.
    #[inline]
    pub fn in_neighbors_weighted(&self, u: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        self.in_wcsr().neighbors_weighted(u)
    }

    /// The outgoing weighted CSR.
    #[inline]
    pub fn out_wcsr(&self) -> &WCsrGraph {
        &self.out
    }

    /// The incoming weighted CSR (same as outgoing when undirected).
    #[inline]
    pub(crate) fn in_wcsr(&self) -> &WCsrGraph {
        self.incoming.as_ref().unwrap_or(&self.out)
    }

    /// Iterates over all vertex ids.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_vertices() as NodeId
    }

    /// Resident adjacency bytes (offsets, targets, weights) across every
    /// stored direction.
    pub fn graph_bytes(&self) -> usize {
        self.out.graph_bytes() + self.incoming.as_ref().map_or(0, WCsrGraph::graph_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_csr() -> CsrGraph {
        // 0 -> 1 -> 2
        CsrGraph::from_parts(vec![0, 1, 2, 2], vec![1, 2])
    }

    fn line_in_csr() -> CsrGraph {
        CsrGraph::from_parts(vec![0, 0, 1, 2], vec![0, 1])
    }

    #[test]
    fn directed_graph_has_distinct_directions() {
        let g = Graph::directed(line_csr(), line_in_csr());
        assert!(g.is_directed());
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.in_neighbors(1), &[0]);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn undirected_graph_shares_adjacency() {
        // symmetric triangle
        let adj: CsrGraph = CsrGraph::from_parts(vec![0, 2, 4, 6], vec![1, 2, 0, 2, 0, 1]);
        let g = Graph::undirected(adj);
        assert!(!g.is_directed());
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_neighbors(1), g.in_neighbors(1));
    }

    #[test]
    fn average_degree() {
        let g = Graph::directed(line_csr(), line_in_csr());
        assert!((g.average_degree() - 2.0 / 3.0).abs() < 1e-12);
    }
}
