//! Raw edge lists — the interchange format between generators, I/O and the
//! [`Builder`](crate::Builder).

use crate::types::{NodeId, Weight};

/// An unweighted directed edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
}

impl Edge {
    /// Creates an edge from `src` to `dst`.
    pub fn new(src: NodeId, dst: NodeId) -> Self {
        Edge { src, dst }
    }

    /// Returns the edge with its endpoints swapped.
    pub fn reversed(self) -> Self {
        Edge {
            src: self.dst,
            dst: self.src,
        }
    }

    /// Returns `true` if both endpoints are the same vertex.
    pub(crate) fn is_self_loop(self) -> bool {
        self.src == self.dst
    }
}

impl From<(NodeId, NodeId)> for Edge {
    fn from((src, dst): (NodeId, NodeId)) -> Self {
        Edge { src, dst }
    }
}

/// A weighted directed edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WEdge {
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Edge weight (positive for GAP SSSP inputs).
    pub weight: Weight,
}

impl WEdge {
    /// Creates a weighted edge.
    pub fn new(src: NodeId, dst: NodeId, weight: Weight) -> Self {
        WEdge { src, dst, weight }
    }

    /// Returns the edge with endpoints swapped, keeping the weight.
    pub(crate) fn reversed(self) -> Self {
        WEdge {
            src: self.dst,
            dst: self.src,
            weight: self.weight,
        }
    }
}

impl From<(NodeId, NodeId, Weight)> for WEdge {
    fn from((src, dst, weight): (NodeId, NodeId, Weight)) -> Self {
        WEdge { src, dst, weight }
    }
}

/// A list of unweighted edges.
pub(crate) type EdgeList = Vec<Edge>;

/// A list of weighted edges.
pub(crate) type WEdgeList = Vec<WEdge>;

/// Convenience: builds an `EdgeList` from `(src, dst)` pairs.
pub fn edges<I>(pairs: I) -> EdgeList
where
    I: IntoIterator<Item = (NodeId, NodeId)>,
{
    pairs.into_iter().map(Edge::from).collect()
}

/// Convenience: builds a `WEdgeList` from `(src, dst, weight)` triples.
pub fn wedges<I>(triples: I) -> WEdgeList
where
    I: IntoIterator<Item = (NodeId, NodeId, Weight)>,
{
    triples.into_iter().map(WEdge::from).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_reversal_roundtrips() {
        let e = Edge::new(3, 7);
        assert_eq!(e.reversed().reversed(), e);
        assert_eq!(e.reversed(), Edge::new(7, 3));
    }

    #[test]
    fn self_loop_detection() {
        assert!(Edge::new(4, 4).is_self_loop());
        assert!(!Edge::new(4, 5).is_self_loop());
    }

    #[test]
    fn weighted_edge_keeps_weight_on_reversal() {
        let e = WEdge::new(1, 2, 9);
        assert_eq!(e.reversed(), WEdge::new(2, 1, 9));
    }

    #[test]
    fn builders_from_tuples() {
        let el = edges([(0, 1), (1, 2)]);
        assert_eq!(el.len(), 2);
        let wl = wedges([(0, 1, 5)]);
        assert_eq!(wl[0].weight, 5);
    }
}
