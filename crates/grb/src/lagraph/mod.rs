//! LAGraph-style graph kernels, written strictly against the GraphBLAS
//! engine ([`ops`](crate::ops), [`GrbMatrix`], [`GrbVector`](crate::GrbVector)).
//!
//! Per the paper (§III-A): "GraphBLAS does not include any graph
//! algorithms directly; these are in algorithms that use GraphBLAS." This
//! module is the analogue of the six LAGraph algorithms the SuiteSparse
//! team developed for the GAP benchmark.

mod bc_batch;
mod bfs;
mod cc;
mod pr;
mod sssp;
mod tc;

pub use bc_batch::bc_batch;
pub use bfs::bfs;
pub use cc::cc;
pub use pr::pr;
pub use sssp::sssp;
pub use tc::tc;

use crate::matrix::GrbMatrix;
use crate::workspace::OpWorkspace;
use gapbs_graph::{Graph, WGraph};

/// Prepared GraphBLAS state for one benchmark graph: the adjacency matrix,
/// its transpose, and (for SSSP) the weighted matrix.
///
/// Building these is graph *loading* for a linear-algebra framework — its
/// native graph format is the matrix — so it happens outside the timed
/// region, exactly as GAP lets every framework store both graph directions
/// ahead of time.
#[derive(Debug, Clone)]
pub struct LaGraphContext {
    /// Adjacency matrix (out-edges).
    pub a: GrbMatrix,
    /// Transposed adjacency (in-edges).
    pub at: GrbMatrix,
    /// Weighted adjacency, when the graph has weights.
    pub aw: Option<GrbMatrix>,
    /// Out-degrees as a dense vector (used by PR and the BFS frontier
    /// accounting).
    pub out_degree: Vec<u64>,
    /// Whether the source graph was directed.
    pub directed: bool,
    /// Reusable operation scratch (SPAs, spill buffers); every engine
    /// call on this context draws from it instead of allocating.
    /// Cloning a context starts with a cold (empty) workspace.
    pub workspace: OpWorkspace,
}

impl LaGraphContext {
    /// Prepares matrices for an unweighted graph.
    pub fn from_graph(g: &Graph) -> Self {
        let a = GrbMatrix::from_graph(g);
        let at = GrbMatrix::from_graph_transposed(g);
        let out_degree = g.vertices().map(|u| g.out_degree(u) as u64).collect();
        LaGraphContext {
            a,
            at,
            aw: None,
            out_degree,
            directed: g.is_directed(),
            workspace: OpWorkspace::new(),
        }
    }

    /// Prepares matrices for a weighted graph (adds `aw`).
    pub fn from_wgraph(g: &Graph, wg: &WGraph) -> Self {
        let mut ctx = Self::from_graph(g);
        ctx.aw = Some(GrbMatrix::from_wgraph(wg));
        ctx
    }

    /// Number of vertices.
    pub(crate) fn num_vertices(&self) -> u64 {
        self.a.nrows()
    }
}
