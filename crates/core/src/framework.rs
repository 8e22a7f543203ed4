//! The adapter interface between the harness and the six framework
//! crates.

use crate::kernel::{Kernel, Mode};
use gapbs_graph::builder::symmetrize_graph;
use gapbs_graph::gen::{GraphSpec, Scale};
use gapbs_graph::types::{Distance, NodeId, Score};
use gapbs_graph::{Graph, WGraph, Weight};
use gapbs_parallel::ThreadPool;
use gapbs_telemetry::{Phase, Span};

/// A fully prepared benchmark input: everything every framework may hold
/// before the timer starts (GAP stores both graph directions; TC runs on
/// the symmetrized view; delta is the one per-graph parameter the
/// Baseline rules allow).
#[derive(Debug, Clone)]
pub struct BenchGraph {
    /// Which corpus member this is.
    pub spec: GraphSpec,
    /// The unweighted graph (both directions stored).
    pub graph: Graph,
    /// Weighted companion with identical topology (SSSP input).
    pub wgraph: WGraph,
    /// Symmetrized view for TC (same as `graph` when undirected).
    pub sym_graph: Graph,
    /// Per-graph delta for delta-stepping.
    pub delta: Weight,
    /// Source candidates: the largest SCC (directed) or largest component
    /// (undirected), so every trial has non-trivial reach — preserving
    /// GAP's sampling intent at reproduction scale.
    pub source_candidates: Vec<NodeId>,
}

impl BenchGraph {
    /// Generates a corpus member at the given scale and prepares every
    /// untimed input (serial wrapper over [`BenchGraph::generate_in`]).
    pub fn generate(spec: GraphSpec, scale: Scale) -> Self {
        Self::generate_in(spec, scale, &ThreadPool::new(1))
    }

    /// [`BenchGraph::generate`] with generation and construction on
    /// `pool`. The prepared input is identical for every pool size.
    pub fn generate_in(spec: GraphSpec, scale: Scale, pool: &ThreadPool) -> Self {
        let _build = Span::enter(Phase::Build);
        let (graph, wgraph) = spec.generate_both_in(scale, pool);
        Self::from_graphs_in(spec, graph, wgraph, pool)
    }

    /// Prepares inputs from already-built graphs (serial wrapper over
    /// [`BenchGraph::from_graphs_in`]).
    pub fn from_graphs(spec: GraphSpec, graph: Graph, wgraph: WGraph) -> Self {
        Self::from_graphs_in(spec, graph, wgraph, &ThreadPool::new(1))
    }

    /// [`BenchGraph::from_graphs`] with the symmetrized TC view built on
    /// `pool`, straight from the stored adjacency (no edge-list clone).
    pub fn from_graphs_in(
        spec: GraphSpec,
        graph: Graph,
        wgraph: WGraph,
        pool: &ThreadPool,
    ) -> Self {
        let sym_graph = if graph.is_directed() {
            symmetrize_graph(&graph, pool)
        } else {
            graph.clone()
        };
        // GAP permits a per-graph delta; low-degree (road-like) graphs
        // want small buckets, dense graphs large ones.
        let delta = if graph.average_degree() < 4.0 { 2 } else { 32 };
        let mut source_candidates = if graph.is_directed() {
            gapbs_graph::scc::largest_scc(&graph)
        } else {
            gapbs_graph::scc::largest_wcc(&graph)
        };
        source_candidates.retain(|&u| graph.out_degree(u) > 0);
        if source_candidates.is_empty() {
            source_candidates = graph
                .vertices()
                .filter(|&u| graph.out_degree(u) > 0)
                .collect();
        }
        BenchGraph {
            spec,
            graph,
            wgraph,
            sym_graph,
            delta,
            source_candidates,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Resident CSR bytes of the structure `kernel` consumes — the
    /// ledger's `graph_bytes` column: the weighted graph for SSSP, the
    /// symmetrized view for TC, the stored adjacency otherwise.
    pub fn kernel_graph_bytes(&self, kernel: Kernel) -> usize {
        match kernel {
            Kernel::Sssp => self.wgraph.graph_bytes(),
            Kernel::Tc => self.sym_graph.graph_bytes(),
            _ => self.graph.graph_bytes(),
        }
    }

    /// Total resident CSR bytes of every prepared structure (unweighted,
    /// weighted, and symmetrized view — the symmetrized clone is a real
    /// second allocation even for undirected graphs). The serve daemon's
    /// per-graph memory gauge.
    pub fn resident_bytes(&self) -> usize {
        self.graph.graph_bytes() + self.wgraph.graph_bytes() + self.sym_graph.graph_bytes()
    }
}

/// One row of Table II: the descriptive attributes of a framework.
#[derive(Debug, Clone)]
pub struct FrameworkInfo {
    /// Framework display name.
    pub name: &'static str,
    /// "Type" row: direct implementations, generic library, DSL, ...
    pub kind: &'static str,
    /// "Internal Graph Data Structure" row.
    pub data_structure: &'static str,
    /// "Programming Abstraction" row.
    pub abstraction: &'static str,
    /// "Execution Synchronization" row.
    pub synchronization: &'static str,
    /// "Intended Users" row.
    pub intended_users: &'static str,
}

/// One cell of Table III: the algorithm a framework uses for a kernel,
/// with the table's footnote flags.
#[derive(Debug, Clone)]
pub struct AlgorithmChoice {
    /// Algorithm name as Table III prints it.
    pub algorithm: &'static str,
    /// Footnote 1: bucket fusion.
    pub bucket_fusion: bool,
    /// Footnote 2: heuristic-controlled graph relabelling.
    pub relabeling: bool,
    /// Footnote 3: SIMD (here: branch-reduced kernels).
    pub simd: bool,
    /// Footnote 4: an additional asynchronous variant.
    pub async_variant: bool,
}

impl AlgorithmChoice {
    /// A plain algorithm with no footnotes.
    pub fn plain(algorithm: &'static str) -> Self {
        AlgorithmChoice {
            algorithm,
            bucket_fusion: false,
            relabeling: false,
            simd: false,
            async_variant: false,
        }
    }

    /// Renders the Table III cell, footnotes as superscript digits.
    pub(crate) fn render(&self) -> String {
        let mut s = self.algorithm.to_string();
        let mut notes = Vec::new();
        if self.bucket_fusion {
            notes.push("1");
        }
        if self.relabeling {
            notes.push("2");
        }
        if self.simd {
            notes.push("3");
        }
        if self.async_variant {
            notes.push("4");
        }
        if !notes.is_empty() {
            s.push('^');
            s.push_str(&notes.join(","));
        }
        s
    }
}

/// The kernels of one framework, prepared for one graph and mode.
///
/// Preparation (building matrices, picking heuristics) happens before the
/// timer; calls on this trait are what the harness times. A value from
/// [`Framework::prepare`] answers every kernel; one from
/// [`Framework::prepare_kernel`] answers only the kernel it was prepared
/// for, and may panic on the others.
pub trait PreparedKernels: Sync {
    /// BFS parent array from `source`.
    fn bfs(&self, source: NodeId) -> Vec<NodeId>;
    /// SSSP distances from `source`.
    fn sssp(&self, source: NodeId) -> Vec<Distance>;
    /// PageRank scores plus iteration count.
    fn pr(&self) -> (Vec<Score>, usize);
    /// Component labels.
    fn cc(&self) -> Vec<NodeId>;
    /// BC scores from the given roots.
    fn bc(&self, sources: &[NodeId]) -> Vec<Score>;
    /// Triangle count.
    fn tc(&self) -> u64;
}

/// A graph analytics framework under evaluation.
///
/// `Send + Sync` so a loaded framework roster can be shared across the
/// serving layer's handler threads.
pub trait Framework: Send + Sync {
    /// Display name as the paper prints it.
    fn name(&self) -> &'static str;
    /// Table II attributes.
    fn info(&self) -> FrameworkInfo;
    /// Table III algorithm choice for a kernel.
    fn algorithm(&self, kernel: Kernel) -> AlgorithmChoice;
    /// Prepares the framework's kernels for one graph under one mode:
    /// everything any of the six kernels reads.
    fn prepare<'g>(
        &self,
        input: &'g BenchGraph,
        mode: Mode,
        pool: &ThreadPool,
    ) -> Box<dyn PreparedKernels + 'g>;

    /// Prepares only what `kernel` reads; only that kernel may then be
    /// called on the result. Its output is bit-identical to the same
    /// kernel on [`prepare`](Self::prepare)'s result. The trial runner
    /// and the serve daemon call this, since both know the kernel before
    /// they prepare; the runner keeps it outside the timed region, as
    /// it does `prepare`.
    ///
    /// The default prepares everything. SuiteSparse builds the weighted
    /// matrix only for SSSP and the symmetrized context only for TC on a
    /// directed graph; Galois relabels for Optimized TC only.
    fn prepare_kernel<'g>(
        &self,
        input: &'g BenchGraph,
        mode: Mode,
        _kernel: Kernel,
        pool: &ThreadPool,
    ) -> Box<dyn PreparedKernels + 'g> {
        self.prepare(input, mode, pool)
    }

    /// Whether the Optimized rules pick a different configuration from
    /// Baseline for `kernel` on `input`. Under the GAP spec's Optimized
    /// rules a framework that does not tune reports its Baseline, so the
    /// matrix runs an Optimized cell only where this holds and the
    /// report reads every other Optimized cell from its Baseline cell.
    ///
    /// The default, for a framework whose `prepare` ignores the mode, is
    /// `false`. Galois and GraphIt answer from the same per-mode choice
    /// their `prepare` makes.
    fn tuned(&self, _input: &BenchGraph, _kernel: Kernel) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_graph_prepares_symmetric_tc_view() {
        let bg = BenchGraph::generate(GraphSpec::Road, Scale::Tiny);
        assert!(bg.graph.is_directed());
        assert!(!bg.sym_graph.is_directed());
        assert_eq!(bg.delta, 2, "road-like graphs get a small delta");
        let kron = BenchGraph::generate(GraphSpec::Kron, Scale::Tiny);
        assert!(!kron.graph.is_directed());
        assert_eq!(kron.sym_graph, kron.graph);
        assert_eq!(kron.delta, 32);
    }

    #[test]
    fn footnotes_render_like_table_three() {
        let mut c = AlgorithmChoice::plain("Delta-stepping");
        assert_eq!(c.render(), "Delta-stepping");
        c.bucket_fusion = true;
        c.simd = true;
        assert_eq!(c.render(), "Delta-stepping^1,3");
    }
}
