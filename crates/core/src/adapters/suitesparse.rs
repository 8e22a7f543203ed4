//! Adapter for the GraphBLAS/LAGraph stack (`gapbs-grb`).

use crate::framework::{AlgorithmChoice, BenchGraph, Framework, FrameworkInfo, PreparedKernels};
use crate::kernel::{Kernel, Mode};
use crate::spec::{PR_DAMPING, PR_MAX_ITERS, PR_TOLERANCE};
use gapbs_graph::types::{Distance, NodeId, Score};
use gapbs_grb::lagraph::{self, LaGraphContext};
use gapbs_parallel::ThreadPool;

/// SuiteSparse:GraphBLAS with LAGraph-style kernels.
#[derive(Debug, Default, Clone, Copy)]
pub struct SuiteSparseFramework;

impl Framework for SuiteSparseFramework {
    fn name(&self) -> &'static str {
        "SuiteSparse"
    }

    fn info(&self) -> FrameworkInfo {
        FrameworkInfo {
            name: "SuiteSparse",
            kind: "high-level library",
            data_structure: "outgoing & incoming edges w/ (opt.) hypersparsity",
            abstraction: "sparse linear algebra",
            synchronization: "level-synchronous",
            intended_users: "graph/matrix domain experts",
        }
    }

    fn algorithm(&self, kernel: Kernel) -> AlgorithmChoice {
        match kernel {
            Kernel::Bfs => AlgorithmChoice::plain("Direction-optimizing"),
            Kernel::Sssp => AlgorithmChoice::plain("Delta-stepping"),
            Kernel::Cc => AlgorithmChoice::plain("FastSV"),
            Kernel::Pr => AlgorithmChoice::plain("Jacobi SpMV"),
            Kernel::Bc => AlgorithmChoice::plain("Brandes"),
            Kernel::Tc => AlgorithmChoice {
                relabeling: true,
                ..AlgorithmChoice::plain("Order invariant")
            },
        }
    }

    fn prepare<'g>(
        &self,
        input: &'g BenchGraph,
        _mode: Mode,
        pool: &ThreadPool,
    ) -> Box<dyn PreparedKernels + 'g> {
        Box::new(Prepared::build(input, None, pool))
    }

    fn prepare_kernel<'g>(
        &self,
        input: &'g BenchGraph,
        _mode: Mode,
        kernel: Kernel,
        pool: &ThreadPool,
    ) -> Box<dyn PreparedKernels + 'g> {
        Box::new(Prepared::build(input, Some(kernel), pool))
    }
}

struct Prepared<'g> {
    input: &'g BenchGraph,
    /// A, Aᵀ and out-degrees, plus A_w when SSSP may run.
    ctx: LaGraphContext,
    /// The symmetrized matrices when TC may run on a directed graph; TC
    /// on an undirected graph reads `ctx` itself.
    sym_ctx: Option<LaGraphContext>,
    pool: ThreadPool,
}

impl<'g> Prepared<'g> {
    /// Builds what `kernel` reads, or what every kernel reads for `None`.
    /// A linear-algebra framework's native graph format is the matrix;
    /// building it is graph loading, not kernel time. 64-bit indices
    /// throughout (the §V index tax).
    fn build(input: &'g BenchGraph, kernel: Option<Kernel>, pool: &ThreadPool) -> Self {
        let needs = |k: Kernel| kernel.is_none_or(|kernel| kernel == k);
        let ctx = if needs(Kernel::Sssp) {
            LaGraphContext::from_wgraph(&input.graph, &input.wgraph)
        } else {
            LaGraphContext::from_graph(&input.graph)
        };
        let sym_ctx = (needs(Kernel::Tc) && input.graph.is_directed())
            .then(|| LaGraphContext::from_graph(&input.sym_graph));
        Prepared {
            input,
            ctx,
            sym_ctx,
            pool: pool.clone(),
        }
    }
}

impl PreparedKernels for Prepared<'_> {
    fn bfs(&self, source: NodeId) -> Vec<NodeId> {
        lagraph::bfs(&self.ctx, source, &self.pool)
    }

    fn sssp(&self, source: NodeId) -> Vec<Distance> {
        lagraph::sssp(&self.ctx, source, self.input.delta, &self.pool)
    }

    fn pr(&self) -> (Vec<Score>, usize) {
        lagraph::pr(
            &self.ctx,
            PR_DAMPING,
            PR_TOLERANCE,
            PR_MAX_ITERS,
            &self.pool,
        )
    }

    fn cc(&self) -> Vec<NodeId> {
        lagraph::cc(&self.ctx, &self.pool)
    }

    fn bc(&self, sources: &[NodeId]) -> Vec<Score> {
        // The paper's LAGraph BC is a batch algorithm over dense 4-by-n
        // state.
        lagraph::bc_batch(&self.ctx, sources, &self.pool)
    }

    fn tc(&self) -> u64 {
        lagraph::tc(self.sym_ctx.as_ref().unwrap_or(&self.ctx), &self.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::gen::{GraphSpec, Scale};

    #[test]
    fn a_bfs_scoped_prepare_builds_no_weights_and_no_symmetric_context() {
        let pool = ThreadPool::new(1);
        let road = BenchGraph::generate(GraphSpec::Road, Scale::Tiny);
        assert!(road.graph.is_directed());
        let bfs = Prepared::build(&road, Some(Kernel::Bfs), &pool);
        assert!(bfs.ctx.aw.is_none());
        assert!(bfs.sym_ctx.is_none());
        let sssp = Prepared::build(&road, Some(Kernel::Sssp), &pool);
        assert!(sssp.ctx.aw.is_some() && sssp.sym_ctx.is_none());
        let tc = Prepared::build(&road, Some(Kernel::Tc), &pool);
        assert!(tc.ctx.aw.is_none() && tc.sym_ctx.is_some());
        let all = Prepared::build(&road, None, &pool);
        assert!(all.ctx.aw.is_some() && all.sym_ctx.is_some());
        // An undirected graph is its own symmetrized view: no second
        // context, not even for TC.
        let kron = BenchGraph::generate(GraphSpec::Kron, Scale::Tiny);
        assert!(Prepared::build(&kron, None, &pool).sym_ctx.is_none());
    }
}
