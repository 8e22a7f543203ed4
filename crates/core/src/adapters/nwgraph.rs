//! Adapter for the NWGraph-style generic library (`gapbs-nwgraph`).

use crate::framework::{AlgorithmChoice, BenchGraph, Framework, FrameworkInfo, PreparedKernels};
use crate::kernel::{Kernel, Mode};
use crate::spec::{PR_DAMPING, PR_MAX_ITERS, PR_TOLERANCE};
use gapbs_graph::types::{Distance, NodeId, Score};
use gapbs_nwgraph::{InRange, OutRange, WeightedOutRange};
use gapbs_parallel::ThreadPool;

/// NWGraph: generic algorithms over ranges of ranges.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct NwGraphFramework;

impl Framework for NwGraphFramework {
    fn name(&self) -> &'static str {
        "NWGraph"
    }

    fn info(&self) -> FrameworkInfo {
        FrameworkInfo {
            name: "NWGraph",
            kind: "header-only library",
            data_structure: "adjacency list as range of ranges",
            abstraction: "range-centric w/ tuple edge properties",
            synchronization: "algorithm-specific, level-synchronous",
            intended_users: "practicing C++ programmers",
        }
    }

    fn algorithm(&self, kernel: Kernel) -> AlgorithmChoice {
        match kernel {
            Kernel::Bfs => AlgorithmChoice::plain("Direction-optimizing"),
            Kernel::Sssp => AlgorithmChoice::plain("Delta-stepping"),
            Kernel::Cc => AlgorithmChoice::plain("Afforest"),
            Kernel::Pr => AlgorithmChoice::plain("Gauss-Seidel SpMV"),
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
        // NWGraph's Optimized gains in the paper came solely from
        // hyperthreading; the code paths are identical ("the low
        // requirement for parameter tuning [is] a feature", §V).
        Box::new(Prepared {
            input,
            pool: pool.clone(),
        })
    }
}

struct Prepared<'g> {
    input: &'g BenchGraph,
    pool: ThreadPool,
}

impl PreparedKernels for Prepared<'_> {
    fn bfs(&self, source: NodeId) -> Vec<NodeId> {
        gapbs_nwgraph::bfs(
            &OutRange(&self.input.graph),
            &InRange(&self.input.graph),
            source,
            &self.pool,
        )
    }

    fn sssp(&self, source: NodeId) -> Vec<Distance> {
        gapbs_nwgraph::sssp(
            &WeightedOutRange(&self.input.wgraph),
            source,
            self.input.delta,
            &self.pool,
        )
    }

    fn pr(&self) -> (Vec<Score>, usize) {
        gapbs_nwgraph::pr(
            &OutRange(&self.input.graph),
            &InRange(&self.input.graph),
            PR_DAMPING,
            PR_TOLERANCE,
            PR_MAX_ITERS,
            &self.pool,
        )
    }

    fn cc(&self) -> Vec<NodeId> {
        // Weak connectivity needs undirected reach; the symmetrized view
        // provides it through the same generic interface.
        gapbs_nwgraph::cc(&OutRange(&self.input.sym_graph), &self.pool)
    }

    fn bc(&self, sources: &[NodeId]) -> Vec<Score> {
        gapbs_nwgraph::bc(&OutRange(&self.input.graph), sources, &self.pool)
    }

    fn tc(&self) -> u64 {
        gapbs_nwgraph::tc(&OutRange(&self.input.sym_graph), &self.pool)
    }
}
