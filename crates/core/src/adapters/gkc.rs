//! Adapter for the Graph Kernel Collection (`gapbs-gkc`).

use crate::framework::{AlgorithmChoice, BenchGraph, Framework, FrameworkInfo, PreparedKernels};
use crate::kernel::{Kernel, Mode};
use crate::spec::{PR_DAMPING, PR_MAX_ITERS, PR_TOLERANCE};
use gapbs_graph::types::{Distance, NodeId, Score};
use gapbs_parallel::ThreadPool;

/// GKC: hand-tuned black-box kernels.
#[derive(Debug, Default, Clone, Copy)]
pub struct GkcFramework;

impl Framework for GkcFramework {
    fn name(&self) -> &'static str {
        "GKC"
    }

    fn info(&self) -> FrameworkInfo {
        FrameworkInfo {
            name: "GKC",
            kind: "direct implementations",
            data_structure: "outgoing & (opt.) incoming edges",
            abstraction: "arbitrary",
            synchronization: "algorithm-specific, level-synchronous",
            intended_users: "application developers",
        }
    }

    fn algorithm(&self, kernel: Kernel) -> AlgorithmChoice {
        match kernel {
            Kernel::Bfs => AlgorithmChoice {
                simd: true,
                ..AlgorithmChoice::plain("Direction-optimizing")
            },
            Kernel::Sssp => AlgorithmChoice {
                simd: true,
                ..AlgorithmChoice::plain("Delta-stepping")
            },
            Kernel::Cc => AlgorithmChoice::plain("Shiloach-Vishkin"),
            Kernel::Pr => AlgorithmChoice {
                simd: true,
                ..AlgorithmChoice::plain("Gauss-Seidel SpMV")
            },
            Kernel::Bc => AlgorithmChoice::plain("Brandes"),
            Kernel::Tc => AlgorithmChoice {
                relabeling: true,
                simd: true,
                ..AlgorithmChoice::plain("Lee & Low")
            },
        }
    }

    fn prepare<'g>(
        &self,
        input: &'g BenchGraph,
        _mode: Mode,
        pool: &ThreadPool,
    ) -> Box<dyn PreparedKernels + 'g> {
        // GKC's Optimized gains in the paper came from hyperthreading
        // only; code paths are the same in both modes.
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
        gapbs_gkc::bfs(&self.input.graph, source, &self.pool)
    }

    fn sssp(&self, source: NodeId) -> Vec<Distance> {
        gapbs_gkc::sssp(&self.input.wgraph, source, self.input.delta, &self.pool)
    }

    fn pr(&self) -> (Vec<Score>, usize) {
        gapbs_gkc::pr(
            &self.input.graph,
            PR_DAMPING,
            PR_TOLERANCE,
            PR_MAX_ITERS,
            &self.pool,
        )
    }

    fn cc(&self) -> Vec<NodeId> {
        gapbs_gkc::cc(&self.input.graph, &self.pool)
    }

    fn bc(&self, sources: &[NodeId]) -> Vec<Score> {
        gapbs_gkc::bc(&self.input.graph, sources, &self.pool)
    }

    fn tc(&self) -> u64 {
        gapbs_gkc::tc(&self.input.sym_graph, &self.pool)
    }
}
