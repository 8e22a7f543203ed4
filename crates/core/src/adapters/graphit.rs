//! Adapter for the GraphIt-style framework (`gapbs-graphit`).

use crate::framework::{AlgorithmChoice, BenchGraph, Framework, FrameworkInfo, PreparedKernels};
use crate::kernel::{Kernel, Mode};
use crate::spec::{PR_DAMPING, PR_MAX_ITERS, PR_TOLERANCE};
use gapbs_graph::types::{Distance, NodeId, Score};
use gapbs_graphit::Schedule;
use gapbs_parallel::ThreadPool;

/// GraphIt: a DSL decoupling algorithms from schedules.
#[derive(Debug, Default, Clone, Copy)]
pub struct GraphItFramework;

impl Framework for GraphItFramework {
    fn name(&self) -> &'static str {
        "GraphIt"
    }

    fn info(&self) -> FrameworkInfo {
        FrameworkInfo {
            name: "GraphIt",
            kind: "domain-specific language compiler",
            data_structure: "outgoing & incoming edges w/ (opt.) blocking",
            abstraction: "vertex or edge centric",
            synchronization: "level-synchronous",
            intended_users: "graph domain experts",
        }
    }

    fn algorithm(&self, kernel: Kernel) -> AlgorithmChoice {
        match kernel {
            Kernel::Bfs => AlgorithmChoice::plain("Direction-optimizing"),
            Kernel::Sssp => AlgorithmChoice {
                bucket_fusion: true,
                ..AlgorithmChoice::plain("Delta-stepping")
            },
            Kernel::Cc => AlgorithmChoice::plain("Label Propagation"),
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
        mode: Mode,
        pool: &ThreadPool,
    ) -> Box<dyn PreparedKernels + 'g> {
        Box::new(Prepared {
            input,
            schedule: schedule(input, mode),
            pool: pool.clone(),
        })
    }

    /// Compares the schedule fields each kernel reads.
    fn tuned(&self, input: &BenchGraph, kernel: Kernel) -> bool {
        let b = schedule(input, Mode::Baseline);
        let o = schedule(input, Mode::Optimized);
        match kernel {
            Kernel::Bfs => (b.direction, b.frontier) != (o.direction, o.frontier),
            Kernel::Bc => b.frontier != o.frontier,
            Kernel::Sssp => b.bucket_fusion != o.bucket_fusion,
            Kernel::Pr => b.cache_tiling != o.cache_tiling,
            Kernel::Cc => b.short_circuit != o.short_circuit,
            Kernel::Tc => b.intersection != o.intersection,
        }
    }
}

/// Baseline: the default schedule (per-graph tuning was not allowed for
/// the Baseline data set, §V). Optimized: the hand-picked per-graph
/// schedules of §V.
fn schedule(input: &BenchGraph, mode: Mode) -> Schedule {
    match mode {
        Mode::Baseline => Schedule::baseline(),
        Mode::Optimized => Schedule::optimized_for(input.spec),
    }
}

struct Prepared<'g> {
    input: &'g BenchGraph,
    schedule: Schedule,
    pool: ThreadPool,
}

impl PreparedKernels for Prepared<'_> {
    fn bfs(&self, source: NodeId) -> Vec<NodeId> {
        gapbs_graphit::bfs(&self.input.graph, source, &self.schedule, &self.pool)
    }

    fn sssp(&self, source: NodeId) -> Vec<Distance> {
        gapbs_graphit::sssp(
            &self.input.wgraph,
            source,
            self.input.delta,
            self.schedule.bucket_fusion,
            &self.pool,
        )
    }

    fn pr(&self) -> (Vec<Score>, usize) {
        gapbs_graphit::pr(
            &self.input.graph,
            PR_DAMPING,
            PR_TOLERANCE,
            PR_MAX_ITERS,
            self.schedule.cache_tiling,
            &self.pool,
        )
    }

    fn cc(&self) -> Vec<NodeId> {
        gapbs_graphit::cc(&self.input.graph, self.schedule.short_circuit, &self.pool)
    }

    fn bc(&self, sources: &[NodeId]) -> Vec<Score> {
        gapbs_graphit::bc(
            &self.input.graph,
            sources,
            self.schedule.frontier,
            &self.pool,
        )
    }

    fn tc(&self) -> u64 {
        gapbs_graphit::tc(
            &self.input.sym_graph,
            self.schedule.intersection,
            &self.pool,
        )
    }
}
