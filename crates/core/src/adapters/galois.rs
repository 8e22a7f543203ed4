//! Adapter for the Galois-style framework (`gapbs-galois`).

use crate::framework::{AlgorithmChoice, BenchGraph, Framework, FrameworkInfo, PreparedKernels};
use crate::kernel::{Kernel, Mode};
use crate::spec::{PR_DAMPING, PR_MAX_ITERS, PR_TOLERANCE};
use gapbs_galois::cc::CcVariant;
use gapbs_galois::tc::Relabeling;
use gapbs_galois::ExecutionStyle;
use gapbs_graph::types::{Distance, NodeId, Score};
use gapbs_graph::Graph;
use gapbs_parallel::ThreadPool;

/// Galois: operator formulation with asynchronous worklists.
#[derive(Debug, Default, Clone, Copy)]
pub struct GaloisFramework;

impl Framework for GaloisFramework {
    fn name(&self) -> &'static str {
        "Galois"
    }

    fn info(&self) -> FrameworkInfo {
        FrameworkInfo {
            name: "Galois",
            kind: "generic high-level library",
            data_structure: "outgoing and/or incoming edges",
            abstraction: "vertex, edge, or chunked-edges centric",
            synchronization: "level-synchronous or asynchronous",
            intended_users: "graph domain experts",
        }
    }

    fn algorithm(&self, kernel: Kernel) -> AlgorithmChoice {
        match kernel {
            Kernel::Bfs => AlgorithmChoice {
                async_variant: true,
                ..AlgorithmChoice::plain("Direction-optimizing")
            },
            Kernel::Sssp => AlgorithmChoice {
                async_variant: true,
                ..AlgorithmChoice::plain("Delta-stepping")
            },
            Kernel::Cc => AlgorithmChoice {
                async_variant: true,
                ..AlgorithmChoice::plain("Hybrid Afforest")
            },
            Kernel::Pr => AlgorithmChoice::plain("Gauss-Seidel SpMV"),
            Kernel::Bc => AlgorithmChoice {
                async_variant: true,
                ..AlgorithmChoice::plain("Brandes")
            },
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
        Box::new(Prepared::build(input, mode, true, pool))
    }

    fn prepare_kernel<'g>(
        &self,
        input: &'g BenchGraph,
        mode: Mode,
        kernel: Kernel,
        pool: &ThreadPool,
    ) -> Box<dyn PreparedKernels + 'g> {
        Box::new(Prepared::build(input, mode, kernel == Kernel::Tc, pool))
    }

    fn tuned(&self, input: &BenchGraph, kernel: Kernel) -> bool {
        let baseline = Config::for_mode(input, Mode::Baseline);
        let optimized = Config::for_mode(input, Mode::Optimized);
        match kernel {
            Kernel::Bfs | Kernel::Sssp | Kernel::Bc => baseline.style != optimized.style,
            Kernel::Cc => baseline.cc_variant != optimized.cc_variant,
            Kernel::Tc => baseline.tc_relabeling != optimized.tc_relabeling,
            Kernel::Pr => false,
        }
    }
}

/// What one mode picks for Galois: the execution style of BFS, SSSP and
/// BC, the Afforest variant of CC and where TC relabels. PR reads none of
/// it. [`Prepared::build`] and [`GaloisFramework::tuned`] both read this
/// one choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Config {
    style: ExecutionStyle,
    cc_variant: CcVariant,
    tc_relabeling: Relabeling,
}

impl Config {
    fn for_mode(input: &BenchGraph, mode: Mode) -> Self {
        match mode {
            // The degree-sampling heuristic guesses the diameter (wrongly
            // for Urand, §V); TC relabels inside the timed kernel.
            Mode::Baseline => Config {
                style: gapbs_galois::classify(&input.graph),
                cc_variant: CcVariant::VertexAfforest,
                tc_relabeling: Relabeling::HeuristicTimed,
            },
            // The team knows the diameter: async only for the genuinely
            // deep Road. TC relabels during preparation, outside the
            // timed region.
            Mode::Optimized => Config {
                style: if input.spec.high_diameter() {
                    ExecutionStyle::Asynchronous
                } else {
                    ExecutionStyle::BulkSynchronous
                },
                cc_variant: CcVariant::EdgeBlockedAfforest,
                tc_relabeling: Relabeling::AlreadyRelabeled,
            },
        }
    }
}

struct Prepared<'g> {
    input: &'g BenchGraph,
    config: Config,
    tc_graph: Option<Graph>,
    pool: ThreadPool,
}

impl<'g> Prepared<'g> {
    /// Picks the configuration for `mode`; relabels for Optimized TC only
    /// when `tc` may run.
    fn build(input: &'g BenchGraph, mode: Mode, tc: bool, pool: &ThreadPool) -> Self {
        let config = Config::for_mode(input, mode);
        let relabel = tc && config.tc_relabeling == Relabeling::AlreadyRelabeled;
        let tc_graph = relabel.then(|| {
            let _relabel = gapbs_telemetry::Span::enter(gapbs_telemetry::Phase::Relabel);
            gapbs_galois::tc::relabel_for_optimized(&input.sym_graph, pool)
        });
        Prepared {
            input,
            config,
            tc_graph,
            pool: pool.clone(),
        }
    }
}

impl PreparedKernels for Prepared<'_> {
    fn bfs(&self, source: NodeId) -> Vec<NodeId> {
        gapbs_galois::bfs(&self.input.graph, source, self.config.style, &self.pool)
    }

    fn sssp(&self, source: NodeId) -> Vec<Distance> {
        gapbs_galois::sssp(
            &self.input.wgraph,
            source,
            self.input.delta,
            self.config.style,
            &self.pool,
        )
    }

    fn pr(&self) -> (Vec<Score>, usize) {
        gapbs_galois::pr(
            &self.input.graph,
            PR_DAMPING,
            PR_TOLERANCE,
            PR_MAX_ITERS,
            &self.pool,
        )
    }

    fn cc(&self) -> Vec<NodeId> {
        gapbs_galois::cc(&self.input.graph, self.config.cc_variant, &self.pool)
    }

    fn bc(&self, sources: &[NodeId]) -> Vec<Score> {
        gapbs_galois::bc(&self.input.graph, sources, self.config.style, &self.pool)
    }

    fn tc(&self) -> u64 {
        let graph = self.tc_graph.as_ref().unwrap_or(&self.input.sym_graph);
        gapbs_galois::tc(graph, self.config.tc_relabeling, &self.pool)
    }
}
