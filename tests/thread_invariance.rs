//! Thread-count invariance of every framework's answers on one
//! symmetrized Kron graph.
//!
//! * the reference suite is bit-identical at every thread count (its
//!   kernels are deterministic by construction, PR and BC float bits
//!   included),
//! * every other framework's deterministic outputs (depths, distances,
//!   partitions, triangle counts) at every thread count equal its own
//!   one-thread outputs; their parallel PR and BC may legally reorder
//!   float accumulation, so those are compared against the oracles in
//!   `tests/cross_framework.rs` instead.

use gapbs::galois;
use gapbs::gap_ref::{self, depths_from_parents};
use gapbs::gkc;
use gapbs::graph::gen::{self, GraphSpec};
use gapbs::graph::types::{Distance, NodeId};
use gapbs::graph::{Builder, Graph, WGraph, Weight};
use gapbs::graphit;
use gapbs::nwgraph::{self, InRange, OutRange, WeightedOutRange};
use gapbs::parallel::ThreadPool;
use gapbs::suitesparse::lagraph::{self, LaGraphContext};
use std::collections::HashMap;

/// Pool sizes crossing the parallel cutoffs from both sides.
const THREAD_COUNTS: [usize; 4] = [1, 2, 7, 16];
const SCALE: u32 = 9;
const DEGREE: usize = 8;
const SSSP_DELTA: Weight = 32;
const BC_SOURCES: [NodeId; 3] = [0, 7, 13];

/// A symmetrized Kron graph and its weighted twin.
fn build_graphs() -> (Graph, WGraph) {
    let edges = gen::kron_edges(SCALE, DEGREE, GraphSpec::Kron.seed());
    let wedges = gen::with_uniform_weights(&edges, GraphSpec::Kron.seed());
    let builder = || Builder::new().num_vertices(1 << SCALE).symmetrize(true);
    (
        builder().build(edges).unwrap(),
        builder().build_weighted(wedges).unwrap(),
    )
}

/// Relabels component ids to the smallest vertex in each component, so
/// two label arrays compare equal iff they induce the same partition.
fn canonical_partition(labels: &[NodeId]) -> Vec<NodeId> {
    let mut smallest: HashMap<NodeId, NodeId> = HashMap::new();
    for (v, &l) in labels.iter().enumerate() {
        smallest
            .entry(l)
            .and_modify(|m| *m = (*m).min(v as NodeId))
            .or_insert(v as NodeId);
    }
    labels.iter().map(|l| smallest[l]).collect()
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Canonical outputs of the six reference kernels.
#[derive(PartialEq, Debug)]
struct RefOutputs {
    bfs_depths: Vec<u32>,
    sssp_dists: Vec<Distance>,
    pr_bits: Vec<u64>,
    cc_canonical: Vec<NodeId>,
    bc_bits: Vec<u64>,
    triangles: u64,
}

fn ref_suite(g: &Graph, wg: &WGraph, pool: &ThreadPool) -> RefOutputs {
    RefOutputs {
        bfs_depths: depths_from_parents(&gap_ref::bfs(g, 0, pool)),
        sssp_dists: gap_ref::sssp(wg, 0, SSSP_DELTA, pool),
        pr_bits: bits(&gap_ref::pr(g, pool).scores),
        cc_canonical: canonical_partition(&gap_ref::cc(g, pool)),
        bc_bits: bits(&gap_ref::bc(g, &BC_SOURCES, pool)),
        triangles: gap_ref::tc(g, pool),
    }
}

#[test]
fn ref_suite_bit_identical_across_threads() {
    let (g, wg) = build_graphs();
    let reference = ref_suite(&g, &wg, &ThreadPool::new(1));
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        assert_eq!(
            ref_suite(&g, &wg, &pool),
            reference,
            "ref suite at {threads} threads"
        );
    }
}

/// The deterministic outputs of a framework: exact answers at any
/// thread count, even for frameworks whose float accumulation races.
#[derive(PartialEq, Debug)]
struct StableOutputs {
    bfs_depths: Vec<u32>,
    sssp_dists: Vec<Distance>,
    cc_canonical: Vec<NodeId>,
    triangles: u64,
}

fn gkc_suite(g: &Graph, wg: &WGraph, pool: &ThreadPool) -> StableOutputs {
    StableOutputs {
        bfs_depths: depths_from_parents(&gkc::bfs(g, 0, pool)),
        sssp_dists: gkc::sssp(wg, 0, SSSP_DELTA, pool),
        cc_canonical: canonical_partition(&gkc::cc(g, pool)),
        triangles: gkc::tc(g, pool),
    }
}

fn galois_suite(g: &Graph, wg: &WGraph, pool: &ThreadPool) -> StableOutputs {
    use galois::cc::CcVariant;
    use galois::tc::Relabeling;
    use galois::ExecutionStyle;
    let style = ExecutionStyle::BulkSynchronous;
    StableOutputs {
        bfs_depths: depths_from_parents(&galois::bfs(g, 0, style, pool)),
        sssp_dists: galois::sssp(wg, 0, SSSP_DELTA, style, pool),
        cc_canonical: canonical_partition(&galois::cc(g, CcVariant::VertexAfforest, pool)),
        triangles: galois::tc(g, Relabeling::HeuristicTimed, pool),
    }
}

fn graphit_suite(g: &Graph, wg: &WGraph, pool: &ThreadPool) -> StableOutputs {
    use graphit::{Intersection, Schedule};
    let sched = Schedule::baseline();
    StableOutputs {
        bfs_depths: depths_from_parents(&graphit::bfs(g, 0, &sched, pool)),
        sssp_dists: graphit::sssp(wg, 0, SSSP_DELTA, sched.bucket_fusion, pool),
        cc_canonical: canonical_partition(&graphit::cc(g, false, pool)),
        triangles: graphit::tc(g, Intersection::Merge, pool),
    }
}

fn nwgraph_suite(g: &Graph, wg: &WGraph, pool: &ThreadPool) -> StableOutputs {
    let out = OutRange(g);
    let inc = InRange(g);
    StableOutputs {
        bfs_depths: depths_from_parents(&nwgraph::bfs(&out, &inc, 0, pool)),
        sssp_dists: nwgraph::sssp(&WeightedOutRange(wg), 0, SSSP_DELTA, pool),
        cc_canonical: canonical_partition(&nwgraph::cc(&out, pool)),
        triangles: nwgraph::tc(&out, pool),
    }
}

fn grb_suite(g: &Graph, wg: &WGraph, pool: &ThreadPool) -> StableOutputs {
    let ctx = LaGraphContext::from_wgraph(g, wg);
    StableOutputs {
        bfs_depths: depths_from_parents(&lagraph::bfs(&ctx, 0, pool)),
        sssp_dists: lagraph::sssp(&ctx, 0, SSSP_DELTA, pool),
        cc_canonical: canonical_partition(&lagraph::cc(&ctx, pool)),
        triangles: lagraph::tc(&ctx, pool),
    }
}

type Suite = (
    &'static str,
    fn(&Graph, &WGraph, &ThreadPool) -> StableOutputs,
);

fn framework_suites() -> [Suite; 5] {
    [
        ("gkc", gkc_suite),
        ("galois", galois_suite),
        ("graphit", graphit_suite),
        ("nwgraph", nwgraph_suite),
        ("grb", grb_suite),
    ]
}

/// Parallel runs may legally reorder float accumulation (PR, BC), but
/// depths, distances, partitions, and triangle counts are exact answers
/// and must not depend on the thread count.
#[test]
fn frameworks_stable_outputs_match_single_thread_at_all_thread_counts() {
    let (g, wg) = build_graphs();
    let single = ThreadPool::new(1);
    for (name, suite) in framework_suites() {
        let reference = suite(&g, &wg, &single);
        for threads in THREAD_COUNTS {
            let pool = ThreadPool::new(threads);
            assert_eq!(
                suite(&g, &wg, &pool),
                reference,
                "{name}: deterministic outputs at {threads} threads differ from 1 thread"
            );
        }
    }
}
