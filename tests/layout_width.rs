//! Cross-width layout properties: the compact `u32`-offset CSR and the
//! wide `usize`-offset fallback must be indistinguishable through every
//! kernel of every framework.
//!
//! The layout engine's contract is that offset width is a *storage*
//! decision, never an *answer* decision. These tests hold that line:
//!
//! * the reference suite is bit-identical across widths at every thread
//!   count (its kernels are deterministic by construction),
//! * every other framework is bit-identical across widths at one thread
//!   (identical instruction order ⇒ identical float rounding), and
//!   width-invariant in its deterministic outputs (depths, distances,
//!   partitions, triangle counts) at every thread count,
//! * the `force_wide` fallback produces the wide variant and the same
//!   answers, at a strictly larger footprint.

use gapbs::galois;
use gapbs::gap_ref::{self, depths_from_parents, PR_DAMPING, PR_MAX_ITERS, PR_TOLERANCE};
use gapbs::gkc;
use gapbs::graph::gen::{self, GraphSpec};
use gapbs::graph::types::{Distance, NodeId};
use gapbs::graph::{AnyGraph, Builder, Graph, OffsetIndex, WGraph, Weight};
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

/// Both widths of the same symmetrized Kron graph, plus weights.
struct Widths {
    narrow: Graph<u32>,
    wide: Graph<usize>,
    wnarrow: WGraph<u32>,
    wwide: WGraph<usize>,
}

fn build_widths() -> Widths {
    let edges = gen::kron_edges(SCALE, DEGREE, GraphSpec::Kron.seed());
    let wedges = gen::with_uniform_weights(&edges, GraphSpec::Kron.seed());
    let builder = || Builder::new().num_vertices(1 << SCALE).symmetrize(true);
    Widths {
        narrow: builder().build(edges.clone()).unwrap(),
        wide: builder().build_as::<usize>(edges).unwrap(),
        wnarrow: builder().build_weighted(wedges.clone()).unwrap(),
        wwide: builder().build_weighted_as::<usize>(wedges).unwrap(),
    }
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

/// Width-independent canonical outputs of the six reference kernels.
#[derive(PartialEq, Debug)]
struct RefOutputs {
    bfs_depths: Vec<u32>,
    sssp_dists: Vec<Distance>,
    pr_bits: Vec<u64>,
    cc_canonical: Vec<NodeId>,
    bc_bits: Vec<u64>,
    triangles: u64,
}

fn ref_suite<O: OffsetIndex>(g: &Graph<O>, wg: &WGraph<O>, pool: &ThreadPool) -> RefOutputs {
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
fn ref_suite_bit_identical_across_widths_and_threads() {
    let w = build_widths();
    let reference = ref_suite(&w.narrow, &w.wnarrow, &ThreadPool::new(1));
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        assert_eq!(
            ref_suite(&w.narrow, &w.wnarrow, &pool),
            reference,
            "narrow suite at {threads} threads"
        );
        assert_eq!(
            ref_suite(&w.wide, &w.wwide, &pool),
            reference,
            "wide suite at {threads} threads"
        );
    }
}

/// Per-framework kernel outputs captured exactly (score bits included).
#[derive(PartialEq, Debug)]
struct ExactOutputs {
    bfs_depths: Vec<u32>,
    sssp_dists: Vec<Distance>,
    pr_bits: Vec<u64>,
    cc_canonical: Vec<NodeId>,
    bc_bits: Vec<u64>,
    triangles: u64,
}

/// The deterministic subset: invariant across widths at any thread
/// count, even for frameworks whose float accumulation order races.
#[derive(PartialEq, Debug)]
struct StableOutputs {
    bfs_depths: Vec<u32>,
    sssp_dists: Vec<Distance>,
    cc_canonical: Vec<NodeId>,
    triangles: u64,
}

impl ExactOutputs {
    fn stable(&self) -> StableOutputs {
        StableOutputs {
            bfs_depths: self.bfs_depths.clone(),
            sssp_dists: self.sssp_dists.clone(),
            cc_canonical: self.cc_canonical.clone(),
            triangles: self.triangles,
        }
    }
}

fn gkc_suite<O: OffsetIndex>(g: &Graph<O>, wg: &WGraph<O>, pool: &ThreadPool) -> ExactOutputs {
    ExactOutputs {
        bfs_depths: depths_from_parents(&gkc::bfs(g, 0, pool)),
        sssp_dists: gkc::sssp(wg, 0, SSSP_DELTA, pool),
        pr_bits: bits(&gkc::pr(g, PR_DAMPING, PR_TOLERANCE, PR_MAX_ITERS, pool).0),
        cc_canonical: canonical_partition(&gkc::cc(g, pool)),
        bc_bits: bits(&gkc::bc(g, &BC_SOURCES, pool)),
        triangles: gkc::tc(g, pool),
    }
}

fn galois_suite<O: OffsetIndex>(g: &Graph<O>, wg: &WGraph<O>, pool: &ThreadPool) -> ExactOutputs {
    use galois::cc::CcVariant;
    use galois::tc::Relabeling;
    use galois::ExecutionStyle;
    let style = ExecutionStyle::BulkSynchronous;
    ExactOutputs {
        bfs_depths: depths_from_parents(&galois::bfs(g, 0, style, pool)),
        sssp_dists: galois::sssp(wg, 0, SSSP_DELTA, style, pool),
        pr_bits: bits(&galois::pr(g, PR_DAMPING, PR_TOLERANCE, PR_MAX_ITERS, pool).0),
        cc_canonical: canonical_partition(&galois::cc(g, CcVariant::VertexAfforest, pool)),
        bc_bits: bits(&galois::bc(g, &BC_SOURCES, style, pool)),
        triangles: galois::tc(g, Relabeling::HeuristicTimed, pool),
    }
}

fn graphit_suite<O: OffsetIndex>(g: &Graph<O>, wg: &WGraph<O>, pool: &ThreadPool) -> ExactOutputs {
    use graphit::{FrontierLayout, Intersection, Schedule};
    let sched = Schedule::baseline();
    ExactOutputs {
        bfs_depths: depths_from_parents(&graphit::bfs(g, 0, &sched, pool)),
        sssp_dists: graphit::sssp(wg, 0, SSSP_DELTA, sched.bucket_fusion, pool),
        pr_bits: bits(&graphit::pr(g, PR_DAMPING, PR_TOLERANCE, PR_MAX_ITERS, false, pool).0),
        cc_canonical: canonical_partition(&graphit::cc(g, false, pool)),
        bc_bits: bits(&graphit::bc(
            g,
            &BC_SOURCES,
            FrontierLayout::BitVector,
            pool,
        )),
        triangles: graphit::tc(g, Intersection::Merge, pool),
    }
}

fn nwgraph_suite<O: OffsetIndex>(g: &Graph<O>, wg: &WGraph<O>, pool: &ThreadPool) -> ExactOutputs {
    let out = OutRange(g);
    let inc = InRange(g);
    ExactOutputs {
        bfs_depths: depths_from_parents(&nwgraph::bfs(&out, &inc, 0, pool)),
        sssp_dists: nwgraph::sssp(&WeightedOutRange(wg), 0, SSSP_DELTA, pool),
        pr_bits: bits(&nwgraph::pr(&out, &inc, PR_DAMPING, PR_TOLERANCE, PR_MAX_ITERS, pool).0),
        cc_canonical: canonical_partition(&nwgraph::cc(&out, pool)),
        bc_bits: bits(&nwgraph::bc(&out, &BC_SOURCES, pool)),
        triangles: nwgraph::tc(&out, pool),
    }
}

fn grb_suite<O: OffsetIndex>(g: &Graph<O>, wg: &WGraph<O>, pool: &ThreadPool) -> ExactOutputs {
    let ctx = LaGraphContext::from_wgraph(g, wg);
    ExactOutputs {
        bfs_depths: depths_from_parents(&lagraph::bfs(&ctx, 0, pool)),
        sssp_dists: lagraph::sssp(&ctx, 0, SSSP_DELTA, pool),
        pr_bits: bits(&lagraph::pr(&ctx, PR_DAMPING, PR_TOLERANCE, PR_MAX_ITERS, pool).0),
        cc_canonical: canonical_partition(&lagraph::cc(&ctx, pool)),
        bc_bits: bits(&lagraph::bc(&ctx, &BC_SOURCES, pool)),
        triangles: lagraph::tc(&ctx, pool),
    }
}

type Suite = (
    &'static str,
    fn(&Graph<u32>, &WGraph<u32>, &ThreadPool) -> ExactOutputs,
    fn(&Graph<usize>, &WGraph<usize>, &ThreadPool) -> ExactOutputs,
);

fn framework_suites() -> Vec<Suite> {
    vec![
        ("gkc", gkc_suite::<u32>, gkc_suite::<usize>),
        ("galois", galois_suite::<u32>, galois_suite::<usize>),
        ("graphit", graphit_suite::<u32>, graphit_suite::<usize>),
        ("nwgraph", nwgraph_suite::<u32>, nwgraph_suite::<usize>),
        ("grb", grb_suite::<u32>, grb_suite::<usize>),
    ]
}

/// At one thread the instruction order is the same on both layouts, so
/// even racy-accumulation frameworks must match to the last float bit.
#[test]
fn frameworks_bit_identical_across_widths_single_thread() {
    let w = build_widths();
    let pool = ThreadPool::new(1);
    for (name, narrow_suite, wide_suite) in framework_suites() {
        assert_eq!(
            narrow_suite(&w.narrow, &w.wnarrow, &pool),
            wide_suite(&w.wide, &w.wwide, &pool),
            "{name}: single-thread outputs diverged across offset widths"
        );
    }
}

/// Parallel runs may legally reorder float accumulation (PR, BC), but
/// depths, distances, partitions, and triangle counts are exact answers
/// and must never depend on the offset width.
#[test]
fn frameworks_stable_outputs_width_invariant_at_all_thread_counts() {
    let w = build_widths();
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        for (name, narrow_suite, wide_suite) in framework_suites() {
            assert_eq!(
                narrow_suite(&w.narrow, &w.wnarrow, &pool).stable(),
                wide_suite(&w.wide, &w.wwide, &pool).stable(),
                "{name}: deterministic outputs diverged across widths at {threads} threads"
            );
        }
    }
}

/// `force_wide` must route `build_any` onto the wide path, cost strictly
/// more bytes, and change nothing about the answers.
#[test]
fn forced_wide_fallback_matches_narrow() {
    let edges = gen::kron_edges(SCALE, DEGREE, GraphSpec::Kron.seed());
    let builder = || Builder::new().num_vertices(1 << SCALE).symmetrize(true);

    let narrow = match builder().build_any(edges.clone()).unwrap() {
        AnyGraph::Narrow(g) => g,
        AnyGraph::Wide(_) => panic!("small graph must take the compact path"),
    };
    let wide = match builder().force_wide(true).build_any(edges).unwrap() {
        AnyGraph::Wide(g) => g,
        AnyGraph::Narrow(_) => panic!("force_wide must take the wide path"),
    };

    assert!(
        narrow.graph_bytes() < wide.graph_bytes(),
        "compact layout must be smaller: {} vs {} bytes",
        narrow.graph_bytes(),
        wide.graph_bytes()
    );

    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        assert_eq!(
            depths_from_parents(&gap_ref::bfs(&narrow, 0, &pool)),
            depths_from_parents(&gap_ref::bfs(&wide, 0, &pool)),
            "bfs depths at {threads} threads"
        );
        assert_eq!(
            bits(&gap_ref::pr(&narrow, &pool).scores),
            bits(&gap_ref::pr(&wide, &pool).scores),
            "pr score bits at {threads} threads"
        );
        assert_eq!(
            canonical_partition(&gap_ref::cc(&narrow, &pool)),
            canonical_partition(&gap_ref::cc(&wide, &pool)),
            "cc partition at {threads} threads"
        );
        assert_eq!(
            gap_ref::tc(&narrow, &pool),
            gap_ref::tc(&wide, &pool),
            "triangle count at {threads} threads"
        );
        assert_eq!(
            bits(&gap_ref::bc(&narrow, &BC_SOURCES, &pool)),
            bits(&gap_ref::bc(&wide, &BC_SOURCES, &pool)),
            "bc score bits at {threads} threads"
        );
    }
}
