//! MS-BFS work counts are a function of graph and sources alone.
//!
//! Each level's frontier window is the same vertex set at every thread
//! count, and the push/pull choice reads only that window's out-degree
//! sum, so the edges a sweep scans, the levels it runs and its direction
//! switches must be too. The counter registry is process-global: the work
//! runs inside [`capture`], and this binary holds nothing else, so no
//! other test's kernels land in the window.

use gapbs_graph::gen::{GraphSpec, Scale};
use gapbs_graph::types::NodeId;
use gapbs_graph::Graph;
use gapbs_parallel::ThreadPool;
use gapbs_telemetry::{capture, Counter};

/// `(edges_examined, iterations, direction_switches)` of one MS-BFS.
type Work = (u64, u64, u64);

fn work(g: &Graph, sources: &[NodeId], threads: usize) -> Work {
    let pool = ThreadPool::new(threads);
    let (_, counters) = capture(|| gapbs_ref::ms_bfs(g, sources, &pool));
    (
        counters.get(Counter::EdgesExamined),
        counters.get(Counter::Iterations),
        counters.get(Counter::DirectionSwitches),
    )
}

#[test]
fn ms_bfs_work_does_not_depend_on_the_thread_count() {
    for spec in [GraphSpec::Kron, GraphSpec::Road, GraphSpec::Twitter] {
        let g = spec.generate(Scale::Tiny);
        let n = g.num_vertices();
        // Two sweeps: a full word and a partial second one.
        let sources: Vec<NodeId> = (0..70).map(|i| ((i * 97 + 5) % n) as NodeId).collect();
        let counts: Vec<Work> = [1, 2, 7].map(|threads| work(&g, &sources, threads)).into();
        assert!(
            counts[0].0 > 0 && counts[0].1 > 0,
            "{spec:?}: no work counted"
        );
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{spec:?}: (edges, levels, switches) at threads 1, 2, 7 = {counts:?}"
        );
    }
}

/// Exact work of one fixed 64-source line per corpus graph at
/// `Scale::Small`. The counts are a property of the algorithm, not of
/// the host: a change to any of them is a change to what MS-BFS does and
/// must be an explicit, explained edit of this table. The push-only
/// kernel that preceded the per-level direction choice counted, for the
/// same lines: Web (236 643, 124, 0), Twitter (181 813, 7, 0), Road
/// (418 620, 125, 0), Kron (375 380, 8, 0), Urand (424 535, 6, 0).
const SMALL_GOLDEN: [(GraphSpec, Work); 5] = [
    (GraphSpec::Web, (275_230, 124, 2)),
    (GraphSpec::Twitter, (142_447, 7, 2)),
    (GraphSpec::Road, (638_927, 125, 2)),
    (GraphSpec::Kron, (322_400, 8, 2)),
    (GraphSpec::Urand, (349_595, 6, 2)),
];

/// 64 sources spread over the vertices with outgoing edges.
fn golden_sources(g: &Graph) -> Vec<NodeId> {
    let candidates: Vec<NodeId> = g.vertices().filter(|&u| g.out_degree(u) > 0).collect();
    (0..64)
        .map(|i| candidates[(i * 97 + 5) % candidates.len()])
        .collect()
}

#[test]
fn ms_bfs_work_matches_the_small_golden() {
    for (spec, golden) in SMALL_GOLDEN {
        let g = spec.generate(Scale::Small);
        let sources = golden_sources(&g);
        let at: Vec<Work> = [1, 2, 7].map(|threads| work(&g, &sources, threads)).into();
        assert!(
            at.iter().all(|&w| w == at[0]),
            "{spec:?}: (edges, levels, switches) at threads 1, 2, 7 = {at:?}"
        );
        assert_eq!(at[0], golden, "{spec:?}: (edges, levels, switches)");
    }
}
