//! MS-BFS work counts are a function of graph and sources alone.
//!
//! Each level's frontier window is the same vertex set at every thread
//! count, so the edges it scans and the levels it runs must be too. The
//! counter registry is process-global: the work runs inside [`capture`],
//! and this binary holds nothing else, so no other test's kernels land
//! in the window.

use gapbs_graph::gen::{GraphSpec, Scale};
use gapbs_graph::types::NodeId;
use gapbs_parallel::ThreadPool;
use gapbs_telemetry::{capture, Counter};

#[test]
fn ms_bfs_work_does_not_depend_on_the_thread_count() {
    for spec in [GraphSpec::Kron, GraphSpec::Road, GraphSpec::Twitter] {
        let g = spec.generate(Scale::Tiny);
        let n = g.num_vertices();
        // Two sweeps: a full word and a partial second one.
        let sources: Vec<NodeId> = (0..70).map(|i| ((i * 97 + 5) % n) as NodeId).collect();
        let counts: Vec<(u64, u64)> = [1, 2, 7]
            .into_iter()
            .map(|threads| {
                let pool = ThreadPool::new(threads);
                let (_, counters) = capture(|| gapbs_ref::ms_bfs(&g, &sources, &pool));
                (
                    counters.get(Counter::EdgesExamined),
                    counters.get(Counter::Iterations),
                )
            })
            .collect();
        assert!(
            counts[0].0 > 0 && counts[0].1 > 0,
            "{spec:?}: no work counted"
        );
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{spec:?}: (edges, levels) at threads 1, 2, 7 = {counts:?}"
        );
    }
}
