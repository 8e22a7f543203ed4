//! Work-claim tests: the paper's qualitative findings stated over the
//! always-on work counters instead of wall time, so they hold on any
//! machine at any load.
//!
//! The counter registry is process-global. Every test here runs its
//! kernels inside [`capture`], which serializes captures, and this binary
//! holds nothing else, so no test's work lands in another's window.

use gapbs::core::BenchGraph;
use gapbs::graph::gen::{GraphSpec, Scale};
use gapbs::parallel::ThreadPool;
use gapbs_telemetry::{capture, Counter};

/// §V-D: Gauss–Seidel's advantage is fewer PageRank sweeps, not faster
/// sweeps.
#[test]
fn gauss_seidel_pr_records_fewer_sweeps_than_jacobi() {
    let g = GraphSpec::Road.generate(Scale::Tiny);
    let pool = ThreadPool::new(1);
    let config = gapbs::gap_ref::pr::PrConfig {
        damping: 0.85,
        tolerance: 1e-7,
        max_iters: 500,
    };
    let (_, jacobi) = capture(|| gapbs::gap_ref::pr::pr_with_config(&g, &pool, &config));
    let (_, gs) = capture(|| gapbs::galois::pr(&g, 0.85, 1e-7, 500, &pool));
    let (j, s) = (
        jacobi.get(Counter::PrIterations),
        gs.get(Counter::PrIterations),
    );
    assert!(
        j > 0 && s > 0,
        "both runs must count sweeps (jacobi={j}, gauss-seidel={s})"
    );
    assert!(s < j, "gauss-seidel counted {s} sweeps, jacobi {j}");
}

/// §V-A: direction optimization's whole point is that the pull phase
/// stops scanning a vertex's row at the first visited parent, so a DO-BFS
/// on a low-diameter power-law graph examines fewer than m edges — where
/// a pure top-down BFS must examine all m reachable arcs.
#[test]
fn direction_optimizing_bfs_examines_under_m_edges_on_kron() {
    let g = GraphSpec::Kron.generate(Scale::Tiny);
    let pool = ThreadPool::new(1);
    // Kron leaves many vertices isolated; start from the densest one.
    let source = (0..g.num_vertices() as u32)
        .max_by_key(|&u| g.out_degree(u))
        .expect("non-empty graph");
    let (_, counters) = capture(|| gapbs::gap_ref::bfs::bfs(&g, source, &pool));
    let examined = counters.get(Counter::EdgesExamined);
    let m = g.num_arcs() as u64;
    assert!(examined > 0, "DO-BFS must count examined edges");
    assert!(
        examined < m,
        "DO-BFS examined {examined} edges, expected fewer than m = {m}"
    );
    assert!(
        counters.get(Counter::DirectionSwitches) >= 2,
        "kron should trigger at least one push->pull->push round trip"
    );
}

/// §V-F: the marked-row engine spends one probe per adjacency element
/// read plus one per mark set, so `tc_intersections` is a property of the
/// graph, not of the schedule — it repeats exactly at any thread count
/// and is the same for GAP and GKC (same orientation).
#[test]
fn marked_row_tc_work_is_exact_at_any_thread_count() {
    let g = BenchGraph::generate(GraphSpec::Kron, Scale::Tiny).sym_graph;
    let probes = |tc: &dyn Fn(&ThreadPool) -> u64, threads: usize| {
        let pool = ThreadPool::new(threads);
        let (triangles, counters) = capture(|| tc(&pool));
        let probes = counters.get(Counter::TcIntersections);
        assert!(probes > 0 && probes <= counters.get(Counter::EdgesExamined));
        (triangles, probes)
    };
    let gap = |pool: &ThreadPool| gapbs::gap_ref::tc(&g, pool);
    let gkc = |pool: &ThreadPool| gapbs::gkc::tc(&g, pool);
    let serial = probes(&gap, 1);
    for threads in [2, 7, 16] {
        assert_eq!(probes(&gap, threads), serial, "GAP @ {threads} threads");
        assert_eq!(probes(&gkc, threads), serial, "GKC @ {threads} threads");
    }
}

/// Edge counts of deterministic traversals are exact at any thread count:
/// the per-chunk and per-worker records sum to the same totals whichever
/// worker ran which chunk.
#[test]
fn edge_counts_do_not_depend_on_the_thread_count() {
    use gapbs::graphit::{Intersection, Schedule};
    let g = BenchGraph::generate(GraphSpec::Kron, Scale::Tiny).sym_graph;
    let source = (0..g.num_vertices() as u32)
        .max_by_key(|&u| g.out_degree(u))
        .expect("non-empty graph");
    let counts = |threads: usize| {
        let pool = ThreadPool::new(threads);
        let edges = |run: &dyn Fn()| capture(run).1.get(Counter::EdgesExamined);
        [
            edges(&|| {
                gapbs::gap_ref::bfs(&g, source, &pool);
            }),
            edges(&|| {
                gapbs::graphit::bfs(&g, source, &Schedule::baseline(), &pool);
            }),
            edges(&|| {
                gapbs::graphit::tc(&g, Intersection::Merge, &pool);
            }),
            edges(&|| {
                gapbs::graphit::tc(&g, Intersection::Naive, &pool);
            }),
        ]
    };
    let serial = counts(1);
    assert!(serial.iter().all(|&e| e > 0), "{serial:?}");
    for threads in [2, 7] {
        assert_eq!(counts(threads), serial, "{threads} threads");
    }
}

/// Table III: direction optimization pays on low-diameter graphs. A
/// served 64-source MS-BFS line pulls its wide levels on Kron and Urand
/// and stays push-only on Road, and its work repeats exactly at any
/// thread count. Road is checked at `Scale::Medium`: at `Small`, 64
/// sources on a 4 096-vertex lattice give one level close to half a pull
/// sweep's worth of out-arcs, and pulling that level is the right call.
#[test]
fn ms_bfs_pulls_wide_levels_only_on_low_diameter_graphs() {
    use gapbs::core::spec::SourcePicker;
    for (spec, scale, pulls) in [
        (GraphSpec::Kron, Scale::Small, true),
        (GraphSpec::Urand, Scale::Small, true),
        (GraphSpec::Road, Scale::Medium, false),
    ] {
        let bench = BenchGraph::generate(spec, scale);
        let sources =
            SourcePicker::from_candidates(bench.source_candidates.clone(), 7).next_sources(64);
        let work = |threads: usize| {
            let pool = ThreadPool::new(threads);
            let (_, counters) = capture(|| gapbs::gap_ref::ms_bfs(&bench.graph, &sources, &pool));
            (
                counters.get(Counter::EdgesExamined),
                counters.get(Counter::Iterations),
                counters.get(Counter::DirectionSwitches),
            )
        };
        let serial = work(1);
        let switches = serial.2;
        if pulls {
            assert!(switches >= 2, "{spec:?}: {switches} direction switches");
        } else {
            assert_eq!(switches, 0, "{spec:?} pulled");
        }
        for threads in [2, 7] {
            assert_eq!(work(threads), serial, "{spec:?} @ {threads} threads");
        }
    }
}

/// §V-F and GAP's `WorthRelabelling`: relabeling by descending degree
/// bounds the oriented degree, which cuts the marked-row engine's
/// intersection work by at least 1.8× on every graph the heuristic
/// relabels, and saves under 5 % on flat Urand, where it declines.
#[test]
fn relabeling_cuts_tc_work_where_the_heuristic_relabels() {
    use gapbs::gap_ref::tc::worth_relabeling;
    use gapbs::graph::intersect::count_triangles;
    use gapbs::parallel::Schedule;
    let mut relabeled = 0;
    for spec in GraphSpec::TABLE_ORDER {
        let g = BenchGraph::generate(spec, Scale::Small).sym_graph;
        for threads in [1, 2] {
            let pool = ThreadPool::new(threads);
            let plain = count_triangles(&g, false, &pool, Schedule::Dynamic(64));
            let oriented = count_triangles(&g, true, &pool, Schedule::Dynamic(64));
            assert_eq!(plain.count, oriented.count, "{spec:?} @ {threads} threads");
            let cut = plain.comparisons as f64 / oriented.comparisons as f64;
            let what = format!(
                "{spec:?} @ {threads} threads: {} → {} comparisons",
                plain.comparisons, oriented.comparisons
            );
            if worth_relabeling(&g) {
                assert!(cut >= 1.8, "relabeling cut only {cut:.2}×, {what}");
            }
            if spec == GraphSpec::Urand {
                assert!(cut < 1.05, "relabeling saved {cut:.3}× on Urand, {what}");
            }
        }
        relabeled += usize::from(worth_relabeling(&g));
    }
    assert!(relabeled > 0, "the heuristic relabeled no Small graph");
}

/// §V-B, GraphIt's bucket fusion: a bucket drain of at most 512 vertices
/// runs inline on the coordinating thread. Road's delta-stepping
/// frontiers never outgrow that, so GAP SSSP on Road drains thousands of
/// buckets without launching a single parallel region, while Kron's wide
/// buckets still fan out to the pool.
#[test]
fn bucket_fusion_keeps_road_sssp_off_the_pool() {
    for (spec, fused) in [(GraphSpec::Road, true), (GraphSpec::Kron, false)] {
        let bench = BenchGraph::generate(spec, Scale::Small);
        let source = bench.source_candidates[0];
        for threads in [2, 7] {
            let pool = ThreadPool::new(threads);
            let (_, counters) =
                capture(|| gapbs::gap_ref::sssp(&bench.wgraph, source, bench.delta, &pool));
            let drains = counters.get(Counter::Iterations);
            // The pool's own count: other tests' graph generation launches
            // regions on their pools outside any capture.
            let regions = pool.stats().regions;
            let what = format!("{spec:?} @ {threads} threads: {regions} regions, {drains} drains");
            if fused {
                assert!(drains > 1000 && regions == 0, "{what}");
            } else {
                assert!(regions >= 1, "{what}");
            }
        }
    }
}

/// The GAP spec's Optimized rules: a framework that does not tune a cell
/// reports its Baseline. Wherever `Framework::tuned` says the Optimized
/// rules change nothing, preparing and running the kernel under either
/// rule set counts exactly the same work.
#[test]
fn untuned_optimized_cells_repeat_their_baseline_work() {
    use gapbs::core::{all_frameworks, Kernel, Mode};
    // Every pool and graph build in the process counts these, so other
    // tests' set-up outside any capture can land in this one's window;
    // this pool's own regions come from its stats instead.
    const SHARED: [Counter; 6] = [
        Counter::PoolWorkerSpawns,
        Counter::PoolRegions,
        Counter::PoolSteals,
        Counter::PoolParks,
        Counter::BuildEdgesScattered,
        Counter::BuildDupsDropped,
    ];
    let pool = ThreadPool::new(1);
    let mut checked = 0;
    for spec in GraphSpec::TABLE_ORDER {
        let bench = BenchGraph::generate(spec, Scale::Tiny);
        let source = bench.source_candidates[0];
        let sources = &bench.source_candidates[..4];
        for framework in all_frameworks() {
            for kernel in Kernel::ALL {
                if framework.tuned(&bench, kernel) {
                    continue;
                }
                let work = |mode: Mode| {
                    let regions = pool.stats().regions;
                    let ((), counters) = capture(|| {
                        let prepared = framework.prepare_kernel(&bench, mode, kernel, &pool);
                        let _ = match kernel {
                            Kernel::Bfs => prepared.bfs(source).len(),
                            Kernel::Sssp => prepared.sssp(source).len(),
                            Kernel::Pr => prepared.pr().1,
                            Kernel::Cc => prepared.cc().len(),
                            Kernel::Bc => prepared.bc(sources).len(),
                            Kernel::Tc => prepared.tc() as usize,
                        };
                    });
                    let counts: Vec<u64> = Counter::ALL
                        .into_iter()
                        .filter(|c| !SHARED.contains(c))
                        .map(|c| counters.get(c))
                        .collect();
                    (counts, pool.stats().regions - regions)
                };
                let what = format!("{} {kernel} {spec:?}", framework.name());
                let baseline = work(Mode::Baseline);
                assert!(baseline.0.iter().any(|&c| c > 0), "{what}");
                assert_eq!(work(Mode::Optimized), baseline, "{what}");
                checked += 1;
            }
        }
    }
    assert!(checked >= 4 * 6 * 5, "only {checked} untuned cells");
}
