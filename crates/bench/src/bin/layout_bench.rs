//! Layout-engine microbenchmark: compact u32-offset CSR + marked-row
//! intersection + degree-aware strips vs the legacy wide layout.
//!
//! Builds one symmetrized Kron graph twice — compact (`Graph<u32>`) and
//! wide (`Graph<usize>`, the pre-layout-engine offset width) — and first
//! proves the layout cannot change answers: all six reference kernels run
//! on both layouts at thread counts {1, 2, 7, 16} and every canonical
//! output (BFS depths, SSSP distances, PageRank score *bits*, CC
//! partition, BC score *bits*, triangle count) must be bit-identical to
//! the 1-thread compact run. Only then does it time the three
//! layout-bound kernels at `--threads`, pitting the optimized arm
//! (compact offsets, marked rows over a degree-oriented DAG, LLC-sized
//! pull strips) against a faithful legacy arm (wide offsets, scalar
//! two-pointer merge, fixed-width per-vertex scheduling):
//!
//! - **tc**: oriented prefix intersection — the marked-row engine vs
//!   `intersect::merge_count` on the wide layout. The ratio is
//!   algorithmic (probes against merge steps), so it needs no spare
//!   cores and has its own gate, `--min-tc-speedup`; the work behind it
//!   is printed as mark probes per triangle, a count that repeats exactly
//!   across runs and thread counts.
//! - **pr**: Jacobi pull sweeps — strip-scheduled vs `Dynamic(64)`
//!   per-vertex chunks on the wide layout.
//! - **bfs**: direction-optimizing search over a source batch — the same
//!   code on both layouts, isolating the pure index-width tax (reported,
//!   not gated).
//!
//! Both arms answer identical workloads, so each wall-time ratio is a
//! TEPS ratio; the gate is the geometric mean over the rebuilt kernels
//! (tc, pr).
//!
//! ```sh
//! cargo run --release -p gapbs-bench --bin layout_bench -- \
//!     --threads 4 --scale 12 --reps 3 --min-speedup 1.2
//! ```
//!
//! With `--min-speedup X` the process exits non-zero unless the geomean
//! TEPS gain is at least `X` — how `scripts/verify.sh` gates the layout
//! engine on multi-core hosts; `--min-tc-speedup X` gates the TC arm
//! alone, on every host. `--ledger <path>` appends one JSONL record
//! per (kernel, arm) for `perf_compare`, with `graph_bytes` carrying each
//! arm's resident layout so the GRAPH-BYTES delta section can track the
//! footprint across baseline refreshes.

use gapbs_graph::types::{Distance, NodeId};
use gapbs_graph::{gen, intersect, perm, Builder, Graph, OffsetIndex, WGraph, Weight};
use gapbs_parallel::atomics::AtomicF64;
use gapbs_parallel::{Schedule, ThreadPool};
use gapbs_ref::{bc, bfs, cc, depths_from_parents, pr, sssp, tc};
use gapbs_telemetry::{Counter, CounterSet, Ledger, TrialRecord};
use std::time::Instant;

/// Pool sizes crossing the parallel cutoffs from both sides (the same
/// set the workspace's thread-invariance tests use).
const THREAD_COUNTS: [usize; 4] = [1, 2, 7, 16];

/// Per-graph delta for the SSSP runs (kron is dense; see the harness).
const SSSP_DELTA: Weight = 32;

/// BC roots, matching the reference crate's own tests.
const BC_SOURCES: [NodeId; 4] = [0, 7, 13, 42];

struct Args {
    threads: usize,
    scale: u32,
    degree: usize,
    reps: usize,
    sources: usize,
    min_speedup: Option<f64>,
    min_tc_speedup: Option<f64>,
    ledger: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        threads: 4,
        scale: 12,
        degree: 16,
        reps: 3,
        sources: 16,
        min_speedup: None,
        min_tc_speedup: None,
        ledger: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--threads" => args.threads = value().parse().expect("--threads"),
            "--scale" => args.scale = value().parse().expect("--scale"),
            "--degree" => args.degree = value().parse().expect("--degree"),
            "--reps" => args.reps = value().parse().expect("--reps"),
            "--sources" => args.sources = value().parse().expect("--sources"),
            "--min-speedup" => args.min_speedup = Some(value().parse().expect("--min-speedup")),
            "--min-tc-speedup" => {
                args.min_tc_speedup = Some(value().parse().expect("--min-tc-speedup"))
            }
            "--ledger" => args.ledger = Some(value()),
            other => {
                eprintln!(
                    "unknown argument {other:?} (supported: --threads --scale \
                     --degree --reps --sources --min-speedup --min-tc-speedup --ledger)"
                );
                std::process::exit(2);
            }
        }
    }
    assert!(args.threads >= 1 && args.reps >= 1 && args.sources >= 1);
    args
}

/// Canonical, width-independent outputs of all six kernels. Floating
/// kernels are captured as raw bit patterns: the reference kernels are
/// deterministic by construction (strip boundaries depend only on the
/// graph; BC's sigma sums integers exactly and finalizes delta per
/// vertex), so exact equality is the correct bar, not a tolerance.
#[derive(PartialEq)]
struct SuiteOutputs {
    bfs_depths: Vec<u32>,
    sssp_dists: Vec<Distance>,
    pr_bits: Vec<u64>,
    pr_iterations: usize,
    cc_canonical: Vec<NodeId>,
    bc_bits: Vec<u64>,
    triangles: u64,
}

/// Relabels component ids to the smallest vertex in each component, so
/// two label arrays compare equal iff they induce the same partition.
fn canonical_partition(labels: &[NodeId]) -> Vec<NodeId> {
    let mut smallest: std::collections::HashMap<NodeId, NodeId> = std::collections::HashMap::new();
    for (v, &l) in labels.iter().enumerate() {
        smallest
            .entry(l)
            .and_modify(|m| *m = (*m).min(v as NodeId))
            .or_insert(v as NodeId);
    }
    labels.iter().map(|l| smallest[l]).collect()
}

fn run_suite<O: OffsetIndex>(g: &Graph<O>, wg: &WGraph<O>, pool: &ThreadPool) -> SuiteOutputs {
    let pr_result = pr(g, pool);
    SuiteOutputs {
        bfs_depths: depths_from_parents(&bfs(g, 0, pool)),
        sssp_dists: sssp(wg, 0, SSSP_DELTA, pool),
        pr_bits: pr_result.scores.iter().map(|s| s.to_bits()).collect(),
        pr_iterations: pr_result.iterations,
        cc_canonical: canonical_partition(&cc(g, pool)),
        bc_bits: bc(g, &BC_SOURCES, pool)
            .iter()
            .map(|s| s.to_bits())
            .collect(),
        triangles: tc(g, pool),
    }
}

/// Asserts two suite runs agree, naming the first diverging kernel.
fn assert_identical(got: &SuiteOutputs, want: &SuiteOutputs, arm: &str) {
    let kernels: [(&str, bool); 7] = [
        ("bfs depths", got.bfs_depths == want.bfs_depths),
        ("sssp distances", got.sssp_dists == want.sssp_dists),
        ("pr score bits", got.pr_bits == want.pr_bits),
        (
            "pr iteration count",
            got.pr_iterations == want.pr_iterations,
        ),
        ("cc partition", got.cc_canonical == want.cc_canonical),
        ("bc score bits", got.bc_bits == want.bc_bits),
        ("triangle count", got.triangles == want.triangles),
    ];
    for (name, same) in kernels {
        assert!(same, "{arm}: {name} diverged from the 1-thread compact run");
    }
}

/// The pre-layout-engine triangle count: same orientation and relabeling
/// decision as `gapbs_ref::tc`, but over the fully relabeled symmetric
/// graph, slicing a prefix per read and intersecting with the scalar
/// two-pointer merge the marked rows replaced.
fn legacy_tc(g: &Graph<usize>, pool: &ThreadPool) -> u64 {
    let counted;
    let g = if gapbs_ref::tc::worth_relabeling(g) {
        counted = perm::apply_in(g, &perm::degree_descending(g), pool);
        &counted
    } else {
        g
    };
    let total = std::sync::atomic::AtomicU64::new(0);
    pool.for_each_index(g.num_vertices(), Schedule::Dynamic(64), |u| {
        let u = u as NodeId;
        let adj_u = g.out_neighbors(u);
        let prefix_u = &adj_u[..adj_u.partition_point(|&x| x < u)];
        let mut local = 0u64;
        for &v in prefix_u {
            let adj_v = g.out_neighbors(v);
            let prefix_v = &adj_v[..adj_v.partition_point(|&x| x < v)];
            local += intersect::merge_count(prefix_u, prefix_v).count;
        }
        if local > 0 {
            total.fetch_add(local, std::sync::atomic::Ordering::Relaxed);
        }
    });
    total.into_inner()
}

/// The pre-layout-engine Jacobi PageRank: identical arithmetic to
/// `gapbs_ref::pr`, but the pull sweep runs in the seed's fixed-width
/// `Dynamic(256)` per-vertex chunks instead of degree-aware LLC strips.
fn legacy_pr(g: &Graph<usize>, pool: &ThreadPool) -> (Vec<f64>, usize) {
    let n = g.num_vertices();
    let init = 1.0 / n as f64;
    let base = (1.0 - gapbs_ref::PR_DAMPING) / n as f64;
    let mut scores = vec![init; n];
    let mut outgoing = vec![0.0f64; n];
    let mut iterations = 0usize;
    for iter in 0..gapbs_ref::PR_MAX_ITERS {
        iterations = iter + 1;
        for v in 0..n {
            let d = g.out_degree(v as NodeId);
            outgoing[v] = if d > 0 { scores[v] / d as f64 } else { 0.0 };
        }
        let dangling_mass: f64 = (0..n)
            .filter(|&v| g.out_degree(v as NodeId) == 0)
            .map(|v| scores[v])
            .sum::<f64>()
            / n as f64;
        let outgoing_ref = &outgoing;
        let next: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
        pool.for_each_index(n, Schedule::Dynamic(256), |v| {
            let mut sum = 0.0;
            for &u in g.in_neighbors(v as NodeId) {
                sum += outgoing_ref[u as usize];
            }
            next[v].store(base + gapbs_ref::PR_DAMPING * (sum + dangling_mass));
        });
        let next: Vec<f64> = next.into_iter().map(|c| c.load()).collect();
        let error: f64 = next.iter().zip(&scores).map(|(a, b)| (a - b).abs()).sum();
        scores = next;
        if error < gapbs_ref::PR_TOLERANCE {
            break;
        }
    }
    (scores, iterations)
}

/// Best-of-`reps` wall time of `f`, with the result of the last run.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let start = Instant::now();
        let value = f();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(value);
    }
    (best, out.expect("reps >= 1"))
}

fn main() {
    let args = parse_args();
    let n = 1usize << args.scale;
    let edges = gen::kron_edges(args.scale, args.degree, gen::GraphSpec::Kron.seed());
    let wedges = gen::with_uniform_weights(&edges, gen::GraphSpec::Kron.seed());
    let builder = || Builder::new().num_vertices(n).symmetrize(true);
    let narrow: Graph<u32> = builder().build(edges.clone()).expect("in-range endpoints");
    let wide: Graph<usize> = builder().build_as(edges).expect("in-range endpoints");
    let wnarrow: WGraph<u32> = builder()
        .build_weighted(wedges.clone())
        .expect("positive weights");
    let wwide: WGraph<usize> = builder()
        .build_weighted_as(wedges)
        .expect("positive weights");

    println!(
        "layout_bench: scale={} degree={} ({} vertices, {} arcs) threads={} reps={}",
        args.scale,
        args.degree,
        narrow.num_vertices(),
        narrow.num_arcs(),
        args.threads,
        args.reps
    );
    let bytes_ratio = wide.graph_bytes() as f64 / narrow.graph_bytes() as f64;
    println!(
        "  layout: u32 {} bytes vs usize {} bytes ({bytes_ratio:.2}x smaller; \
         weighted {} vs {})",
        narrow.graph_bytes(),
        wide.graph_bytes(),
        wnarrow.graph_bytes(),
        wwide.graph_bytes(),
    );
    assert!(
        narrow.graph_bytes() < wide.graph_bytes(),
        "compact layout must be strictly smaller"
    );

    // Bit-identity across widths and thread counts before any timing
    // claim: every suite run must reproduce the 1-thread compact run.
    let reference = run_suite(&narrow, &wnarrow, &ThreadPool::new(1));
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        assert_identical(
            &run_suite(&narrow, &wnarrow, &pool),
            &reference,
            &format!("u32 layout @ {threads}T"),
        );
        assert_identical(
            &run_suite(&wide, &wwide, &pool),
            &reference,
            &format!("usize layout @ {threads}T"),
        );
    }
    println!(
        "  outputs: all six kernels bit-identical across {{u32, usize}} x {:?} threads",
        THREAD_COUNTS
    );

    // Timed arms. Both sides answer identical workloads, so each ratio is
    // a TEPS ratio.
    let pool = ThreadPool::new(args.threads);
    let sources: Vec<NodeId> = (0..args.sources)
        .map(|i| ((i * 2654435761) % narrow.num_vertices()) as NodeId)
        .collect();

    let (t_tc_opt, tri_opt) = best_of(args.reps, || tc(&narrow, &pool));
    let (t_tc_leg, tri_leg) = best_of(args.reps, || legacy_tc(&wide, &pool));
    assert_eq!(
        tri_opt, tri_leg,
        "legacy merge arm must count the same triangles"
    );
    // The work behind the optimized arm in the unit `tc_intersections`
    // records (marks set + mark probes), taken from the engine with
    // `gapbs_ref::tc`'s own decision and schedule so it is available
    // without the telemetry feature.
    let tc_work = intersect::count_triangles(
        &narrow,
        gapbs_ref::tc::worth_relabeling(&narrow),
        &pool,
        Schedule::Dynamic(64),
    );
    assert_eq!(tc_work.count, tri_opt, "engine and kernel counts agree");

    let (t_pr_opt, pr_opt) = best_of(args.reps, || pr(&narrow, &pool));
    let (t_pr_leg, pr_leg) = best_of(args.reps, || legacy_pr(&wide, &pool));
    assert_eq!(
        pr_opt
            .scores
            .iter()
            .map(|s| s.to_bits())
            .collect::<Vec<_>>(),
        pr_leg.0.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        "legacy per-vertex arm must produce bit-identical PageRank scores"
    );
    assert_eq!(pr_opt.iterations, pr_leg.1);

    let (t_bfs_opt, _) = best_of(args.reps, || {
        sources
            .iter()
            .map(|&s| bfs(&narrow, s, &pool).len())
            .sum::<usize>()
    });
    let (t_bfs_leg, _) = best_of(args.reps, || {
        sources
            .iter()
            .map(|&s| bfs(&wide, s, &pool).len())
            .sum::<usize>()
    });

    // The gate covers the kernels the layout engine rebuilt (adaptive
    // intersection, strip-scheduled pull); the BFS row shares its code
    // across arms, so it isolates — and reports — the pure index-width
    // tax without entering the geomean.
    let gated = [
        (
            "tc ",
            "marked rows + oriented DAG",
            t_tc_opt,
            "scalar merge + wide",
            t_tc_leg,
        ),
        (
            "pr ",
            "LLC strips + compact",
            t_pr_opt,
            "Dynamic(256) chunks + wide",
            t_pr_leg,
        ),
    ];
    let mut log_sum = 0.0;
    for (kernel, opt_name, t_opt, leg_name, t_leg) in gated {
        let ratio = t_leg / t_opt;
        log_sum += ratio.ln();
        println!(
            "  {kernel}: {t_opt:>9.4}s ({opt_name}) vs {t_leg:>9.4}s ({leg_name})  {ratio:.2}x"
        );
    }
    println!(
        "  bfs: {t_bfs_opt:>9.4}s (compact offsets) vs {t_bfs_leg:>9.4}s (wide offsets)  \
         {:.2}x  (width tax only; not gated)",
        t_bfs_leg / t_bfs_opt
    );
    println!(
        "  tc work: {} mark probes for {} triangles ({:.3} per triangle; exact at any thread count)",
        tc_work.comparisons,
        tri_opt,
        tc_work.comparisons as f64 / tri_opt.max(1) as f64
    );
    let geomean = (log_sum / gated.len() as f64).exp();
    println!(
        "  geomean TEPS gain: {geomean:.2}x over {} kernels",
        gated.len()
    );

    if let Some(path) = &args.ledger {
        match Ledger::open(path) {
            Ok(ledger) => {
                let rows = [
                    ("tc", "compact", t_tc_opt, narrow.graph_bytes()),
                    ("tc", "legacy", t_tc_leg, wide.graph_bytes()),
                    ("pr", "compact", t_pr_opt, narrow.graph_bytes()),
                    ("pr", "legacy", t_pr_leg, wide.graph_bytes()),
                    ("bfs", "compact", t_bfs_opt, narrow.graph_bytes()),
                    ("bfs", "legacy", t_bfs_leg, wide.graph_bytes()),
                ];
                for (kernel, mode, seconds, graph_bytes) in rows {
                    // The optimized TC row carries its work in the
                    // kernel's own counters (probes also examine edges).
                    let mut counters = CounterSet::zero();
                    if (kernel, mode) == ("tc", "compact") {
                        counters.set(Counter::TcIntersections, tc_work.comparisons);
                        counters.set(
                            Counter::EdgesExamined,
                            narrow.num_arcs() as u64 + tc_work.comparisons,
                        );
                    }
                    let record = TrialRecord {
                        framework: "Layout".into(),
                        kernel: kernel.into(),
                        graph: format!("Kron{}", args.scale),
                        mode: mode.into(),
                        trial: 0,
                        seconds,
                        verified: true,
                        threads: args.threads as u64,
                        num_vertices: narrow.num_vertices() as u64,
                        num_arcs: narrow.num_arcs() as u64,
                        graph_bytes: graph_bytes as u64,
                        counters,
                        ..TrialRecord::default()
                    };
                    if let Err(e) = ledger.append(&record) {
                        eprintln!("ledger append: {e}");
                    }
                }
                eprintln!("ledger: appended 6 records to {path}");
            }
            Err(e) => eprintln!("ledger {path}: {e}"),
        }
    }

    if let Some(min) = args.min_tc_speedup {
        let ratio = t_tc_leg / t_tc_opt;
        if ratio < min {
            eprintln!(
                "FAIL: marked-row TC is only {ratio:.2}x faster than the scalar-merge arm \
                 (gate: {min:.2}x)"
            );
            std::process::exit(1);
        }
        println!("  tc gate: >= {min:.2}x passed ({ratio:.2}x)");
    }
    if let Some(min) = args.min_speedup {
        if geomean < min {
            eprintln!(
                "FAIL: compact layout is only {geomean:.2}x faster than the legacy arm \
                 (gate: {min:.2}x)"
            );
            std::process::exit(1);
        }
        println!("  gate : >= {min:.2}x passed ({geomean:.2}x)");
    }
}
