//! Graph-construction microbenchmark: pooled build vs single-thread.
//!
//! Times the three untimed-but-expensive phases of the harness — edge
//! generation, CSR construction (count/scan/scatter/sort/compact), and
//! degree-descending relabeling — at one thread and at `--threads`, on
//! the same Kron edge list. Asserts the outputs are *identical* before
//! reporting speedups, so the gate can never pass on a build that
//! diverges from the serial reference.
//!
//! ```sh
//! cargo run --release -p gapbs-bench --bin build_bench -- \
//!     --threads 4 --scale 15 --reps 3 --min-speedup 1.8
//! ```
//!
//! With `--min-speedup X` the process exits non-zero unless end-to-end
//! construction (generate + build + relabel) is at least `X` times
//! faster on the pool — how `scripts/verify.sh` gates the parallel
//! builder on multi-core hosts. `--ledger <path>` appends one JSONL
//! record per phase and thread count for `perf_compare`, plus two
//! work-normalised one-thread cells (`generate/Medge`, `build/Mitem`:
//! seconds per million generated edges and per million scattered items)
//! whose baseline holds at any `--scale` and on any core count — the
//! gate that bites on hosts too small for the speedup gate.
//!
//! Windows are repeated `--reps` times and the minimum is kept, the same
//! best-of-n statistic the trial runner reports.

use gapbs_graph::gen::{self, GraphSpec};
use gapbs_graph::{perm, Builder, Graph};
use gapbs_parallel::ThreadPool;
use gapbs_telemetry::{Ledger, Phase, Span, TrialRecord};
use std::time::Instant;

struct Args {
    threads: usize,
    scale: u32,
    degree: usize,
    reps: usize,
    min_speedup: Option<f64>,
    ledger: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        threads: 4,
        scale: 15,
        degree: 16,
        reps: 3,
        min_speedup: None,
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
            "--min-speedup" => args.min_speedup = Some(value().parse().expect("--min-speedup")),
            "--ledger" => args.ledger = Some(value()),
            other => {
                eprintln!(
                    "unknown argument {other:?} (supported: --threads --scale \
                     --degree --reps --min-speedup --ledger)"
                );
                std::process::exit(2);
            }
        }
    }
    assert!(args.threads >= 1 && args.reps >= 1);
    args
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

/// The three construction phases at one thread count.
struct Phases {
    generate: f64,
    build: f64,
    relabel: f64,
    /// Edge tuples generated; the symmetrizing build scatters twice as many.
    edges: usize,
    graph: Graph,
    relabeled: Graph,
}

fn run(threads: usize, args: &Args) -> Phases {
    let pool = ThreadPool::new(threads);
    let seed = GraphSpec::Kron.seed();
    let (generate, edges) = best_of(args.reps, || {
        gen::kron_edges_in(args.scale, args.degree, seed, &pool)
    });
    let (build, graph) = best_of(args.reps, || {
        let _s = Span::enter(Phase::Build);
        Builder::new()
            .num_vertices(1 << args.scale)
            .symmetrize(true)
            .pool(&pool)
            .build(edges.clone())
            .expect("generated endpoints are in range")
    });
    let (relabel, relabeled) = best_of(args.reps, || {
        let _s = Span::enter(Phase::Relabel);
        perm::apply_in(&graph, &perm::degree_descending(&graph), &pool)
    });
    Phases {
        generate,
        build,
        relabel,
        edges: edges.len(),
        graph,
        relabeled,
    }
}

fn main() {
    let args = parse_args();
    let serial = run(1, &args);
    let pooled = run(args.threads, &args);

    // The gate is meaningless unless the pooled pipeline produced the
    // exact same graphs.
    assert_eq!(
        serial.graph, pooled.graph,
        "pooled build diverged from the serial build"
    );
    assert_eq!(
        serial.relabeled, pooled.relabeled,
        "pooled relabel diverged from the serial relabel"
    );

    let total_serial = serial.generate + serial.build + serial.relabel;
    let total_pooled = pooled.generate + pooled.build + pooled.relabel;
    let speedup = total_serial / total_pooled;
    println!(
        "build_bench: scale={} degree={} ({} vertices, {} arcs) reps={}",
        args.scale,
        args.degree,
        pooled.graph.num_vertices(),
        pooled.graph.num_arcs(),
        args.reps
    );
    let row = |name: &str, s: f64, p: f64| {
        println!(
            "  {name:<9}: 1T {s:>9.4}s  {}T {p:>9.4}s  ({:>5.2}x)",
            args.threads,
            s / p
        );
    };
    row("generate", serial.generate, pooled.generate);
    row("build", serial.build, pooled.build);
    row("relabel", serial.relabel, pooled.relabel);
    row("total", total_serial, total_pooled);
    // One-thread cost per unit of work: comparable across scales.
    let per_edge = serial.generate / serial.edges as f64;
    let per_item = serial.build / (2 * serial.edges) as f64;
    println!(
        "  per item : 1T {:.1} ns/generated edge, {:.1} ns/scattered item",
        per_edge * 1e9,
        per_item * 1e9
    );
    println!("  outputs  : identical at 1T and {}T", args.threads);

    if let Some(path) = &args.ledger {
        match Ledger::open(path) {
            Ok(ledger) => {
                let n = pooled.graph.num_vertices() as u64;
                let m = pooled.graph.num_arcs() as u64;
                let append = |threads: usize, kernel: &str, seconds: f64, p: &Phases| {
                    let record = TrialRecord {
                        framework: "Builder".into(),
                        kernel: kernel.into(),
                        graph: format!("Kron{}", args.scale),
                        mode: format!("{threads}T"),
                        trial: 0,
                        seconds,
                        build_seconds: p.build,
                        relabel_seconds: p.relabel,
                        verified: true,
                        threads: threads as u64,
                        num_vertices: n,
                        num_arcs: m,
                        ..TrialRecord::default()
                    };
                    if let Err(e) = ledger.append(&record) {
                        eprintln!("ledger append: {e}");
                    }
                };
                for (threads, p) in [(1usize, &serial), (args.threads, &pooled)] {
                    append(threads, "generate", p.generate, p);
                    append(threads, "build", p.build, p);
                    append(threads, "relabel", p.relabel, p);
                }
                append(1, "generate/Medge", per_edge * 1e6, &serial);
                append(1, "build/Mitem", per_item * 1e6, &serial);
                eprintln!("ledger: appended 8 records to {path}");
            }
            Err(e) => eprintln!("ledger {path}: {e}"),
        }
    }

    if let Some(min) = args.min_speedup {
        if speedup < min {
            eprintln!(
                "FAIL: construction speedup {speedup:.2}x at {} threads is below the {min:.2}x gate",
                args.threads
            );
            std::process::exit(1);
        }
        println!("  gate     : >= {min:.2}x passed ({speedup:.2}x)");
    }
}
