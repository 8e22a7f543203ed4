//! Snapshot-format gate: mmap cold-start vs full rebuild, plus
//! compressed-adjacency correctness.
//!
//! Two claims are measured and (optionally) gated:
//!
//! 1. **Cold-start speedup.** Every corpus member is built once from
//!    the seeded generators (the pre-snapshot cold-start path: generate
//!    edges, build both CSR directions, weighted companion, symmetrized
//!    view, source candidates) and written twice: raw adjacency (the
//!    zero-copy mmap arm) and the cache's [`Compression::Auto`] default
//!    (the compact arm, which pays a decode on load). Each arm is
//!    loaded `--reps` times; the gate is the geometric mean of the
//!    per-graph `build/mmap-load` ratios — `--min-speedup 10` is how
//!    `scripts/verify.sh` holds the "millisecond cold-start" claim.
//!    The compact arm's load time and size ratio are reported beside
//!    it so the compression tradeoff stays visible, but only the
//!    zero-copy path is gated.
//!
//! 2. **Compressed-adjacency identity.** One symmetrized Kron graph is
//!    written twice — raw and delta-varint — at both offset widths, and
//!    BFS depths, PageRank score *bits*, and the triangle count from
//!    every decompressed load must be bit-identical to the raw
//!    1-thread reference across thread counts {1, 2, 7, 16}. The
//!    streaming decoder is checked against the raw targets array for
//!    every pool size too. Only after identity holds are timings
//!    reported.
//!
//! Per-graph compression ratios (stored/raw adjacency bytes, the
//! [`Compression::Auto`] decision input) are printed for the record.
//! `--ledger <path>` appends one JSONL record per (graph, arm) so
//! `perf_compare` can diff cold-start behaviour across baselines
//! (`results/baseline-snapshot.jsonl` is the committed reference).
//!
//! ```sh
//! cargo run --release -p gapbs-bench --bin snapshot_bench -- \
//!     --scale medium --reps 5 --min-speedup 10 \
//!     --ledger results/snapshot.jsonl
//! ```

use gapbs_core::framework::BenchGraph;
use gapbs_core::snapshot_cache::snapshot_path;
use gapbs_graph::gen::{self, GraphSpec, Scale};
use gapbs_graph::snapshot::{self, Compression, SnapshotContents};
use gapbs_graph::{Builder, Graph, OffsetIndex, Snapshot};
use gapbs_parallel::ThreadPool;
use gapbs_ref::{bfs, depths_from_parents, pr, tc};
use gapbs_telemetry::{Ledger, TrialRecord};
use std::path::PathBuf;
use std::time::Instant;

/// Pool sizes crossing the parallel cutoffs from both sides (the same
/// set the workspace's thread-invariance tests use).
const THREAD_COUNTS: [usize; 4] = [1, 2, 7, 16];

struct Args {
    scale: Scale,
    reps: usize,
    threads: usize,
    identity_scale: u32,
    min_speedup: Option<f64>,
    dir: Option<PathBuf>,
    ledger: Option<String>,
}

fn parse_scale(s: &str) -> Scale {
    match s.to_lowercase().as_str() {
        "tiny" => Scale::Tiny,
        "small" => Scale::Small,
        "medium" => Scale::Medium,
        "large" => Scale::Large,
        other => {
            eprintln!("unknown scale {other:?}; expected tiny|small|medium|large");
            std::process::exit(2);
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: Scale::Medium,
        reps: 5,
        threads: 2,
        identity_scale: 10,
        min_speedup: None,
        dir: None,
        ledger: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--scale" => args.scale = parse_scale(&value()),
            "--reps" => args.reps = value().parse().expect("--reps"),
            "--threads" => args.threads = value().parse().expect("--threads"),
            "--identity-scale" => args.identity_scale = value().parse().expect("--identity-scale"),
            "--min-speedup" => args.min_speedup = Some(value().parse().expect("--min-speedup")),
            "--dir" => args.dir = Some(value().into()),
            "--ledger" => args.ledger = Some(value()),
            other => {
                eprintln!(
                    "unknown argument {other:?} (supported: --scale --reps --threads \
                     --identity-scale --min-speedup --dir --ledger)"
                );
                std::process::exit(2);
            }
        }
    }
    assert!(args.reps >= 1 && args.threads >= 1);
    args
}

/// Width-independent outputs of the three kernels the compressed path
/// feeds (BFS: direction-optimizing traversal; PR: strip-scheduled pull
/// over offsets; TC: oriented intersection). Floats are captured as raw
/// bit patterns — the reference kernels are deterministic, so exact
/// equality is the bar.
#[derive(PartialEq)]
struct SuiteOutputs {
    bfs_depths: Vec<u32>,
    pr_bits: Vec<u64>,
    triangles: u64,
}

fn run_suite<O: OffsetIndex>(g: &Graph<O>, pool: &ThreadPool) -> SuiteOutputs {
    SuiteOutputs {
        bfs_depths: depths_from_parents(&bfs(g, 0, pool)),
        pr_bits: pr(g, pool).scores.iter().map(|s| s.to_bits()).collect(),
        triangles: tc(g, pool),
    }
}

/// Writes `graph` at the given compression, loads it back, and checks
/// the decompressed loads (kernels + streaming decoder) against the raw
/// reference across every pool size.
fn identity_arm<O: OffsetIndex>(
    dir: &std::path::Path,
    graph: &Graph<O>,
    width: &str,
    compression: Compression,
    reference: &SuiteOutputs,
) {
    let enc = match compression {
        Compression::Always => "varint",
        _ => "raw",
    };
    let path = dir.join(format!("identity-{width}-{enc}.gsnap"));
    let contents = SnapshotContents::graph_only(graph, 0);
    let stats = snapshot::write(&path, &contents, compression).expect("write identity snapshot");
    let snap = Snapshot::open(&path).expect("open identity snapshot");
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        let loaded: Graph<O> = snap.graph_in(Some(&pool)).expect("load identity snapshot");
        assert_eq!(
            &loaded, graph,
            "{width}/{enc} @ {threads}T: loaded graph diverged from the built graph"
        );
        let got = run_suite(&loaded, &pool);
        assert!(
            &got == reference,
            "{width}/{enc} @ {threads}T: kernel outputs diverged from the raw 1-thread run"
        );
        if let Some(comp) = snap.compressed_out::<O>().expect("compressed view") {
            let decoded = comp.decode_vec(Some(&pool)).expect("decode stream");
            assert_eq!(
                decoded,
                graph.out_csr().targets_raw(),
                "{width}/{enc} @ {threads}T: streamed decode diverged from raw targets"
            );
        }
    }
    println!(
        "  {width:<5} {enc:<6}: identical across {THREAD_COUNTS:?} threads \
         ({} file bytes, adjacency ratio {:.3})",
        stats.file_bytes,
        stats.adjacency_ratio()
    );
    std::fs::remove_file(&path).ok();
}

fn main() {
    let args = parse_args();
    let dir = args.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("gapbs-snapshot-bench-{}", std::process::id()))
    });
    std::fs::create_dir_all(&dir).expect("create snapshot dir");
    let pool = ThreadPool::new(args.threads);

    // Stage 1: decompressed-vs-raw identity, both widths, all pools.
    println!(
        "snapshot_bench: identity matrix (kron scale {}, widths {{u32, usize}}, \
         encodings {{raw, varint}})",
        args.identity_scale
    );
    let edges = gen::kron_edges(args.identity_scale, 16, GraphSpec::Kron.seed());
    let n = 1usize << args.identity_scale;
    let builder = || Builder::new().num_vertices(n).symmetrize(true);
    let narrow: Graph<u32> = builder().build(edges.clone()).expect("in-range endpoints");
    let wide: Graph<usize> = builder().build_as(edges).expect("in-range endpoints");
    let reference = run_suite(&narrow, &ThreadPool::new(1));
    identity_arm(&dir, &narrow, "u32", Compression::Never, &reference);
    identity_arm(&dir, &narrow, "u32", Compression::Always, &reference);
    identity_arm(&dir, &wide, "usize", Compression::Never, &reference);
    identity_arm(&dir, &wide, "usize", Compression::Always, &reference);

    // Stage 2: cold-start speedup over the corpus. Build once (that IS
    // the pre-snapshot cold start), then mmap-load best-of-reps.
    println!(
        "snapshot_bench: corpus cold-start at scale {} (build once vs best of {} loads)",
        args.scale, args.reps
    );
    let ledger = args.ledger.as_ref().map(|path| {
        Ledger::open(path).unwrap_or_else(|e| {
            eprintln!("ledger {path}: {e}");
            std::process::exit(2);
        })
    });
    let mut log_sum = 0.0;
    let mut rows = 0usize;
    for spec in GraphSpec::TABLE_ORDER {
        let start = Instant::now();
        let built = BenchGraph::generate_in(spec, args.scale, &pool);
        let t_build = start.elapsed().as_secs_f64();
        let path = snapshot_path(&dir, spec, args.scale);

        // Compact arm: the cache default (Auto). Its per-graph ratio is
        // the heuristic's decision record; its load pays a decode, so
        // it is reported but not gated.
        let auto_stats = built
            .write_snapshot(&dir, args.scale)
            .expect("write snapshot");
        let mut t_compact = f64::INFINITY;
        for _ in 0..args.reps {
            let start = Instant::now();
            BenchGraph::from_snapshot_in(spec, args.scale, &path, &pool, false)
                .expect("load compact snapshot");
            t_compact = t_compact.min(start.elapsed().as_secs_f64());
        }

        // mmap arm: raw adjacency, the zero-copy cold-start path the
        // cold-start gate is about. Same canonical path, overwritten.
        let raw_stats = built
            .write_snapshot_with(&dir, args.scale, Compression::Never)
            .expect("write raw snapshot");
        let mut t_mmap = f64::INFINITY;
        let mut loaded = None;
        for _ in 0..args.reps {
            let start = Instant::now();
            let bg = BenchGraph::from_snapshot_in(spec, args.scale, &path, &pool, false)
                .expect("load raw snapshot");
            t_mmap = t_mmap.min(start.elapsed().as_secs_f64());
            loaded = Some(bg);
        }
        let loaded = loaded.expect("reps >= 1");
        assert_eq!(
            loaded.graph, built.graph,
            "{spec}: snapshot load must be bit-identical"
        );
        assert_eq!(loaded.source_candidates, built.source_candidates);

        let speedup = t_build / t_mmap;
        log_sum += speedup.ln();
        rows += 1;
        println!(
            "  {spec:<8} build {t_build:>8.4}s  mmap {t_mmap:>9.6}s  {speedup:>8.1}x  \
             | compact {t_compact:>9.6}s  ratio {:.3}  ({} vs {} B)",
            auto_stats.adjacency_ratio(),
            auto_stats.file_bytes,
            raw_stats.file_bytes,
        );
        if let Some(ledger) = &ledger {
            let arms = [
                ("rebuild", t_build, built.resident_bytes() as u64),
                ("mmap", t_mmap, raw_stats.file_bytes),
                ("compact", t_compact, auto_stats.file_bytes),
            ];
            for (mode, seconds, graph_bytes) in arms {
                let record = TrialRecord {
                    framework: "Snapshot".into(),
                    kernel: "load".into(),
                    graph: spec.name().into(),
                    mode: mode.into(),
                    trial: 0,
                    seconds,
                    verified: true,
                    threads: args.threads as u64,
                    num_vertices: built.graph.num_vertices() as u64,
                    num_arcs: built.graph.num_arcs() as u64,
                    graph_bytes,
                    ..TrialRecord::default()
                };
                if let Err(e) = ledger.append(&record) {
                    eprintln!("ledger append: {e}");
                }
            }
        }
    }
    let geomean = (log_sum / rows as f64).exp();
    println!("  geomean cold-start speedup: {geomean:.1}x over {rows} graphs");
    if let Some(path) = &args.ledger {
        eprintln!("ledger: appended {} records to {path}", rows * 3);
    }

    if args.dir.is_none() {
        std::fs::remove_dir_all(&dir).ok();
    }

    if let Some(min) = args.min_speedup {
        if geomean < min {
            eprintln!(
                "FAIL: snapshot load is only {geomean:.1}x faster than a rebuild \
                 (gate: {min:.1}x)"
            );
            std::process::exit(1);
        }
        println!("  gate : >= {min:.1}x passed ({geomean:.1}x)");
    }
}
