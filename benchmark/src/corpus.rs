//! The cold-start pipeline every workload begins with, at its own scale:
//! rebuild the corpus from the seeded generators, write snapshots, load
//! them back. The timed phase then runs on the snapshot-loaded graphs,
//! so the snapshot plane carries load on every workload and a built
//! graph that differs from its loaded twin fails the run.

use std::path::{Path, PathBuf};

use gapbs_core::snapshot_cache::snapshot_path;
use gapbs_core::BenchGraph;
use gapbs_graph::gen::{GraphSpec, Scale};
use gapbs_graph::snapshot::Compression;
use gapbs_parallel::ThreadPool;
use gapbs_serve::{GraphRegistry, RegistryOptions};
use gapbs_telemetry::json::Json;

use crate::stats::median;
use crate::trace;

/// Registry loads per run; `ready_snapshot_ms` is their median.
pub const SNAPSHOT_LOADS: usize = 15;

/// What the cold-start pipeline measured and left behind.
pub struct ColdStart {
    /// Directory holding one snapshot per corpus graph.
    pub snapshot_dir: PathBuf,
    /// Median over repetitions of the five graphs' generate + prepare time.
    pub rebuild_s: f64,
    /// Generator + CSR construction part of `rebuild_s`.
    pub gen_s: f64,
    /// Symmetrise + source-candidate part of `rebuild_s`.
    pub build_s: f64,
    /// Median over repetitions of the five snapshot writes.
    pub write_s: f64,
    /// Median over [`SNAPSHOT_LOADS`] five-graph registry loads.
    pub load_ms: f64,
    /// Bytes of the five snapshot files.
    pub snapshot_bytes: u64,
    /// Resident CSR bytes of the five prepared inputs.
    pub resident_bytes: u64,
    /// Built-versus-loaded comparisons made and failed.
    pub checks: u64,
    pub failed: u64,
    /// Name, vertices, edges and resident bytes per graph.
    pub shapes: Vec<Json>,
}

fn same_input(a: &BenchGraph, b: &BenchGraph) -> bool {
    a.graph == b.graph
        && a.wgraph == b.wgraph
        && a.sym_graph == b.sym_graph
        && a.delta == b.delta
        && a.source_candidates == b.source_candidates
}

/// Runs rebuild → write → load `reps` times (the corpus generators keep
/// the repo's own seeds, so every repetition builds the same graphs),
/// then [`SNAPSHOT_LOADS`] registry loads with the page cache warm.
pub fn cold_start(scale: Scale, dir: &Path, reps: usize, pool: &ThreadPool) -> ColdStart {
    std::fs::create_dir_all(dir).expect("create snapshot dir");
    let (mut gen, mut build, mut write) = (Vec::new(), Vec::new(), Vec::new());
    let (mut checks, mut failed) = (0u64, 0u64);
    let mut shapes = Vec::new();
    let (mut snapshot_bytes, mut resident_bytes) = (0u64, 0u64);
    let write_reps = if reps > 1 { 3 } else { 1 };
    for rep in 0..reps {
        let (mut g, mut b, mut w) = (0.0, 0.0, 0.0);
        for (i, &spec) in GraphSpec::TABLE_ORDER.iter().enumerate() {
            let op = (rep * 5 + i) as u64;
            // The two public halves of `BenchGraph::generate_in`.
            let ((graph, wgraph), gen_ms) = trace::timed("graph.gen", op, || {
                (
                    spec.generate_in(scale, pool),
                    spec.generate_weighted_in(scale, pool),
                )
            });
            let (built, build_ms) = trace::timed("graph.build", op, || {
                BenchGraph::from_graphs_in(spec, graph, wgraph, pool)
            });
            // A medium snapshot takes milliseconds to write, so one write
            // is mostly file-system jitter: take the median of three.
            let writes: Vec<_> = (0..write_reps)
                .map(|_| {
                    trace::timed("graph.snapshot_write", op, || {
                        built.write_snapshot(dir, scale).expect("write snapshot")
                    })
                })
                .collect();
            let write_ms = median(&writes.iter().map(|w| w.1).collect::<Vec<_>>());
            let stats = &writes[0].0;
            g += gen_ms / 1e3;
            b += build_ms / 1e3;
            w += write_ms / 1e3;
            let path = snapshot_path(dir, spec, scale);
            let loaded = BenchGraph::from_snapshot_in(spec, scale, &path, pool, false)
                .expect("load the snapshot just written");
            checks += 1;
            if !same_input(&built, &loaded) {
                failed += 1;
                eprintln!("FAIL: {spec} loaded from its snapshot differs from the built graph");
            }
            if rep == 0 {
                snapshot_bytes += stats.file_bytes;
                resident_bytes += built.resident_bytes() as u64;
                shapes.push(Json::obj([
                    ("name".to_string(), Json::Str(spec.name().to_string())),
                    (
                        "vertices".to_string(),
                        Json::Num(built.graph.num_vertices() as f64),
                    ),
                    (
                        "edges".to_string(),
                        Json::Num(built.graph.num_edges() as f64),
                    ),
                    (
                        "resident_bytes".to_string(),
                        Json::Num(built.resident_bytes() as f64),
                    ),
                    (
                        "snapshot_bytes".to_string(),
                        Json::Num(stats.file_bytes as f64),
                    ),
                ]));
            }
        }
        gen.push(g);
        build.push(b);
        write.push(w);
    }
    let opts = RegistryOptions {
        snapshot_dir: Some(dir.to_path_buf()),
        paranoid: false,
    };
    let loads: Vec<f64> = (0..SNAPSHOT_LOADS)
        .map(|i| {
            let (registry, ms) = trace::timed("graph.snapshot_load", i as u64, || {
                GraphRegistry::load_with(scale, &GraphSpec::TABLE_ORDER, pool, &opts)
            });
            assert!(
                registry
                    .load_records()
                    .iter()
                    .all(|r| r.outcome == gapbs_core::CacheOutcome::Hit),
                "a registry load missed the snapshot cache"
            );
            ms
        })
        .collect();
    let rebuild: Vec<f64> = gen.iter().zip(&build).map(|(g, b)| g + b).collect();
    ColdStart {
        snapshot_dir: dir.to_path_buf(),
        rebuild_s: median(&rebuild),
        gen_s: median(&gen),
        build_s: median(&build),
        write_s: median(&write),
        load_ms: median(&loads),
        snapshot_bytes,
        resident_bytes,
        checks,
        failed,
        shapes,
    }
}

/// The five prepared inputs, owned, loaded from the snapshot directory.
pub fn load_owned(scale: Scale, dir: &Path, pool: &ThreadPool) -> Vec<BenchGraph> {
    GraphSpec::TABLE_ORDER
        .iter()
        .map(|&spec| {
            BenchGraph::from_snapshot_in(spec, scale, &snapshot_path(dir, spec, scale), pool, false)
                .expect("load snapshot")
        })
        .collect()
}

/// Median time in milliseconds to load the five graphs from snapshots
/// written with every adjacency section delta-varint compressed.
pub fn compact_load_ms(corpus: &[BenchGraph], scale: Scale, dir: &Path, pool: &ThreadPool) -> f64 {
    std::fs::create_dir_all(dir).expect("create compact snapshot dir");
    for bg in corpus {
        bg.write_snapshot_with(dir, scale, Compression::Always)
            .expect("write compressed snapshot");
    }
    let loads: Vec<f64> = (0..5)
        .map(|i| {
            trace::timed("graph.snapshot_load_compact", i, || {
                load_owned(scale, dir, pool)
            })
            .1
        })
        .collect();
    median(&loads)
}

/// Cores this process may run on; the closed loops open one connection
/// per core.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pool threads of every run: `min(available_parallelism, 4)`.
pub fn pool_threads() -> usize {
    cores().min(4)
}

/// The machine shape recorded beside every result.
pub fn machine_info(seed: u64, threads: usize) -> Vec<(String, Json)> {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    vec![
        (
            "available_parallelism".to_string(),
            Json::Num(cores() as f64),
        ),
        ("pool_threads".to_string(), Json::Num(threads as f64)),
        ("rustc".to_string(), Json::Str(rustc)),
        (
            "git_commit".to_string(),
            Json::Str(gapbs_telemetry::ledger::detect_git_rev()),
        ),
        ("seed".to_string(), Json::Num(seed as f64)),
    ]
}
