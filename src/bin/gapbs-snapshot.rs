//! `gapbs-snapshot`: build, inspect, and verify on-disk graph
//! snapshots (the `.gsnap` format from `crates/graph/src/snapshot.rs`).
//!
//! ```sh
//! # Build the whole corpus once; serve and the benches then cold-start
//! # from these files in milliseconds.
//! cargo run --release --bin gapbs-snapshot -- build --dir snapshots --scale medium
//!
//! # What's in a file, and does it still checksum?
//! cargo run --release --bin gapbs-snapshot -- info snapshots/kron-medium-v2.gsnap
//! cargo run --release --bin gapbs-snapshot -- verify snapshots/kron-medium-v2.gsnap --paranoid
//! ```
//!
//! `verify` exits 0 when the file is sound and 1 with the structured
//! error otherwise; `--paranoid` additionally materializes every stored
//! structure through the full CSR invariant sweep.

use gapbs_core::framework::BenchGraph;
use gapbs_core::snapshot_cache::snapshot_path;
use gapbs_graph::gen::{GraphSpec, Scale};
use gapbs_graph::snapshot::{Compression, LoadOptions, Snapshot};
use gapbs_parallel::ThreadPool;
use std::path::{Path, PathBuf};
use std::process::exit;

const USAGE: &str = "\
usage: gapbs-snapshot build --dir <dir> [--scale tiny|small|medium|large]
                      [--graphs web,twitter,...] [--compression auto|never|always]
                      [--threads <n>]
       gapbs-snapshot info <file.gsnap>
       gapbs-snapshot verify <file.gsnap> [--paranoid]

build writes each corpus graph to its canonical cache path under --dir
(the same naming `--snapshot-dir` consumers probe), info prints the
header and section table, verify checksums the file (0 sound, 1 not).";

fn usage_exit() -> ! {
    eprintln!("{USAGE}");
    exit(2)
}

fn arg_exit(message: String) -> ! {
    eprintln!("{message}");
    usage_exit()
}

fn build(args: &[String]) {
    let mut dir: Option<PathBuf> = None;
    let mut scale = Scale::Medium;
    let mut graphs: Option<Vec<GraphSpec>> = None;
    let mut compression = Compression::Auto;
    let mut threads = 2usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .unwrap_or_else(|| usage_exit())
        };
        match flag.as_str() {
            "--dir" => dir = Some(value().into()),
            "--scale" => scale = value().parse().unwrap_or_else(|e| arg_exit(e)),
            "--graphs" => {
                let names = value().split(',').map(str::parse);
                graphs = Some(
                    names
                        .collect::<Result<_, _>>()
                        .unwrap_or_else(|e| arg_exit(e)),
                );
            }
            "--compression" => {
                compression = match value() {
                    "auto" => Compression::Auto,
                    "never" => Compression::Never,
                    "always" => Compression::Always,
                    other => {
                        eprintln!("unknown compression {other:?}");
                        usage_exit()
                    }
                }
            }
            "--threads" => {
                threads = value().parse().unwrap_or_else(|_| usage_exit());
            }
            _ => usage_exit(),
        }
    }
    let dir = dir.unwrap_or_else(|| usage_exit());
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
        eprintln!("cannot create {}: {e}", dir.display());
        exit(2);
    });
    let pool = ThreadPool::new(threads.max(1));
    for spec in GraphSpec::TABLE_ORDER {
        if graphs.as_ref().is_some_and(|g| !g.contains(&spec)) {
            continue;
        }
        let built = BenchGraph::generate_in(spec, scale, &pool);
        let stats = built
            .write_snapshot_with(&dir, scale, compression)
            .unwrap_or_else(|e| {
                eprintln!("{spec}: {e}");
                exit(1);
            });
        println!(
            "{}: {} vertices, {} arcs, {} bytes, adjacency ratio {:.3}",
            snapshot_path(&dir, spec, scale).display(),
            built.graph.num_vertices(),
            built.graph.num_arcs(),
            stats.file_bytes,
            stats.adjacency_ratio(),
        );
    }
}

fn open_or_die(path: &Path, paranoid: bool) -> Snapshot {
    Snapshot::open_with(
        path,
        LoadOptions {
            paranoid,
            force_heap: false,
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("{}: {e}", path.display());
        exit(1);
    })
}

fn info(path: &Path) {
    let snap = open_or_die(path, false);
    println!("{}", path.display());
    println!("  format version : {}", snap.version());
    println!("  directed       : {}", snap.is_directed());
    println!("  vertices       : {}", snap.num_vertices());
    println!("  arcs           : {}", snap.num_arcs());
    println!("  weights        : {}", snap.has_weights());
    println!("  symmetrized    : {}", snap.has_sym());
    println!("  candidates     : {}", snap.has_candidates());
    println!("  sssp delta     : {}", snap.delta());
    println!("  params hash    : {:#018x}", snap.params_hash());
    println!("  mapped         : {}", snap.is_mmap());
    println!("  sections:");
    for s in snap.sections() {
        println!(
            "    {:<16} {:<12} {:>12} B  checksum {:#018x}",
            s.name, s.encoding, s.bytes, s.checksum
        );
    }
}

/// Materializes every stored structure so paranoid validation (and the
/// compressed decoders) actually run, not just the header checks.
fn verify(path: &Path, paranoid: bool) {
    let snap = open_or_die(path, paranoid);
    let loaded = snap
        .bundle_in(None)
        .map(|b| (b.graph.num_vertices(), b.graph.num_arcs()));
    match loaded {
        Ok((n, m)) => {
            let depth = if paranoid { "paranoid" } else { "checksum" };
            println!(
                "{}: ok ({depth} verification, {n} vertices, {m} arcs)",
                path.display()
            );
        }
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parts: Vec<&str> = args.iter().map(String::as_str).collect();
    match parts.as_slice() {
        ["build", ..] => build(&args[1..]),
        ["info", path] => info(Path::new(path)),
        ["verify", path] => verify(Path::new(path), false),
        ["verify", path, "--paranoid"] => verify(Path::new(path), true),
        ["-h"] | ["--help"] => println!("{USAGE}"),
        _ => usage_exit(),
    }
}
