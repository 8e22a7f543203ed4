//! Integration tests of the CLI surface and file-based graph loading —
//! the workflow GAP users actually follow (`converter` once, then the
//! kernel binaries against the serialized graph).

use gapbs::cli::{CliOptions, GraphSource};
use gapbs::graph::io;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gapbs-test-{}-{name}", std::process::id()));
    p
}

fn parse(args: &[&str]) -> CliOptions {
    CliOptions::parse(args.iter().map(|s| s.to_string())).expect("valid args")
}

#[test]
fn el_file_roundtrip_through_cli_load() {
    let path = scratch("tiny.el");
    std::fs::write(&path, "# demo\n0 1\n1 2\n2 0\n3 0\n").unwrap();
    let opts = parse(&["-f", path.to_str().unwrap(), "-s"]);
    let input = opts.load().expect("load .el");
    assert_eq!(input.graph.num_vertices(), 4);
    assert!(!input.graph.is_directed(), "-s symmetrizes");
    assert_eq!(input.graph.out_neighbors(0), &[1, 2, 3]);
    // The weighted companion is synthesized with positive weights.
    assert!(input.wgraph.out_neighbors_weighted(0).all(|(_, w)| w >= 1));
    std::fs::remove_file(&path).ok();
}

#[test]
fn wel_file_preserves_given_weights() {
    let path = scratch("tiny.wel");
    std::fs::write(&path, "0 1 7\n1 2 9\n").unwrap();
    let opts = parse(&["-f", path.to_str().unwrap()]);
    let input = opts.load().expect("load .wel");
    let w: Vec<_> = input.wgraph.out_neighbors_weighted(0).collect();
    assert_eq!(w, vec![(1, 7)]);
    std::fs::remove_file(&path).ok();
}

#[test]
fn sg_binary_written_then_loaded_matches() {
    let gen_opts = parse(&["-g", "7", "-k", "6"]);
    let generated = gen_opts.load().unwrap();
    let path = scratch("kron7.sg");
    {
        let file = std::fs::File::create(&path).unwrap();
        io::write_binary(&generated.graph, file).unwrap();
    }
    let loaded = parse(&["-f", path.to_str().unwrap()]).load().unwrap();
    assert_eq!(loaded.graph.num_vertices(), generated.graph.num_vertices());
    assert_eq!(loaded.graph.num_arcs(), generated.graph.num_arcs());
    for u in generated.graph.vertices().step_by(13) {
        assert_eq!(
            loaded.graph.out_neighbors(u),
            generated.graph.out_neighbors(u)
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn weighted_binary_roundtrip_via_io_module() {
    let opts = parse(&["-u", "7", "-k", "8"]);
    let input = opts.load().unwrap();
    let path = scratch("urand7.wsg");
    {
        let file = std::fs::File::create(&path).unwrap();
        io::write_binary_weighted(&input.wgraph, file).unwrap();
    }
    let file = std::fs::File::open(&path).unwrap();
    let wg = io::read_binary_weighted(file).unwrap();
    assert_eq!(wg, input.wgraph);
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_file_is_a_clean_error() {
    let opts = parse(&["-f", "/nonexistent/nope.el"]);
    let err = opts.load().unwrap_err();
    assert!(!err.is_empty());
}

#[test]
fn corpus_source_parses_and_loads_tiny() {
    let opts = parse(&["-c", "urand"]);
    assert!(matches!(opts.source, GraphSource::Corpus(_)));
    let input = opts.load().unwrap();
    assert!(input.num_vertices() >= 1024);
}
