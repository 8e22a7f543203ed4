//! Integration tests of the CLI surface and file-based graph loading —
//! the workflow GAP users actually follow (`converter` once, then the
//! kernel binaries against the serialized graph).

use gapbs::cli::{CliOptions, GraphSource};
use gapbs::graph::snapshot::{self, section_checksum, Compression};
use gapbs::graph::Snapshot;
use std::path::{Path, PathBuf};
use std::process::Command;

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

/// `converter -b` output, loaded back with `-f`, is the generated input:
/// same topology and the same weights (no synthesized replacements).
#[test]
fn sg_binary_written_then_loaded_matches() {
    let path = scratch("kron7.gsnap");
    let out = Command::new(env!("CARGO_BIN_EXE_converter"))
        .args(["-g", "7", "-k", "6", "-b", path.to_str().unwrap()])
        .output()
        .expect("run converter");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "converter: {stderr}");
    let generated = parse(&["-g", "7", "-k", "6"]).load().unwrap();
    let loaded = parse(&["-f", path.to_str().unwrap()]).load().unwrap();
    assert_eq!(loaded.graph, generated.graph);
    assert_eq!(loaded.wgraph, generated.wgraph);
    assert_eq!(loaded.source_candidates, generated.source_candidates);
    assert_eq!(loaded.delta, generated.delta);
    std::fs::remove_file(&path).ok();
}

#[test]
fn weighted_binary_roundtrip_via_io_module() {
    for args in [["-u", "7", "-k", "8"], ["-c", "road", "-k", "8"]] {
        let input = parse(&args).load().unwrap();
        let path = scratch(&format!("{}.gsnap", args[1]));
        snapshot::write(&path, &input.snapshot_contents(0), Compression::Auto).unwrap();
        let bundle = Snapshot::open(&path).unwrap().bundle_in(None).unwrap();
        assert_eq!(bundle.wgraph, input.wgraph, "{args:?}");
        assert_eq!(bundle.graph, input.graph, "{args:?}");
        std::fs::remove_file(&path).ok();
    }
}

/// Writes a converter-style snapshot of a small Kron graph and returns
/// its path and bytes, for tests that tamper with it.
fn converted_bytes(tag: &str) -> (PathBuf, Vec<u8>) {
    let input = parse(&["-g", "6", "-k", "4"]).load().unwrap();
    let path = scratch(tag);
    snapshot::write(&path, &input.snapshot_contents(0), Compression::Never).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

/// Rewrites the payload of the section of `kind` with `edit`, then
/// reseals its checksum and the header's, so only validation can object.
fn tamper(bytes: &mut [u8], kind: u32, edit: impl FnOnce(&mut [u8])) {
    let sections = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let word = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let row = (0..sections)
        .map(|i| 64 + i * 32)
        .find(|&row| bytes[row..row + 4] == kind.to_le_bytes())
        .expect("section present");
    let (off, len) = (
        word(bytes, row + 8) as usize,
        word(bytes, row + 16) as usize,
    );
    edit(&mut bytes[off..off + len]);
    let sum = section_checksum(&bytes[off..off + len]);
    bytes[row + 24..row + 32].copy_from_slice(&sum.to_le_bytes());
    let mut covered = bytes[..56].to_vec();
    covered.extend_from_slice(&bytes[64..64 + sections * 32]);
    let sum = section_checksum(&covered);
    bytes[56..64].copy_from_slice(&sum.to_le_bytes());
}

fn load_err(path: &Path) -> String {
    parse(&["-f", path.to_str().unwrap()])
        .load()
        .expect_err("a broken snapshot must not load")
}

#[test]
fn truncated_gsnap_is_an_error_not_a_panic() {
    let (path, bytes) = converted_bytes("trunc.gsnap");
    for len in [0, 45, 64, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..len]).unwrap();
        let err = load_err(&path);
        assert!(err.contains("snapshot error"), "truncated to {len}: {err}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn checksum_consistent_gsnap_with_bad_offsets_is_an_error() {
    let (path, mut bytes) = converted_bytes("badoff.gsnap");
    // Vertex 1's row would end far past the targets (out_offsets, kind 1).
    tamper(&mut bytes, 1, |offsets| {
        offsets[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    });
    std::fs::write(&path, &bytes).unwrap();
    let err = load_err(&path);
    assert!(err.contains("monotone"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn checksum_consistent_gsnap_with_a_negative_weight_is_an_error() {
    // SSSP's buckets assume positive weights, as the builder enforces
    // for `.wel` input (out_weights, kind 3).
    let (path, mut bytes) = converted_bytes("negweight.gsnap");
    tamper(&mut bytes, 3, |weights| {
        weights[..4].copy_from_slice(&(-5i32).to_le_bytes());
    });
    std::fs::write(&path, &bytes).unwrap();
    let err = load_err(&path);
    assert!(err.contains("non-positive weight -5"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn symmetrize_flag_on_a_gsnap_is_an_error() {
    // A snapshot holds the graph as converted: `-s` belongs on `converter`.
    let (path, _) = converted_bytes("sym.gsnap");
    let err = parse(&["-f", path.to_str().unwrap(), "-s"])
        .load()
        .expect_err("-s on a .gsnap must not be ignored");
    assert!(err.contains("converter -s"), "{err}");
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
