//! Adversarial snapshot-loading tests: every way a file can be broken
//! must surface as a structured [`SnapshotError`], never a panic, hang,
//! or out-of-bounds read.
//!
//! The strategy is brute force where it matters: build a known-good
//! snapshot, then derive broken variants (truncations at every
//! structural boundary, bit flips in every header field, corrupted
//! section bytes) and assert the loader's verdict on each.

use gapbs_graph::snapshot::{self, LoadOptions, SnapshotContents};
use gapbs_graph::{gen, Builder, Compression, Graph, GraphError, Snapshot, SnapshotError};
use gapbs_parallel::ThreadPool;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn tmp_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "gapsnap-robust-{}-{tag}-{id}.gsnap",
        std::process::id()
    ))
}

/// A valid snapshot's bytes plus its path (callers mutate and rewrite).
fn good_snapshot(tag: &str, compression: Compression) -> (PathBuf, Vec<u8>) {
    let graph = gen::kron(8, 8, 0x5eed);
    let path = tmp_path(tag);
    snapshot::write(
        &path,
        &SnapshotContents::graph_only(&graph, 99),
        compression,
    )
    .expect("writing a valid snapshot");
    let bytes = std::fs::read(&path).expect("reading it back");
    (path, bytes)
}

fn open_bytes(path: &PathBuf, bytes: &[u8]) -> Result<Snapshot, GraphError> {
    std::fs::write(path, bytes).expect("rewriting variant");
    Snapshot::open(path)
}

fn expect_snapshot_error(result: Result<Snapshot, GraphError>, what: &str) -> SnapshotError {
    match result {
        Err(GraphError::Snapshot(e)) => e,
        Ok(_) => panic!("{what}: loader accepted a broken file"),
        Err(other) => panic!("{what}: expected a snapshot error, got {other:?}"),
    }
}

#[test]
fn truncation_at_every_structural_boundary_is_structured() {
    let (path, bytes) = good_snapshot("trunc", Compression::Never);
    // Probe a spread of prefix lengths: inside the header, inside the
    // section table, at section boundaries, one byte short of complete.
    let probes = [
        0,
        1,
        7,
        8,
        16,
        63,
        64,
        80,
        127,
        128,
        bytes.len() / 2,
        bytes.len() - 1,
    ];
    for &len in &probes {
        if len >= bytes.len() {
            continue;
        }
        let e = expect_snapshot_error(
            open_bytes(&path, &bytes[..len]),
            &format!("truncation to {len} bytes"),
        );
        assert!(
            matches!(
                e,
                SnapshotError::Truncated { .. }
                    | SnapshotError::BadMagic { .. }
                    | SnapshotError::ChecksumMismatch { .. }
                    | SnapshotError::Malformed { .. }
            ),
            "truncation to {len} gave unexpected error {e:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn empty_and_garbage_files_are_rejected() {
    let path = tmp_path("garbage");
    let e = expect_snapshot_error(open_bytes(&path, b""), "empty file");
    assert!(matches!(e, SnapshotError::Truncated { .. }));

    let e = expect_snapshot_error(
        open_bytes(&path, &[0xabu8; 4096]),
        "4 KiB of uniform garbage",
    );
    assert!(matches!(e, SnapshotError::BadMagic { .. }));

    // A text file (the classic wrong-path mistake) long enough to pass
    // the length check and reach the magic comparison.
    let mut text = Vec::new();
    for u in 0..40 {
        text.extend_from_slice(format!("{u} {}\n", u + 1).as_bytes());
    }
    let e = expect_snapshot_error(open_bytes(&path, &text), "edge-list text");
    assert!(matches!(e, SnapshotError::BadMagic { .. }));
    std::fs::remove_file(&path).ok();
}

#[test]
fn wrong_magic_and_wrong_version_are_distinguished() {
    let (path, bytes) = good_snapshot("magic", Compression::Never);

    let mut b = bytes.clone();
    b[0] ^= 0xff;
    let e = expect_snapshot_error(open_bytes(&path, &b), "flipped magic byte");
    assert!(matches!(e, SnapshotError::BadMagic { .. }));

    // A future format version must be refused with both versions named,
    // even though the rest of the file is plausible. (The header
    // checksum also covers the version; patch it so the version check
    // itself is what fires.)
    let mut b = bytes.clone();
    b[8] = 0x2a;
    patch_header_checksum(&mut b);
    let e = expect_snapshot_error(open_bytes(&path, &b), "future version");
    match e {
        SnapshotError::UnsupportedVersion { found, supported } => {
            assert_eq!(found, 0x2a);
            assert_eq!(supported, snapshot::FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

/// Recomputes the header checksum after a deliberate header edit, so
/// tests can reach the checks *behind* the checksum.
fn patch_header_checksum(bytes: &mut [u8]) {
    let section_count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let table_end = 64 + section_count * 32;
    let mut covered = Vec::with_capacity(table_end - 8);
    covered.extend_from_slice(&bytes[..56]);
    covered.extend_from_slice(&bytes[64..table_end]);
    let sum = snapshot::section_checksum(&covered);
    bytes[56..64].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn every_single_byte_flip_in_the_header_is_caught() {
    let (path, bytes) = good_snapshot("hdrflip", Compression::Never);
    for pos in 0..64 {
        let mut b = bytes.clone();
        b[pos] ^= 0x01;
        expect_snapshot_error(open_bytes(&path, &b), &format!("header byte {pos} flipped"));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn section_payload_corruption_is_a_checksum_mismatch() {
    for compression in [Compression::Never, Compression::Always] {
        let (path, bytes) = good_snapshot("payload", compression);
        // Flip one byte in each quarter of the payload area.
        let payload_start = 64 + 32 * 4; // conservative: past any table
        for frac in 1..4 {
            let mut b = bytes.clone();
            let pos = payload_start + (b.len() - payload_start) * frac / 4;
            b[pos] ^= 0x10;
            let e = expect_snapshot_error(
                open_bytes(&path, &b),
                &format!("payload byte {pos} flipped ({compression:?})"),
            );
            assert!(
                matches!(
                    e,
                    SnapshotError::ChecksumMismatch { .. } | SnapshotError::Malformed { .. }
                ),
                "payload corruption gave {e:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn implausible_counts_are_malformed_not_allocated() {
    let (path, bytes) = good_snapshot("counts", Compression::Never);
    // Claim 2^60 vertices: the loader must refuse before attempting any
    // allocation or offset arithmetic.
    let mut b = bytes.clone();
    b[16..24].copy_from_slice(&(1u64 << 60).to_le_bytes());
    patch_header_checksum(&mut b);
    let e = expect_snapshot_error(open_bytes(&path, &b), "2^60 vertices");
    assert!(matches!(e, SnapshotError::Malformed { .. }), "got {e:?}");

    // Unknown flag bits must not be silently ignored.
    let mut b = bytes.clone();
    b[11] |= 0x80;
    patch_header_checksum(&mut b);
    let e = expect_snapshot_error(open_bytes(&path, &b), "unknown flags");
    assert!(matches!(e, SnapshotError::Malformed { .. }), "got {e:?}");

    // An offset width that is not 4.
    let mut b = bytes.clone();
    b[10] = 3;
    patch_header_checksum(&mut b);
    let e = expect_snapshot_error(open_bytes(&path, &b), "width 3");
    assert!(matches!(e, SnapshotError::Malformed { .. }), "got {e:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn wrong_width_read_is_a_structured_error_not_a_reinterpretation() {
    // Header byte 10 is the offset width, always 4. A file claiming
    // 8-byte offsets (checksum resealed, so only the width is wrong) must
    // be refused before any offset section is reinterpreted.
    let (path, mut bytes) = good_snapshot("width", Compression::Never);
    assert_eq!(bytes[10], 4);
    bytes[10] = 8;
    patch_header_checksum(&mut bytes);
    for force_heap in [false, true] {
        std::fs::write(&path, &bytes).expect("rewriting variant");
        let opened = Snapshot::open_with(
            &path,
            LoadOptions {
                paranoid: false,
                force_heap,
            },
        )
        .and_then(|snap| snap.graph());
        match opened {
            Err(GraphError::Snapshot(SnapshotError::Malformed { message })) => {
                assert!(message.contains("width 8"), "{message}")
            }
            other => panic!("expected a width error (heap={force_heap}), got {other:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_bundle_sections_are_named() {
    // A graph-only snapshot cannot serve a bundle: the loader must name
    // the first missing section rather than panic on absent data.
    let graph = gen::kron(7, 6, 12);
    let path = tmp_path("missing");
    snapshot::write(
        &path,
        &SnapshotContents::graph_only(&graph, 0),
        Compression::Never,
    )
    .expect("write");
    let snap = Snapshot::open(&path).expect("open");
    match snap.bundle_in(None) {
        Err(GraphError::Snapshot(SnapshotError::MissingSection { section })) => {
            assert!(!section.is_empty());
        }
        other => panic!("expected MissingSection, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn compressed_stream_corruption_fails_decode_not_process() {
    // Corrupt the varint stream but fix up the checksum, simulating a
    // hostile well-checksummed file: the validated decode must reject
    // it. (Byte 0x00 runs of the stream decode to in-range values, so
    // target bytes near the end where row framing breaks.)
    let graph = gen::kron(8, 8, 13);
    let path = tmp_path("hostile");
    snapshot::write(
        &path,
        &SnapshotContents::graph_only(&graph, 0),
        Compression::Always,
    )
    .expect("write");
    let mut bytes = std::fs::read(&path).expect("read");

    // Find the out_targets section row (kind 2) in the table and its
    // stored checksum slot.
    let section_count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let mut target_row = None;
    for i in 0..section_count {
        let row = 64 + i * 32;
        let kind = u32::from_le_bytes(bytes[row..row + 4].try_into().unwrap());
        if kind == 2 {
            target_row = Some(row);
        }
    }
    let row = target_row.expect("out_targets section present");
    let off = u64::from_le_bytes(bytes[row + 8..row + 16].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(bytes[row + 16..row + 24].try_into().unwrap()) as usize;

    // Truncate the final varint mid-sequence by setting its
    // continuation bit, then re-checksum section and header.
    bytes[off + len - 1] |= 0x80;
    let sum = snapshot::section_checksum(&bytes[off..off + len]);
    bytes[row + 24..row + 32].copy_from_slice(&sum.to_le_bytes());
    patch_header_checksum(&mut bytes);
    std::fs::write(&path, &bytes).expect("rewrite");

    let snap = Snapshot::open(&path).expect("checksums now match");
    match snap.graph() {
        Err(GraphError::Snapshot(SnapshotError::Malformed { .. })) => {}
        Err(other) => panic!("expected Malformed from decode, got {other:?}"),
        Ok(_) => panic!("hostile varint stream decoded successfully"),
    }
    std::fs::remove_file(&path).ok();
}

/// Finds the section-table row for `kind`, returning `(row_offset,
/// payload_offset, payload_len)`.
fn find_section(bytes: &[u8], kind: u32) -> (usize, usize, usize) {
    let section_count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    for i in 0..section_count {
        let row = 64 + i * 32;
        if u32::from_le_bytes(bytes[row..row + 4].try_into().unwrap()) == kind {
            let off = u64::from_le_bytes(bytes[row + 8..row + 16].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[row + 16..row + 24].try_into().unwrap()) as usize;
            return (row, off, len);
        }
    }
    panic!("section kind {kind} not present");
}

/// Recomputes a tampered section's checksum plus the header checksum,
/// simulating a hostile file that is internally checksum-consistent.
fn reseal(bytes: &mut [u8], row: usize, off: usize, len: usize) {
    let sum = snapshot::section_checksum(&bytes[off..off + len]);
    bytes[row + 24..row + 32].copy_from_slice(&sum.to_le_bytes());
    patch_header_checksum(bytes);
}

#[test]
fn non_monotone_offsets_fail_structurally_on_default_loads() {
    // A checksum-consistent file with offsets[k] > offsets[k + 1] used
    // to reach degree arithmetic and the parallel decoder's unsafe
    // disjoint writes; the default (non-paranoid) load must reject it
    // with a structured error under both adjacency encodings.
    for compression in [Compression::Never, Compression::Always] {
        let (path, mut bytes) = good_snapshot("nonmono", compression);
        let (row, off, len) = find_section(&bytes, 1); // out_offsets
        let offsets: Vec<u32> = bytes[off..off + len]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        // Swap an interior increasing pair: first stays 0 and last
        // still matches the header's arc count, so only the new
        // monotonicity check can catch the file.
        let k = (1..offsets.len() - 2)
            .find(|&k| offsets[k] < offsets[k + 1])
            .expect("kron graph has an interior increasing offset pair");
        bytes[off + k * 4..off + k * 4 + 4].copy_from_slice(&offsets[k + 1].to_le_bytes());
        bytes[off + (k + 1) * 4..off + (k + 1) * 4 + 4].copy_from_slice(&offsets[k].to_le_bytes());
        reseal(&mut bytes, row, off, len);
        std::fs::write(&path, &bytes).expect("rewrite");

        let snap = Snapshot::open(&path).expect("checksums are consistent");
        match snap.graph() {
            Err(GraphError::Snapshot(SnapshotError::Malformed { message })) => {
                assert!(message.contains("monotone"), "message: {message}");
            }
            other => panic!("({compression:?}) expected Malformed, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn out_of_range_raw_target_fails_structurally_on_default_loads() {
    // Kernels index (and some unsafely write) per-vertex arrays by
    // target id, so a checksum-consistent raw section holding an
    // out-of-range id must fail the default load, not flow downstream.
    let (path, mut bytes) = good_snapshot("oobtarget", Compression::Never);
    let (row, off, len) = find_section(&bytes, 2); // out_targets
    bytes[off..off + 4].copy_from_slice(&(1u32 << 20).to_le_bytes());
    reseal(&mut bytes, row, off, len);
    std::fs::write(&path, &bytes).expect("rewrite");

    let snap = Snapshot::open(&path).expect("checksums are consistent");
    match snap.graph() {
        Err(GraphError::Snapshot(SnapshotError::Malformed { message })) => {
            assert!(message.contains("out of range"), "message: {message}");
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn non_monotone_compressed_row_index_fails_decode_not_process() {
    // Scramble the compressed section's row byte-index (blo > bhi for
    // some row) while keeping its first/last sentinels: the validated
    // decode must reject the file rather than slice out of bounds.
    let (path, mut bytes) = good_snapshot("rowindex", Compression::Always);
    let (row, off, len) = find_section(&bytes, 2); // out_targets (varint)
    let n_plus_1 = {
        let n = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        n + 1
    };
    let starts: Vec<u64> = bytes[off..off + n_plus_1 * 8]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let k = (1..starts.len() - 2)
        .find(|&k| starts[k] < starts[k + 1])
        .expect("some row has bytes");
    bytes[off + k * 8..off + k * 8 + 8].copy_from_slice(&starts[k + 1].to_le_bytes());
    bytes[off + (k + 1) * 8..off + (k + 1) * 8 + 8].copy_from_slice(&starts[k].to_le_bytes());
    reseal(&mut bytes, row, off, len);
    std::fs::write(&path, &bytes).expect("rewrite");

    let snap = Snapshot::open(&path).expect("checksums are consistent");
    match snap.graph() {
        Err(GraphError::Snapshot(SnapshotError::Malformed { .. })) => {}
        other => panic!("expected Malformed from decode, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn non_positive_weight_fails_structurally_on_default_loads() {
    // Delta-stepping assumes positive weights; a checksum-consistent
    // bundle holding a negative one must fail the default load too.
    use gapbs_graph::gen::{GraphSpec, Scale};
    let pool = ThreadPool::new(1);
    let (graph, wgraph) = GraphSpec::Kron.generate_both_in(Scale::Tiny, &pool);
    let candidates: Vec<u32> = (0..graph.num_vertices() as u32).take(4).collect();
    let path = tmp_path("weight");
    snapshot::write(
        &path,
        &SnapshotContents {
            source_candidates: Some(&candidates),
            wgraph: Some(&wgraph),
            delta: 32,
            ..SnapshotContents::graph_only(&graph, 0)
        },
        Compression::Never,
    )
    .expect("write");
    let mut bytes = std::fs::read(&path).expect("read");
    let (row, off, len) = find_section(&bytes, 3); // out_weights
    bytes[off..off + 4].copy_from_slice(&(-5i32).to_le_bytes());
    reseal(&mut bytes, row, off, len);
    std::fs::write(&path, &bytes).expect("rewrite");

    let options = LoadOptions {
        paranoid: false,
        force_heap: false,
    };
    match Snapshot::open_with(&path, options) {
        Err(GraphError::Snapshot(SnapshotError::Invalid { message })) => {
            assert!(message.contains("weight -5"), "message: {message}");
        }
        other => panic!("expected Invalid, got {:?}", other.map(|_| "a snapshot")),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn paranoid_mode_catches_semantically_invalid_but_well_checksummed_files() {
    // Swap two adjacent targets in a raw section (breaking row
    // sortedness), then fix the checksums: the default checksum-only
    // load accepts the file, the paranoid load rejects it. This is the
    // exact trust boundary docs/SNAPSHOT.md documents.
    let graph = gen::kron(8, 8, 14);
    let path = tmp_path("semantic");
    snapshot::write(
        &path,
        &SnapshotContents::graph_only(&graph, 0),
        Compression::Never,
    )
    .expect("write");
    let mut bytes = std::fs::read(&path).expect("read");

    let section_count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let mut target_row = None;
    for i in 0..section_count {
        let row = 64 + i * 32;
        let kind = u32::from_le_bytes(bytes[row..row + 4].try_into().unwrap());
        if kind == 2 {
            target_row = Some(row);
        }
    }
    let row = target_row.expect("out_targets present");
    let off = u64::from_le_bytes(bytes[row + 8..row + 16].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(bytes[row + 16..row + 24].try_into().unwrap()) as usize;

    // Locate a vertex with degree ≥ 2 through the offsets section and
    // swap its first two targets — guaranteed to break within-row
    // sortedness (a boundary-straddling swap could stay valid).
    let mut offsets_row = None;
    for i in 0..section_count {
        let r = 64 + i * 32;
        if u32::from_le_bytes(bytes[r..r + 4].try_into().unwrap()) == 1 {
            offsets_row = Some(r);
        }
    }
    let or = offsets_row.expect("out_offsets present");
    let ooff = u64::from_le_bytes(bytes[or + 8..or + 16].try_into().unwrap()) as usize;
    let olen = u64::from_le_bytes(bytes[or + 16..or + 24].try_into().unwrap()) as usize;
    let offsets: Vec<u32> = bytes[ooff..ooff + olen]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let fat = (0..offsets.len() - 1)
        .find(|&u| offsets[u + 1] - offsets[u] >= 2)
        .expect("kron graph has a vertex of degree ≥ 2");
    let i = offsets[fat] as usize * 4;
    let a = u32::from_le_bytes(bytes[off + i..off + i + 4].try_into().unwrap());
    let b = u32::from_le_bytes(bytes[off + i + 4..off + i + 8].try_into().unwrap());
    assert!(a < b, "rows are sorted and duplicate-free before the swap");
    bytes[off + i..off + i + 4].copy_from_slice(&b.to_le_bytes());
    bytes[off + i + 4..off + i + 8].copy_from_slice(&a.to_le_bytes());

    let sum = snapshot::section_checksum(&bytes[off..off + len]);
    bytes[row + 24..row + 32].copy_from_slice(&sum.to_le_bytes());
    patch_header_checksum(&mut bytes);
    std::fs::write(&path, &bytes).expect("rewrite");

    // Checksum-only load: the file is internally consistent, so `open`
    // accepts it — that is the documented trust boundary.
    Snapshot::open(&path).expect("checksum-only open accepts consistent bytes");

    // Paranoid load runs the full O(V+E) sweep before constructing
    // anything and rejects with the violated invariant.
    let snap = Snapshot::open_with(
        &path,
        LoadOptions {
            paranoid: true,
            force_heap: false,
        },
    )
    .expect("open itself succeeds; validation is per-structure");
    match snap.graph() {
        Err(GraphError::Snapshot(SnapshotError::Invalid { message })) => {
            assert!(message.contains("sorted"), "message: {message}");
        }
        other => panic!("expected Invalid from paranoid load, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn heap_fallback_rejects_the_same_corruptions() {
    let (path, bytes) = good_snapshot("heapcorrupt", Compression::Never);
    let mut b = bytes.clone();
    let mid = b.len() / 2;
    b[mid] ^= 0x08;
    std::fs::write(&path, &b).expect("rewrite");
    let res = Snapshot::open_with(
        &path,
        LoadOptions {
            paranoid: false,
            force_heap: true,
        },
    );
    match res {
        Err(GraphError::Snapshot(SnapshotError::ChecksumMismatch { .. })) => {}
        other => panic!("heap path must also checksum, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn nonexistent_path_is_io_not_panic() {
    let path = tmp_path("nonexistent");
    match Snapshot::open(&path) {
        Err(GraphError::Io(_)) => {}
        other => panic!("expected io error, got {other:?}"),
    }
}

#[test]
fn good_files_still_load_after_all_that() {
    // Sanity anchor: the fixture generator itself produces loadable
    // snapshots under both encodings.
    for compression in [Compression::Never, Compression::Always, Compression::Auto] {
        let graph = gen::kron(8, 8, 0x5eed);
        let path = tmp_path("anchor");
        snapshot::write(
            &path,
            &SnapshotContents::graph_only(&graph, 99),
            compression,
        )
        .expect("write");
        let snap = Snapshot::open(&path).expect("open");
        let loaded: Graph = snap.graph().expect("load");
        assert_eq!(loaded, graph);
        std::fs::remove_file(&path).ok();
    }
    // The parallel decode matches the built graph at every pool size
    // (crossing the parallel cutoffs from both sides), for both
    // directions of a directed graph.
    let edges = gen::kron_edges(10, 16, 0x5eed);
    for symmetrize in [true, false] {
        let graph = Builder::new()
            .num_vertices(1 << 10)
            .symmetrize(symmetrize)
            .build(edges.clone())
            .expect("build");
        for compression in [Compression::Never, Compression::Always] {
            loads_identically_at_every_pool_size(&graph, compression);
        }
    }
}

fn loads_identically_at_every_pool_size(graph: &Graph, compression: Compression) {
    let path = tmp_path("pooled");
    snapshot::write(&path, &SnapshotContents::graph_only(graph, 99), compression).expect("write");
    let snap = Snapshot::open(&path).expect("open");
    for threads in [1, 2, 7, 16] {
        let pool = ThreadPool::new(threads);
        let loaded = snap.graph_in(Some(&pool)).expect("load");
        assert_eq!(&loaded, graph, "{compression:?}, {threads} threads");
    }
    std::fs::remove_file(&path).ok();
}
