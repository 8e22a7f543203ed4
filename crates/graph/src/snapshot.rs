//! Versioned, mmap-able on-disk CSR snapshots.
//!
//! The corpus generators are deterministic but not free: at benchmark
//! scales, regenerating and rebuilding every graph dominates process
//! start-up (the paper's Table I graphs make loading a first-class
//! concern, and `gapbs-serve` pays the whole corpus on every cold
//! start). A snapshot stores the finished CSR arrays in their in-memory
//! layout so a later process maps the file and serves the arrays
//! straight out of the page cache — zero copies, millisecond loads.
//!
//! # File layout (format version 2, little-endian)
//!
//! ```text
//! offset  size  field
//! ──────  ────  ─────────────────────────────────────────────
//!      0     8  magic "GAPSNAP\x01"
//!      8     2  format version (u16)
//!     10     1  offset width in bytes (always 4: u32 offsets)
//!     11     1  flags (1 directed, 2 weighted, 4 sym, 8 candidates)
//!     12     4  section count (u32)
//!     16     8  num_vertices (u64)
//!     24     8  num_arcs (u64, out-direction)
//!     32     8  aux (delta-stepping Δ for bundles, else 0)
//!     40     8  params hash (generator provenance, 0 = unspecified)
//!     48     8  reserved (0)
//!     56     8  checksum over bytes [0, 56) + section table
//!     64   32×k section table
//!   ····        64-byte-aligned sections
//! ```
//!
//! Each section-table row is `kind (u32), encoding (u32), file offset
//! (u64), byte length (u64), checksum (u64)`. Checksums are FNV-1a over
//! 64-bit little-endian words (trailing bytes folded individually) —
//! one linear pass at load catches any single-byte corruption.
//!
//! Loads verify the header and every section checksum, then hand out
//! `crate::Segment` views into the mapping: no O(V+E) per-row
//! semantic validation and no copies. Memory safety never rests on the
//! checksums alone, though — every load also runs the cheap structural
//! checks that unsafe downstream code depends on (offset arrays
//! monotone and bounded, raw targets in `[0, n)`), so a
//! checksum-consistent but malformed file fails with a structured
//! error instead of reaching kernels or the parallel decoder, and holds
//! every weight positive ([`SnapshotError::Invalid`] otherwise). Paranoid
//! loads (`LoadOptions::paranoid`) additionally re-run the full CSR
//! invariant sweep (sorted duplicate-free rows), surfacing violations as
//! [`SnapshotError::Invalid`].
//!
//! # Compressed adjacency
//!
//! A target section may instead store encoding 1: a `(n+1) × u64` row
//! byte-index followed by a per-row delta + LEB128 varint stream (first
//! neighbor absolute, then `gap − 1` per successor — rows are sorted
//! and duplicate-free, so every gap is ≥ 1). The writer measures both
//! encodings and keeps the compressed form when it beats raw by the
//! `COMPRESS_THRESHOLD` margin ([`Compression::Auto`]). Compression is
//! an on-disk form only: loads decode it in one validated parallel pass
//! into an owned CSR that is bit-identical to the builder's.

use std::path::Path;
use std::sync::Arc;

use crate::csr::{check_parts, CsrGraph, WCsrGraph};
use crate::error::{GraphError, SnapshotError};
use crate::graph::{Graph, WGraph};
use crate::segment::{as_bytes, MapRegion, Pod, Segment};
use crate::types::{NodeId, Weight};
use gapbs_parallel::{Schedule, SharedSlice, ThreadPool};

/// File magic: "GAPSNAP" plus a non-text byte so `file`/editors never
/// mistake a snapshot for text.
pub(crate) const MAGIC: [u8; 8] = *b"GAPSNAP\x01";

/// Format version this build reads and writes. Version 2 switched the
/// section checksums to the canonical FNV-1a 64-bit prime (v1 used a
/// non-standard constant); snapshots are a cache, so v1 files are
/// simply rebuilt.
pub const FORMAT_VERSION: u16 = 2;

/// Every section starts on a 64-byte boundary (cache line; also
/// satisfies every element alignment the format uses).
pub(crate) const SECTION_ALIGN: u64 = 64;

/// Auto compression keeps the varint form only when it is at least
/// this much smaller than raw (stored < raw × 0.9).
pub(crate) const COMPRESS_THRESHOLD: f64 = 0.9;

/// Header byte 10: the row-offset width in bytes. Offsets are `u32`;
/// the loader rejects any other value.
const OFFSET_WIDTH: u8 = std::mem::size_of::<u32>() as u8;

const HEADER_BYTES: usize = 64;
const SECTION_ROW_BYTES: usize = 32;
/// More section kinds than the format defines; a count above this is
/// malformed rather than merely unknown.
const MAX_SECTIONS: u32 = 64;
/// Vertex/arc sanity cap: 2^48 elements is far beyond any input this
/// format will see and keeps every size computation overflow-free.
const MAX_COUNT: u64 = 1 << 48;

const FLAG_DIRECTED: u8 = 1;
const FLAG_WEIGHTED: u8 = 2;
const FLAG_SYM: u8 = 4;
const FLAG_CANDIDATES: u8 = 8;

const ENC_RAW: u32 = 0;
const ENC_DELTA_VARINT: u32 = 1;

/// Section kinds. The out direction is the graph's stored adjacency;
/// in-sections exist only for directed graphs; sym-sections hold the
/// symmetrized TC view of a directed graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
enum SectionKind {
    OutOffsets = 1,
    OutTargets = 2,
    OutWeights = 3,
    InOffsets = 4,
    InTargets = 5,
    InWeights = 6,
    SymOffsets = 7,
    SymTargets = 8,
    SourceCandidates = 9,
}

impl SectionKind {
    fn name(self) -> &'static str {
        match self {
            SectionKind::OutOffsets => "out_offsets",
            SectionKind::OutTargets => "out_targets",
            SectionKind::OutWeights => "out_weights",
            SectionKind::InOffsets => "in_offsets",
            SectionKind::InTargets => "in_targets",
            SectionKind::InWeights => "in_weights",
            SectionKind::SymOffsets => "sym_offsets",
            SectionKind::SymTargets => "sym_targets",
            SectionKind::SourceCandidates => "source_candidates",
        }
    }
}

/// FNV-1a 64-bit offset basis (also the seed of the cache-key hash in
/// `gapbs-core`'s `snapshot_cache::params_hash`).
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Canonical FNV-1a 64-bit prime, 2^40 + 2^8 + 0xb3.
pub const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 64-bit little-endian words, trailing bytes folded
/// individually. Word-wise folding keeps the load-time integrity scan
/// ~8× cheaper than byte-wise FNV while still flipping on any
/// single-byte change.
pub fn section_checksum(bytes: &[u8]) -> u64 {
    let mut h = FNV1A_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(FNV1A_PRIME);
    }
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV1A_PRIME);
    }
    h
}

// ─────────────────────────── varint codec ───────────────────────────

fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint at `pos`; `None` on truncation or a value
/// that overflows 64 bits.
fn read_varint(bytes: &[u8], pos: usize) -> Option<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0u32;
    let mut used = 0usize;
    loop {
        let byte = *bytes.get(pos + used)?;
        used += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some((v, used));
        }
        shift += 7;
    }
}

/// Delta + LEB128 encodes sorted duplicate-free rows. Returns the
/// payload: `(n+1) × u64` row byte starts, then the stream.
fn encode_targets(offsets: &[u32], targets: &[NodeId]) -> Vec<u8> {
    let n = offsets.len() - 1;
    let mut stream = Vec::with_capacity(targets.len() * 2);
    let mut row_starts = Vec::with_capacity(n + 1);
    row_starts.push(0u64);
    for u in 0..n {
        let row = &targets[offsets[u] as usize..offsets[u + 1] as usize];
        let mut prev = 0u64;
        for (i, &v) in row.iter().enumerate() {
            let v = u64::from(v);
            if i == 0 {
                write_varint(&mut stream, v);
            } else {
                write_varint(&mut stream, v - prev - 1);
            }
            prev = v;
        }
        row_starts.push(stream.len() as u64);
    }
    let mut payload = Vec::with_capacity((n + 1) * 8 + stream.len());
    for &s in &row_starts {
        payload.extend_from_slice(&s.to_le_bytes());
    }
    payload.extend_from_slice(&stream);
    payload
}

/// Decodes one row's varint bytes into `out`. `n` bounds the targets.
/// Returns `false` on truncation, overflow, out-of-range or unsorted
/// values, or leftover bytes.
fn decode_row(bytes: &[u8], out: &mut [NodeId], n: usize) -> bool {
    let mut pos = 0usize;
    let mut prev = 0u64;
    for (i, slot) in out.iter_mut().enumerate() {
        let Some((raw, used)) = read_varint(bytes, pos) else {
            return false;
        };
        pos += used;
        let Some(val) = (if i == 0 {
            Some(raw)
        } else {
            prev.checked_add(1).and_then(|p| p.checked_add(raw))
        }) else {
            return false;
        };
        if val >= n as u64 {
            return false;
        }
        *slot = val as NodeId;
        prev = val;
    }
    pos == bytes.len()
}

// ──────────────────────────── writing ───────────────────────────────

/// Per-target-section encoding policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compression {
    /// Measure both encodings, keep varint only when it beats raw by
    /// `COMPRESS_THRESHOLD`.
    Auto,
    /// Always store raw targets (maximum load speed, zero copies).
    Never,
    /// Always store the varint form (for tests and size experiments).
    Always,
}

/// Everything one snapshot stores. `graph` is required; the other
/// structures make the file a full [`SnapshotBundle`] a benchmark
/// process can cold-start from.
#[derive(Debug)]
pub struct SnapshotContents<'a> {
    /// The graph (both directions when directed).
    pub graph: &'a Graph,
    /// Weighted companion. Must share `graph`'s exact topology — the
    /// snapshot stores its weights against the same target arrays.
    pub wgraph: Option<&'a WGraph>,
    /// Symmetrized view (directed graphs only; undirected graphs are
    /// their own symmetrization and store nothing extra).
    pub sym_graph: Option<&'a Graph>,
    /// Benchmark source candidates.
    pub source_candidates: Option<&'a [NodeId]>,
    /// Delta-stepping Δ (stored in the header's aux field).
    pub delta: Weight,
    /// Generator-provenance hash for cache keying (0 = unspecified).
    pub params_hash: u64,
}

impl<'a> SnapshotContents<'a> {
    /// A topology-only snapshot.
    pub fn graph_only(graph: &'a Graph, params_hash: u64) -> Self {
        SnapshotContents {
            graph,
            wgraph: None,
            sym_graph: None,
            source_candidates: None,
            delta: 0,
            params_hash,
        }
    }
}

/// One written section's size accounting.
#[derive(Debug, Clone)]
pub struct SectionStats {
    /// Section name.
    pub name: &'static str,
    /// `"raw"` or `"delta-varint"`.
    pub encoding: &'static str,
    /// Bytes the raw encoding would use.
    pub raw_bytes: u64,
    /// Bytes actually stored.
    pub stored_bytes: u64,
}

/// What [`write()`] produced.
#[derive(Debug, Clone)]
pub struct WriteStats {
    /// Total file size.
    pub file_bytes: u64,
    /// Per-section accounting.
    pub sections: Vec<SectionStats>,
}

impl WriteStats {
    /// Stored ÷ raw bytes over the adjacency (target) sections — the
    /// per-graph compression ratio `gapbs-snapshot build` reports. 1.0 when
    /// every target section is raw.
    pub fn adjacency_ratio(&self) -> f64 {
        let (mut raw, mut stored) = (0u64, 0u64);
        for s in &self.sections {
            if s.name.ends_with("targets") {
                raw += s.raw_bytes;
                stored += s.stored_bytes;
            }
        }
        if raw == 0 {
            1.0
        } else {
            stored as f64 / raw as f64
        }
    }
}

enum Payload<'a> {
    Borrowed(&'a [u8]),
    Owned(Vec<u8>),
}

impl Payload<'_> {
    fn bytes(&self) -> &[u8] {
        match self {
            Payload::Borrowed(b) => b,
            Payload::Owned(v) => v,
        }
    }
}

/// Appends one CSR direction (offsets section + targets section) to the
/// section list, choosing the target encoding per `compression`. The
/// raw byte images are the arrays' exact in-memory layout — that is
/// what makes the later mmap reinterpretation sound.
fn push_csr<'a>(
    sections: &mut Vec<(SectionKind, u32, Payload<'a>)>,
    stats: &mut Vec<SectionStats>,
    off_kind: SectionKind,
    tgt_kind: SectionKind,
    csr: &'a CsrGraph,
    compression: Compression,
) {
    let off_bytes = as_bytes(csr.offsets_raw());
    sections.push((off_kind, ENC_RAW, Payload::Borrowed(off_bytes)));
    stats.push(SectionStats {
        name: off_kind.name(),
        encoding: "raw",
        raw_bytes: off_bytes.len() as u64,
        stored_bytes: off_bytes.len() as u64,
    });

    let raw = as_bytes(csr.targets_raw());
    let compressed = match compression {
        Compression::Never => None,
        Compression::Always => Some(encode_targets(csr.offsets_raw(), csr.targets_raw())),
        Compression::Auto => {
            let enc = encode_targets(csr.offsets_raw(), csr.targets_raw());
            if !raw.is_empty() && (enc.len() as f64) < raw.len() as f64 * COMPRESS_THRESHOLD {
                Some(enc)
            } else {
                None
            }
        }
    };
    match compressed {
        Some(enc) => {
            stats.push(SectionStats {
                name: tgt_kind.name(),
                encoding: "delta-varint",
                raw_bytes: raw.len() as u64,
                stored_bytes: enc.len() as u64,
            });
            sections.push((tgt_kind, ENC_DELTA_VARINT, Payload::Owned(enc)));
        }
        None => {
            stats.push(SectionStats {
                name: tgt_kind.name(),
                encoding: "raw",
                raw_bytes: raw.len() as u64,
                stored_bytes: raw.len() as u64,
            });
            sections.push((tgt_kind, ENC_RAW, Payload::Borrowed(raw)));
        }
    }
}

fn invalid(message: impl Into<String>) -> GraphError {
    GraphError::Snapshot(SnapshotError::Invalid {
        message: message.into(),
    })
}

/// Writes a snapshot of `contents` to `path` (atomically: a temp file
/// in the same directory is renamed into place). Returns per-section
/// size accounting.
pub fn write(
    path: &Path,
    contents: &SnapshotContents<'_>,
    compression: Compression,
) -> Result<WriteStats, GraphError> {
    let graph = contents.graph;
    let n = graph.num_vertices();
    let m = graph.num_arcs();

    let mut flags = 0u8;
    if graph.is_directed() {
        flags |= FLAG_DIRECTED;
    }

    // The weighted companion must be the same topology: its weights are
    // stored against the shared target arrays.
    if let Some(wg) = contents.wgraph {
        flags |= FLAG_WEIGHTED;
        if wg.is_directed() != graph.is_directed()
            || wg.out_wcsr().unweighted() != graph.out_csr()
            || (graph.is_directed() && wg.in_wcsr().unweighted() != graph.in_csr())
        {
            return Err(invalid(
                "weighted companion topology differs from the graph",
            ));
        }
    }
    if let Some(sym) = contents.sym_graph {
        if !graph.is_directed() {
            return Err(invalid(
                "undirected graphs are their own symmetrization; store no sym view",
            ));
        }
        if sym.is_directed() || sym.num_vertices() != n {
            return Err(invalid(
                "sym view must be undirected with the same vertices",
            ));
        }
        flags |= FLAG_SYM;
    }
    if let Some(cands) = contents.source_candidates {
        if let Some(&bad) = cands.iter().find(|&&u| u as usize >= n) {
            return Err(invalid(format!("source candidate {bad} out of range")));
        }
        flags |= FLAG_CANDIDATES;
    }

    // Assemble sections in kind order.
    let mut sections: Vec<(SectionKind, u32, Payload<'_>)> = Vec::new();
    let mut stats = Vec::new();

    push_csr(
        &mut sections,
        &mut stats,
        SectionKind::OutOffsets,
        SectionKind::OutTargets,
        graph.out_csr(),
        compression,
    );
    if let Some(wg) = contents.wgraph {
        let b = as_bytes(wg.out_wcsr().weights_raw());
        stats.push(SectionStats {
            name: SectionKind::OutWeights.name(),
            encoding: "raw",
            raw_bytes: b.len() as u64,
            stored_bytes: b.len() as u64,
        });
        sections.push((SectionKind::OutWeights, ENC_RAW, Payload::Borrowed(b)));
    }
    if graph.is_directed() {
        push_csr(
            &mut sections,
            &mut stats,
            SectionKind::InOffsets,
            SectionKind::InTargets,
            graph.in_csr(),
            compression,
        );
        if let Some(wg) = contents.wgraph {
            let b = as_bytes(wg.in_wcsr().weights_raw());
            stats.push(SectionStats {
                name: SectionKind::InWeights.name(),
                encoding: "raw",
                raw_bytes: b.len() as u64,
                stored_bytes: b.len() as u64,
            });
            sections.push((SectionKind::InWeights, ENC_RAW, Payload::Borrowed(b)));
        }
    }
    if let Some(sym) = contents.sym_graph {
        push_csr(
            &mut sections,
            &mut stats,
            SectionKind::SymOffsets,
            SectionKind::SymTargets,
            sym.out_csr(),
            compression,
        );
    }
    if let Some(cands) = contents.source_candidates {
        let b = as_bytes(cands);
        stats.push(SectionStats {
            name: SectionKind::SourceCandidates.name(),
            encoding: "raw",
            raw_bytes: b.len() as u64,
            stored_bytes: b.len() as u64,
        });
        sections.push((SectionKind::SourceCandidates, ENC_RAW, Payload::Borrowed(b)));
    }

    // Lay out: header, table, 64-byte-aligned sections.
    let table_bytes = sections.len() * SECTION_ROW_BYTES;
    let mut cursor = (HEADER_BYTES + table_bytes) as u64;
    let mut rows = Vec::with_capacity(sections.len());
    for (kind, encoding, payload) in &sections {
        cursor = cursor.div_ceil(SECTION_ALIGN) * SECTION_ALIGN;
        let bytes = payload.bytes();
        rows.push((
            *kind as u32,
            *encoding,
            cursor,
            bytes.len() as u64,
            section_checksum(bytes),
        ));
        cursor += bytes.len() as u64;
    }
    let file_bytes = cursor;

    let mut header = [0u8; HEADER_BYTES];
    header[0..8].copy_from_slice(&MAGIC);
    header[8..10].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header[10] = OFFSET_WIDTH;
    header[11] = flags;
    header[12..16].copy_from_slice(&(sections.len() as u32).to_le_bytes());
    header[16..24].copy_from_slice(&(n as u64).to_le_bytes());
    header[24..32].copy_from_slice(&(m as u64).to_le_bytes());
    header[32..40].copy_from_slice(&(contents.delta as i64 as u64).to_le_bytes());
    header[40..48].copy_from_slice(&contents.params_hash.to_le_bytes());

    let mut table = Vec::with_capacity(table_bytes);
    for (kind, encoding, off, len, sum) in &rows {
        table.extend_from_slice(&kind.to_le_bytes());
        table.extend_from_slice(&encoding.to_le_bytes());
        table.extend_from_slice(&off.to_le_bytes());
        table.extend_from_slice(&len.to_le_bytes());
        table.extend_from_slice(&sum.to_le_bytes());
    }
    let mut covered = Vec::with_capacity(56 + table.len());
    covered.extend_from_slice(&header[..56]);
    covered.extend_from_slice(&table);
    header[56..64].copy_from_slice(&section_checksum(&covered).to_le_bytes());

    // Write atomically: temp file, then rename. The temp name appends a
    // pid + counter suffix to the *full* file name, so concurrent
    // writers racing on the same snapshot (two processes missing the
    // cache at once) each rename their own complete file, and files
    // sharing a stem with different extensions never collide.
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let written = (|| -> Result<(), GraphError> {
        use std::io::Write as _;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        out.write_all(&header)?;
        out.write_all(&table)?;
        let mut pos = (HEADER_BYTES + table_bytes) as u64;
        for ((_, _, off, _, _), (_, _, payload)) in rows.iter().zip(&sections) {
            let pad = off - pos;
            out.write_all(&vec![0u8; pad as usize])?;
            out.write_all(payload.bytes())?;
            pos = off + payload.bytes().len() as u64;
        }
        out.flush()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if let Err(e) = written {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }

    Ok(WriteStats {
        file_bytes,
        sections: stats,
    })
}

// ──────────────────────────── loading ───────────────────────────────

/// How to open a snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadOptions {
    /// Re-run the full O(V+E) CSR invariant sweep on every loaded
    /// structure (sorted duplicate-free rows, positive weights). Default
    /// loads rely on the section checksums only, keeping the load
    /// O(bytes-scanned) with zero copies.
    pub paranoid: bool,
    /// Skip `mmap` and read the file into an aligned heap buffer (the
    /// path non-unix targets always take).
    pub force_heap: bool,
}

#[derive(Debug, Clone, Copy)]
struct RawSection {
    kind: u32,
    encoding: u32,
    off: u64,
    len: u64,
    checksum: u64,
}

/// One section's metadata, for `gapbs-snapshot info`.
#[derive(Debug, Clone)]
pub struct SectionInfo {
    /// Section name (`"out_targets"`, ...).
    pub name: &'static str,
    /// `"raw"` or `"delta-varint"`.
    pub encoding: &'static str,
    /// Stored bytes.
    pub bytes: u64,
    /// Stored checksum.
    pub checksum: u64,
}

/// An opened, checksum-verified snapshot. Accessors hand out zero-copy
/// graphs borrowing the mapping (raw sections) or decode compressed
/// sections into owned, bit-identical arrays.
pub struct Snapshot {
    region: Arc<MapRegion>,
    version: u16,
    flags: u8,
    num_vertices: usize,
    num_arcs: u64,
    delta: Weight,
    params_hash: u64,
    paranoid: bool,
    sections: Vec<RawSection>,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("version", &self.version)
            .field("num_vertices", &self.num_vertices)
            .field("num_arcs", &self.num_arcs)
            .field("sections", &self.sections.len())
            .finish()
    }
}

fn err<T>(e: SnapshotError) -> Result<T, GraphError> {
    Err(GraphError::Snapshot(e))
}

impl Snapshot {
    /// Opens and checksum-verifies `path` with default options.
    pub fn open(path: &Path) -> Result<Snapshot, GraphError> {
        Self::open_with(path, LoadOptions::default())
    }

    /// Opens and checksum-verifies `path`. Every structural field is
    /// bounds-checked before use; no input can cause a panic or an
    /// out-of-bounds read.
    pub fn open_with(path: &Path, opts: LoadOptions) -> Result<Snapshot, GraphError> {
        let region = Arc::new(MapRegion::open_with(path, opts.force_heap)?);
        let bytes = region.as_bytes();
        if bytes.len() < HEADER_BYTES {
            return err(SnapshotError::Truncated {
                what: "header",
                needed: HEADER_BYTES as u64,
                have: bytes.len() as u64,
            });
        }
        let magic: [u8; 8] = bytes[0..8].try_into().expect("8 bytes");
        if magic != MAGIC {
            return err(SnapshotError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes(bytes[8..10].try_into().expect("2 bytes"));
        if version != FORMAT_VERSION {
            return err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let width = bytes[10];
        if width != OFFSET_WIDTH {
            return err(SnapshotError::Malformed {
                message: format!("offset width {width} is not {OFFSET_WIDTH} (u32 offsets)"),
            });
        }
        let flags = bytes[11];
        if flags & !(FLAG_DIRECTED | FLAG_WEIGHTED | FLAG_SYM | FLAG_CANDIDATES) != 0 {
            return err(SnapshotError::Malformed {
                message: format!("unknown flag bits {flags:#04x}"),
            });
        }
        let section_count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        if section_count > MAX_SECTIONS {
            return err(SnapshotError::Malformed {
                message: format!("implausible section count {section_count}"),
            });
        }
        let num_vertices = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
        let num_arcs = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
        if num_vertices >= MAX_COUNT || num_arcs >= MAX_COUNT {
            return err(SnapshotError::Malformed {
                message: format!("implausible counts: {num_vertices} vertices, {num_arcs} arcs"),
            });
        }
        let delta = u64::from_le_bytes(bytes[32..40].try_into().expect("8 bytes")) as i64;
        let delta = if (i64::from(Weight::MIN)..=i64::from(Weight::MAX)).contains(&delta) {
            delta as Weight
        } else {
            return err(SnapshotError::Malformed {
                message: format!("delta {delta} outside weight range"),
            });
        };
        let params_hash = u64::from_le_bytes(bytes[40..48].try_into().expect("8 bytes"));

        let table_end = HEADER_BYTES + section_count as usize * SECTION_ROW_BYTES;
        if bytes.len() < table_end {
            return err(SnapshotError::Truncated {
                what: "section table",
                needed: table_end as u64,
                have: bytes.len() as u64,
            });
        }
        let stored_header_sum = u64::from_le_bytes(bytes[56..64].try_into().expect("8 bytes"));
        let mut covered = Vec::with_capacity(table_end - 8);
        covered.extend_from_slice(&bytes[..56]);
        covered.extend_from_slice(&bytes[HEADER_BYTES..table_end]);
        let computed = section_checksum(&covered);
        if computed != stored_header_sum {
            return err(SnapshotError::ChecksumMismatch {
                section: "header",
                stored: stored_header_sum,
                computed,
            });
        }

        let mut sections = Vec::with_capacity(section_count as usize);
        for i in 0..section_count as usize {
            let row = &bytes[HEADER_BYTES + i * SECTION_ROW_BYTES..][..SECTION_ROW_BYTES];
            let sec = RawSection {
                kind: u32::from_le_bytes(row[0..4].try_into().expect("4 bytes")),
                encoding: u32::from_le_bytes(row[4..8].try_into().expect("4 bytes")),
                off: u64::from_le_bytes(row[8..16].try_into().expect("8 bytes")),
                len: u64::from_le_bytes(row[16..24].try_into().expect("8 bytes")),
                checksum: u64::from_le_bytes(row[24..32].try_into().expect("8 bytes")),
            };
            if !sec.off.is_multiple_of(SECTION_ALIGN) {
                return err(SnapshotError::Malformed {
                    message: format!("section {} misaligned at offset {}", sec.kind, sec.off),
                });
            }
            let end = sec.off.checked_add(sec.len).ok_or(GraphError::Snapshot(
                SnapshotError::Malformed {
                    message: format!("section {} length overflows", sec.kind),
                },
            ))?;
            if end > bytes.len() as u64 {
                return err(SnapshotError::Truncated {
                    what: "section payload",
                    needed: end,
                    have: bytes.len() as u64,
                });
            }
            if sections.iter().any(|s: &RawSection| s.kind == sec.kind) {
                return err(SnapshotError::Malformed {
                    message: format!("duplicate section kind {}", sec.kind),
                });
            }
            let payload = &bytes[sec.off as usize..(sec.off + sec.len) as usize];
            let computed = section_checksum(payload);
            if computed != sec.checksum {
                return err(SnapshotError::ChecksumMismatch {
                    section: kind_name(sec.kind),
                    stored: sec.checksum,
                    computed,
                });
            }
            // Every load holds weights to GAP SSSP's positivity rule, as
            // the builder does: delta-stepping assumes it, so a
            // non-positive weight from a checksum-consistent file is a
            // structured error. Checked here, while the checksum scan has
            // the payload in cache.
            if sec.kind == SectionKind::OutWeights as u32
                || sec.kind == SectionKind::InWeights as u32
            {
                let min = payload
                    .chunks_exact(4)
                    .map(|w| Weight::from_le_bytes(w.try_into().expect("4 bytes")))
                    .fold(Weight::MAX, Weight::min);
                if min <= 0 {
                    return err(SnapshotError::Invalid {
                        message: format!(
                            "section {} holds non-positive weight {min}",
                            kind_name(sec.kind)
                        ),
                    });
                }
            }
            sections.push(sec);
        }

        Ok(Snapshot {
            region,
            version,
            flags,
            num_vertices: num_vertices as usize,
            num_arcs,
            delta,
            params_hash,
            paranoid: opts.paranoid,
            sections,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of stored out-direction arcs.
    pub fn num_arcs(&self) -> u64 {
        self.num_arcs
    }

    /// `true` when the stored graph is directed.
    pub fn is_directed(&self) -> bool {
        self.flags & FLAG_DIRECTED != 0
    }

    /// `true` when weight sections are present.
    pub fn has_weights(&self) -> bool {
        self.flags & FLAG_WEIGHTED != 0
    }

    /// `true` when a symmetrized view is stored.
    pub fn has_sym(&self) -> bool {
        self.flags & FLAG_SYM != 0
    }

    /// `true` when source candidates are stored.
    pub fn has_candidates(&self) -> bool {
        self.flags & FLAG_CANDIDATES != 0
    }

    /// Format version of the file.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Delta-stepping Δ recorded for bundles.
    pub fn delta(&self) -> Weight {
        self.delta
    }

    /// Generator-provenance hash recorded at build time.
    pub fn params_hash(&self) -> u64 {
        self.params_hash
    }

    /// `true` when the backing region is a real memory mapping.
    pub fn is_mmap(&self) -> bool {
        self.region.is_mmap()
    }

    /// Per-section metadata in file order.
    pub fn sections(&self) -> Vec<SectionInfo> {
        self.sections
            .iter()
            .map(|s| SectionInfo {
                name: kind_name(s.kind),
                encoding: if s.encoding == ENC_DELTA_VARINT {
                    "delta-varint"
                } else {
                    "raw"
                },
                bytes: s.len,
                checksum: s.checksum,
            })
            .collect()
    }

    fn find(&self, kind: SectionKind) -> Result<&RawSection, GraphError> {
        self.sections
            .iter()
            .find(|s| s.kind == kind as u32)
            .ok_or(GraphError::Snapshot(SnapshotError::MissingSection {
                section: kind.name(),
            }))
    }

    /// A zero-copy typed view of a raw section, checking the byte
    /// length corresponds to exactly `expected` elements.
    fn typed<T: Pod>(&self, sec: &RawSection, expected: usize) -> Result<Segment<T>, GraphError> {
        if sec.encoding != ENC_RAW {
            return err(SnapshotError::Malformed {
                message: format!("section {} has unexpected encoding", kind_name(sec.kind)),
            });
        }
        let elem = std::mem::size_of::<T>() as u64;
        if sec.len != expected as u64 * elem {
            return err(SnapshotError::Malformed {
                message: format!(
                    "section {} holds {} bytes, expected {} × {}",
                    kind_name(sec.kind),
                    sec.len,
                    expected,
                    elem
                ),
            });
        }
        Segment::from_region(&self.region, sec.off as usize, expected).ok_or(GraphError::Snapshot(
            SnapshotError::Malformed {
                message: format!("section {} misaligned for its type", kind_name(sec.kind)),
            },
        ))
    }

    /// Loads the offsets of a CSR pair and derives its arc count from
    /// the final offset, cross-checked against `expect_arcs` when the
    /// header pins it.
    ///
    /// Always verifies the array is monotone (O(V), even on
    /// non-paranoid loads): downstream code — `degree()` subtraction,
    /// row slicing, and the parallel decoder's disjoint
    /// `SharedSlice::range_mut` writes — relies on `offsets[u] <=
    /// offsets[u + 1] <= offsets[n]`, so a checksum-consistent but
    /// malformed file must fail here, not underflow or write out of
    /// bounds later.
    fn load_offsets(
        &self,
        kind: SectionKind,
        expect_arcs: Option<u64>,
    ) -> Result<(Segment<u32>, usize), GraphError> {
        let sec = self.find(kind)?;
        let offs = self.typed::<u32>(sec, self.num_vertices + 1)?;
        let last = offs.last().map_or(0, |&o| o as usize);
        if offs.first().copied() != Some(0) {
            return err(SnapshotError::Malformed {
                message: format!("section {} does not start at offset 0", kind.name()),
            });
        }
        if offs.windows(2).any(|w| w[0] > w[1]) {
            return err(SnapshotError::Malformed {
                message: format!("section {} offsets are not monotone", kind.name()),
            });
        }
        if let Some(m) = expect_arcs {
            if last as u64 != m {
                return err(SnapshotError::Malformed {
                    message: format!(
                        "section {} ends at {last}, header declares {m} arcs",
                        kind.name()
                    ),
                });
            }
        }
        Ok((offs, last))
    }

    /// Loads one adjacency direction: zero-copy for raw targets, a
    /// validated parallel decode for delta-varint targets.
    fn load_csr(
        &self,
        off_kind: SectionKind,
        tgt_kind: SectionKind,
        expect_arcs: Option<u64>,
        pool: Option<&ThreadPool>,
    ) -> Result<(CsrGraph, Segment<NodeId>), GraphError> {
        let (offs, m) = self.load_offsets(off_kind, expect_arcs)?;
        let sec = self.find(tgt_kind)?;
        let targets: Segment<NodeId> = if sec.encoding == ENC_DELTA_VARINT {
            let comp = self.compressed_from(sec, &offs, m)?;
            let decoded = Arc::new(comp.decode_vec(pool).map_err(GraphError::Snapshot)?);
            Segment::from_shared_vec(decoded)
        } else {
            // Raw targets skip the per-row decode validation, so range
            // check them here even on non-paranoid loads: kernels index
            // (and some unsafely write) arrays by target id, and an
            // out-of-range id from a checksum-consistent file must be a
            // structured error, not an out-of-bounds access. One O(E)
            // pass, same order as the checksum scan the load already
            // paid; row sortedness stays behind the paranoid flag.
            let t = self.typed::<NodeId>(sec, m)?;
            if !self.paranoid {
                let n = self.num_vertices;
                if let Some(&bad) = t.iter().find(|&&v| v as usize >= n) {
                    return err(SnapshotError::Malformed {
                        message: format!(
                            "section {} target {bad} out of range for {n} vertices",
                            tgt_kind.name()
                        ),
                    });
                }
            }
            t
        };
        if self.paranoid {
            if let Err(message) = check_parts(&offs, &targets) {
                return err(SnapshotError::Invalid { message });
            }
        }
        let shared = targets.clone();
        Ok((CsrGraph::from_segments_unchecked(offs, targets), shared))
    }

    fn compressed_from(
        &self,
        sec: &RawSection,
        offs: &Segment<u32>,
        m: usize,
    ) -> Result<CompressedCsr, GraphError> {
        let n = self.num_vertices;
        let index_bytes = (n as u64 + 1) * 8;
        if sec.len < index_bytes {
            return err(SnapshotError::Malformed {
                message: format!(
                    "compressed section {} too short for its row index",
                    kind_name(sec.kind)
                ),
            });
        }
        let row_starts: Segment<u64> = Segment::from_region(&self.region, sec.off as usize, n + 1)
            .ok_or(GraphError::Snapshot(SnapshotError::Malformed {
                message: "compressed row index misaligned".to_string(),
            }))?;
        let stream_len = (sec.len - index_bytes) as usize;
        let stream: Segment<u8> = Segment::from_region(
            &self.region,
            sec.off as usize + index_bytes as usize,
            stream_len,
        )
        .ok_or(GraphError::Snapshot(SnapshotError::Malformed {
            message: "compressed stream out of bounds".to_string(),
        }))?;
        if row_starts.first().copied() != Some(0)
            || row_starts.last().copied() != Some(stream_len as u64)
        {
            return err(SnapshotError::Malformed {
                message: format!(
                    "compressed section {} row index does not tile its stream",
                    kind_name(sec.kind)
                ),
            });
        }
        Ok(CompressedCsr {
            offsets: offs.clone(),
            row_starts,
            stream,
            num_edges: m,
        })
    }

    /// Loads the graph: zero-copy views for raw sections, validated
    /// decode for compressed ones. `pool` parallelizes the decode.
    pub fn graph_in(&self, pool: Option<&ThreadPool>) -> Result<Graph, GraphError> {
        let (out, _) = self.load_csr(
            SectionKind::OutOffsets,
            SectionKind::OutTargets,
            Some(self.num_arcs),
            pool,
        )?;
        if self.is_directed() {
            let (inc, _) = self.load_csr(
                SectionKind::InOffsets,
                SectionKind::InTargets,
                Some(self.num_arcs),
                pool,
            )?;
            Ok(Graph::directed(out, inc))
        } else {
            Ok(Graph::undirected(out))
        }
    }

    /// [`Snapshot::graph_in`] with a serial decode.
    pub fn graph(&self) -> Result<Graph, GraphError> {
        self.graph_in(None)
    }

    /// Source candidates (copied out of the mapping — callers own a
    /// plain `Vec`). Every id is range-checked.
    pub(crate) fn source_candidates(&self) -> Result<Vec<NodeId>, GraphError> {
        let sec = self.find(SectionKind::SourceCandidates)?;
        if sec.len % 4 != 0 {
            return err(SnapshotError::Malformed {
                message: "source candidate section not a whole number of ids".to_string(),
            });
        }
        let seg: Segment<NodeId> = self.typed(sec, sec.len as usize / 4)?;
        if let Some(&bad) = seg.iter().find(|&&u| u as usize >= self.num_vertices) {
            return err(SnapshotError::Malformed {
                message: format!("source candidate {bad} out of range"),
            });
        }
        Ok(seg.to_vec())
    }

    /// Loads the full benchmark bundle: graph, weighted companion
    /// (sharing the graph's target storage), symmetrized view, source
    /// candidates and Δ.
    pub fn bundle_in(&self, pool: Option<&ThreadPool>) -> Result<SnapshotBundle, GraphError> {
        if !self.has_weights() {
            return err(SnapshotError::MissingSection {
                section: SectionKind::OutWeights.name(),
            });
        }
        if !self.has_candidates() {
            return err(SnapshotError::MissingSection {
                section: SectionKind::SourceCandidates.name(),
            });
        }

        let (out, out_targets) = self.load_csr(
            SectionKind::OutOffsets,
            SectionKind::OutTargets,
            Some(self.num_arcs),
            pool,
        )?;
        let m = out.num_edges();
        let out_weights = self.typed(self.find(SectionKind::OutWeights)?, m)?;
        // The weighted companion shares the graph's offset and target
        // storage; only the weight arrays are distinct sections.
        let w_out = WCsrGraph::from_segments(
            CsrGraph::from_segments_unchecked(out.offsets_segment(), out_targets),
            out_weights,
        );

        let (graph, wgraph, sym_graph) = if self.is_directed() {
            let (inc, in_targets) = self.load_csr(
                SectionKind::InOffsets,
                SectionKind::InTargets,
                Some(self.num_arcs),
                pool,
            )?;
            let in_weights = self.typed(self.find(SectionKind::InWeights)?, m)?;
            let w_in = WCsrGraph::from_segments(
                CsrGraph::from_segments_unchecked(inc.offsets_segment(), in_targets),
                in_weights,
            );
            if !self.has_sym() {
                return err(SnapshotError::MissingSection {
                    section: SectionKind::SymOffsets.name(),
                });
            }
            let (sym, _) =
                self.load_csr(SectionKind::SymOffsets, SectionKind::SymTargets, None, pool)?;
            (
                Graph::directed(out, inc),
                WGraph::directed(w_out, w_in),
                Graph::undirected(sym),
            )
        } else {
            let graph = Graph::undirected(out);
            (graph.clone(), WGraph::undirected(w_out), graph)
        };

        Ok(SnapshotBundle {
            graph,
            wgraph,
            sym_graph,
            source_candidates: self.source_candidates()?,
            delta: self.delta,
        })
    }
}

fn kind_name(kind: u32) -> &'static str {
    match kind {
        1 => "out_offsets",
        2 => "out_targets",
        3 => "out_weights",
        4 => "in_offsets",
        5 => "in_targets",
        6 => "in_weights",
        7 => "sym_offsets",
        8 => "sym_targets",
        9 => "source_candidates",
        _ => "unknown",
    }
}

/// Everything a benchmark process cold-starts from: the exact structures
/// `BenchGraph` prepares, reconstructed from one snapshot.
#[derive(Debug, Clone)]
pub struct SnapshotBundle {
    /// The graph (both directions when directed).
    pub graph: Graph,
    /// Weighted companion sharing the graph's adjacency storage.
    pub wgraph: WGraph,
    /// Symmetrized TC view (the graph itself when undirected).
    pub sym_graph: Graph,
    /// Benchmark source candidates.
    pub source_candidates: Vec<NodeId>,
    /// Delta-stepping Δ.
    pub delta: Weight,
}

// ─────────────────────── compressed adjacency ───────────────────────

/// A delta + LEB128 compressed adjacency as stored on disk: the ordinary
/// element offsets plus `row_starts`, which index the varint stream by
/// byte. [`CompressedCsr::decode_vec`] validates while decoding.
struct CompressedCsr {
    offsets: Segment<u32>,
    row_starts: Segment<u64>,
    stream: Segment<u8>,
    num_edges: usize,
}

impl CompressedCsr {
    fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Decodes every row into a flat target array, validating varint
    /// framing, sortedness and target range as it goes. Parallel over
    /// rows when `pool` is given; the output is bit-identical either
    /// way.
    fn decode_vec(&self, pool: Option<&ThreadPool>) -> Result<Vec<NodeId>, SnapshotError> {
        let n = self.num_vertices();
        let m = self.num_edges;
        if self.offsets.last().map_or(0, |&o| o as usize) != m {
            return Err(SnapshotError::Malformed {
                message: "compressed offsets do not cover the arc count".to_string(),
            });
        }
        // The loader already validated monotonicity, but the unsafe
        // disjoint-write below must not depend on callers: re-check
        // here (O(V)) so `range_mut(lo, hi)` always sees
        // `lo <= hi <= m` on any input.
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(SnapshotError::Malformed {
                message: "compressed offsets are not monotone".to_string(),
            });
        }
        let mut targets = vec![0 as NodeId; m];
        let bad = std::sync::atomic::AtomicBool::new(false);
        {
            let out = SharedSlice::new(&mut targets);
            let decode_one = |u: usize| {
                let lo = self.offsets[u] as usize;
                let hi = self.offsets[u + 1] as usize;
                let (blo, bhi) = (self.row_starts[u] as usize, self.row_starts[u + 1] as usize);
                let Some(bytes) = self.stream.get(blo..bhi.max(blo)) else {
                    bad.store(true, std::sync::atomic::Ordering::Relaxed);
                    return;
                };
                // Safety: offsets are monotone and end at m (checked
                // above), so `lo <= hi <= m` and the per-row ranges
                // partition the output array disjointly.
                let row = unsafe { out.range_mut(lo, hi) };
                if !decode_row(bytes, row, n) {
                    bad.store(true, std::sync::atomic::Ordering::Relaxed);
                }
            };
            match pool {
                Some(pool) => pool.for_each_index(n, Schedule::Guided, decode_one),
                None => (0..n).for_each(decode_one),
            }
        }
        if bad.load(std::sync::atomic::Ordering::Relaxed) {
            return Err(SnapshotError::Malformed {
                message: "compressed adjacency stream failed validation".to_string(),
            });
        }
        Ok(targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{symmetrize_graph, Builder};
    use crate::edgelist::Edge;
    use crate::gen;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_path(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("gapsnap-{}-{tag}-{id}.gsnap", std::process::id()))
    }

    fn directed_fixture() -> (Graph, Vec<Edge>) {
        let edges = gen::kron_edges(8, 6, 0xfeed);
        let graph = Builder::new().build(edges.clone()).expect("build");
        (graph, edges)
    }

    #[test]
    fn varint_round_trips_every_magnitude() {
        let mut buf = Vec::new();
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            1 << 20,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            let (got, used) = read_varint(&buf, pos).expect("decodable");
            assert_eq!(got, v);
            pos += used;
        }
        assert_eq!(pos, buf.len());
        assert!(read_varint(&[0x80], 0).is_none(), "truncated varint");
        assert!(
            read_varint(&[0xff; 11], 0).is_none(),
            "64-bit overflow rejected"
        );
    }

    #[test]
    fn undirected_raw_round_trip_is_bit_identical() {
        let g = gen::kron(8, 8, 3);
        let path = tmp_path("undirected-raw");
        let stats = write(
            &path,
            &SnapshotContents::graph_only(&g, 42),
            Compression::Never,
        )
        .expect("write");
        assert!((stats.adjacency_ratio() - 1.0).abs() < f64::EPSILON);
        let snap = Snapshot::open(&path).expect("open");
        assert_eq!(snap.params_hash(), 42);
        assert_eq!(snap.num_vertices(), g.num_vertices());
        assert!(!snap.is_directed());
        let loaded: Graph = snap.graph().expect("load");
        assert_eq!(loaded, g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn directed_compressed_round_trip_is_bit_identical() {
        let (g, _) = directed_fixture();
        assert!(g.is_directed());
        let path = tmp_path("directed-comp");
        let stats = write(
            &path,
            &SnapshotContents::graph_only(&g, 0),
            Compression::Always,
        )
        .expect("write");
        assert!(stats.sections.iter().any(|s| s.encoding == "delta-varint"));
        let snap = Snapshot::open(&path).expect("open");
        let loaded: Graph = snap.graph().expect("load");
        assert_eq!(loaded, g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bundle_round_trip_restores_every_structure() {
        let (g, edges) = directed_fixture();
        let pool = gapbs_parallel::ThreadPool::new(2);
        let wg = gen::weighted_companion(g.num_vertices(), &edges, false, 0xfeed);
        let sym = symmetrize_graph(&g, &pool);
        let candidates: Vec<NodeId> = (0..g.num_vertices() as NodeId)
            .filter(|&u| g.out_csr().degree(u) > 0)
            .take(16)
            .collect();
        let path = tmp_path("bundle");
        write(
            &path,
            &SnapshotContents {
                graph: &g,
                wgraph: Some(&wg),
                sym_graph: Some(&sym),
                source_candidates: Some(&candidates),
                delta: 32,
                params_hash: 7,
            },
            Compression::Auto,
        )
        .expect("write");
        let snap = Snapshot::open(&path).expect("open");
        let bundle: SnapshotBundle = snap.bundle_in(Some(&pool)).expect("bundle");
        assert_eq!(bundle.graph, g);
        assert_eq!(bundle.wgraph, wg);
        assert_eq!(bundle.sym_graph, sym);
        assert_eq!(bundle.source_candidates, candidates);
        assert_eq!(bundle.delta, 32);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupting_one_byte_is_rejected_with_a_checksum_error() {
        let g = gen::kron(7, 6, 1);
        let path = tmp_path("corrupt");
        write(
            &path,
            &SnapshotContents::graph_only(&g, 0),
            Compression::Never,
        )
        .expect("write");
        let mut bytes = std::fs::read(&path).expect("read back");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("rewrite");
        match Snapshot::open(&path) {
            Err(GraphError::Snapshot(SnapshotError::ChecksumMismatch { .. })) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn paranoid_load_runs_full_validation() {
        let g = gen::kron(7, 6, 2);
        let path = tmp_path("paranoid");
        write(
            &path,
            &SnapshotContents::graph_only(&g, 0),
            Compression::Auto,
        )
        .expect("write");
        let snap = Snapshot::open_with(
            &path,
            LoadOptions {
                paranoid: true,
                force_heap: false,
            },
        )
        .expect("open");
        let loaded: Graph = snap.graph().expect("paranoid load of a good file");
        assert_eq!(loaded, g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn heap_fallback_load_matches_mmap_load() {
        let g = gen::urand(7, 4, 5);
        let path = tmp_path("heap");
        write(
            &path,
            &SnapshotContents::graph_only(&g, 0),
            Compression::Never,
        )
        .expect("write");
        let mapped = Snapshot::open(&path).expect("mmap open");
        let heaped = Snapshot::open_with(
            &path,
            LoadOptions {
                paranoid: false,
                force_heap: true,
            },
        )
        .expect("heap open");
        assert!(!heaped.is_mmap());
        let a: Graph = mapped.graph().expect("load");
        let b: Graph = heaped.graph().expect("load");
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_does_not_clobber_files_sharing_a_stem() {
        // The temp name must extend the full file name (pid + sequence
        // suffix), not replace the extension: a sibling `foo.tmp` next
        // to `foo.gsnap` belongs to someone else.
        let g = gen::urand(6, 4, 8);
        let path = tmp_path("sibling");
        let sibling = path.with_extension("tmp");
        std::fs::write(&sibling, b"precious").expect("plant sibling");
        write(
            &path,
            &SnapshotContents::graph_only(&g, 0),
            Compression::Never,
        )
        .expect("write");
        assert_eq!(
            std::fs::read(&sibling).expect("sibling survives"),
            b"precious"
        );
        Snapshot::open(&path).expect("snapshot itself is intact");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sibling).ok();
    }

    #[test]
    fn writer_rejects_mismatched_weighted_topology() {
        let (g, _) = directed_fixture();
        let other_edges = gen::kron_edges(8, 6, 0xbeef);
        let wg = gen::weighted_companion(g.num_vertices(), &other_edges, false, 1);
        let path = tmp_path("mismatch");
        let res = write(
            &path,
            &SnapshotContents {
                graph: &g,
                wgraph: Some(&wg),
                sym_graph: None,
                source_candidates: None,
                delta: 2,
                params_hash: 0,
            },
            Compression::Never,
        );
        match res {
            Err(GraphError::Snapshot(SnapshotError::Invalid { .. })) => {}
            other => panic!("expected invalid-contents error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// FNV-1a over the exact bytes [`write`] produces for two Tiny
    /// bundles (graph, weighted companion, source candidates, Δ, plus the
    /// in-direction and symmetrized sections for directed Twitter), raw
    /// and varint. A change here is an on-disk format change and needs a
    /// [`FORMAT_VERSION`] bump.
    #[test]
    fn writer_bytes_match_golden_hashes() {
        use crate::gen::{GraphSpec, Scale};
        let golden = [
            (GraphSpec::Kron, Compression::Never, 0x2f42_711d_e452_e58e),
            (GraphSpec::Kron, Compression::Always, 0x917a_a6e2_e979_150b),
            (
                GraphSpec::Twitter,
                Compression::Never,
                0x2118_a624_93f8_e282,
            ),
            (
                GraphSpec::Twitter,
                Compression::Always,
                0xeae0_159c_1e27_e01f,
            ),
        ];
        let pool = gapbs_parallel::ThreadPool::new(2);
        let mut got = Vec::new();
        for (spec, compression, _) in golden {
            let (g, wg) = spec.generate_both_in(Scale::Tiny, &pool);
            let sym = g.is_directed().then(|| symmetrize_graph(&g, &pool));
            let candidates: Vec<NodeId> = g
                .vertices()
                .filter(|&u| g.out_degree(u) > 0)
                .take(16)
                .collect();
            let contents = SnapshotContents {
                graph: &g,
                wgraph: Some(&wg),
                sym_graph: sym.as_ref(),
                source_candidates: Some(&candidates),
                delta: 16,
                params_hash: 0x1234_5678_9abc_def0,
            };
            let path = tmp_path("golden");
            write(&path, &contents, compression).expect("write");
            let bytes = std::fs::read(&path).expect("read back");
            std::fs::remove_file(&path).ok();
            assert_eq!(bytes[10], 4, "offset width byte");
            got.push(bytes.iter().fold(FNV1A_OFFSET, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(FNV1A_PRIME)
            }));
        }
        let want: Vec<u64> = golden.iter().map(|&(_, _, h)| h).collect();
        assert_eq!(got, want, "got {got:#018x?}");
    }
}
