//! The wire protocol: line-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, in order, per
//! connection. Concurrency comes from concurrent connections — the
//! shape Gunrock frames for a resident-graph service, and the simplest
//! protocol a load generator or a `nc` session can speak.
//!
//! ```text
//! {"kernel":"bfs","graph":"kron","source":42}
//! {"kernel":"pr","graph":"web","k":5}
//! {"kernel":"sssp","graph":"road","source":0,"target":17,"deadline_ms":250}
//! {"cmd":"stats"}
//! {"cmd":"shutdown"}
//! ```
//!
//! Responses are JSON objects with `"ok":true` plus kernel-specific
//! result fields, or `"ok":false` with a stable error `code`. Every
//! success response carries a `fingerprint`: an FNV-1a hash of the
//! *canonical* form of the full kernel output (see [`canonical`]), so a
//! client can assert bit-identity against a batch-mode run without
//! shipping whole parent/distance arrays over the socket.

use gapbs_core::{Kernel, Mode};
use gapbs_graph::gen::GraphSpec;
use gapbs_graph::types::NodeId;
use gapbs_telemetry::json::Json;

/// Stable machine-readable error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ErrorCode {
    /// The line was not valid JSON.
    Malformed,
    /// Valid JSON, but required fields are missing or mistyped.
    BadRequest,
    /// `kernel` is not one of the six.
    UnknownKernel,
    /// `graph` is not resident in the registry.
    UnknownGraph,
    /// `framework` is not one of the evaluated six.
    UnknownFramework,
    /// `source`/`target`/`vertex` is outside the graph's vertex range.
    BadSource,
    /// The admission queue was full.
    Rejected,
    /// The request's deadline expired before a result could be sent.
    DeadlineExceeded,
    /// The daemon is draining and accepts no new queries.
    ShuttingDown,
    /// Verification or another server-side failure.
    Internal,
}

impl ErrorCode {
    /// The stable wire name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownKernel => "unknown_kernel",
            ErrorCode::UnknownGraph => "unknown_graph",
            ErrorCode::UnknownFramework => "unknown_framework",
            ErrorCode::BadSource => "bad_source",
            ErrorCode::Rejected => "rejected",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A protocol-level failure: code plus human-readable detail.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoError {
    /// Stable error code.
    pub(crate) code: ErrorCode,
    /// Human-readable detail for the `error` field.
    pub message: String,
}

impl ProtoError {
    /// Builds an error.
    pub(crate) fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ProtoError {
            code,
            message: message.into(),
        }
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// A kernel query.
    Query(Query),
    /// A multi-source BFS batch (`"sources":[...]`).
    Batch(BatchQuery),
    /// `{"cmd":"shutdown"}` — drain and exit.
    Shutdown,
    /// `{"cmd":"stats"}` — daemon statistics.
    Stats,
    /// `{"cmd":"ping"}` — liveness probe.
    Ping,
}

/// An explicit multi-source BFS request: one line carrying a source
/// list, answered by one MS-BFS execution with a per-source result (and
/// per-source canonical fingerprint) in a single response line.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchQuery {
    /// Everything but the sources (`query.source` is `None`).
    pub query: Query,
    /// The packed sources, in request order. Never empty.
    pub sources: Vec<NodeId>,
}

/// A validated kernel query (ranges are checked against the graph by the
/// engine, which owns the registry).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Client request id, echoed verbatim in the response.
    pub id: Option<Json>,
    /// Which kernel to run.
    pub kernel: Kernel,
    /// Which resident graph to run it on.
    pub graph: GraphSpec,
    /// Framework display name ("GAP", "SuiteSparse", ...).
    pub framework: String,
    /// Rule set (Baseline unless `"mode":"optimized"`).
    pub mode: Mode,
    /// Source vertex (required for bfs/sssp/bc).
    pub source: Option<NodeId>,
    /// Lookup vertex: bfs parent-of / sssp distance-to target.
    pub target: Option<NodeId>,
    /// Lookup vertex for cc membership.
    pub vertex: Option<NodeId>,
    /// Top-k size for pr/bc score listings.
    pub k: usize,
    /// Per-request deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// `"trace": true` — capture this query's Chrome-trace events and
    /// return them inline in the response (`docs/OPERATIONS.md`).
    pub trace: bool,
}

/// Default top-k size for PR/BC responses.
pub(crate) const DEFAULT_TOP_K: usize = 10;

fn parse_kernel(s: &str) -> Result<Kernel, ProtoError> {
    match s.to_lowercase().as_str() {
        "bfs" => Ok(Kernel::Bfs),
        "sssp" => Ok(Kernel::Sssp),
        "pr" => Ok(Kernel::Pr),
        "cc" => Ok(Kernel::Cc),
        "bc" => Ok(Kernel::Bc),
        "tc" => Ok(Kernel::Tc),
        other => Err(ProtoError::new(
            ErrorCode::UnknownKernel,
            format!("unknown kernel {other:?}; expected bfs|sssp|pr|cc|bc|tc"),
        )),
    }
}

/// Resolves a framework alias to its display name (the same aliases the
/// kernel binaries' `-x` flag takes).
pub(crate) fn parse_framework(s: &str) -> Result<&'static str, ProtoError> {
    match s.to_lowercase().as_str() {
        "gap" | "ref" => Ok("GAP"),
        "suitesparse" | "graphblas" | "lagraph" => Ok("SuiteSparse"),
        "galois" => Ok("Galois"),
        "graphit" => Ok("GraphIt"),
        "gkc" => Ok("GKC"),
        "nwgraph" => Ok("NWGraph"),
        other => Err(ProtoError::new(
            ErrorCode::UnknownFramework,
            format!(
                "unknown framework {other:?}; expected gap|suitesparse|galois|graphit|gkc|nwgraph"
            ),
        )),
    }
}

fn node_field(v: &Json, key: &str) -> Result<Option<NodeId>, ProtoError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => {
            let n = value.as_u64().ok_or_else(|| {
                ProtoError::new(
                    ErrorCode::BadRequest,
                    format!("field {key:?} must be a non-negative integer"),
                )
            })?;
            NodeId::try_from(n).map(Some).map_err(|_| {
                ProtoError::new(
                    ErrorCode::BadSource,
                    format!("field {key:?} value {n} exceeds the 32-bit vertex space"),
                )
            })
        }
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a [`ProtoError`] with a stable code on malformed JSON,
/// missing/mistyped fields, or unknown kernel/graph/framework names.
pub fn parse_request(line: &str) -> Result<Command, ProtoError> {
    let v = Json::parse(line)
        .map_err(|e| ProtoError::new(ErrorCode::Malformed, format!("invalid JSON: {e}")))?;
    if !matches!(v, Json::Obj(_)) {
        return Err(ProtoError::new(
            ErrorCode::BadRequest,
            "request must be a JSON object",
        ));
    }
    if let Some(cmd) = v.get("cmd") {
        let cmd = cmd.as_str().ok_or_else(|| {
            ProtoError::new(ErrorCode::BadRequest, "field \"cmd\" must be a string")
        })?;
        return match cmd {
            "query" => parse_query_or_batch(&v),
            "batch" => parse_batch(&v).map(Command::Batch),
            "shutdown" => Ok(Command::Shutdown),
            "stats" => Ok(Command::Stats),
            "ping" => Ok(Command::Ping),
            other => Err(ProtoError::new(
                ErrorCode::BadRequest,
                format!("unknown cmd {other:?}; expected query|batch|stats|ping|shutdown"),
            )),
        };
    }
    parse_query_or_batch(&v)
}

/// A line with a `sources` array is a batch; anything else is a query.
fn parse_query_or_batch(v: &Json) -> Result<Command, ProtoError> {
    match v.get("sources") {
        None | Some(Json::Null) => parse_query(v).map(Command::Query),
        Some(_) => parse_batch(v).map(Command::Batch),
    }
}

/// Most sources one batch line may carry (bounds the response line and
/// the per-batch state; MS-BFS itself chunks in 64-wide words).
pub(crate) const MAX_BATCH_SOURCES: usize = 1024;

fn parse_batch(v: &Json) -> Result<BatchQuery, ProtoError> {
    let query = parse_query_fields(v)?;
    if query.kernel != Kernel::Bfs {
        return Err(ProtoError::new(
            ErrorCode::BadRequest,
            "\"sources\" batches support kernel \"bfs\" only",
        ));
    }
    if query.framework != "GAP" {
        return Err(ProtoError::new(
            ErrorCode::BadRequest,
            "batched bfs executes on the reference MS-BFS engine; framework must be \"gap\"",
        ));
    }
    if query.source.is_some() {
        return Err(ProtoError::new(
            ErrorCode::BadRequest,
            "give either \"source\" or \"sources\", not both",
        ));
    }
    let Some(Json::Arr(items)) = v.get("sources") else {
        return Err(ProtoError::new(
            ErrorCode::BadRequest,
            "field \"sources\" must be an array of vertex ids",
        ));
    };
    if items.is_empty() || items.len() > MAX_BATCH_SOURCES {
        return Err(ProtoError::new(
            ErrorCode::BadRequest,
            format!("\"sources\" must list 1..={MAX_BATCH_SOURCES} vertices"),
        ));
    }
    let sources = items
        .iter()
        .map(|item| {
            let n = item.as_u64().ok_or_else(|| {
                ProtoError::new(
                    ErrorCode::BadRequest,
                    "field \"sources\" must hold non-negative integers",
                )
            })?;
            NodeId::try_from(n).map_err(|_| {
                ProtoError::new(
                    ErrorCode::BadSource,
                    format!("source {n} exceeds the 32-bit vertex space"),
                )
            })
        })
        .collect::<Result<Vec<NodeId>, ProtoError>>()?;
    Ok(BatchQuery { query, sources })
}

fn parse_query(v: &Json) -> Result<Query, ProtoError> {
    let query = parse_query_fields(v)?;
    if query.kernel.takes_source() && query.source.is_none() {
        return Err(ProtoError::new(
            ErrorCode::BadRequest,
            format!(
                "kernel {:?} requires a \"source\" vertex",
                query.kernel.name().to_lowercase()
            ),
        ));
    }
    Ok(query)
}

fn parse_query_fields(v: &Json) -> Result<Query, ProtoError> {
    let kernel = parse_kernel(v.get("kernel").and_then(Json::as_str).ok_or_else(|| {
        ProtoError::new(ErrorCode::BadRequest, "missing string field \"kernel\"")
    })?)?;
    let graph = v
        .get("graph")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::new(ErrorCode::BadRequest, "missing string field \"graph\""))?
        .parse()
        .map_err(|message| ProtoError::new(ErrorCode::UnknownGraph, message))?;
    let framework = match v.get("framework") {
        None | Some(Json::Null) => "GAP",
        Some(f) => parse_framework(f.as_str().ok_or_else(|| {
            ProtoError::new(
                ErrorCode::BadRequest,
                "field \"framework\" must be a string",
            )
        })?)?,
    };
    let mode = match v.get("mode").and_then(Json::as_str) {
        None | Some("baseline") | Some("Baseline") => Mode::Baseline,
        Some("optimized") | Some("Optimized") => Mode::Optimized,
        Some(other) => {
            return Err(ProtoError::new(
                ErrorCode::BadRequest,
                format!("unknown mode {other:?}; expected baseline|optimized"),
            ))
        }
    };
    let source = node_field(v, "source")?;
    let k = match v.get("k") {
        None | Some(Json::Null) => DEFAULT_TOP_K,
        Some(value) => value.as_u64().map(|n| n as usize).ok_or_else(|| {
            ProtoError::new(
                ErrorCode::BadRequest,
                "field \"k\" must be a non-negative integer",
            )
        })?,
    };
    let deadline_ms = match v.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(value) => Some(value.as_u64().ok_or_else(|| {
            ProtoError::new(
                ErrorCode::BadRequest,
                "field \"deadline_ms\" must be a non-negative integer",
            )
        })?),
    };
    let trace = match v.get("trace") {
        None | Some(Json::Null) => false,
        Some(value) => value.as_bool().ok_or_else(|| {
            ProtoError::new(ErrorCode::BadRequest, "field \"trace\" must be a boolean")
        })?,
    };
    Ok(Query {
        id: v.get("id").cloned(),
        kernel,
        graph,
        framework: framework.to_string(),
        mode,
        source,
        target: node_field(v, "target")?,
        vertex: node_field(v, "vertex")?,
        k,
        deadline_ms,
        trace,
    })
}

/// Encodes a success response line (no trailing newline). `trace`, when
/// present, is the query's inline Chrome-trace event array (the
/// `"trace": true` request flag); it rides the response as a `"trace"`
/// field that `trace_stats` and Perfetto can consume directly.
pub fn success_line(
    id: Option<&Json>,
    query: &Query,
    latency_ms: f64,
    result: Json,
    fingerprint: u64,
    trace: Option<Json>,
) -> String {
    let mut fields = vec![
        ("ok".to_string(), Json::Bool(true)),
        (
            "kernel".to_string(),
            Json::Str(query.kernel.name().to_lowercase()),
        ),
        (
            "graph".to_string(),
            Json::Str(query.graph.name().to_string()),
        ),
        ("framework".to_string(), Json::Str(query.framework.clone())),
        ("latency_ms".to_string(), Json::Num(latency_ms)),
        ("result".to_string(), result),
        (
            "fingerprint".to_string(),
            Json::Str(format!("{fingerprint:016x}")),
        ),
    ];
    if let Some(events) = trace {
        fields.push(("trace".to_string(), events));
    }
    if let Some(id) = id {
        fields.push(("id".to_string(), id.clone()));
    }
    Json::obj(fields).encode()
}

/// Encodes the single response line of a batch request: one entry per
/// source (in request order), each with its own canonical fingerprint.
pub(crate) fn batch_success_line(
    id: Option<&Json>,
    query: &Query,
    latency_ms: f64,
    results: Vec<Json>,
) -> String {
    let mut fields = vec![
        ("ok".to_string(), Json::Bool(true)),
        (
            "kernel".to_string(),
            Json::Str(query.kernel.name().to_lowercase()),
        ),
        (
            "graph".to_string(),
            Json::Str(query.graph.name().to_string()),
        ),
        ("framework".to_string(), Json::Str(query.framework.clone())),
        ("latency_ms".to_string(), Json::Num(latency_ms)),
        ("batch".to_string(), Json::Num(results.len() as f64)),
        ("results".to_string(), Json::Arr(results)),
    ];
    if let Some(id) = id {
        fields.push(("id".to_string(), id.clone()));
    }
    Json::obj(fields).encode()
}

/// Encodes an error response line (no trailing newline).
pub(crate) fn error_line(id: Option<&Json>, err: &ProtoError) -> String {
    let mut fields = vec![
        ("ok".to_string(), Json::Bool(false)),
        ("code".to_string(), Json::Str(err.code.as_str().to_string())),
        ("error".to_string(), Json::Str(err.message.clone())),
    ];
    if let Some(id) = id {
        fields.push(("id".to_string(), id.clone()));
    }
    Json::obj(fields).encode()
}

/// FNV-1a's 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a's 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit over a byte stream — the response fingerprint hash.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// Fresh hasher at the FNV offset basis.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Absorbs bytes.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a little-endian u64.
    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest.
    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Canonical result forms — what response fingerprints are computed
/// over.
///
/// Raw kernel outputs are not all stable: a direction-optimizing BFS
/// parent array and Afforest's component representatives depend on CAS
/// race winners. The *canonical* forms below are pure functions of the
/// graph and query, so a server response and a batch-mode run hash
/// identically whenever the kernel's value semantics are deterministic
/// (all integer kernels everywhere; float kernels on the SuiteSparse
/// engine, whose PR-5 contract is bit-identical output at every thread
/// count).
pub mod canonical {
    use super::{Fnv1a, FNV_OFFSET, FNV_PRIME};
    use gapbs_graph::types::{Distance, NodeId, Score};

    /// Depth meaning "unreached" in canonical BFS depth arrays.
    pub const UNREACHED: u32 = gapbs_ref::ms_bfs::UNREACHED_DEPTH;

    /// Converts a BFS parent array into the canonical depth array.
    /// Depths are a pure function of graph and source; parent choices
    /// are not. Unreached vertices get [`UNREACHED`].
    pub fn bfs_depths(parents: &[NodeId]) -> Vec<u32> {
        gapbs_ref::depths_from_parents(parents)
    }

    /// Canonicalizes component labels: every vertex gets the minimum
    /// vertex id of its component, regardless of which representative
    /// the union-find races elected.
    pub fn cc_labels(labels: &[NodeId]) -> Vec<NodeId> {
        let n = labels.len();
        let mut min_of = vec![NodeId::MAX; n];
        for (v, &l) in labels.iter().enumerate() {
            let slot = &mut min_of[l as usize];
            *slot = (*slot).min(v as NodeId);
        }
        labels.iter().map(|&l| min_of[l as usize]).collect()
    }

    /// Fingerprint of a canonical BFS depth array: FNV-1a over each
    /// depth as a little-endian `u64` (`summarize_depths`' one-column
    /// case).
    pub fn fingerprint_depths(depths: &[u32]) -> u64 {
        summarize_depths(&[depths])[0].fingerprint
    }

    /// What a BFS reply reports of one canonical depth column.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct DepthSummary {
        /// [`fingerprint_depths`] of the column.
        pub fingerprint: u64,
        /// Vertices at a depth other than [`UNREACHED`].
        pub reached: usize,
        /// Deepest reached depth (0 when only the source is reached).
        pub max_depth: u32,
    }

    /// Columns hashed in lockstep: independent FNV chains, so each
    /// chain's multiply latency hides behind the others'.
    const LANES: usize = 8;

    /// The prime to the fourth power: a depth widened to a `u64` has four
    /// zero high bytes, and XOR with a zero byte is the identity, so
    /// absorbing them is four multiplications, folded into one.
    const FNV_PRIME_4: u64 = FNV_PRIME
        .wrapping_mul(FNV_PRIME)
        .wrapping_mul(FNV_PRIME)
        .wrapping_mul(FNV_PRIME);

    /// Fingerprint, reached count and maximum depth of every column in
    /// one pass over it, [`LANES`] columns at a time.
    ///
    /// # Panics
    ///
    /// Panics if the columns differ in length.
    pub(crate) fn summarize_depths<D: AsRef<[u32]>>(columns: &[D]) -> Vec<DepthSummary> {
        let mut out = Vec::with_capacity(columns.len());
        let mut groups = columns.chunks_exact(LANES);
        for group in &mut groups {
            let lanes: [&[u32]; LANES] = std::array::from_fn(|j| group[j].as_ref());
            out.extend(summarize_lanes(lanes));
        }
        for column in groups.remainder() {
            out.extend(summarize_lanes([column.as_ref()]));
        }
        out
    }

    /// [`summarize_depths`] over exactly `L` equal-length columns.
    fn summarize_lanes<const L: usize>(columns: [&[u32]; L]) -> [DepthSummary; L] {
        let n = columns[0].len();
        assert!(
            columns.iter().all(|c| c.len() == n),
            "depth columns differ in length"
        );
        let mut hash = [FNV_OFFSET; L];
        let mut reached = [0usize; L];
        let mut max_depth = [0u32; L];
        for i in 0..n {
            for (j, column) in columns.iter().enumerate() {
                let d = column[i];
                let mut h = hash[j];
                for b in d.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
                }
                hash[j] = h.wrapping_mul(FNV_PRIME_4);
                let hit = d != UNREACHED;
                reached[j] += usize::from(hit);
                max_depth[j] = max_depth[j].max(if hit { d } else { 0 });
            }
        }
        std::array::from_fn(|j| DepthSummary {
            fingerprint: hash[j],
            reached: reached[j],
            max_depth: max_depth[j],
        })
    }

    /// Fingerprint of an SSSP distance array (distances are the unique
    /// shortest-path values — deterministic for any schedule).
    pub fn fingerprint_distances(dist: &[Distance]) -> u64 {
        let mut h = Fnv1a::new();
        for &d in dist {
            h.write_u64(d as u64);
        }
        h.finish()
    }

    /// Fingerprint of canonical component labels.
    pub fn fingerprint_labels(labels: &[NodeId]) -> u64 {
        let mut h = Fnv1a::new();
        for &l in labels {
            h.write_u64(u64::from(l));
        }
        h.finish()
    }

    /// Fingerprint of a score vector, over exact f64 bit patterns.
    pub fn fingerprint_scores(scores: &[Score]) -> u64 {
        let mut h = Fnv1a::new();
        for &s in scores {
            h.write_u64(s.to_bits());
        }
        h.finish()
    }

    /// Fingerprint of a scalar count (TC).
    pub(crate) fn fingerprint_count(count: u64) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(count);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::types::NO_PARENT;

    #[test]
    fn queries_parse_with_defaults() {
        let cmd = parse_request(r#"{"kernel":"bfs","graph":"kron","source":42}"#).unwrap();
        let Command::Query(q) = cmd else {
            panic!("expected query")
        };
        assert_eq!(q.kernel, Kernel::Bfs);
        assert_eq!(q.graph, GraphSpec::Kron);
        assert_eq!(q.framework, "GAP");
        assert_eq!(q.mode, Mode::Baseline);
        assert_eq!(q.source, Some(42));
        assert_eq!(q.k, DEFAULT_TOP_K);
        assert_eq!(q.deadline_ms, None);
        assert!(!q.trace);
    }

    #[test]
    fn trace_flag_parses_and_rides_the_response() {
        let Command::Query(q) =
            parse_request(r#"{"kernel":"bfs","graph":"kron","source":1,"trace":true}"#).unwrap()
        else {
            panic!("expected query")
        };
        assert!(q.trace);
        assert_eq!(
            parse_request(r#"{"kernel":"bfs","graph":"kron","source":1,"trace":"yes"}"#)
                .unwrap_err()
                .code,
            ErrorCode::BadRequest
        );
        let events = Json::Arr(vec![Json::obj([(
            "ph".to_string(),
            Json::Str("X".to_string()),
        )])]);
        let line = success_line(None, &q, 2.0, Json::obj([]), 1, Some(events));
        let v = Json::parse(&line).unwrap();
        let Some(Json::Arr(trace)) = v.get("trace") else {
            panic!("trace array missing: {line}")
        };
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn full_query_round_trips_every_field() {
        let cmd = parse_request(
            r#"{"cmd":"query","id":7,"kernel":"sssp","graph":"road","source":1,"target":9,
                "framework":"graphblas","mode":"optimized","k":3,"deadline_ms":250}"#,
        )
        .unwrap();
        let Command::Query(q) = cmd else {
            panic!("expected query")
        };
        assert_eq!(q.id, Some(Json::Num(7.0)));
        assert_eq!(q.kernel, Kernel::Sssp);
        assert_eq!(q.framework, "SuiteSparse");
        assert_eq!(q.mode, Mode::Optimized);
        assert_eq!(q.target, Some(9));
        assert_eq!(q.k, 3);
        assert_eq!(q.deadline_ms, Some(250));
    }

    #[test]
    fn batch_requests_parse_and_validate() {
        let cmd = parse_request(r#"{"kernel":"bfs","graph":"kron","sources":[1,2,2,7]}"#).unwrap();
        let Command::Batch(b) = cmd else {
            panic!("expected batch, got {cmd:?}")
        };
        assert_eq!(b.sources, vec![1, 2, 2, 7]);
        assert_eq!(b.query.kernel, Kernel::Bfs);
        assert_eq!(b.query.source, None);
        // The explicit cmd form works too.
        assert!(matches!(
            parse_request(r#"{"cmd":"batch","kernel":"bfs","graph":"road","sources":[0]}"#),
            Ok(Command::Batch(_))
        ));
        let code = |line: &str| parse_request(line).unwrap_err().code;
        assert_eq!(
            code(r#"{"kernel":"sssp","graph":"kron","sources":[1]}"#),
            ErrorCode::BadRequest
        );
        assert_eq!(
            code(r#"{"kernel":"bfs","graph":"kron","sources":[]}"#),
            ErrorCode::BadRequest
        );
        assert_eq!(
            code(r#"{"kernel":"bfs","graph":"kron","sources":7}"#),
            ErrorCode::BadRequest
        );
        assert_eq!(
            code(r#"{"kernel":"bfs","graph":"kron","source":1,"sources":[2]}"#),
            ErrorCode::BadRequest
        );
        assert_eq!(
            code(r#"{"kernel":"bfs","graph":"kron","sources":[1],"framework":"galois"}"#),
            ErrorCode::BadRequest
        );
        assert_eq!(
            code(r#"{"kernel":"bfs","graph":"kron","sources":[5000000000]}"#),
            ErrorCode::BadSource
        );
    }

    #[test]
    fn control_commands_parse() {
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown"}"#).unwrap(),
            Command::Shutdown
        );
        assert_eq!(parse_request(r#"{"cmd":"stats"}"#).unwrap(), Command::Stats);
        assert_eq!(parse_request(r#"{"cmd":"ping"}"#).unwrap(), Command::Ping);
    }

    #[test]
    fn errors_carry_stable_codes() {
        let code = |line: &str| parse_request(line).unwrap_err().code;
        assert_eq!(code("{nope"), ErrorCode::Malformed);
        assert_eq!(code("[1,2]"), ErrorCode::BadRequest);
        assert_eq!(code(r#"{"graph":"kron"}"#), ErrorCode::BadRequest);
        assert_eq!(
            code(r#"{"kernel":"mst","graph":"kron"}"#),
            ErrorCode::UnknownKernel
        );
        assert_eq!(
            code(r#"{"kernel":"bfs","graph":"orkut","source":0}"#),
            ErrorCode::UnknownGraph
        );
        assert_eq!(
            code(r#"{"kernel":"bfs","graph":"kron","source":0,"framework":"ligra"}"#),
            ErrorCode::UnknownFramework
        );
        assert_eq!(
            code(r#"{"kernel":"bfs","graph":"kron"}"#),
            ErrorCode::BadRequest
        );
        assert_eq!(
            code(r#"{"kernel":"bfs","graph":"kron","source":-3}"#),
            ErrorCode::BadRequest
        );
        assert_eq!(
            code(r#"{"kernel":"bfs","graph":"kron","source":5000000000}"#),
            ErrorCode::BadSource
        );
        assert_eq!(code(r#"{"cmd":"reboot"}"#), ErrorCode::BadRequest);
    }

    #[test]
    fn response_lines_are_well_formed_json() {
        let Command::Query(q) =
            parse_request(r#"{"id":"a1","kernel":"tc","graph":"urand"}"#).unwrap()
        else {
            panic!("expected query")
        };
        let line = success_line(
            q.id.as_ref(),
            &q,
            1.25,
            Json::obj([("triangles".to_string(), Json::Num(3.0))]),
            0xabcd,
            None,
        );
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("id").and_then(Json::as_str), Some("a1"));
        assert_eq!(
            v.get("fingerprint").and_then(Json::as_str),
            Some("000000000000abcd")
        );
        assert_eq!(
            v.get("result")
                .and_then(|r| r.get("triangles"))
                .and_then(Json::as_u64),
            Some(3)
        );

        let err = error_line(None, &ProtoError::new(ErrorCode::Rejected, "queue full"));
        let v = Json::parse(&err).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Json::as_str), Some("rejected"));
    }

    #[test]
    fn bfs_depths_are_parent_choice_invariant() {
        // A diamond: 0->1, 0->2, 1->3, 2->3. Vertex 3's parent can be 1
        // or 2 depending on the race; its depth is 2 either way.
        let with_parent_1 = [0, 0, 0, 1, NO_PARENT];
        let with_parent_2 = [0, 0, 0, 2, NO_PARENT];
        let a = canonical::bfs_depths(&with_parent_1);
        let b = canonical::bfs_depths(&with_parent_2);
        assert_eq!(a, b);
        assert_eq!(a, vec![0, 1, 1, 2, canonical::UNREACHED]);
        assert_eq!(
            canonical::fingerprint_depths(&a),
            canonical::fingerprint_depths(&b)
        );
    }

    #[test]
    fn cc_labels_are_representative_invariant() {
        // Two components {0,1,2} and {3,4}; different elected reps.
        let by_rep_0 = [0, 0, 0, 4, 4];
        let by_rep_2 = [2, 2, 2, 3, 3];
        let a = canonical::cc_labels(&by_rep_0);
        let b = canonical::cc_labels(&by_rep_2);
        assert_eq!(a, b);
        assert_eq!(a, vec![0, 0, 0, 3, 3]);
    }

    #[test]
    fn one_pass_depth_summaries_equal_the_naive_passes() {
        let naive = |depths: &[u32]| {
            let mut h = Fnv1a::new();
            for &d in depths {
                h.write_u64(u64::from(d));
            }
            let reached: Vec<u32> = depths
                .iter()
                .copied()
                .filter(|&d| d != canonical::UNREACHED)
                .collect();
            canonical::DepthSummary {
                fingerprint: h.finish(),
                reached: reached.len(),
                max_depth: reached.into_iter().max().unwrap_or(0),
            }
        };
        let n = 333;
        for width in [1usize, 7, 8, 9, 64] {
            let columns: Vec<Vec<u32>> = (0..width)
                .map(|c| {
                    (0..n)
                        .map(|v| match (v * 7 + c * 13) % 11 {
                            // Column 2 is all unreached.
                            _ if c == 2 => canonical::UNREACHED,
                            0 | 1 => canonical::UNREACHED,
                            // Some depths past 255: all four low bytes count.
                            r => (r as u32) * (c as u32 + 1) * if v % 5 == 0 { 97 } else { 1 },
                        })
                        .collect()
                })
                .collect();
            let summaries = canonical::summarize_depths(&columns);
            assert_eq!(summaries.len(), width);
            for (c, (column, summary)) in columns.iter().zip(&summaries).enumerate() {
                assert_eq!(*summary, naive(column), "width {width}, column {c}");
                assert_eq!(
                    summary.fingerprint,
                    canonical::fingerprint_depths(column),
                    "width {width}, column {c}"
                );
            }
            if width > 2 {
                assert_eq!((summaries[2].reached, summaries[2].max_depth), (0, 0));
            }
        }
        assert!(canonical::summarize_depths::<Vec<u32>>(&[]).is_empty());
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
