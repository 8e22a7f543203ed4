//! Ledger diffing: the perf regression gate.
//!
//! Two run ledgers (see `gapbs_telemetry::Ledger`) are compared cell by
//! cell, where a cell is a (framework, kernel, graph, mode) combination.
//! The statistic per cell is the *minimum* trial time — the same "best of
//! n" statistic the GAP benchmark reports, and the one least sensitive to
//! scheduling noise. A cell regresses only when the candidate minimum is
//! both a configurable ratio above the baseline minimum *and* slower by an
//! absolute floor, so microsecond-scale cells cannot trip the gate on
//! timer jitter.

use gapbs_telemetry::json::Json;
use gapbs_telemetry::{Counter, TrialRecord};
use std::collections::BTreeMap;

/// A cell identity: (framework, kernel, graph, mode).
pub type CellKey = (String, String, String, String);

/// Thresholds for calling a time difference real.
#[derive(Debug, Clone, Copy)]
pub struct CompareConfig {
    /// Candidate/baseline ratio that counts as a change (both directions).
    pub ratio_threshold: f64,
    /// Absolute seconds the minima must differ by; guards tiny cells.
    pub absolute_floor: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            ratio_threshold: 1.25,
            absolute_floor: 0.005,
        }
    }
}

impl CompareConfig {
    /// Thresholds that can fire: the ratio must be finite and at least 1,
    /// the floor finite and non-negative. A NaN or infinite threshold
    /// makes every comparison false, so no cell could ever regress.
    pub fn new(ratio_threshold: f64, absolute_floor: f64) -> Result<Self, String> {
        if !ratio_threshold.is_finite() || ratio_threshold < 1.0 {
            return Err(format!(
                "--ratio must be finite and >= 1, got {ratio_threshold}"
            ));
        }
        if !absolute_floor.is_finite() || absolute_floor < 0.0 {
            return Err(format!(
                "--floor must be finite and >= 0, got {absolute_floor}"
            ));
        }
        Ok(CompareConfig {
            ratio_threshold,
            absolute_floor,
        })
    }
}

/// One cell present in both ledgers.
#[derive(Debug, Clone)]
pub struct CellDelta {
    /// (framework, kernel, graph, mode).
    pub key: CellKey,
    /// Minimum trial seconds in the baseline ledger.
    pub baseline: f64,
    /// Minimum trial seconds in the candidate ledger.
    pub candidate: f64,
}

impl CellDelta {
    /// Candidate/baseline time ratio (>1 means the candidate is slower).
    pub fn ratio(&self) -> f64 {
        if self.baseline > 0.0 {
            self.candidate / self.baseline
        } else {
            f64::INFINITY
        }
    }
}

/// A cell's peak-RSS pair. Memory deltas are *reported*, never gated:
/// `peak_rss_bytes` is a process-lifetime high-water mark, so a cell's
/// value also reflects whatever ran before it in the same process.
#[derive(Debug, Clone)]
pub struct MemDelta {
    /// (framework, kernel, graph, mode).
    pub key: CellKey,
    /// Max `peak_rss_bytes` over the baseline cell's trials.
    pub baseline_bytes: u64,
    /// Max `peak_rss_bytes` over the candidate cell's trials.
    pub candidate_bytes: u64,
}

impl MemDelta {
    /// Candidate/baseline peak-RSS ratio (>1 means more memory).
    pub fn ratio(&self) -> f64 {
        if self.baseline_bytes > 0 {
            self.candidate_bytes as f64 / self.baseline_bytes as f64
        } else {
            f64::INFINITY
        }
    }
}

/// Peak-RSS changes below this ratio (either direction) are noise.
const MEM_RATIO_THRESHOLD: f64 = 1.25;
/// ...and so are changes under this many bytes (16 MiB).
const MEM_ABSOLUTE_FLOOR: u64 = 16 * 1024 * 1024;

/// A cell's graph-construction time pair. Build deltas are *reported*,
/// never gated: construction runs once per cell (trial 0) and is noisy at
/// small scales, so it informs rather than fails the gate.
#[derive(Debug, Clone)]
pub struct BuildDelta {
    /// (framework, kernel, graph, mode).
    pub key: CellKey,
    /// Max `build_seconds + relabel_seconds` over the baseline trials.
    pub baseline_seconds: f64,
    /// Max `build_seconds + relabel_seconds` over the candidate trials.
    pub candidate_seconds: f64,
}

impl BuildDelta {
    /// Candidate/baseline construction-time ratio (>1 means slower).
    pub fn ratio(&self) -> f64 {
        if self.baseline_seconds > 0.0 {
            self.candidate_seconds / self.baseline_seconds
        } else {
            f64::INFINITY
        }
    }
}

/// Construction-time changes below this ratio (either direction) are noise.
const BUILD_RATIO_THRESHOLD: f64 = 1.25;
/// ...and so are swings under this many seconds.
const BUILD_ABSOLUTE_FLOOR: f64 = 0.010;

/// A cell's resident-graph-bytes pair. Graph-bytes deltas are *reported*,
/// never gated: layout changes move this number on purpose, so the diff
/// makes savings (or regressions) visible without ever failing a build
/// over memory shape.
#[derive(Debug, Clone)]
pub struct GraphBytesDelta {
    /// (framework, kernel, graph, mode).
    pub key: CellKey,
    /// `graph_bytes` in the baseline cell (constant across trials).
    pub baseline_bytes: u64,
    /// `graph_bytes` in the candidate cell.
    pub candidate_bytes: u64,
}

impl GraphBytesDelta {
    /// Candidate/baseline graph-bytes ratio (>1 means a bigger layout).
    pub fn ratio(&self) -> f64 {
        if self.baseline_bytes > 0 {
            self.candidate_bytes as f64 / self.baseline_bytes as f64
        } else {
            f64::INFINITY
        }
    }
}

/// Outcome of diffing two ledgers.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Cells where the candidate is slower beyond both thresholds.
    pub regressions: Vec<CellDelta>,
    /// Cells where the candidate is faster beyond both thresholds.
    pub improvements: Vec<CellDelta>,
    /// Cells present in both ledgers with no significant change.
    pub unchanged: Vec<CellDelta>,
    /// Cells only the baseline ledger has.
    pub baseline_only: Vec<CellKey>,
    /// Cells only the candidate ledger has.
    pub candidate_only: Vec<CellKey>,
    /// Cells whose peak RSS moved beyond the memory noise thresholds
    /// (report-only; [`Comparison::has_regressions`] ignores these).
    pub memory: Vec<MemDelta>,
    /// Cells whose build+relabel time moved beyond the build noise
    /// thresholds (report-only; [`Comparison::has_regressions`] ignores
    /// these).
    pub build: Vec<BuildDelta>,
    /// Cells whose resident graph bytes changed at all (the field is
    /// deterministic, so any movement is a real layout change;
    /// report-only, never gates).
    pub graph_bytes: Vec<GraphBytesDelta>,
}

impl Comparison {
    /// True when the gate should fail the build.
    pub fn has_regressions(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Human-readable table of the comparison.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut section = |title: &str, cells: &[CellDelta]| {
            if cells.is_empty() {
                return;
            }
            out.push_str(title);
            out.push('\n');
            for c in cells {
                let (fw, kernel, graph, mode) = &c.key;
                out.push_str(&format!(
                    "  {fw:<12} {kernel:<5} {graph:<8} {mode:<10} {:>10.6}s -> {:>10.6}s  ({:>6.2}x)\n",
                    c.baseline,
                    c.candidate,
                    c.ratio(),
                ));
            }
        };
        section("REGRESSIONS", &self.regressions);
        section("IMPROVEMENTS", &self.improvements);
        for (title, keys) in [
            (
                "BASELINE ONLY (cell missing from candidate)",
                &self.baseline_only,
            ),
            (
                "CANDIDATE ONLY (cell missing from baseline)",
                &self.candidate_only,
            ),
        ] {
            if !keys.is_empty() {
                out.push_str(title);
                out.push('\n');
                for (fw, kernel, graph, mode) in keys {
                    out.push_str(&format!("  {fw:<12} {kernel:<5} {graph:<8} {mode}\n"));
                }
            }
        }
        if !self.memory.is_empty() {
            out.push_str("MEMORY (peak RSS; report-only, never gates)\n");
            let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
            for m in &self.memory {
                let (fw, kernel, graph, mode) = &m.key;
                out.push_str(&format!(
                    "  {fw:<12} {kernel:<5} {graph:<8} {mode:<10} {:>9.1} MiB -> {:>9.1} MiB  ({:>6.2}x)\n",
                    mib(m.baseline_bytes),
                    mib(m.candidate_bytes),
                    m.ratio(),
                ));
            }
        }
        if !self.build.is_empty() {
            out.push_str("BUILD (construction + relabel seconds; report-only, never gates)\n");
            for b in &self.build {
                let (fw, kernel, graph, mode) = &b.key;
                out.push_str(&format!(
                    "  {fw:<12} {kernel:<5} {graph:<8} {mode:<10} {:>10.6}s -> {:>10.6}s  ({:>6.2}x)\n",
                    b.baseline_seconds,
                    b.candidate_seconds,
                    b.ratio(),
                ));
            }
        }
        if !self.graph_bytes.is_empty() {
            out.push_str("GRAPH-BYTES (resident CSR; report-only, never gates)\n");
            let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
            for g in &self.graph_bytes {
                let (fw, kernel, graph, mode) = &g.key;
                out.push_str(&format!(
                    "  {fw:<12} {kernel:<5} {graph:<8} {mode:<10} {:>9.2} MiB -> {:>9.2} MiB  ({:>6.2}x)\n",
                    mib(g.baseline_bytes),
                    mib(g.candidate_bytes),
                    g.ratio(),
                ));
            }
        }
        out.push_str(&format!(
            "{} regressed, {} improved, {} unchanged\n",
            self.regressions.len(),
            self.improvements.len(),
            self.unchanged.len(),
        ));
        out
    }
}

/// Collapses trial records to the minimum seconds per cell.
pub fn best_by_cell(records: &[TrialRecord]) -> BTreeMap<CellKey, f64> {
    let mut best = BTreeMap::new();
    for r in records {
        let entry = best.entry(r.cell_key()).or_insert(f64::INFINITY);
        if r.seconds < *entry {
            *entry = r.seconds;
        }
    }
    best
}

/// Diffs two ledgers' trial records under the given thresholds.
pub fn compare(
    baseline: &[TrialRecord],
    candidate: &[TrialRecord],
    config: &CompareConfig,
) -> Comparison {
    let base = best_by_cell(baseline);
    let cand = best_by_cell(candidate);
    let mut result = Comparison::default();
    for (key, &b) in &base {
        let Some(&c) = cand.get(key) else {
            result.baseline_only.push(key.clone());
            continue;
        };
        let delta = CellDelta {
            key: key.clone(),
            baseline: b,
            candidate: c,
        };
        let significant = (c - b).abs() > config.absolute_floor;
        if significant && c > b * config.ratio_threshold {
            result.regressions.push(delta);
        } else if significant && b > c * config.ratio_threshold {
            result.improvements.push(delta);
        } else {
            result.unchanged.push(delta);
        }
    }
    for key in cand.keys() {
        if !base.contains_key(key) {
            result.candidate_only.push(key.clone());
        }
    }
    // Memory: max peak RSS per cell, reported when it moved beyond the
    // noise thresholds in either direction. Cells with a zero on either
    // side (procfs unavailable, pre-RSS ledger) are skipped.
    let peak_by_cell = |records: &[TrialRecord]| {
        let mut peaks: BTreeMap<CellKey, u64> = BTreeMap::new();
        for r in records {
            let entry = peaks.entry(r.cell_key()).or_insert(0);
            *entry = (*entry).max(r.peak_rss_bytes);
        }
        peaks
    };
    let cand_peaks = peak_by_cell(candidate);
    for (key, &b) in &peak_by_cell(baseline) {
        let Some(&c) = cand_peaks.get(key) else {
            continue;
        };
        if b == 0 || c == 0 {
            continue;
        }
        let significant = c.abs_diff(b) > MEM_ABSOLUTE_FLOOR
            && (c as f64 > b as f64 * MEM_RATIO_THRESHOLD
                || b as f64 > c as f64 * MEM_RATIO_THRESHOLD);
        if significant {
            result.memory.push(MemDelta {
                key: key.clone(),
                baseline_bytes: b,
                candidate_bytes: c,
            });
        }
    }
    // Build time: max build+relabel seconds per cell, reported when it
    // moved beyond the noise thresholds in either direction. Cells with a
    // zero on either side (no build in that cell, pre-field ledger with
    // no Build phase) are skipped.
    let build_by_cell = |records: &[TrialRecord]| {
        let mut builds: BTreeMap<CellKey, f64> = BTreeMap::new();
        for r in records {
            let entry = builds.entry(r.cell_key()).or_insert(0.0);
            *entry = entry.max(r.build_seconds + r.relabel_seconds);
        }
        builds
    };
    let cand_builds = build_by_cell(candidate);
    for (key, &b) in &build_by_cell(baseline) {
        let Some(&c) = cand_builds.get(key) else {
            continue;
        };
        if b <= 0.0 || c <= 0.0 {
            continue;
        }
        let significant = (c - b).abs() > BUILD_ABSOLUTE_FLOOR
            && (c > b * BUILD_RATIO_THRESHOLD || b > c * BUILD_RATIO_THRESHOLD);
        if significant {
            result.build.push(BuildDelta {
                key: key.clone(),
                baseline_seconds: b,
                candidate_seconds: c,
            });
        }
    }
    // Graph bytes: the layout footprint per cell, reported whenever it
    // moved at all — the field is deterministic (CSR arithmetic, not a
    // measurement), so there is no noise threshold. Cells with a zero on
    // either side (pre-field ledger) are skipped.
    let bytes_by_cell = |records: &[TrialRecord]| {
        let mut bytes: BTreeMap<CellKey, u64> = BTreeMap::new();
        for r in records {
            let entry = bytes.entry(r.cell_key()).or_insert(0);
            *entry = (*entry).max(r.graph_bytes);
        }
        bytes
    };
    let cand_bytes = bytes_by_cell(candidate);
    for (key, &b) in &bytes_by_cell(baseline) {
        let Some(&c) = cand_bytes.get(key) else {
            continue;
        };
        if b == 0 || c == 0 || b == c {
            continue;
        }
        result.graph_bytes.push(GraphBytesDelta {
            key: key.clone(),
            baseline_bytes: b,
            candidate_bytes: c,
        });
    }
    // Worst regression first, best improvement first, biggest memory
    // mover first.
    result
        .regressions
        .sort_by(|a, b| b.ratio().total_cmp(&a.ratio()));
    result
        .improvements
        .sort_by(|a, b| a.ratio().total_cmp(&b.ratio()));
    result
        .memory
        .sort_by(|a, b| b.ratio().total_cmp(&a.ratio()));
    result.build.sort_by(|a, b| b.ratio().total_cmp(&a.ratio()));
    result
        .graph_bytes
        .sort_by(|a, b| b.ratio().total_cmp(&a.ratio()));
    result
}

/// Sanity-checks one ledger's records, returning one message per
/// problem (empty = clean). This is the `perf_compare --lint` behind
/// verify.sh's smoke: it subsumes the old "no trial recorded zero edges
/// examined" grep with structured rules.
pub fn lint(records: &[TrialRecord]) -> Vec<String> {
    let mut problems = Vec::new();
    if records.is_empty() {
        problems.push("ledger holds no records".into());
        return problems;
    }
    // Ledgers written before the work counters were always on carry
    // all-zero work counters; apply the edge rule only when some record
    // shows an actual edge scan. Keying on EdgesExamined (not "any
    // counter") matters because the serve daemon's lifecycle counters
    // (queries_admitted & co.) were present in those ledgers too.
    let counts_edges = records
        .iter()
        .any(|r| r.counters.get(Counter::EdgesExamined) > 0);
    for r in records {
        let cell = format!(
            "{} {} {} {} trial {}",
            r.framework, r.kernel, r.graph, r.mode, r.trial
        );
        if !r.seconds.is_finite() || r.seconds < 0.0 {
            problems.push(format!("{cell}: seconds {} is not a valid time", r.seconds));
        }
        if !r.verified {
            problems.push(format!("{cell}: verification failed"));
        }
        if r.threads == 0 {
            problems.push(format!("{cell}: zero threads"));
        }
        if r.num_vertices == 0 || r.num_arcs == 0 {
            problems.push(format!(
                "{cell}: empty graph (n={}, m={})",
                r.num_vertices, r.num_arcs
            ));
        }
        // A served query's source is the client's pick and may be an
        // isolated vertex; the harness only draws sources with edges.
        let served = r.counters.get(Counter::QueriesAdmitted) > 0;
        if counts_edges && !served && r.counters.get(Counter::EdgesExamined) == 0 {
            problems.push(format!("{cell}: recorded zero edges examined"));
        }
        // GraphBLAS SPA accounting: every scatter hit or insert comes
        // from exactly one examined edge (masked and terminal-skipped
        // edges produce neither), so the SPA counters can never exceed
        // the edge scan count.
        let spa = r.counters.get(Counter::SpaHits) + r.counters.get(Counter::SpaInserts);
        if spa > r.counters.get(Counter::EdgesExamined) {
            problems.push(format!(
                "{cell}: SPA hits+inserts {spa} exceed edges examined {}",
                r.counters.get(Counter::EdgesExamined)
            ));
        }
        // Triangle-counting accounting: `tc_intersections` counts element
        // comparisons inside neighbor-list intersections, and every such
        // comparison examines at least one adjacency element, so the
        // comparison total can never exceed the edge scan count.
        let tc = r.counters.get(Counter::TcIntersections);
        if tc > r.counters.get(Counter::EdgesExamined) {
            problems.push(format!(
                "{cell}: {tc} TC intersection comparisons exceed edges examined {}",
                r.counters.get(Counter::EdgesExamined)
            ));
        }
        // Serve-ledger lifecycle accounting: the daemon stamps cumulative
        // gate totals into every record, and a query only counts as
        // completed after it was admitted, so completed can never lead.
        let admitted = r.counters.get(Counter::QueriesAdmitted);
        let completed = r.counters.get(Counter::QueriesCompleted);
        if completed > admitted {
            problems.push(format!(
                "{cell}: {completed} queries completed but only {admitted} admitted"
            ));
        }
        // Batched queries are still queries: every source answered out of
        // an MS-BFS batch holds (or is accounted against) an admission
        // permit, so the batch total can never lead the admission total.
        let batched = r.counters.get(Counter::BatchQueries);
        if batched > admitted {
            problems.push(format!(
                "{cell}: {batched} batched queries but only {admitted} admitted"
            ));
        }
    }
    problems
}

/// Bounded-RSS mode: checks every trial's `peak_rss_bytes` against an
/// absolute budget, returning one message per offending cell (the max
/// over its trials is what's reported). Unlike the relative MEMORY
/// section — which only informs — an explicit budget is a *hard* gate:
/// `perf_compare --max-rss-mb N` exits non-zero on any violation.
/// Records with `peak_rss_bytes == 0` (procfs unavailable) are skipped,
/// so the gate degrades to a no-op rather than a false failure on
/// platforms without RSS accounting.
pub fn enforce_rss_budget(records: &[TrialRecord], max_bytes: u64) -> Vec<String> {
    let mut peaks: BTreeMap<CellKey, u64> = BTreeMap::new();
    for r in records {
        let entry = peaks.entry(r.cell_key()).or_insert(0);
        *entry = (*entry).max(r.peak_rss_bytes);
    }
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    peaks
        .into_iter()
        .filter(|&(_, peak)| peak > max_bytes)
        .map(|((fw, kernel, graph, mode), peak)| {
            format!(
                "{fw} {kernel} {graph} {mode}: peak RSS {:.1} MiB exceeds the {:.1} MiB budget",
                mib(peak),
                mib(max_bytes)
            )
        })
        .collect()
}

/// Sanity-checks one `{"cmd":"stats"}` snapshot from the serve daemon,
/// returning one message per violated invariant (empty = clean). This is
/// `perf_compare --lint-stats`, the scrape-side counterpart of [`lint`]:
/// the engine reads every lifecycle stat under one gate lock, so these
/// invariants hold *exactly* within any single response — even one
/// scraped mid-load — and a violation means the accounting itself broke,
/// not that the scrape raced.
pub fn lint_stats(stats: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let mut field = |name: &str| match stats.get(name).and_then(Json::as_u64) {
        Some(v) => Some(v),
        None => {
            problems.push(format!("stats missing numeric field {name:?}"));
            None
        }
    };
    let admitted = field("queries_admitted");
    let completed = field("queries_completed");
    let active = field("active");
    let batch_queries = field("batch_queries");
    let inline = field("queries_inline");
    if let (Some(admitted), Some(completed), Some(active)) = (admitted, completed, active) {
        // Exact, not >=: the gate takes admission, completion, and the
        // active count under one lock, so any single snapshot balances.
        if completed + active != admitted {
            problems.push(format!(
                "incoherent lifecycle: {admitted} admitted != {completed} completed + {active} active"
            ));
        }
    }
    if let (Some(admitted), Some(batched)) = (admitted, batch_queries) {
        if batched > admitted {
            problems.push(format!(
                "{batched} batched queries but only {admitted} admitted"
            ));
        }
    }
    // A query is counted inline at release, under the same lock as its
    // completion, so the inline count never runs ahead of completions.
    if let (Some(inline), Some(completed)) = (inline, completed) {
        if inline > completed {
            problems.push(format!(
                "{inline} queries ran inline but only {completed} completed"
            ));
        }
    }
    match stats.get("metrics").and_then(|m| m.get("latency_us")) {
        None => problems.push("stats missing metrics.latency_us histogram".into()),
        Some(hist) => {
            let count = hist.get("count").and_then(Json::as_u64).unwrap_or(0);
            if let Some(completed) = completed {
                if count != completed {
                    problems.push(format!(
                        "latency histogram holds {count} records but {completed} queries completed"
                    ));
                }
            }
            if let Some(Json::Arr(buckets)) = hist.get("buckets") {
                let mut prev = 0u64;
                for (i, bucket) in buckets.iter().enumerate() {
                    let Some(c) = bucket.get("count").and_then(Json::as_u64) else {
                        problems.push(format!("bucket entry {i} missing cumulative count"));
                        continue;
                    };
                    if c < prev {
                        problems.push(format!(
                            "bucket table not monotone: cumulative {c} after {prev} at entry {i}"
                        ));
                    }
                    prev = c;
                }
                if prev != count {
                    problems.push(format!(
                        "bucket table tops out at {prev} but histogram count is {count}"
                    ));
                }
            } else {
                problems.push("metrics.latency_us missing buckets table".into());
            }
        }
    }
    // Cold-start series: time-to-ready is set exactly once at startup
    // and must be a plausible duration; every resident graph loads
    // exactly once, so its snapshot_hit/snapshot_miss pair sums to 1.
    match stats
        .get("metrics")
        .and_then(|m| m.get("time_to_ready_seconds"))
        .and_then(Json::as_f64)
    {
        None => problems.push("stats missing metrics.time_to_ready_seconds".into()),
        Some(s) if !s.is_finite() || s < 0.0 => {
            problems.push(format!("implausible time_to_ready_seconds {s}"));
        }
        Some(_) => {}
    }
    if let Some(Json::Obj(metrics)) = stats.get("metrics") {
        let graph_of = |key: &str, family: &str| -> Option<String> {
            key.strip_prefix(family)
                .and_then(|rest| rest.strip_prefix("{graph=\""))
                .and_then(|rest| rest.strip_suffix("\"}"))
                .map(str::to_string)
        };
        let mut loads: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for (key, value) in metrics {
            for family in ["snapshot_hit", "snapshot_miss"] {
                if let Some(graph) = graph_of(key, family) {
                    *loads.entry(graph).or_insert(0) += value.as_u64().unwrap_or(0);
                }
            }
        }
        for (graph, total) in loads {
            if total != 1 {
                problems.push(format!(
                    "graph {graph:?} loaded {total} times by snapshot_hit+snapshot_miss; expected exactly 1"
                ));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(fw: &str, kernel: &str, trial: u64, seconds: f64) -> TrialRecord {
        TrialRecord {
            framework: fw.into(),
            kernel: kernel.into(),
            graph: "Kron".into(),
            mode: "Baseline".into(),
            trial,
            seconds,
            ..TrialRecord::default()
        }
    }

    #[test]
    fn best_by_cell_takes_the_minimum_trial() {
        let records = [
            record("GAP", "bfs", 0, 0.30),
            record("GAP", "bfs", 1, 0.10),
            record("GAP", "bfs", 2, 0.20),
        ];
        let best = best_by_cell(&records);
        assert_eq!(best.len(), 1);
        let key = records[0].cell_key();
        assert_eq!(best[&key], 0.10);
    }

    #[test]
    fn config_accepts_thresholds_that_can_fire() {
        let d = CompareConfig::default();
        let c = CompareConfig::new(d.ratio_threshold, d.absolute_floor).expect("defaults");
        assert_eq!(c.ratio_threshold, 1.25);
        assert_eq!(c.absolute_floor, 0.005);
        assert!(CompareConfig::new(1.0, 0.0).is_ok(), "boundary values fire");
    }

    #[test]
    fn config_rejects_thresholds_that_cannot_fire() {
        for ratio in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.5, -2.0] {
            assert!(CompareConfig::new(ratio, 0.005).is_err(), "ratio {ratio}");
        }
        for floor in [f64::NAN, f64::INFINITY, -0.001] {
            assert!(CompareConfig::new(1.25, floor).is_err(), "floor {floor}");
        }
    }

    #[test]
    fn detects_injected_two_x_slowdown() {
        let baseline = [
            record("GAP", "bfs", 0, 0.100),
            record("GAP", "pr", 0, 0.200),
        ];
        // bfs got 2x slower; pr is unchanged.
        let candidate = [
            record("GAP", "bfs", 0, 0.200),
            record("GAP", "pr", 0, 0.200),
        ];
        let cmp = compare(&baseline, &candidate, &CompareConfig::default());
        assert!(cmp.has_regressions());
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].key.1, "bfs");
        assert!((cmp.regressions[0].ratio() - 2.0).abs() < 1e-12);
        assert_eq!(cmp.unchanged.len(), 1);
    }

    #[test]
    fn ignores_sub_threshold_noise() {
        // 10% jitter, under the 1.25x ratio threshold.
        let baseline = [record("GAP", "bfs", 0, 0.100)];
        let candidate = [record("GAP", "bfs", 0, 0.110)];
        let cmp = compare(&baseline, &candidate, &CompareConfig::default());
        assert!(!cmp.has_regressions());
        assert_eq!(cmp.unchanged.len(), 1);

        // 3x ratio but only 2ms absolute — under the 5ms floor, so a
        // microsecond-scale cell cannot trip the gate.
        let baseline = [record("GAP", "tc", 0, 0.001)];
        let candidate = [record("GAP", "tc", 0, 0.003)];
        let cmp = compare(&baseline, &candidate, &CompareConfig::default());
        assert!(!cmp.has_regressions());
    }

    #[test]
    fn reports_improvements_and_missing_cells() {
        let baseline = [
            record("GAP", "bfs", 0, 0.400),
            record("GAP", "cc", 0, 0.100),
        ];
        let candidate = [
            record("GAP", "bfs", 0, 0.100),
            record("Galois", "cc", 0, 0.100),
        ];
        let cmp = compare(&baseline, &candidate, &CompareConfig::default());
        assert!(!cmp.has_regressions());
        assert_eq!(cmp.improvements.len(), 1);
        assert!((cmp.improvements[0].ratio() - 0.25).abs() < 1e-12);
        assert_eq!(cmp.baseline_only.len(), 1);
        assert_eq!(cmp.candidate_only.len(), 1);
        let rendered = cmp.render();
        assert!(rendered.contains("IMPROVEMENTS"));
        assert!(rendered.contains("BASELINE ONLY"));
    }

    #[test]
    fn memory_deltas_report_but_never_gate() {
        let mib = 1024 * 1024;
        let mut base = record("GAP", "bfs", 0, 0.1);
        base.peak_rss_bytes = 100 * mib;
        let mut cand = record("GAP", "bfs", 0, 0.1);
        cand.peak_rss_bytes = 200 * mib; // 2x and 100 MiB over: reported
        let cmp = compare(&[base.clone()], &[cand], &CompareConfig::default());
        assert!(!cmp.has_regressions(), "memory never fails the gate");
        assert_eq!(cmp.memory.len(), 1);
        assert!((cmp.memory[0].ratio() - 2.0).abs() < 1e-12);
        assert!(
            cmp.render().contains("MEMORY (peak RSS"),
            "{}",
            cmp.render()
        );

        // 10 MiB swing is under the 16 MiB floor: noise.
        let mut small = record("GAP", "bfs", 0, 0.1);
        small.peak_rss_bytes = 110 * mib;
        let cmp = compare(&[base.clone()], &[small], &CompareConfig::default());
        assert!(cmp.memory.is_empty());

        // Zero on either side (pre-RSS ledger) is skipped, not infinite.
        let cmp = compare(
            &[record("GAP", "bfs", 0, 0.1)],
            &[base],
            &CompareConfig::default(),
        );
        assert!(cmp.memory.is_empty());
    }

    #[test]
    fn build_deltas_report_but_never_gate() {
        let mut base = record("GAP", "tc", 0, 0.1);
        base.build_seconds = 0.10;
        base.relabel_seconds = 0.10;
        let mut cand = record("GAP", "tc", 0, 0.1);
        cand.build_seconds = 0.05; // 0.20s -> 0.08s: 2.5x faster build
        cand.relabel_seconds = 0.03;
        let cmp = compare(&[base.clone()], &[cand], &CompareConfig::default());
        assert!(!cmp.has_regressions(), "build time never fails the gate");
        assert_eq!(cmp.build.len(), 1);
        assert!((cmp.build[0].ratio() - 0.4).abs() < 1e-12);
        assert!(
            cmp.render().contains("BUILD (construction"),
            "{}",
            cmp.render()
        );

        // Sub-floor swing is noise.
        let mut close = record("GAP", "tc", 0, 0.1);
        close.build_seconds = 0.195;
        let cmp = compare(&[base.clone()], &[close], &CompareConfig::default());
        assert!(cmp.build.is_empty());

        // Zero on either side (pre-field ledger, no build) is skipped.
        let cmp = compare(
            &[record("GAP", "tc", 0, 0.1)],
            &[base],
            &CompareConfig::default(),
        );
        assert!(cmp.build.is_empty());
    }

    #[test]
    fn lint_accepts_a_clean_counter_free_ledger() {
        let mut r = record("GAP", "bfs", 0, 0.1);
        r.threads = 4;
        r.num_vertices = 100;
        r.num_arcs = 400;
        r.verified = true;
        assert_eq!(lint(&[r]), Vec::<String>::new());
    }

    #[test]
    fn lint_flags_structural_problems() {
        let good = |seconds| {
            let mut r = record("GAP", "bfs", 0, seconds);
            r.threads = 4;
            r.num_vertices = 100;
            r.num_arcs = 400;
            r.verified = true;
            r
        };
        assert!(lint(&[]).iter().any(|p| p.contains("no records")));
        let mut unverified = good(0.1);
        unverified.verified = false;
        assert!(lint(&[unverified])[0].contains("verification failed"));
        let nan = good(f64::NAN);
        assert!(lint(&[nan])[0].contains("not a valid time"));
        let mut empty = good(0.1);
        empty.num_arcs = 0;
        assert!(lint(&[empty])[0].contains("empty graph"));
        let mut no_threads = good(0.1);
        no_threads.threads = 0;
        assert!(lint(&[no_threads])[0].contains("zero threads"));
    }

    #[test]
    fn lint_requires_edges_examined_once_any_record_counts_them() {
        use gapbs_telemetry::Counter;
        let good = || {
            let mut r = record("GAP", "bfs", 0, 0.1);
            r.threads = 4;
            r.num_vertices = 100;
            r.num_arcs = 400;
            r.verified = true;
            r
        };
        // Counter-free ledger (written before counters were always on):
        // no edges rule.
        assert!(lint(&[good(), good()]).is_empty());
        // One record proves edges were counted; the zero-edges one is
        // flagged.
        let mut with_edges = good();
        with_edges.counters.set(Counter::EdgesExamined, 500);
        let silent = good();
        let problems = lint(&[with_edges, silent]);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("zero edges examined"), "{problems:?}");
    }

    #[test]
    fn lint_bounds_spa_counters_by_edges_examined() {
        use gapbs_telemetry::Counter;
        let good = || {
            let mut r = record("SuiteSparse", "bfs", 0, 0.1);
            r.threads = 4;
            r.num_vertices = 100;
            r.num_arcs = 400;
            r.verified = true;
            r.counters.set(Counter::EdgesExamined, 500);
            r
        };
        // hits + inserts within the scan budget: clean.
        let mut ok = good();
        ok.counters.set(Counter::SpaHits, 300);
        ok.counters.set(Counter::SpaInserts, 200);
        assert!(lint(&[ok]).is_empty());
        // One more SPA event than scanned edges: impossible, flagged.
        let mut bad = good();
        bad.counters.set(Counter::SpaHits, 300);
        bad.counters.set(Counter::SpaInserts, 201);
        let problems = lint(&[bad]);
        assert_eq!(problems.len(), 1);
        assert!(
            problems[0].contains("exceed edges examined"),
            "{problems:?}"
        );
    }

    #[test]
    fn graph_bytes_deltas_report_any_layout_change() {
        let mib = 1024 * 1024;
        let mut base = record("GAP", "tc", 0, 0.1);
        base.graph_bytes = 12 * mib;
        let mut cand = record("GAP", "tc", 0, 0.1);
        cand.graph_bytes = 8 * mib; // u32 offsets: smaller layout, reported
        let cmp = compare(&[base.clone()], &[cand], &CompareConfig::default());
        assert!(!cmp.has_regressions(), "graph bytes never fail the gate");
        assert_eq!(cmp.graph_bytes.len(), 1);
        assert!((cmp.graph_bytes[0].ratio() - 8.0 / 12.0).abs() < 1e-12);
        assert!(cmp.render().contains("GRAPH-BYTES"), "{}", cmp.render());

        // Identical layout: nothing to report.
        let cmp = compare(&[base.clone()], &[base.clone()], &CompareConfig::default());
        assert!(cmp.graph_bytes.is_empty());

        // Zero on either side (pre-field ledger) is skipped, not infinite.
        let cmp = compare(
            &[record("GAP", "tc", 0, 0.1)],
            &[base],
            &CompareConfig::default(),
        );
        assert!(cmp.graph_bytes.is_empty());
    }

    #[test]
    fn lint_bounds_tc_comparisons_by_edges_examined() {
        use gapbs_telemetry::Counter;
        let good = || {
            let mut r = record("GAP", "tc", 0, 0.1);
            r.threads = 4;
            r.num_vertices = 100;
            r.num_arcs = 400;
            r.verified = true;
            r.counters.set(Counter::EdgesExamined, 500);
            r
        };
        // Comparisons within the scan budget: clean.
        let mut ok = good();
        ok.counters.set(Counter::TcIntersections, 500);
        assert!(lint(&[ok]).is_empty());
        // More comparisons than examined elements: impossible under the
        // counting convention (every comparison examines an element).
        let mut bad = good();
        bad.counters.set(Counter::TcIntersections, 501);
        let problems = lint(&[bad]);
        assert_eq!(problems.len(), 1);
        assert!(
            problems[0].contains("intersection comparisons exceed"),
            "{problems:?}"
        );
    }

    #[test]
    fn lint_holds_serve_lifecycle_counters_to_admitted_over_completed() {
        use gapbs_telemetry::Counter;
        let serve_record = |admitted, completed| {
            let mut r = record("GAP", "bfs", 0, 0.1);
            r.threads = 4;
            r.num_vertices = 100;
            r.num_arcs = 400;
            r.verified = true;
            r.counters.set(Counter::QueriesAdmitted, admitted);
            r.counters.set(Counter::QueriesCompleted, completed);
            r
        };
        // Lifecycle counters alone do not switch on the edge rule: a
        // counter-free serve ledger must not trip the
        // zero-edges-examined rule.
        assert!(lint(&[serve_record(5, 5)]).is_empty());
        assert!(lint(&[serve_record(7, 5)]).is_empty());
        // Nor does a served query from an isolated source, beside one
        // that examined edges.
        let mut scanned = serve_record(6, 6);
        scanned.counters.set(Counter::EdgesExamined, 40);
        assert!(lint(&[scanned, serve_record(6, 6)]).is_empty());
        // Completed running ahead of admitted is impossible.
        let problems = lint(&[serve_record(5, 7)]);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("only 5 admitted"), "{problems:?}");
    }

    #[test]
    fn lint_holds_batch_queries_to_admitted() {
        use gapbs_telemetry::Counter;
        let serve_record = |admitted, batched| {
            let mut r = record("GAP", "bfs", 0, 0.1);
            r.threads = 4;
            r.num_vertices = 100;
            r.num_arcs = 400;
            r.verified = true;
            r.counters.set(Counter::QueriesAdmitted, admitted);
            r.counters.set(Counter::QueriesCompleted, admitted);
            r.counters.set(Counter::BatchQueries, batched);
            r
        };
        // Every batched source is also an admitted query, so equality and
        // under-count are both fine (as is a batch-free ledger).
        assert!(lint(&[serve_record(8, 8)]).is_empty());
        assert!(lint(&[serve_record(8, 3)]).is_empty());
        assert!(lint(&[serve_record(8, 0)]).is_empty());
        // More batched answers than admissions means a batch ran without
        // accounting for its members.
        let problems = lint(&[serve_record(3, 8)]);
        assert_eq!(problems.len(), 1);
        assert!(
            problems[0].contains("8 batched queries but only 3 admitted"),
            "{problems:?}"
        );
    }

    /// A minimal coherent stats snapshot, as `{"cmd":"stats"}` renders it.
    fn stats_snapshot(admitted: u64, completed: u64, active: u64, hist_count: u64) -> Json {
        let buckets = if hist_count > 0 {
            vec![Json::obj([
                ("le".to_string(), Json::Num(1024.0)),
                ("count".to_string(), Json::Num(hist_count as f64)),
            ])]
        } else {
            Vec::new()
        };
        Json::obj([
            ("queries_admitted".to_string(), Json::Num(admitted as f64)),
            ("queries_completed".to_string(), Json::Num(completed as f64)),
            ("active".to_string(), Json::Num(active as f64)),
            ("batch_queries".to_string(), Json::Num(0.0)),
            ("queries_inline".to_string(), Json::Num(completed as f64)),
            (
                "metrics".to_string(),
                Json::obj([
                    (
                        "latency_us".to_string(),
                        Json::obj([
                            ("count".to_string(), Json::Num(hist_count as f64)),
                            ("buckets".to_string(), Json::Arr(buckets)),
                        ]),
                    ),
                    ("time_to_ready_seconds".to_string(), Json::Num(0.25)),
                    ("snapshot_hit{graph=\"kron\"}".to_string(), Json::Num(1.0)),
                    ("snapshot_miss{graph=\"kron\"}".to_string(), Json::Num(0.0)),
                    ("snapshot_hit{graph=\"road\"}".to_string(), Json::Num(0.0)),
                    ("snapshot_miss{graph=\"road\"}".to_string(), Json::Num(1.0)),
                ]),
            ),
        ])
    }

    #[test]
    fn lint_stats_accepts_a_coherent_snapshot() {
        // Mid-load: 2 in flight, 5 done, histogram tracks completions.
        assert_eq!(
            lint_stats(&stats_snapshot(7, 5, 2, 5)),
            Vec::<String>::new()
        );
        // Quiescent zero state.
        assert_eq!(
            lint_stats(&stats_snapshot(0, 0, 0, 0)),
            Vec::<String>::new()
        );
    }

    #[test]
    fn lint_stats_flags_unbalanced_lifecycle() {
        let problems = lint_stats(&stats_snapshot(7, 6, 2, 6));
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("incoherent lifecycle"), "{problems:?}");
        // Completed ahead of admitted is the classic torn-scrape symptom.
        assert!(!lint_stats(&stats_snapshot(5, 7, 0, 7)).is_empty());
    }

    #[test]
    fn lint_stats_caps_inline_queries_at_completions() {
        let mut stats = stats_snapshot(7, 5, 2, 5);
        if let Json::Obj(fields) = &mut stats {
            fields.insert("queries_inline".to_string(), Json::Num(6.0));
        }
        let problems = lint_stats(&stats);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].contains("6 queries ran inline but only 5 completed"),
            "{problems:?}"
        );
    }

    #[test]
    fn lint_stats_ties_histogram_count_to_completions() {
        let problems = lint_stats(&stats_snapshot(5, 5, 0, 4));
        assert!(
            problems.iter().any(|p| p.contains("holds 4 records")),
            "{problems:?}"
        );
    }

    #[test]
    fn lint_stats_requires_monotone_buckets() {
        let mut stats = stats_snapshot(3, 3, 0, 3);
        // Overwrite with a non-monotone cumulative table.
        let broken = Json::obj([(
            "latency_us".to_string(),
            Json::obj([
                ("count".to_string(), Json::Num(3.0)),
                (
                    "buckets".to_string(),
                    Json::Arr(vec![
                        Json::obj([
                            ("le".to_string(), Json::Num(64.0)),
                            ("count".to_string(), Json::Num(2.0)),
                        ]),
                        Json::obj([
                            ("le".to_string(), Json::Num(128.0)),
                            ("count".to_string(), Json::Num(1.0)),
                        ]),
                    ]),
                ),
            ]),
        )]);
        if let Json::Obj(fields) = &mut stats {
            fields.insert("metrics".to_string(), broken);
        }
        let problems = lint_stats(&stats);
        assert!(
            problems.iter().any(|p| p.contains("not monotone")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("tops out at")),
            "{problems:?}"
        );
    }

    #[test]
    fn lint_stats_flags_missing_fields() {
        let problems = lint_stats(&Json::obj([("ok".to_string(), Json::Bool(true))]));
        assert!(
            problems.iter().any(|p| p.contains("queries_admitted")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("latency_us")),
            "{problems:?}"
        );
    }

    /// Applies `edit` to the fixture's `metrics` object.
    fn edit_metrics(
        mut stats: Json,
        edit: impl FnOnce(&mut std::collections::BTreeMap<String, Json>),
    ) -> Json {
        if let Json::Obj(fields) = &mut stats {
            if let Some(Json::Obj(metrics)) = fields.get_mut("metrics") {
                edit(metrics);
            }
        }
        stats
    }

    #[test]
    fn rss_budget_gates_only_cells_over_the_line() {
        let mib = 1024 * 1024;
        let mut heavy = record("GAP", "pr", 0, 0.1);
        heavy.peak_rss_bytes = 900 * mib;
        let mut light = record("GAP", "bfs", 0, 0.1);
        light.peak_rss_bytes = 100 * mib;
        let mut unknown = record("GAP", "tc", 0, 0.1);
        unknown.peak_rss_bytes = 0; // procfs unavailable: never gates

        let records = [heavy, light, unknown];
        let violations = enforce_rss_budget(&records, 512 * mib);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("pr"), "{violations:?}");
        assert!(violations[0].contains("exceeds"), "{violations:?}");
        assert!(enforce_rss_budget(&records, 1024 * mib).is_empty());
    }

    #[test]
    fn lint_stats_checks_cold_start_series() {
        // The coherent fixture already carries a balanced pair per graph.
        assert_eq!(
            lint_stats(&stats_snapshot(0, 0, 0, 0)),
            Vec::<String>::new()
        );

        // A graph that claims both a hit and a miss double-loaded.
        let stats = edit_metrics(stats_snapshot(0, 0, 0, 0), |m| {
            m.insert("snapshot_miss{graph=\"kron\"}".to_string(), Json::Num(1.0));
        });
        let problems = lint_stats(&stats);
        assert!(
            problems
                .iter()
                .any(|p| p.contains("\"kron\" loaded 2 times")),
            "{problems:?}"
        );

        // A negative time-to-ready is nonsense.
        let stats = edit_metrics(stats_snapshot(0, 0, 0, 0), |m| {
            m.insert("time_to_ready_seconds".to_string(), Json::Num(-1.0));
        });
        let problems = lint_stats(&stats);
        assert!(
            problems
                .iter()
                .any(|p| p.contains("implausible time_to_ready_seconds")),
            "{problems:?}"
        );

        // Dropping the gauge entirely is flagged.
        let stats = edit_metrics(stats_snapshot(0, 0, 0, 0), |m| {
            m.remove("time_to_ready_seconds");
        });
        let problems = lint_stats(&stats);
        assert!(
            problems
                .iter()
                .any(|p| p.contains("missing metrics.time_to_ready_seconds")),
            "{problems:?}"
        );
    }

    #[test]
    fn regressions_sort_worst_first() {
        let baseline = [
            record("GAP", "bfs", 0, 0.100),
            record("GAP", "pr", 0, 0.100),
        ];
        let candidate = [
            record("GAP", "bfs", 0, 0.150),
            record("GAP", "pr", 0, 0.300),
        ];
        let cmp = compare(&baseline, &candidate, &CompareConfig::default());
        assert_eq!(cmp.regressions.len(), 2);
        assert_eq!(cmp.regressions[0].key.1, "pr");
    }
}
