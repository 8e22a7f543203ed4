//! The JSON-lines run ledger.
//!
//! One line per trial: kernel, graph, framework, mode, trial index, the
//! timed seconds, the phase breakdown, the work counters, and the git
//! revision that produced the run. `perf_compare --lint` checks one, and
//! the work golden (`tests/work_golden.rs`) pins the counters of a
//! Small-scale matrix ledger exactly.
//!
//! Pollard & Norris (arXiv:1704.02003) argue cross-framework numbers are
//! only trustworthy with a reproducible measurement methodology; a ledger
//! line is exactly the record needed to re-derive any Table IV/V cell.

use crate::counters::{Counter, CounterSet};
use crate::json::Json;
use crate::span::{Phase, PhaseTimes};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Ledger schema version; bump on breaking field changes.
pub const SCHEMA_VERSION: u64 = 1;

/// One trial's record — one JSONL line.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrialRecord {
    /// Framework display name ("GAP", "Galois", ...).
    pub framework: String,
    /// Kernel short name ("bfs", "sssp", "pr", "cc", "bc", "tc").
    pub kernel: String,
    /// Graph name ("Web", "Twitter", "Road", "Kron", "Urand").
    pub graph: String,
    /// Rule set ("Baseline" / "Optimized").
    pub mode: String,
    /// Trial index within the cell.
    pub trial: u64,
    /// The timed kernel seconds (what Table IV aggregates).
    pub seconds: f64,
    /// Graph-construction seconds accrued during this trial's window
    /// (the `Phase::Build` delta, promoted to a top-level field so
    /// build-time trajectories diff without digging into `phases`).
    /// Build runs once per cell, so this lands on trial 0.
    pub build_seconds: f64,
    /// Relabeling seconds accrued during this trial (the `Phase::Relabel`
    /// delta — the paper's rules time relabeling, so it is tracked
    /// per-trial, always on).
    pub relabel_seconds: f64,
    /// Whether this trial's output verified.
    pub verified: bool,
    /// Worker threads used.
    pub threads: u64,
    /// Vertices of the input graph.
    pub num_vertices: u64,
    /// Arcs of the input graph (`m` for work-efficiency ratios).
    pub num_arcs: u64,
    /// Work counters captured for this trial.
    pub counters: CounterSet,
    /// Per-phase seconds accrued during this trial (build on trial 0).
    pub phases: PhaseTimes,
    /// Peak resident set size of the process when the trial finished
    /// (VmHWM from `/proc/self/status`, in bytes), 0 where procfs is
    /// unavailable. This is
    /// a process-lifetime high-water mark, not a per-trial delta: compare
    /// it across ledgers cell by cell.
    pub peak_rss_bytes: u64,
    /// Bytes of the CSR arrays (offsets + targets + weights, both
    /// directions) of the graph this trial ran on. 0 when the producer
    /// predates the field.
    pub graph_bytes: u64,
    /// Git revision of the producing build ("unknown" outside a repo).
    pub git_rev: String,
}

impl TrialRecord {
    /// Encodes the record as one compact JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let counters = Json::obj(
            self.counters
                .iter()
                .map(|(c, v)| (c.name().to_string(), Json::Num(v as f64))),
        );
        let phases = Json::obj(
            self.phases
                .iter()
                .map(|(p, s)| (p.name().to_string(), Json::Num(s))),
        );
        let mut fields = vec![
            ("v".to_string(), Json::Num(SCHEMA_VERSION as f64)),
            ("framework".to_string(), Json::Str(self.framework.clone())),
            ("kernel".to_string(), Json::Str(self.kernel.clone())),
            ("graph".to_string(), Json::Str(self.graph.clone())),
            ("mode".to_string(), Json::Str(self.mode.clone())),
            ("trial".to_string(), Json::Num(self.trial as f64)),
            ("seconds".to_string(), Json::Num(self.seconds)),
            ("build_seconds".to_string(), Json::Num(self.build_seconds)),
            (
                "relabel_seconds".to_string(),
                Json::Num(self.relabel_seconds),
            ),
            ("verified".to_string(), Json::Bool(self.verified)),
            ("threads".to_string(), Json::Num(self.threads as f64)),
            ("n".to_string(), Json::Num(self.num_vertices as f64)),
            ("m".to_string(), Json::Num(self.num_arcs as f64)),
            ("counters".to_string(), counters),
            ("phases".to_string(), phases),
            (
                "peak_rss_bytes".to_string(),
                Json::Num(self.peak_rss_bytes as f64),
            ),
            (
                "graph_bytes".to_string(),
                Json::Num(self.graph_bytes as f64),
            ),
            ("git_rev".to_string(), Json::Str(self.git_rev.clone())),
        ];
        if let Some(teps) = self.counters.teps(self.seconds) {
            fields.push(("teps".to_string(), Json::Num(teps)));
        }
        if let Some(ratio) = self.counters.work_ratio(self.num_arcs) {
            fields.push(("work_ratio".to_string(), Json::Num(ratio)));
        }
        Json::obj(fields).encode()
    }

    /// Parses one JSONL line back into a record.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON or missing required fields.
    pub fn from_json_line(line: &str) -> Result<TrialRecord, String> {
        let v = Json::parse(line)?;
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {key:?}"))
        };
        let u64_field = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing integer field {key:?}"))
        };
        let mut counters = CounterSet::zero();
        if let Some(Json::Obj(map)) = v.get("counters") {
            for (key, value) in map {
                if let (Some(c), Some(n)) = (Counter::from_name(key), value.as_u64()) {
                    counters.set(c, n);
                }
            }
        }
        let mut phases = PhaseTimes::zero();
        if let Some(Json::Obj(map)) = v.get("phases") {
            for (key, value) in map {
                if let (Some(p), Some(s)) = (Phase::from_name(key), value.as_f64()) {
                    phases.set(p, s);
                }
            }
        }
        // Pre-existing ledgers carry the build/relabel phase times only
        // inside `phases`; fall back there so old baselines still diff.
        let phase_fallback = |key: &str, phase: Phase| {
            v.get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| phases.get(phase))
        };
        Ok(TrialRecord {
            framework: str_field("framework")?,
            kernel: str_field("kernel")?,
            graph: str_field("graph")?,
            mode: str_field("mode")?,
            trial: u64_field("trial")?,
            seconds: v
                .get("seconds")
                .and_then(Json::as_f64)
                .ok_or("missing number field \"seconds\"")?,
            build_seconds: phase_fallback("build_seconds", Phase::Build),
            relabel_seconds: phase_fallback("relabel_seconds", Phase::Relabel),
            verified: v.get("verified").and_then(Json::as_bool).unwrap_or(true),
            threads: u64_field("threads").unwrap_or(1),
            num_vertices: u64_field("n").unwrap_or(0),
            num_arcs: u64_field("m").unwrap_or(0),
            counters,
            phases,
            // Absent in schema-v1 ledgers written before the field existed.
            peak_rss_bytes: u64_field("peak_rss_bytes").unwrap_or(0),
            graph_bytes: u64_field("graph_bytes").unwrap_or(0),
            git_rev: str_field("git_rev").unwrap_or_else(|_| "unknown".into()),
        })
    }

    /// The (framework, kernel, graph, mode) cell this trial belongs to.
    pub fn cell_key(&self) -> (String, String, String, String) {
        (
            self.framework.clone(),
            self.kernel.clone(),
            self.graph.clone(),
            self.mode.clone(),
        )
    }
}

/// An append-only JSONL ledger file.
#[derive(Debug)]
pub struct Ledger {
    path: PathBuf,
    git_rev: String,
}

impl Ledger {
    /// Opens (creating directories as needed) a ledger at `path`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Ledger> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        Ok(Ledger {
            path,
            git_rev: detect_git_rev(),
        })
    }

    /// The ledger file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The git revision stamped onto appended records.
    pub fn git_rev(&self) -> &str {
        &self.git_rev
    }

    /// Appends one record as a JSONL line, filling in the git revision.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn append(&self, record: &TrialRecord) -> std::io::Result<()> {
        let mut record = record.clone();
        if record.git_rev.is_empty() || record.git_rev == "unknown" {
            record.git_rev = self.git_rev.clone();
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        writeln!(file, "{}", record.to_json_line())
    }

    /// Reads every well-formed record from a ledger file, skipping blank
    /// lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and the first parse failure.
    pub fn read(path: impl AsRef<Path>) -> Result<Vec<TrialRecord>, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
        text.lines()
            .enumerate()
            .filter(|(_, line)| !line.trim().is_empty())
            .map(|(i, line)| {
                TrialRecord::from_json_line(line).map_err(|e| format!("line {}: {e}", i + 1))
            })
            .collect()
    }
}

/// A long-lived, buffered JSONL ledger writer for high-rate appenders.
///
/// [`Ledger`] reopens the file on every append — the right durability
/// trade for a benchmark that writes tens of records. A serving daemon
/// writes one record per query, so this sink keeps the file open behind
/// a mutex-guarded `BufWriter` and exposes an explicit [`LedgerSink::flush`]
/// for graceful shutdown. Records buffered but not flushed are lost on
/// abrupt exit — which is exactly why the daemon drains and flushes
/// before exiting.
#[derive(Debug)]
pub struct LedgerSink {
    path: PathBuf,
    git_rev: String,
    writer: std::sync::Mutex<std::io::BufWriter<std::fs::File>>,
    appended: std::sync::atomic::AtomicU64,
}

impl LedgerSink {
    /// Opens (creating directories as needed) a buffered sink appending
    /// to the ledger at `path`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and open failures.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<LedgerSink> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(LedgerSink {
            path,
            git_rev: detect_git_rev(),
            writer: std::sync::Mutex::new(std::io::BufWriter::new(file)),
            appended: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// The ledger file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended through this sink so far (flushed or not).
    pub fn appended(&self) -> u64 {
        self.appended.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Appends one record as a JSONL line, filling in the git revision.
    /// The line lands in the buffer; call [`LedgerSink::flush`] to push
    /// it to disk.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn append(&self, record: &TrialRecord) -> std::io::Result<()> {
        let mut record = record.clone();
        if record.git_rev.is_empty() || record.git_rev == "unknown" {
            record.git_rev = self.git_rev.clone();
        }
        let line = record.to_json_line();
        let mut writer = self.writer.lock().expect("ledger sink poisoned");
        writeln!(writer, "{line}")?;
        self.appended
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    /// Flushes buffered records to disk.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn flush(&self) -> std::io::Result<()> {
        self.writer.lock().expect("ledger sink poisoned").flush()
    }
}

/// Resolves the current git revision by reading `.git/HEAD` (walking up
/// from the working directory), avoiding a subprocess in the runner.
pub fn detect_git_rev() -> String {
    let mut dir = match std::env::current_dir() {
        Ok(d) => d,
        Err(_) => return "unknown".into(),
    };
    loop {
        let head_path = dir.join(".git/HEAD");
        if let Ok(head) = std::fs::read_to_string(&head_path) {
            let head = head.trim();
            if let Some(reference) = head.strip_prefix("ref: ") {
                if let Ok(rev) = std::fs::read_to_string(dir.join(".git").join(reference)) {
                    return short_rev(rev.trim());
                }
                // Packed refs: scan .git/packed-refs for the ref.
                if let Ok(packed) = std::fs::read_to_string(dir.join(".git/packed-refs")) {
                    for line in packed.lines() {
                        if let Some((rev, name)) = line.split_once(' ') {
                            if name == reference {
                                return short_rev(rev);
                            }
                        }
                    }
                }
                return "unknown".into();
            }
            return short_rev(head);
        }
        if !dir.pop() {
            return "unknown".into();
        }
    }
}

fn short_rev(rev: &str) -> String {
    rev.chars().take(12).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrialRecord {
        let mut counters = CounterSet::zero();
        counters.set(Counter::EdgesExamined, 1234);
        counters.set(Counter::Iterations, 7);
        let mut phases = PhaseTimes::zero();
        phases.set(Phase::Build, 2.0);
        phases.set(Phase::Relabel, 0.75);
        phases.set(Phase::Kernel, 0.125);
        phases.set(Phase::Verify, 0.5);
        TrialRecord {
            framework: "GAP".into(),
            kernel: "bfs".into(),
            graph: "Road".into(),
            mode: "Baseline".into(),
            trial: 2,
            seconds: 0.125,
            build_seconds: 2.0,
            relabel_seconds: 0.75,
            verified: true,
            threads: 4,
            num_vertices: 1000,
            num_arcs: 4000,
            counters,
            phases,
            peak_rss_bytes: 64 * 1024 * 1024,
            graph_bytes: 5 * 1024 * 1024,
            git_rev: "abc123def456".into(),
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = sample();
        let line = r.to_json_line();
        assert!(!line.contains('\n'), "must be a single line");
        let back = TrialRecord::from_json_line(&line).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn derived_metrics_are_emitted() {
        let line = sample().to_json_line();
        let v = Json::parse(&line).unwrap();
        let teps = v.get("teps").and_then(Json::as_f64).unwrap();
        assert!((teps - 1234.0 / 0.125).abs() < 1e-6);
        let ratio = v.get("work_ratio").and_then(Json::as_f64).unwrap();
        assert!((ratio - 1234.0 / 4000.0).abs() < 1e-12);
    }

    #[test]
    fn ledger_appends_and_reads_back() {
        let dir = std::env::temp_dir().join(format!(
            "gapbs-ledger-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = dir.join("ledger.jsonl");
        let _ = std::fs::remove_file(&path);
        let ledger = Ledger::open(&path).unwrap();
        let mut a = sample();
        a.git_rev = "unknown".into(); // exercise auto-stamping
        let b = sample();
        ledger.append(&a).unwrap();
        ledger.append(&b).unwrap();
        let records = Ledger::read(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1], b);
        assert_eq!(records[0].git_rev, ledger.git_rev(), "rev was stamped");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sink_buffers_until_flush_and_stamps_revs() {
        let dir = std::env::temp_dir().join(format!(
            "gapbs-sink-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = dir.join("sink.jsonl");
        let _ = std::fs::remove_file(&path);
        let sink = LedgerSink::open(&path).unwrap();
        let mut a = sample();
        a.git_rev = "unknown".into();
        sink.append(&a).unwrap();
        sink.append(&sample()).unwrap();
        assert_eq!(sink.appended(), 2);
        sink.flush().unwrap();
        let records = Ledger::read(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].git_rev, sink.git_rev, "rev was stamped");
        assert_eq!(records[1], sample());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_counter_keys_are_ignored_not_fatal() {
        let mut line = sample().to_json_line();
        line = line.replace("\"counters\":{", "\"counters\":{\"future_counter\":9,");
        let back = TrialRecord::from_json_line(&line).unwrap();
        assert_eq!(back.counters.get(Counter::EdgesExamined), 1234);
    }

    #[test]
    fn pre_rss_ledgers_parse_with_zero_peak() {
        let line = sample()
            .to_json_line()
            .replace("\"peak_rss_bytes\":67108864,", "");
        let back = TrialRecord::from_json_line(&line).unwrap();
        assert_eq!(back.peak_rss_bytes, 0);
    }

    #[test]
    fn pre_graph_bytes_ledgers_parse_with_zero() {
        let line = sample()
            .to_json_line()
            .replace("\"graph_bytes\":5242880,", "");
        assert!(!line.contains("graph_bytes"), "field really removed");
        let back = TrialRecord::from_json_line(&line).unwrap();
        assert_eq!(back.graph_bytes, 0);
    }

    #[test]
    fn pre_build_field_ledgers_fall_back_to_phases() {
        // Ledgers written before the promoted fields existed still carry
        // the same information inside `phases`.
        let line = sample()
            .to_json_line()
            .replace("\"build_seconds\":2,", "")
            .replace("\"relabel_seconds\":0.75,", "");
        assert!(!line.contains("build_seconds"), "field really removed");
        let back = TrialRecord::from_json_line(&line).unwrap();
        assert!((back.build_seconds - 2.0).abs() < 1e-12);
        assert!((back.relabel_seconds - 0.75).abs() < 1e-12);
    }

    #[test]
    fn malformed_lines_error_with_position() {
        assert!(TrialRecord::from_json_line("{nope").is_err());
        assert!(TrialRecord::from_json_line("{}").is_err(), "missing fields");
    }

    #[test]
    fn git_rev_resolves_in_this_repo() {
        // The test runs inside the repository, so a real rev should be
        // found; outside a repo "unknown" is the contract.
        let rev = detect_git_rev();
        assert!(rev == "unknown" || rev.len() == 12, "rev = {rev:?}");
    }
}
