//! Ledger and stats sanity checks behind `perf_compare`.
//!
//! [`lint`] checks one run ledger (see `gapbs_telemetry::ledger`) for
//! structural and accounting problems, [`enforce_rss_budget`] holds every
//! cell to an absolute peak-RSS budget, and [`lint_stats`] checks one
//! `{"cmd":"stats"}` snapshot from the serve daemon. None of them times
//! anything: timing verdicts come from paired benchmark runs, and the
//! exact work of every cell is pinned by `tests/work_golden.rs`.

use gapbs_telemetry::json::Json;
use gapbs_telemetry::{Counter, TrialRecord};
use std::collections::BTreeMap;

/// A cell identity: (framework, kernel, graph, mode).
pub(crate) type CellKey = (String, String, String, String);

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
/// over its trials is what's reported). The budget is a *hard* gate:
/// `perf_compare --lint --max-rss-mb N` exits non-zero on any violation.
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
}
