//! Ledger and stats sanity checks behind `perf_compare`.
//!
//! [`lint`] checks one run ledger (see `gapbs_telemetry::ledger`) for
//! structural and accounting problems and [`enforce_rss_budget`] holds
//! every cell to an absolute peak-RSS budget (a serve stats snapshot is
//! checked by `gapbs_serve::scrape_problems`). Neither times anything: timing verdicts come from paired benchmark runs, and the
//! exact work of every cell is pinned by `tests/work_golden.rs`.

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
}
