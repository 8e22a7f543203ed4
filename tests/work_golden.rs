//! The work golden: the exact work counters of every cell of the matrix
//! at `Scale::Small`, pinned in `results/work-golden.json`. The matrix is
//! 6 frameworks × 6 kernels × 5 graphs under Baseline, plus the Optimized
//! cells a framework's Optimized rules change (`Framework::tuned`): the
//! runner reads every other Optimized cell from its Baseline cell.
//!
//! The matrix runs through the runner with one trial per cell, no
//! verification and one thread, writing a ledger exactly as
//! `run_all --ledger` does; every non-zero counter of every record must
//! equal the golden. At one thread every counter repeats exactly from
//! run to run and between debug and release builds, so the file holds
//! exact values and no ranges (thread invariance is the job of
//! `tests/thread_invariance.rs` and `tests/work_claims.rs`). An
//! algorithmic change moves work exactly; a time change with flat work is
//! host drift.
//!
//! On a mismatch the test fails with a per-cell `counter: golden → actual`
//! list and writes the full actual file next to its ledger. Regenerating
//! the golden is copying that file over `results/work-golden.json`; the
//! commit that does so explains the diff.
//!
//! The counter registry is process-global, so this test has a binary of
//! its own: no other test's kernels land in its windows.

use gapbs::core::{all_frameworks, run_matrix_in_pool, BenchGraph, Kernel, Mode, TrialConfig};
use gapbs::graph::gen::{GraphSpec, Scale};
use gapbs::parallel::ThreadPool;
use gapbs_telemetry::json::Json;
use gapbs_telemetry::{Counter, TrialRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Non-zero counters by name, per cell.
type Work = BTreeMap<String, BTreeMap<String, u64>>;

fn cell_name(r: &TrialRecord) -> String {
    format!("{} {} {} {}", r.framework, r.kernel, r.graph, r.mode)
}

fn work_of(records: &[TrialRecord]) -> Work {
    let mut work = Work::new();
    for r in records {
        let counters = Counter::ALL
            .into_iter()
            .map(|c| (c.name().to_string(), r.counters.get(c)))
            .filter(|&(_, v)| v > 0)
            .collect();
        assert!(
            work.insert(cell_name(r), counters).is_none(),
            "{} recorded more than one trial",
            cell_name(r)
        );
    }
    work
}

/// One cell per line, so a regenerated golden diffs cell by cell.
fn render(work: &Work) -> String {
    let lines: Vec<String> = work
        .iter()
        .map(|(cell, counters)| {
            let counters = Json::obj(
                counters
                    .iter()
                    .map(|(name, &v)| (name.clone(), Json::Num(v as f64))),
            );
            format!(
                "  {}: {}",
                Json::Str(cell.clone()).encode(),
                counters.encode()
            )
        })
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

fn parse(text: &str) -> Work {
    let Ok(Json::Obj(cells)) = Json::parse(text.trim()) else {
        panic!("work golden is not a JSON object");
    };
    cells
        .into_iter()
        .map(|(cell, counters)| {
            let Json::Obj(counters) = counters else {
                panic!("{cell}: counters are not an object");
            };
            let counters = counters
                .into_iter()
                .map(|(name, v)| {
                    let v = v
                        .as_u64()
                        .unwrap_or_else(|| panic!("{cell}: {name} is not a count"));
                    (name, v)
                })
                .collect();
            (cell, counters)
        })
        .collect()
}

/// `counter: golden → actual` for every counter that differs, per cell.
fn diff(golden: &Work, actual: &Work) -> Vec<String> {
    let cells: BTreeSet<&String> = golden.keys().chain(actual.keys()).collect();
    cells
        .into_iter()
        .filter_map(|cell| {
            let (Some(want), Some(got)) = (golden.get(cell), actual.get(cell)) else {
                let side = if golden.contains_key(cell) {
                    "in the golden, not run"
                } else {
                    "run, not in the golden"
                };
                return Some(format!("{cell}: {side}"));
            };
            let names: BTreeSet<&String> = want.keys().chain(got.keys()).collect();
            let changes: Vec<String> = names
                .into_iter()
                .filter_map(|name| {
                    let w = want.get(name).copied().unwrap_or(0);
                    let g = got.get(name).copied().unwrap_or(0);
                    (w != g).then(|| format!("{name}: {w} → {g}"))
                })
                .collect();
            (!changes.is_empty()).then(|| format!("{cell}: {}", changes.join(", ")))
        })
        .collect()
}

fn run_matrix(ledger: &Path) -> Work {
    let _ = std::fs::remove_file(ledger);
    let config = TrialConfig {
        trials: 1,
        max_trials: 1,
        min_cell_seconds: 0.0,
        verify: false,
        threads: 1,
        ledger_path: Some(ledger.to_path_buf()),
        ..Default::default()
    };
    let pool = ThreadPool::new(config.threads);
    let inputs: Vec<BenchGraph> = GraphSpec::TABLE_ORDER
        .iter()
        .map(|&spec| BenchGraph::generate_in(spec, Scale::Small, &pool))
        .collect();
    let report = run_matrix_in_pool(
        &all_frameworks(),
        &inputs,
        &Kernel::ALL,
        &Mode::ALL,
        &config,
        |_| {},
        &pool,
    );
    let records = gapbs_telemetry::ledger::read(ledger).expect("the matrix wrote its ledger");
    assert_eq!(records.len(), report.cells().len(), "one record per cell");
    work_of(&records)
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results/work-golden.json")
}

#[test]
fn every_cell_does_exactly_the_golden_work() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("work_golden");
    std::fs::create_dir_all(&dir).expect("test scratch directory");
    let actual = run_matrix(&dir.join("ledger.jsonl"));
    let golden_path = golden_path();
    // A missing golden diffs as empty, so the first run writes one to copy.
    let golden = match std::fs::read_to_string(&golden_path) {
        Ok(text) => parse(&text),
        Err(_) => Work::new(),
    };
    let problems = diff(&golden, &actual);
    if problems.is_empty() {
        return;
    }
    let actual_path = dir.join("work-golden.json");
    std::fs::write(&actual_path, render(&actual)).expect("write the actual work");
    panic!(
        "{} of {} cells differ from {}:\n  {}\n\
         The full actual work is in {}. If the change in work is intended, \
         copy that file over the golden and explain the diff in the commit.",
        problems.len(),
        actual.len(),
        golden_path.display(),
        problems.join("\n  "),
        actual_path.display(),
    );
}

/// Tuned Optimized cells whose work equals their Baseline cell's, and why
/// they are timed anyway.
const SAME_WORK_AS_BASELINE: [(&str, &str); 9] = [
    (
        "Galois cc Kron",
        "another Afforest variant examines the same edges",
    ),
    (
        "Galois cc Road",
        "another Afforest variant examines the same edges",
    ),
    (
        "Galois cc Web",
        "another Afforest variant examines the same edges",
    ),
    (
        "Galois tc Kron",
        "the relabel runs outside the timed region",
    ),
    (
        "Galois tc Road",
        "the relabel runs outside the timed region",
    ),
    (
        "Galois tc Twitter",
        "the relabel runs outside the timed region",
    ),
    (
        "Galois tc Urand",
        "the relabel runs outside the timed region",
    ),
    ("Galois tc Web", "the relabel runs outside the timed region"),
    (
        "GraphIt bc Road",
        "a sparse-queue frontier where Baseline uses a bit vector",
    ),
];

/// The golden holds an Optimized cell only where a framework tunes it, so
/// each one must do other work than its Baseline cell or be listed in
/// [`SAME_WORK_AS_BASELINE`] with a reason; a listed cell whose work
/// differs is a stale entry.
#[test]
fn every_golden_optimized_cell_differs_from_its_baseline() {
    let text = std::fs::read_to_string(golden_path()).expect("read the work golden");
    let golden = parse(&text);
    let mut problems = Vec::new();
    for (cell, work) in &golden {
        let Some(test) = cell.strip_suffix(" Optimized") else {
            continue;
        };
        let baseline = golden
            .get(&format!("{test} Baseline"))
            .unwrap_or_else(|| panic!("{cell} has no Baseline cell"));
        let listed = SAME_WORK_AS_BASELINE.iter().any(|&(t, _)| t == test);
        match (work == baseline, listed) {
            (true, false) => problems.push(format!("{cell}: same work as Baseline, no reason")),
            (false, true) => problems.push(format!("{cell}: listed, but its work differs")),
            _ => {}
        }
    }
    for (test, _) in SAME_WORK_AS_BASELINE {
        if !golden.contains_key(&format!("{test} Optimized")) {
            problems.push(format!("{test}: listed, but not in the golden"));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
