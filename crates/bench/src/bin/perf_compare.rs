//! Perf regression gate: diffs two run ledgers and exits non-zero when
//! any (framework, kernel, graph, mode) cell got slower beyond the noise
//! thresholds. Relative peak-RSS changes are reported alongside but
//! never gate; an explicit absolute budget (`--max-rss-mb`) does gate —
//! that is the bounded-memory mode the snapshot work targets: mmap-fed
//! kernels must stay under a fixed resident ceiling.
//!
//! ```sh
//! cargo run -p gapbs-bench --bin perf_compare -- baseline.jsonl candidate.jsonl
//! cargo run -p gapbs-bench --bin perf_compare -- --lint ledger.jsonl
//! ```
//!
//! `--lint` sanity-checks one ledger instead of diffing two: times
//! finite, outputs verified, graphs non-empty, and (unless the ledger
//! carries no edge counts at all) every batch trial examined at least
//! one edge.
//!
//! `--lint-stats` sanity-checks one `{"cmd":"stats"}` snapshot from the
//! serve daemon (a JSON file, or `-` for stdin): lifecycle counters
//! balance exactly (`admitted == completed + active`), width-1 queries
//! never outnumber completions (`queries_inline <= completed`), the
//! latency histogram count equals completions, and the bucket table is
//! monotone.
//!
//! Exit codes: 0 clean, 1 regressions/lint problems found, 2 usage or
//! read error.

use gapbs_bench::perf::{compare, enforce_rss_budget, lint, lint_stats, CompareConfig};
use gapbs_telemetry::json::Json;
use gapbs_telemetry::Ledger;
use std::io::Read;
use std::process::exit;

const USAGE: &str = "\
usage: perf_compare [options] <baseline.jsonl> <candidate.jsonl>
       perf_compare --lint <ledger.jsonl>
       perf_compare --lint-stats <stats.json|->
  --ratio <r>      ratio threshold for a real change (default 1.25, >= 1)
  --floor <s>      absolute seconds floor for a real change (default 0.005, >= 0)
  --max-rss-mb <n> hard-fail any cell whose peak RSS exceeds n MiB
                   (candidate ledger in diff mode, the ledger in --lint)
  --lint           sanity-check one ledger instead of diffing two
  --lint-stats     sanity-check one serve-daemon stats snapshot";

fn main() {
    let defaults = CompareConfig::default();
    let mut ratio = defaults.ratio_threshold;
    let mut floor = defaults.absolute_floor;
    let mut lint_mode = false;
    let mut lint_stats_mode = false;
    let mut max_rss_bytes: Option<u64> = None;
    let mut paths = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or_else(|| {
                    eprintln!("flag {name} needs a numeric value\n{USAGE}");
                    exit(2);
                })
        };
        match arg.as_str() {
            "--ratio" => ratio = value("--ratio"),
            "--floor" => floor = value("--floor"),
            "--max-rss-mb" => {
                let mb = value("--max-rss-mb");
                if !mb.is_finite() || mb <= 0.0 {
                    eprintln!("--max-rss-mb needs a positive value\n{USAGE}");
                    exit(2);
                }
                max_rss_bytes = Some((mb * 1024.0 * 1024.0) as u64);
            }
            "--lint" => lint_mode = true,
            "--lint-stats" => lint_stats_mode = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => paths.push(other.to_string()),
        }
    }
    let config = CompareConfig::new(ratio, floor).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2);
    });
    if lint_stats_mode {
        let [path] = paths.as_slice() else {
            eprintln!("{USAGE}");
            exit(2);
        };
        let text = if path == "-" {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .unwrap_or_else(|e| {
                    eprintln!("stdin: {e}");
                    exit(2);
                });
            buf
        } else {
            std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                exit(2);
            })
        };
        let stats = Json::parse(text.trim()).unwrap_or_else(|e| {
            eprintln!("{path}: not valid JSON: {e}");
            exit(2);
        });
        let problems = lint_stats(&stats);
        if problems.is_empty() {
            println!("{path}: stats snapshot is internally consistent");
            return;
        }
        for p in &problems {
            println!("LINT {p}");
        }
        eprintln!("{path}: {} problem(s)", problems.len());
        exit(1);
    }
    if lint_mode {
        let [path] = paths.as_slice() else {
            eprintln!("{USAGE}");
            exit(2);
        };
        let records = Ledger::read(path).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2);
        });
        let mut problems = lint(&records);
        if let Some(budget) = max_rss_bytes {
            problems.extend(enforce_rss_budget(&records, budget));
        }
        if problems.is_empty() {
            println!("{path}: {} record(s), no problems", records.len());
            return;
        }
        for p in &problems {
            println!("LINT {p}");
        }
        eprintln!(
            "{path}: {} problem(s) in {} record(s)",
            problems.len(),
            records.len()
        );
        exit(1);
    }
    let [baseline_path, candidate_path] = paths.as_slice() else {
        eprintln!("{USAGE}");
        exit(2);
    };

    let read = |path: &str| {
        Ledger::read(path).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2);
        })
    };
    let baseline = read(baseline_path);
    let candidate = read(candidate_path);
    eprintln!(
        "baseline {baseline_path}: {} trials; candidate {candidate_path}: {} trials \
         (ratio > {:.2}x and > {:.3}s counts as a change)",
        baseline.len(),
        candidate.len(),
        config.ratio_threshold,
        config.absolute_floor,
    );

    let result = compare(&baseline, &candidate, &config);
    print!("{}", result.render());
    let mut failed = result.has_regressions();
    if let Some(budget) = max_rss_bytes {
        let violations = enforce_rss_budget(&candidate, budget);
        if violations.is_empty() {
            println!(
                "RSS BUDGET: every candidate cell within {:.1} MiB",
                budget as f64 / (1024.0 * 1024.0)
            );
        } else {
            for v in &violations {
                println!("RSS BUDGET {v}");
            }
            failed = true;
        }
    }
    if failed {
        exit(1);
    }
}
