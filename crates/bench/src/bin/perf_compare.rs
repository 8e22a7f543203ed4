//! Ledger and stats lint: checks one run ledger or one serve-daemon
//! stats snapshot and exits non-zero on any problem. It compares nothing
//! against a baseline: timing verdicts come from paired benchmark runs,
//! and each cell's exact work is pinned by `tests/work_golden.rs`.
//!
//! ```sh
//! cargo run -p gapbs-bench --bin perf_compare -- --lint ledger.jsonl
//! cargo run -p gapbs-bench --bin perf_compare -- --lint --max-rss-mb 8192 ledger.jsonl
//! cargo run -p gapbs-bench --bin perf_compare -- --lint-stats stats.json
//! ```
//!
//! `--lint` checks one ledger: times finite, outputs verified, graphs
//! non-empty, and (unless the ledger carries no edge counts at all)
//! every batch trial examined at least one edge. With `--max-rss-mb`
//! any cell whose peak RSS exceeds the budget is a problem too: that is
//! the bounded-memory mode the snapshot work targets.
//!
//! `--lint-stats` checks one `{"cmd":"stats"}` reply or `/stats` body
//! from the serve daemon (a JSON file, or `-` for stdin) with
//! `gapbs_serve::scrape_problems`, the daemon's own statement of its
//! scrape invariants: the lifecycle series balance exactly
//! (`queries_admitted_total == queries_completed_total +
//! active_queries`), width-1 queries never outnumber completions, the
//! latency histogram count equals completions and its bucket table is
//! monotone, the cold-start series are sane, and no top-level key
//! repeats a `metrics` series.
//!
//! Exit codes: 0 clean, 1 problems found, 2 usage or read error.

use gapbs_bench::perf::{enforce_rss_budget, lint};
use gapbs_telemetry::json::Json;
use std::io::Read;
use std::process::exit;

const USAGE: &str = "\
usage: perf_compare --lint [--max-rss-mb <n>] <ledger.jsonl>
       perf_compare --lint-stats <stats.json|->
  --lint           sanity-check one run ledger
  --max-rss-mb <n> with --lint: fail any cell whose peak RSS exceeds n MiB
  --lint-stats     sanity-check one serve-daemon stats snapshot";

fn main() {
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
        let problems = gapbs_serve::scrape_problems(&stats);
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
    let ([path], true) = (paths.as_slice(), lint_mode) else {
        eprintln!("{USAGE}");
        exit(2);
    };
    let records = gapbs_telemetry::ledger::read(path).unwrap_or_else(|e| {
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
