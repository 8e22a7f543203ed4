//! Runs the full study end to end: generates the corpus, runs the
//! framework × kernel × graph × mode matrix (an Optimized cell only
//! where the framework's Optimized rules change it), prints Tables I–V,
//! writes the raw CSV, and evaluates the shape claims of EXPERIMENTS.md.
//!
//! ```sh
//! GAPBS_SCALE=medium cargo run --release -p gapbs-bench --bin run_all > results.txt
//! ```

use gapbs_bench::{corpus_in_pool, scale_from_env};
use gapbs_core::report::{render_table1, render_table2, render_table3};
use gapbs_core::{all_frameworks, run_matrix_in_pool, Kernel, Mode, TrialConfig};
use gapbs_parallel::ThreadPool;

fn main() {
    let scale = scale_from_env().unwrap_or_else(|e| {
        eprintln!("GAPBS_SCALE: {e}");
        std::process::exit(2)
    });
    let mut config = TrialConfig {
        trials: from_env("GAPBS_TRIALS", parse_trials),
        verify: from_env("GAPBS_VERIFY", parse_verify),
        ..Default::default()
    };
    // `--ledger [path]` appends one JSONL record per trial (default
    // results/ledger.jsonl) with times, phases and work counters.
    // `--trace [path]` writes a Chrome trace-event timeline of the whole
    // matrix (default results/trace.json): trial spans, kernel iterations,
    // pool regions and RSS samples.
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ledger" => {
                let path = match args.peek() {
                    Some(p) if !p.starts_with('-') => args.next().expect("peeked"),
                    _ => "results/ledger.jsonl".into(),
                };
                config.ledger_path = Some(path.into());
            }
            "--trace" => {
                let path = match args.peek() {
                    Some(p) if !p.starts_with('-') => args.next().expect("peeked"),
                    _ => "results/trace.json".into(),
                };
                trace_path = Some(path);
            }
            other => {
                eprintln!(
                    "unknown argument {other:?} (supported: --ledger [path], --trace [path])"
                );
                std::process::exit(2);
            }
        }
    }
    eprintln!(
        "corpus scale {scale}, {} trials, verify={}",
        config.trials, config.verify
    );
    if let Some(path) = &config.ledger_path {
        eprintln!("ledger: {}", path.display());
    }
    if let Some(path) = &trace_path {
        eprintln!("trace: {path}");
        gapbs_telemetry::trace::start(std::time::Duration::from_millis(10));
    }
    // One worker team for the whole study: corpus generation, graph
    // construction, and every benchmark cell share it.
    let pool = ThreadPool::new(config.threads);
    let inputs = corpus_in_pool(scale, &pool);
    let frameworks = all_frameworks();

    let rows: Vec<_> = inputs.iter().map(|b| (b.spec, &b.graph)).collect();
    println!("{}", render_table1(&rows));
    println!("{}", render_table2(&frameworks));
    println!("{}", render_table3(&frameworks));

    // Every Baseline cell, and the Optimized cells a framework tunes.
    let tuned = inputs
        .iter()
        .flat_map(|input| frameworks.iter().map(move |fw| (fw, input)))
        .flat_map(|(fw, input)| Kernel::ALL.into_iter().filter(|&k| fw.tuned(input, k)))
        .count();
    let total = frameworks.len() * Kernel::ALL.len() * inputs.len() + tuned;
    let mut done = 0usize;
    let report = run_matrix_in_pool(
        &frameworks,
        &inputs,
        &Kernel::ALL,
        &Mode::ALL,
        &config,
        |cell| {
            done += 1;
            eprintln!(
                "  [{done}/{total}] [{}] {:<12} {:<5} {:<8} best={:.4}s verified={}",
                cell.mode,
                cell.framework,
                cell.kernel.name(),
                cell.graph,
                cell.best_seconds(),
                cell.verified
            );
        },
        &pool,
    );
    if let Some(path) = &trace_path {
        let trace = gapbs_telemetry::trace::stop();
        match trace.write_chrome_file(path) {
            Ok(()) => eprintln!("trace: wrote {} events to {path}", trace.events.len()),
            Err(e) => eprintln!("trace: failed to write {path}: {e}"),
        }
    }
    println!("{}", report.table4());
    println!("{}", report.table5());

    let csv_path = std::env::var("GAPBS_CSV").unwrap_or_else(|_| "gapbs_results.csv".into());
    if let Err(e) = std::fs::write(&csv_path, report.to_csv()) {
        eprintln!("could not write {csv_path}: {e}");
    } else {
        eprintln!("raw results written to {csv_path}");
    }

    println!("{}", gapbs_bench::shape_claims(&report));
}

/// Parses environment variable `name` with `parse` (which sees `None`
/// when it is unset), exiting 2 with a message naming the variable on a
/// bad value.
fn from_env<T>(name: &str, parse: fn(Option<&str>) -> Result<T, String>) -> T {
    let value = std::env::var(name).ok();
    parse(value.as_deref()).unwrap_or_else(|e| {
        eprintln!("{name}: {e}");
        std::process::exit(2)
    })
}

/// `GAPBS_TRIALS`: a positive trial count, 3 when unset.
fn parse_trials(value: Option<&str>) -> Result<usize, String> {
    match value {
        None => Ok(3),
        Some(v) => v
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("{v:?} is not a positive integer")),
    }
}

/// `GAPBS_VERIFY`: `1` (the default) verifies every cell, `0` skips the
/// oracles.
fn parse_verify(value: Option<&str>) -> Result<bool, String> {
    match value {
        None | Some("1") => Ok(true),
        Some("0") => Ok(false),
        Some(v) => Err(format!("{v:?} is neither 0 nor 1")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trials_accept_only_a_positive_integer() {
        assert_eq!(parse_trials(None), Ok(3));
        assert_eq!(parse_trials(Some("1")), Ok(1));
        assert_eq!(parse_trials(Some("12")), Ok(12));
        for bad in ["1O", "0", "-1", "", " 3", "three"] {
            let err = parse_trials(Some(bad)).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{bad}: {err}");
        }
    }

    #[test]
    fn verify_accepts_only_zero_or_one() {
        assert_eq!(parse_verify(None), Ok(true));
        assert_eq!(parse_verify(Some("1")), Ok(true));
        assert_eq!(parse_verify(Some("0")), Ok(false));
        for bad in ["", "yes", "false", "2", "00"] {
            assert!(parse_verify(Some(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
