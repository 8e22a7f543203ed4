//! The repo's benchmark: one command that runs the batch matrix, the
//! large-tier pipeline and the served-query workloads, prints every
//! metric by name and checks every output. See `benchmark/README.md`.

mod batch;
mod corpus;
mod layers;
mod metrics;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use gapbs_graph::gen::Scale;
use gapbs_telemetry::json::Json;

use metrics::END_TO_END;
use workloads::{Options, Workload};

#[global_allocator]
static ALLOCATOR: trace::CountingAlloc = trace::CountingAlloc;

const USAGE: &str = "\
usage: gapbs-benchmark [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
                       [--aa] [--runs R] [--smoke] [--spec]

  --workload W   one of matrix_medium, pipeline_large, serve_point, serve_batch,
                 run in this process; without it every workload runs in a child
                 process of its own, so peak memory is per workload
  --seed N       sources and request order (default 1); corpus generators keep
                 the repo's own seeds
  --seconds S    length of the timed phase (default: run_seconds of BENCHMARK.json)
  --trace [0|1]  1 (or bare) prints the per-layer metrics from a traced run and
                 writes benchmark/out/trace-<workload>.json; end-to-end metrics
                 always come from an untraced run
  --aa           run the suite twice (R seeds each) on this build and compare
                 the medians against the bounds; non-zero exit on disagreement
  --runs R       runs per workload and set for --aa (default 10)
  --smoke        tiny corpus, a quarter second per workload, no metrics
  --spec         print BENCHMARK.json as generated from the metric tables";

const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    aa: bool,
    runs: usize,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        traced: false,
        aa: false,
        runs: 10,
        smoke: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--runs" => {
                args.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
            }
            "--trace" => {
                args.traced = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--spec" => {
                print!("{}", metrics::benchmark_json());
                std::process::exit(0);
            }
            "--aa" => args.aa = true,
            "--smoke" => args.smoke = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds >= 0.0 && args.seconds <= 600.0) || args.runs == 0 {
        return Err("--seconds must lie in 0..=600 and --runs be positive".to_string());
    }
    Ok(args)
}

/// Runs one workload in this process and prints its table, its full
/// record and, last, the result object.
fn run_here(workload: Workload, args: &Args) -> ExitCode {
    let out = workloads::run(
        workload,
        &Options {
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
            scale: None,
            out_dir: PathBuf::from(OUT_DIR),
        },
    );
    print!("{}", out.table());
    println!("record: {}", out.record_json().encode());
    println!("{}", out.result_json().encode());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process of its own and returns the
/// record it printed; the child's table and notes are passed on.
fn run_child(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut record = None;
    for line in stdout.lines() {
        match line.strip_prefix("record: ") {
            Some(json) => record = Some(Json::parse(json)?),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    let record = record.ok_or(format!("{} printed no record", workload.name()))?;
    if !output.status.success() {
        return Err(format!(
            "{} failed a check ({})",
            workload.name(),
            output.status
        ));
    }
    Ok(record)
}

fn metric_of(record: &Json, name: &str) -> Option<f64> {
    record
        .get("result")?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Every workload once, each in its own process: the untraced run, and
/// with `--trace` the traced one after it.
fn suite(args: &Args) -> Result<(), String> {
    let mut records = Vec::new();
    for workload in Workload::ALL {
        records.push(run_child(workload, args.seed, args.seconds, false)?);
        if args.traced {
            records.push(run_child(workload, args.seed, args.seconds, true)?);
        }
    }
    let path = PathBuf::from(OUT_DIR).join(format!("suite-seed{}.json", args.seed));
    std::fs::write(&path, Json::Arr(records).encode())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("suite record written to {}", path.display());
    Ok(())
}

/// `args.runs` untraced runs of every workload, seeds `args.seed..`;
/// returns per workload the records in seed order.
fn run_set(args: &Args) -> Result<Vec<Vec<Json>>, String> {
    Workload::ALL
        .into_iter()
        .map(|workload| {
            (0..args.runs as u64)
                .map(|i| run_child(workload, args.seed + i, args.seconds, false))
                .collect()
        })
        .collect()
}

/// The A/A comparison: two sets of runs of the same build. Prints per
/// metric and workload both medians, both spreads (interquartile range
/// over the median), the difference and the bound; fails when a median
/// of the second set is worse than the first by more than the bound, or
/// a spread exceeds it.
fn aa(args: &Args) -> Result<bool, String> {
    let sets = [run_set(args)?, run_set(args)?];
    let out_dir = PathBuf::from(OUT_DIR);
    for (i, set) in sets.iter().enumerate() {
        let flat: Vec<Json> = set.iter().flatten().cloned().collect();
        let path = out_dir.join(format!("aa-set{}.json", i + 1));
        std::fs::write(&path, Json::Arr(flat).encode())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut agree = true;
    let mut table = format!(
        "{:<15} {:<18} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict\n",
        "workload", "metric", "median 1", "median 2", "spread1", "spread2", "worse", "bound"
    );
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for metric in &END_TO_END {
            let values = |set: &Vec<Vec<Json>>| -> Result<Vec<f64>, String> {
                set[w]
                    .iter()
                    .map(|r| metric_of(r, metric.name).ok_or(format!("{} missing", metric.name)))
                    .collect()
            };
            let (a, b) = (values(&sets[0])?, values(&sets[1])?);
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let spread = |v: &[f64]| {
                if v.len() < 2 {
                    return 0.0;
                }
                (stats::quartile(v, 3) - stats::quartile(v, 1)) / stats::median(v)
            };
            let worse = if metric.better == "lower" {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            // The driver does not hold `setup_s` to a spread.
            let spread_ok = metric.name == "setup_s"
                || (spread(&a) <= metric.bound && spread(&b) <= metric.bound);
            let ok = worse <= metric.bound && spread_ok;
            agree &= ok;
            table.push_str(&format!(
                "{:<15} {:<18} {:>12.4} {:>12.4} {:>8.4} {:>8.4} {:>+8.4} {:>6.2}  {}\n",
                workload.name(),
                metric.name,
                ma,
                mb,
                spread(&a),
                spread(&b),
                worse,
                metric.bound,
                if ok { "ok" } else { "DISAGREE" }
            ));
        }
    }
    print!("{table}");
    std::fs::write(out_dir.join("aa.txt"), &table).map_err(|e| format!("aa.txt: {e}"))?;
    Ok(agree)
}

/// Every workload at tiny scale for a quarter second, traced and not,
/// in this process: a compile, protocol or correctness drift fails
/// loudly; no metric is worth reading at this size, so none is printed.
fn smoke(args: &Args) -> bool {
    let mut ok = true;
    for workload in Workload::ALL {
        for traced in [false, true] {
            let out = workloads::run(
                workload,
                &Options {
                    seed: args.seed,
                    seconds: 0.25,
                    traced,
                    scale: Some(Scale::Tiny),
                    out_dir: PathBuf::from(OUT_DIR).join("smoke"),
                },
            );
            let verdict = if out.correct() { "ok" } else { "FAILED" };
            println!(
                "smoke {} ({}): {} checked, {} failed: {verdict}",
                workload.name(),
                if traced { "traced" } else { "untraced" },
                out.attempted,
                out.failed
            );
            ok &= out.correct();
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("error: cannot create {OUT_DIR} (run from the repository root): {e}");
        return ExitCode::from(2);
    }
    let outcome = if args.smoke {
        Ok(smoke(&args))
    } else if let Some(workload) = args.workload {
        return run_here(workload, &args);
    } else if args.aa {
        aa(&args)
    } else {
        suite(&args).map(|()| true)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
