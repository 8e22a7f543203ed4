//! GAP-style command-line interface shared by the per-kernel binaries.
//!
//! The GAP reference distribution ships one binary per kernel (`bfs`,
//! `sssp`, `pr`, `cc`, `bc`, `tc`) with a common flag set; this module
//! reproduces that interface:
//!
//! ```text
//! -g <scale>   generate a Kronecker graph with 2^scale vertices
//! -u <scale>   generate a uniform random graph with 2^scale vertices
//! -c <name>    generate a corpus graph: web|twitter|road|kron|urand
//! -f <path>    load a graph from file (.el, .wel, .gsnap)
//! -k <degree>  average degree for -g/-u (default 16)
//! -s           symmetrize the input (an edge list; a .gsnap is stored as converted)
//! -n <trials>  number of timed trials (default 3)
//! -r <node>    fixed source vertex (default: rotating seeded sources)
//! -x <name>    framework: gap|suitesparse|galois|graphit|gkc|nwgraph
//! -o           run under Optimized rules instead of Baseline
//! -v           verify every trial (on by default; -V disables)
//! -h           help
//! ```
//!
//! Kernel-specific flags are parsed by the binaries themselves
//! (`-d delta` for sssp, `-i iterations -t tolerance` for pr).

use crate::core::framework::Framework;
use crate::core::{all_frameworks, BenchGraph, Mode, TrialConfig};
use crate::graph::gen::{self, GraphSpec, Scale};
use crate::graph::snapshot::LoadOptions;
use crate::graph::types::NodeId;
use crate::graph::{io, Builder, Graph, Snapshot, WGraph};
use std::process::exit;

/// Parsed common options.
#[derive(Debug)]
pub struct CliOptions {
    /// How to obtain the graph.
    pub source: GraphSource,
    /// Average degree for generators.
    pub degree: usize,
    /// Symmetrize the input.
    pub symmetrize: bool,
    /// Trials.
    pub trials: usize,
    /// Fixed source vertex, if any.
    pub fixed_source: Option<NodeId>,
    /// Framework name.
    pub framework: String,
    /// Rule set.
    pub mode: Mode,
    /// Verify outputs.
    pub verify: bool,
    /// Append per-trial JSONL records to this ledger file.
    pub ledger: Option<String>,
    /// Write a Chrome trace-event JSON timeline of the run to this file.
    pub trace: Option<String>,
    /// Unconsumed (kernel-specific) flags, as (flag, value) pairs.
    pub extra: Vec<(String, String)>,
}

/// Where the input graph comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSource {
    /// `-g scale`: Kronecker generator.
    Kron(u32),
    /// `-u scale`: uniform random generator.
    Urand(u32),
    /// `-c name`: corpus graph at `GAPBS_SCALE`.
    Corpus(GraphSpec),
    /// `-f path`: file.
    File(String),
}

impl CliOptions {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed input.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<CliOptions, String> {
        let mut opts = CliOptions {
            source: GraphSource::Kron(10),
            degree: 16,
            symmetrize: false,
            trials: 3,
            fixed_source: None,
            framework: "gap".into(),
            mode: Mode::Baseline,
            verify: true,
            ledger: None,
            trace: None,
            extra: Vec::new(),
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .ok_or_else(|| format!("flag {name} needs a value"))
            };
            match flag.as_str() {
                "-g" => opts.source = GraphSource::Kron(parse_num(&value("-g")?)?),
                "-u" => opts.source = GraphSource::Urand(parse_num(&value("-u")?)?),
                "-c" => opts.source = GraphSource::Corpus(value("-c")?.parse()?),
                "-f" => opts.source = GraphSource::File(value("-f")?),
                "-k" => opts.degree = parse_num::<usize>(&value("-k")?)?,
                "-s" => opts.symmetrize = true,
                "-n" => opts.trials = parse_num::<usize>(&value("-n")?)?,
                "-r" => opts.fixed_source = Some(parse_num(&value("-r")?)?),
                "-x" => opts.framework = value("-x")?.to_lowercase(),
                "-o" => opts.mode = Mode::Optimized,
                "-v" => opts.verify = true,
                "-V" => opts.verify = false,
                "--ledger" => opts.ledger = Some(value("--ledger")?),
                "--trace" => opts.trace = Some(value("--trace")?),
                "-h" | "--help" => return Err(USAGE.into()),
                other if other.starts_with('-') => {
                    let v = it.next().unwrap_or_default();
                    opts.extra.push((other.to_string(), v));
                }
                other => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
            }
        }
        Ok(opts)
    }

    /// Looks up a kernel-specific numeric flag.
    pub fn extra_num<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.extra
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.parse().ok())
    }

    /// Builds the benchmark input graph per the options (serial wrapper
    /// over [`CliOptions::load_in`]).
    ///
    /// # Errors
    ///
    /// Propagates file-parse and build failures as messages.
    pub fn load(&self) -> Result<BenchGraph, String> {
        self.load_in(&gapbs_parallel::ThreadPool::new(1))
    }

    /// [`CliOptions::load`] with generation and construction on `pool`.
    /// The prepared input is identical for every pool size.
    ///
    /// # Errors
    ///
    /// Propagates file-parse and build failures as messages.
    pub fn load_in(&self, pool: &gapbs_parallel::ThreadPool) -> Result<BenchGraph, String> {
        let (spec, graph, wgraph) = match &self.source {
            GraphSource::Kron(scale) => {
                let edges = gen::kron_edges_in(*scale, self.degree, 42, pool);
                let g = Builder::new()
                    .num_vertices(1 << scale)
                    .symmetrize(true)
                    .pool(pool)
                    .build(edges.clone())
                    .map_err(|e| e.to_string())?;
                let wg = gen::weighted_companion_in(1 << scale, &edges, true, 42, pool);
                (GraphSpec::Kron, g, wg)
            }
            GraphSource::Urand(scale) => {
                let edges = gen::urand_edges_in(*scale, self.degree, 42, pool);
                let g = Builder::new()
                    .num_vertices(1 << scale)
                    .symmetrize(true)
                    .pool(pool)
                    .build(edges.clone())
                    .map_err(|e| e.to_string())?;
                let wg = gen::weighted_companion_in(1 << scale, &edges, true, 42, pool);
                (GraphSpec::Urand, g, wg)
            }
            GraphSource::Corpus(spec) => {
                let scale = scale_from_env()?;
                (
                    *spec,
                    spec.generate_in(scale, pool),
                    spec.generate_weighted_in(scale, pool),
                )
            }
            GraphSource::File(path) => {
                let (g, wg) = load_file(path, self.symmetrize, pool)?;
                (GraphSpec::Kron, g, wg) // spec is nominal for file inputs
            }
        };
        Ok(BenchGraph::from_graphs_in(spec, graph, wgraph, pool))
    }

    /// Resolves the requested framework.
    ///
    /// # Errors
    ///
    /// Returns a message listing valid names on an unknown framework.
    pub fn resolve_framework(&self) -> Result<Box<dyn Framework>, String> {
        let wanted = match self.framework.as_str() {
            "gap" | "ref" => "GAP",
            "suitesparse" | "graphblas" | "lagraph" => "SuiteSparse",
            "galois" => "Galois",
            "graphit" => "GraphIt",
            "gkc" => "GKC",
            "nwgraph" => "NWGraph",
            other => {
                return Err(format!(
                    "unknown framework {other:?}; expected \
                     gap|suitesparse|galois|graphit|gkc|nwgraph"
                ))
            }
        };
        all_frameworks()
            .into_iter()
            .find(|f| f.name() == wanted)
            .ok_or_else(|| format!("framework {wanted} not registered"))
    }

    /// Trial configuration implied by the options.
    pub fn trial_config(&self) -> TrialConfig {
        TrialConfig {
            trials: self.trials.max(1),
            verify: self.verify,
            source_override: self.fixed_source,
            max_trials: self.trials.max(1).max(16),
            ledger_path: self.ledger.as_ref().map(std::path::PathBuf::from),
            ..Default::default()
        }
    }
}

/// Parses common options from `std::env::args`, exiting with usage on
/// error — the behaviour GAP's binaries have.
pub fn parse_or_exit() -> CliOptions {
    match CliOptions::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            exit(2);
        }
    }
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid number {s:?}"))
}

/// The corpus scale for `-c`: `GAPBS_SCALE`, defaulting to `small`.
fn scale_from_env() -> Result<Scale, String> {
    std::env::var("GAPBS_SCALE").map_or(Ok(Scale::Small), |s| s.parse())
}

fn load_file(
    path: &str,
    symmetrize: bool,
    pool: &gapbs_parallel::ThreadPool,
) -> Result<(Graph, WGraph), String> {
    let lower = path.to_lowercase();
    if lower.ends_with(".wel") {
        let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
        let wg = io::wgraph_from_wel(file, symmetrize).map_err(|e| e.to_string())?;
        let edges = wg
            .out_wcsr()
            .unweighted()
            .iter_edges()
            .map(|(u, v)| crate::graph::Edge::new(u, v))
            .collect();
        let g = Builder::new()
            .num_vertices(wg.num_vertices())
            .build(edges)
            .map_err(|e| e.to_string())?;
        let g = if wg.is_directed() {
            g
        } else {
            Graph::undirected(g.out_csr().clone())
        };
        Ok((g, wg))
    } else if lower.ends_with(".gsnap") {
        if symmetrize {
            return Err(format!(
                "{path}: -s does not apply to a stored snapshot; \
                 symmetrize when converting (converter -s -f <input> -b <out.gsnap>)"
            ));
        }
        // The file is untrusted: a paranoid load validates every stored
        // structure and reports any defect as a `SnapshotError`.
        let opts = LoadOptions {
            paranoid: true,
            ..LoadOptions::default()
        };
        let bundle = Snapshot::open_with(std::path::Path::new(path), opts)
            .and_then(|snap| snap.bundle_in(Some(pool)))
            .map_err(|e| format!("{path}: {e}"))?;
        Ok((bundle.graph, bundle.wgraph))
    } else {
        let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
        let g = io::graph_from_el(file, symmetrize).map_err(|e| e.to_string())?;
        let wg = synth_weights(&g);
        Ok((g, wg))
    }
}

/// Synthesizes GAP-style uniform weights for inputs without them.
fn synth_weights(g: &Graph) -> WGraph {
    let edges: Vec<crate::graph::Edge> = g
        .out_csr()
        .iter_edges()
        .map(|(u, v)| crate::graph::Edge::new(u, v))
        .collect();
    let wg = gen::weighted_companion(g.num_vertices(), &edges, false, 42);
    if g.is_directed() {
        wg
    } else {
        WGraph::undirected(wg.out_wcsr().clone())
    }
}

/// Shared driver for the per-kernel binaries: parse flags, load the
/// graph, run the kernel under the trial protocol, print GAP-style
/// output, exit non-zero on verification failure.
pub fn run_kernel_binary(kernel: crate::core::Kernel) {
    let opts = parse_or_exit();
    // One worker team for the whole process: graph construction and the
    // trial protocol share it, so the build scales with GAPBS_THREADS too.
    let config = opts.trial_config();
    let pool = gapbs_parallel::ThreadPool::new(config.threads);
    // A trace session wraps graph construction and the whole trial
    // protocol, so build:{stage} boxes, warm-up, and verification all
    // land on the timeline beside the iteration and pool events.
    if opts.trace.is_some() {
        gapbs_telemetry::trace::start(std::time::Duration::from_millis(10));
    }
    let input = opts.load_in(&pool).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    });
    let framework = opts.resolve_framework().unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    });
    eprintln!(
        "{}: {} vertices, {} edges, framework {}, {} rules",
        kernel.name().to_lowercase(),
        input.graph.num_vertices(),
        input.graph.num_edges(),
        framework.name(),
        opts.mode,
    );
    let record = crate::core::run_cell_in_pool(
        framework.as_ref(),
        &input,
        kernel,
        opts.mode,
        &config,
        &pool,
    );
    if let Some(path) = &opts.trace {
        let trace = gapbs_telemetry::trace::stop();
        match trace.write_chrome_file(path) {
            Ok(()) => eprintln!("trace: wrote {} events to {path}", trace.events.len()),
            Err(e) => {
                eprintln!("trace: failed to write {path}: {e}");
                exit(2);
            }
        }
    }
    for (i, t) in record.times.iter().enumerate() {
        println!("Trial {i}: {t:.6} s");
    }
    println!("Best:    {:.6} s", record.best_seconds());
    println!("Average: {:.6} s", record.mean_seconds());
    if !record.note.is_empty() {
        println!("Note:    {}", record.note);
    }
    println!(
        "Verification: {}",
        if record.verified { "PASS" } else { "FAIL" }
    );
    if !record.verified {
        exit(1);
    }
}

/// Usage text shared by the binaries.
pub const USAGE: &str = "\
usage: <kernel> [options]
  -g <scale>   kronecker graph, 2^scale vertices
  -u <scale>   uniform random graph, 2^scale vertices
  -c <name>    corpus graph: web|twitter|road|kron|urand (size via GAPBS_SCALE)
  -f <path>    load graph file (.el, .wel, .gsnap from converter)
  -k <deg>     average degree for generators (default 16)
  -s           symmetrize input (an edge list, not a .gsnap)
  -n <trials>  timed trials (default 3)
  -r <node>    fixed source vertex
  -x <fw>      framework: gap|suitesparse|galois|graphit|gkc|nwgraph
  -o           Optimized rules (default Baseline)
  -V           skip verification
  --ledger <path>  append per-trial JSONL records to a run ledger
  --trace <path>   write a Chrome trace-event JSON timeline (load in Perfetto)
kernel-specific: sssp: -d <delta>; pr: -i <iters> -t <tol>";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> CliOptions {
        CliOptions::parse(args.iter().map(|s| s.to_string())).expect("valid args")
    }

    #[test]
    fn defaults_match_gap_conventions() {
        let o = parse(&[]);
        assert_eq!(o.source, GraphSource::Kron(10));
        assert_eq!(o.trials, 3);
        assert!(o.verify);
        assert_eq!(o.mode, Mode::Baseline);
    }

    #[test]
    fn generator_flags_parse() {
        let o = parse(&[
            "-u", "12", "-k", "8", "-n", "5", "-r", "7", "-x", "gkc", "-o",
        ]);
        assert_eq!(o.source, GraphSource::Urand(12));
        assert_eq!(o.degree, 8);
        assert_eq!(o.trials, 5);
        assert_eq!(o.fixed_source, Some(7));
        assert_eq!(o.framework, "gkc");
        assert_eq!(o.mode, Mode::Optimized);
    }

    #[test]
    fn corpus_flag_parses_names() {
        let o = parse(&["-c", "road"]);
        assert_eq!(o.source, GraphSource::Corpus(GraphSpec::Road));
        assert!(CliOptions::parse(["-c".into(), "nope".into()]).is_err());
    }

    #[test]
    fn ledger_flag_threads_into_trial_config() {
        let o = parse(&["--ledger", "out/ledger.jsonl"]);
        assert_eq!(o.ledger.as_deref(), Some("out/ledger.jsonl"));
        let config = o.trial_config();
        assert_eq!(
            config.ledger_path.as_deref(),
            Some(std::path::Path::new("out/ledger.jsonl"))
        );
        assert!(parse(&[]).trial_config().ledger_path.is_none());
    }

    #[test]
    fn trace_flag_parses() {
        let o = parse(&["--trace", "out/trace.json"]);
        assert_eq!(o.trace.as_deref(), Some("out/trace.json"));
        assert!(parse(&[]).trace.is_none());
    }

    #[test]
    fn kernel_specific_flags_pass_through() {
        let o = parse(&["-d", "4", "-t", "1e-6"]);
        assert_eq!(o.extra_num::<i32>("-d"), Some(4));
        assert_eq!(o.extra_num::<f64>("-t"), Some(1e-6));
        assert_eq!(o.extra_num::<i32>("-z"), None);
    }

    #[test]
    fn loads_generated_graph() {
        let o = parse(&["-g", "6", "-k", "4"]);
        let input = o.load().expect("generation cannot fail");
        assert_eq!(input.num_vertices(), 64);
        assert!(!input.graph.is_directed());
    }

    #[test]
    fn resolves_every_framework_alias() {
        for (alias, name) in [
            ("gap", "GAP"),
            ("graphblas", "SuiteSparse"),
            ("galois", "Galois"),
            ("graphit", "GraphIt"),
            ("gkc", "GKC"),
            ("nwgraph", "NWGraph"),
        ] {
            let o = parse(&["-x", alias]);
            assert_eq!(o.resolve_framework().unwrap().name(), name);
        }
    }

    #[test]
    fn unknown_positional_is_an_error() {
        assert!(CliOptions::parse(["bogus".into()]).is_err());
    }
}
