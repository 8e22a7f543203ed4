//! The batch path: the paper's framework × kernel × graph matrix
//! (`matrix_medium`) and the GAP-reference pass over the large tier
//! (`pipeline_large`).
//!
//! The untraced matrix goes through `run_matrix_in_pool`, the product's
//! own runner. Wherever the benchmark needs more than the runner hands
//! back — kernel outputs to check, or a span per layer call — it walks
//! the cells itself, calling the same public functions in the same
//! order as `run_cell_in_pool` does.

use std::time::Instant;

use gapbs_core::spec::{SourcePicker, BC_ROOTS, PR_TOLERANCE};
use gapbs_core::{run_matrix_in_pool, BenchGraph, Framework, Kernel, Mode, TrialConfig};
use gapbs_graph::types::{Distance, NodeId, Score};
use gapbs_parallel::ThreadPool;

use crate::stats::Sample;
use crate::trace;

/// Crate (layer) name of a framework, from its display name.
pub fn crate_of(framework: &str) -> &'static str {
    match framework {
        "GAP" => "ref",
        "SuiteSparse" => "grb",
        "Galois" => "galois",
        "GraphIt" => "graphit",
        "GKC" => "gkc",
        "NWGraph" => "nwgraph",
        other => panic!("framework {other:?} has no crate name"),
    }
}

/// Lower-case kernel name as metric names spell it.
pub fn kernel_name(kernel: Kernel) -> String {
    kernel.name().to_lowercase()
}

/// The source-rotation seed of one pass. `SourcePicker` ORs its seed
/// with 1, so pass seeds differ in higher bits.
pub fn pass_seed(seed: u64, pass: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(pass as u64) << 1
}

/// What a timed phase produced, whatever the workload.
#[derive(Default)]
pub struct Timed {
    /// One entry per timed operation.
    pub samples: Vec<Sample>,
    /// Class names, indexed by `Sample::class`.
    pub classes: Vec<String>,
    /// Wall time of the phase.
    pub wall_s: f64,
    /// Whole passes over the cell matrix, and trials per cell in each
    /// (batch workloads).
    pub passes: usize,
    pub trials: usize,
    /// Operations whose output was checked, and how many were wrong.
    pub attempted: u64,
    pub failed: u64,
}

/// A cell's class name: `<crate>/<kernel>/<graph>`.
fn class_name(framework: &str, kernel: Kernel, input: &BenchGraph) -> String {
    format!(
        "{}/{}/{}",
        crate_of(framework),
        kernel_name(kernel),
        input.spec.name()
    )
}

/// Class names of a cell matrix, graph-major as the runner walks it.
fn cell_classes(frameworks: &[Box<dyn Framework>], inputs: &[BenchGraph]) -> Vec<String> {
    let mut classes = Vec::new();
    for input in inputs {
        for fw in frameworks {
            for kernel in Kernel::ALL {
                classes.push(class_name(fw.name(), kernel, input));
            }
        }
    }
    classes
}

/// Trials per cell in one pass of the end-to-end matrix. Three, so a
/// cell's time does not hang on one source; the issue's five do not
/// fit the driver's time budget.
pub const MATRIX_TRIALS: usize = 3;

/// `matrix_medium`'s timed phase: whole passes of `run_matrix_in_pool`
/// (`trials` verified trials per cell, seeded source rotation) until
/// `seconds` have gone by.
pub fn matrix_passes(
    frameworks: &[Box<dyn Framework>],
    inputs: &[BenchGraph],
    trials: usize,
    seed: u64,
    seconds: f64,
    pool: &ThreadPool,
) -> Timed {
    let mut out = Timed {
        classes: cell_classes(frameworks, inputs),
        trials,
        ..Timed::default()
    };
    let start = Instant::now();
    let mut pass = 0;
    loop {
        let config = TrialConfig {
            trials,
            verify: true,
            seed: pass_seed(seed, pass),
            threads: pool.num_threads(),
            source_override: None,
            min_cell_seconds: 0.0,
            max_trials: trials,
            ledger_path: None,
        };
        let report = run_matrix_in_pool(
            frameworks,
            inputs,
            &Kernel::ALL,
            &[Mode::Baseline],
            &config,
            |_| {},
            pool,
        );
        assert_eq!(report.cells().len(), out.classes.len());
        for (class, cell) in report.cells().iter().enumerate() {
            out.attempted += 1;
            if !cell.verified {
                out.failed += 1;
                eprintln!("FAIL: {} failed verification", out.classes[class]);
            }
            out.samples
                .extend(cell.times.iter().map(|&s| Sample { class, ms: s * 1e3 }));
        }
        pass += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.passes = pass;
    out
}

/// A kernel's output, kept so it can be checked outside the timed span.
pub enum Output {
    Bfs(NodeId, Vec<NodeId>),
    Sssp(NodeId, Vec<Distance>),
    Pr(Vec<Score>, usize),
    Cc(Vec<NodeId>),
    Bc(Vec<NodeId>, Vec<Score>),
    Tc(u64),
}

impl Output {
    /// Checks the output the way the runner does. `tc_reference`, when
    /// given, replaces the sequential TC oracle, which alone costs more
    /// than the whole large-tier run.
    pub fn verify(&self, input: &BenchGraph, tc_reference: Option<u64>) -> bool {
        match self {
            Output::Bfs(source, parents) => {
                gapbs_verify::verify_bfs(&input.graph, *source, parents).is_ok()
            }
            Output::Sssp(source, dist) => {
                gapbs_verify::verify_sssp(&input.wgraph, *source, dist).is_ok()
            }
            Output::Pr(scores, _) => {
                gapbs_verify::verify_pr(&input.graph, scores, PR_TOLERANCE * 50.0).is_ok()
            }
            Output::Cc(labels) => gapbs_verify::verify_cc(&input.graph, labels).is_ok(),
            Output::Bc(sources, scores) => {
                gapbs_verify::verify_bc(&input.graph, sources, scores).is_ok()
            }
            Output::Tc(count) => match tc_reference {
                Some(reference) => *count == reference,
                None => gapbs_verify::verify_tc(&input.sym_graph, *count).is_ok(),
            },
        }
    }
}

/// One cell the benchmark walked itself.
pub struct Cell {
    pub framework: &'static str,
    pub kernel: Kernel,
    pub graph: usize,
    pub prepare_ms: f64,
    pub kernel_ms: f64,
    /// Bytes requested from the allocator during the kernel call
    /// (traced runs only).
    pub alloc_bytes: u64,
    pub output: Output,
}

/// One pass over `frameworks × Kernel::ALL × inputs`, one trial per
/// cell: `Framework::prepare`, seeded source, the kernel call — each
/// inside a span named after its layer.
pub fn walk_cells(
    frameworks: &[&dyn Framework],
    inputs: &[BenchGraph],
    picker_seed: u64,
    pool: &ThreadPool,
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (graph, input) in inputs.iter().enumerate() {
        for fw in frameworks {
            let layer = crate_of(fw.name());
            for kernel in Kernel::ALL {
                let op = cells.len() as u64;
                let (prepared, prepare_ms) =
                    trace::timed(&format!("core.prepare_{layer}"), op, || {
                        fw.prepare(input, Mode::Baseline, pool)
                    });
                let mut picker =
                    SourcePicker::from_candidates(input.source_candidates.clone(), picker_seed);
                let name = format!("{layer}.{}", kernel_name(kernel));
                let ((output, kernel_ms), _, alloc_bytes) =
                    trace::count_allocs(trace::is_on(), || match kernel {
                        Kernel::Bfs => {
                            let source = picker.next_source();
                            let (out, ms) = trace::timed(&name, op, || prepared.bfs(source));
                            (Output::Bfs(source, out), ms)
                        }
                        Kernel::Sssp => {
                            let source = picker.next_source();
                            let (out, ms) = trace::timed(&name, op, || prepared.sssp(source));
                            (Output::Sssp(source, out), ms)
                        }
                        Kernel::Pr => {
                            let ((scores, iters), ms) = trace::timed(&name, op, || prepared.pr());
                            (Output::Pr(scores, iters), ms)
                        }
                        Kernel::Cc => {
                            let (out, ms) = trace::timed(&name, op, || prepared.cc());
                            (Output::Cc(out), ms)
                        }
                        Kernel::Bc => {
                            let sources = picker.next_sources(BC_ROOTS);
                            let (out, ms) = trace::timed(&name, op, || prepared.bc(&sources));
                            (Output::Bc(sources, out), ms)
                        }
                        Kernel::Tc => {
                            let (out, ms) = trace::timed(&name, op, || prepared.tc());
                            (Output::Tc(out), ms)
                        }
                    });
                cells.push(Cell {
                    framework: fw.name(),
                    kernel,
                    graph,
                    prepare_ms,
                    kernel_ms,
                    alloc_bytes,
                    output,
                });
            }
        }
    }
    cells
}

/// `pipeline_large`'s timed phase: whole passes of the GAP reference
/// over the corpus, unverified inside the span, until `seconds` have
/// gone by. The first pass's cells are returned for checking.
pub fn reference_passes(
    gap: &dyn Framework,
    inputs: &[BenchGraph],
    seed: u64,
    seconds: f64,
    pool: &ThreadPool,
) -> (Timed, Vec<Cell>) {
    let mut out = Timed::default();
    let mut first = Vec::new();
    let start = Instant::now();
    let mut pass = 0;
    loop {
        let cells = walk_cells(&[gap], inputs, pass_seed(seed, pass), pool);
        if pass == 0 {
            out.classes = cells
                .iter()
                .map(|c| class_name(c.framework, c.kernel, &inputs[c.graph]))
                .collect();
        }
        out.samples
            .extend(cells.iter().enumerate().map(|(class, c)| Sample {
                class,
                ms: c.kernel_ms,
            }));
        if pass == 0 {
            first = cells;
        }
        pass += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.passes = pass;
    (out, first)
}

/// Checks each cell of a pass with the `gapbs-verify` oracles; TC is
/// checked against `tc_by`'s triangle count where one is given. Returns
/// the milliseconds spent per check, and how many cells failed.
pub fn check_cells(
    cells: &[Cell],
    inputs: &[BenchGraph],
    tc_by: Option<&dyn Framework>,
    pool: &ThreadPool,
) -> (Vec<(Kernel, f64)>, u64) {
    let mut failed = 0;
    let times = cells
        .iter()
        .enumerate()
        .map(|(op, cell)| {
            let input = &inputs[cell.graph];
            let name = format!("verify.{}", kernel_name(cell.kernel));
            let (ok, ms) = trace::timed(&name, op as u64, || {
                let reference = tc_by
                    .filter(|_| matches!(cell.output, Output::Tc(_)))
                    .map(|fw| fw.prepare(input, Mode::Baseline, pool).tc());
                cell.output.verify(input, reference)
            });
            if !ok {
                failed += 1;
                eprintln!(
                    "FAIL: {} failed its check",
                    class_name(cell.framework, cell.kernel, input)
                );
            }
            (cell.kernel, ms)
        })
        .collect();
    (times, failed)
}
