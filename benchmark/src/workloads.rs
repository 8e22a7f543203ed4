//! The four workloads: set-up, timed phase, checks and — in a traced
//! run — the per-layer measurements.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use gapbs_core::{all_frameworks, BenchGraph, Framework, Kernel};
use gapbs_graph::gen::Scale;
use gapbs_parallel::ThreadPool;
use gapbs_telemetry::json::Json;

use crate::batch::{self, Timed};
use crate::corpus::{self, ColdStart};
use crate::layers::{self, ServeInputs};
use crate::metrics::{Metrics, RunOutput};
use crate::serve::{self, Daemon};
use crate::stats::{by_class, geomean, mean, median, percentile, tail_percentile};
use crate::trace;

/// A set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MatrixMedium,
    PipelineLarge,
    ServePoint,
    ServeBatch,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MatrixMedium,
        Workload::PipelineLarge,
        Workload::ServePoint,
        Workload::ServeBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MatrixMedium => "matrix_medium",
            Workload::PipelineLarge => "pipeline_large",
            Workload::ServePoint => "serve_point",
            Workload::ServeBatch => "serve_batch",
        }
    }

    /// Why the workload exists, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::MatrixMedium => "the paper's Table IV/V matrix, 6 frameworks x 6 kernels x 5 cache-resident graphs, verified: bound by region launch, per-trial allocation, prepare and oracles; serve does nothing",
            Workload::PipelineLarge => "2^18-vertex graphs beyond the LLC, GAP reference only: rebuild, snapshot write and load, then kernels bound by layout and memory traffic; launch overhead is negligible",
            Workload::ServePoint => "closed-loop point queries over loopback TCP at medium scale: kernels of 0.4-25 ms, so parse, coalesce window, per-query prepare, canonicalise, JSON and wake-ups rival kernel time",
            Workload::ServeBatch => "closed-loop 64-source BFS batch lines: per-request overhead amortised 64x while canonicalisation, fingerprints and 5 KB replies are multiplied 64x; MS-BFS does the kernel work",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn scale(self) -> Scale {
        match self {
            Workload::PipelineLarge => Scale::Large,
            _ => Scale::Medium,
        }
    }

    /// The percentile `query_tail_ms` reports: the highest with at least
    /// ten samples beyond it at the workload's sample count on a
    /// two-core host (2 200, 60, 540 and 280 operations).
    fn tail(self) -> u32 {
        match self {
            Workload::ServePoint => 99,
            Workload::PipelineLarge => 80,
            Workload::MatrixMedium | Workload::ServeBatch => 95,
        }
    }

    /// Untimed requests per connection before a closed loop is timed.
    fn warmup(self) -> usize {
        match self {
            Workload::ServeBatch => 20,
            _ => 200,
        }
    }
}

/// Cold-start repetitions: five where one costs half a second, one at
/// the large tier, where it costs twelve.
fn cold_reps(scale: Scale) -> usize {
    if scale == Scale::Large {
        1
    } else {
        5
    }
}

/// How one run was asked for.
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// `--smoke` shrinks every corpus to this scale.
    pub scale: Option<Scale>,
    /// Where the run may write: scratch, traces and records.
    pub out_dir: PathBuf,
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The end-to-end numbers every workload derives from its timed phase.
fn summarize(timed: &Timed, tail: u32, out: &mut RunOutput) {
    let (metrics, notes) = (&mut out.metrics, &mut out.notes);
    let n = timed.samples.len();
    let all: Vec<f64> = timed.samples.iter().map(|s| s.ms).collect();
    let means = by_class(&timed.samples, timed.classes.len(), mean);
    out.classes = means
        .iter()
        .map(|(class, ms)| (timed.classes[*class].clone(), *ms))
        .collect();
    let cells: Vec<f64> = means.into_iter().map(|(_, ms)| ms).collect();
    metrics.set("qps", n as f64 / timed.wall_s, n);
    metrics.set("query_p50_ms", median(&all), n);
    metrics.set("query_tail_ms", percentile(&all, f64::from(tail)), n);
    metrics.set("kernel_geomean_ms", geomean(&cells), cells.len());
    metrics.set(
        "kernel_total_s",
        cells.iter().sum::<f64>() / 1e3,
        cells.len(),
    );
    let supported = tail_percentile(n).unwrap_or(0);
    notes.push(format!(
        "{n} timed operations in {:.2} s over {} classes; query_tail_ms is p{tail} ({n} samples support p{supported})",
        timed.wall_s,
        cells.len()
    ));
}

fn cold_metrics(cold: &ColdStart, metrics: &mut Metrics, reps: usize) {
    metrics.set("ready_rebuild_s", cold.rebuild_s, reps);
    metrics.set("snapshot_write_s", cold.write_s, reps);
    metrics.set("ready_snapshot_ms", cold.load_ms, corpus::SNAPSHOT_LOADS);
}

fn graph_layers(cold: &ColdStart, compact_ms: f64, metrics: &mut Metrics, reps: usize) {
    const MB: f64 = 1024.0 * 1024.0;
    metrics.set("graph.gen_s", cold.gen_s, reps);
    metrics.set("graph.build_s", cold.build_s, reps);
    metrics.set("graph.snapshot_write_s", cold.write_s, reps);
    metrics.set(
        "graph.snapshot_load_ms",
        cold.load_ms,
        corpus::SNAPSHOT_LOADS,
    );
    metrics.set("graph.snapshot_load_compact_ms", compact_ms, 5);
    metrics.set("graph.snapshot_mb", cold.snapshot_bytes as f64 / MB, 5);
    metrics.set("graph.resident_mb", cold.resident_bytes as f64 / MB, 5);
}

/// Sum over classes of the class mean, the basis of the trace
/// overhead ratio: it compares like with like whatever the two phases'
/// lengths and trial counts.
fn class_total_ms(timed: &Timed) -> f64 {
    by_class(&timed.samples, timed.classes.len(), mean)
        .into_iter()
        .map(|(_, ms)| ms)
        .sum()
}

/// One pass of `run_matrix_in_pool` set against the benchmark's own
/// walk of the same cells: the pass's wall time, and the part of it that
/// is neither trial, check nor prepare time. The runner prepares once
/// per cell and checks every trial of a source kernel but only the
/// first of the others.
fn runner_layers(
    untraced: &Timed,
    cells: &[batch::Cell],
    checks: &[(Kernel, f64)],
    metrics: &mut Metrics,
) {
    let passes = untraced.passes as f64;
    let pass_s = untraced.wall_s / passes;
    let trials_s = untraced.samples.iter().map(|s| s.ms).sum::<f64>() / 1e3 / passes;
    let prepare_s = cells.iter().map(|c| c.prepare_ms).sum::<f64>() / 1e3;
    let verify_s = checks
        .iter()
        .map(|(kernel, ms)| {
            let checked = if kernel.takes_source() {
                untraced.trials
            } else {
                1
            };
            ms * checked as f64
        })
        .sum::<f64>()
        / 1e3;
    metrics.set("core.matrix_pass_s", pass_s, untraced.passes);
    metrics.set(
        "core.runner_overhead_s",
        pass_s - trials_s - prepare_s - verify_s,
        cells.len(),
    );
}

/// What a workload's own phases hand to the common tail of [`run`].
struct Focus {
    /// The timed phase with the recorder off.
    untraced: Timed,
    /// When the first timed operation began; set-up ends there.
    first_timed: Instant,
    /// Sum of class means of the traced half (traced runs only), for the
    /// overhead ratio.
    traced_total_ms: f64,
    /// The serve workloads' daemon and request list.
    daemon: Option<Daemon>,
    mix: Option<serve::Mix>,
}

/// One run's state, shared by its phases.
struct Run<'a> {
    workload: Workload,
    options: &'a Options,
    scale: Scale,
    pool: ThreadPool,
    work: PathBuf,
    frameworks: Vec<Box<dyn Framework>>,
    cold: ColdStart,
    out: RunOutput,
}

impl Run<'_> {
    fn framework(&self, name: &str) -> &dyn Framework {
        self.frameworks
            .iter()
            .find(|f| f.name() == name)
            .unwrap_or_else(|| panic!("framework {name} is not registered"))
            .as_ref()
    }

    /// Length of each half of a traced run's timed phase, or of the
    /// whole of an untraced one.
    fn slice(&self) -> f64 {
        if self.options.traced {
            self.options.seconds / 2.0
        } else {
            self.options.seconds
        }
    }

    /// [`batch::check_cells`], counted into the run's result.
    fn check(
        &mut self,
        cells: &[batch::Cell],
        inputs: &[BenchGraph],
        tc_by: Option<&str>,
    ) -> Vec<(Kernel, f64)> {
        let tc_by = tc_by.map(|name| self.framework(name));
        let (checks, failed) = batch::check_cells(cells, inputs, tc_by, &self.pool);
        self.out.attempted += cells.len() as u64;
        self.out.failed += failed;
        checks
    }

    fn matrix_medium(&mut self) -> Focus {
        let (seed, traced) = (self.options.seed, self.options.traced);
        let inputs = corpus::load_owned(self.scale, &self.cold.snapshot_dir, &self.pool);
        // A traced run's untraced half only has to set the walk against
        // the runner, which one trial per cell does at half the cost.
        let trials = if traced { 1 } else { batch::MATRIX_TRIALS };
        trace::set_on(false);
        let first_timed = Instant::now();
        let untraced = batch::matrix_passes(
            &self.frameworks,
            &inputs,
            trials,
            seed,
            self.slice(),
            &self.pool,
        );
        let mut traced_total_ms = 0.0;
        if traced {
            trace::set_on(true);
            let all: Vec<&dyn Framework> = self.frameworks.iter().map(|f| f.as_ref()).collect();
            // The sources of the untraced pass, so both walk the same work.
            let cells = batch::walk_cells(&all, &inputs, batch::pass_seed(seed, 0), &self.pool);
            let checks = self.check(&cells, &inputs, None);
            traced_total_ms = cells.iter().map(|c| c.kernel_ms).sum();
            layers::framework_layers(&cells, &mut self.out.metrics);
            layers::verify_layers(&checks, &mut self.out.metrics);
            runner_layers(&untraced, &cells, &checks, &mut self.out.metrics);
        }
        Focus {
            untraced,
            first_timed,
            traced_total_ms,
            daemon: None,
            mix: None,
        }
    }

    fn pipeline_large(&mut self) -> Focus {
        let (seed, traced) = (self.options.seed, self.options.traced);
        let inputs = corpus::load_owned(self.scale, &self.cold.snapshot_dir, &self.pool);
        trace::set_on(false);
        let first_timed = Instant::now();
        let (untraced, mut cells) = batch::reference_passes(
            self.framework("GAP"),
            &inputs,
            seed,
            self.slice(),
            &self.pool,
        );
        let mut traced_total_ms = 0.0;
        if traced {
            trace::set_on(true);
            let (timed, traced_cells) = batch::reference_passes(
                self.framework("GAP"),
                &inputs,
                seed + 1,
                self.slice(),
                &self.pool,
            );
            traced_total_ms = class_total_ms(&timed);
            cells = traced_cells;
        }
        let checks = self.check(&cells, &inputs, Some("GKC"));
        self.out.notes.push(
            "each cell of one pass is checked outside the timed span: gapbs-verify oracles for BFS/SSSP/CC/PR/BC, GKC's triangle count for TC".to_string(),
        );
        if traced {
            layers::framework_layers(&cells, &mut self.out.metrics);
            layers::verify_layers(&checks, &mut self.out.metrics);
        }
        Focus {
            untraced,
            first_timed,
            traced_total_ms,
            daemon: None,
            mix: None,
        }
    }

    fn serve(&mut self) -> Focus {
        let (seed, traced) = (self.options.seed, self.options.traced);
        let daemon = Daemon::start(
            &self.cold.snapshot_dir,
            &self.work.join("ledger.jsonl"),
            self.scale,
            self.pool.num_threads(),
        );
        let registry = daemon.engine.registry();
        let mut mix = if self.workload == Workload::ServePoint {
            serve::point_mix(seed, registry)
        } else {
            serve::batch_mix(seed, registry)
        };
        serve::reference_fingerprints(&mut mix, registry, &self.pool);
        let connections = corpus::cores();
        let warmup = self.workload.warmup();
        self.out
            .info
            .push(("connections".to_string(), Json::Num(connections as f64)));
        self.out.notes.push(format!(
            "closed loop: {connections} connections (one per core), each waiting for its reply; {warmup} untimed warm-up requests per connection; every reply's fingerprint is compared with run_query_local on the daemon's own registry"
        ));
        trace::set_on(false);
        let untraced =
            serve::closed_loop(daemon.addr, &mix, connections, warmup, self.slice(), seed);
        // Warm-up is part of set-up; the timed span starts behind it.
        let first_timed = Instant::now() - Duration::from_secs_f64(untraced.wall_s);
        let mut traced_total_ms = 0.0;
        if traced {
            trace::set_on(true);
            let timed =
                serve::closed_loop(daemon.addr, &mix, connections, 0, self.slice(), seed + 1);
            self.out.attempted += timed.attempted;
            self.out.failed += timed.failed;
            traced_total_ms = class_total_ms(&timed);
        }
        Focus {
            untraced,
            first_timed,
            traced_total_ms,
            daemon: Some(daemon),
            mix: Some(mix),
        }
    }

    /// The per-layer metrics the workload's own phases did not produce,
    /// measured at medium scale on the default inputs, so every traced
    /// run reports every layer.
    fn per_layer_rest(&mut self, focus: &Focus) {
        let (workload, seed) = (self.workload, self.options.seed);
        let own_corpus = corpus::load_owned(self.scale, &self.cold.snapshot_dir, &self.pool);
        let compact_ms = corpus::compact_load_ms(
            &own_corpus,
            self.scale,
            &self.work.join("compact"),
            &self.pool,
        );
        graph_layers(
            &self.cold,
            compact_ms,
            &mut self.out.metrics,
            cold_reps(self.scale),
        );
        layers::micro_layers(&self.pool, &self.work, &mut self.out.metrics);

        // A medium corpus for the layers measured at medium scale.
        let sweep_scale = self.options.scale.unwrap_or(Scale::Medium);
        let (medium_dir, medium) = if self.scale == sweep_scale {
            (self.cold.snapshot_dir.clone(), own_corpus)
        } else {
            drop(own_corpus);
            let dir = self.work.join("snapshots-medium");
            corpus::cold_start(sweep_scale, &dir, 1, &self.pool);
            let corpus = corpus::load_owned(sweep_scale, &dir, &self.pool);
            (dir, corpus)
        };
        if workload != Workload::MatrixMedium {
            // The frameworks this workload did not run, one checked pass;
            // and one GAP-only pass through the runner for `core.*`.
            trace::set_on(true);
            let rest: Vec<&dyn Framework> = self
                .frameworks
                .iter()
                .map(|f| f.as_ref())
                .filter(|f| workload != Workload::PipelineLarge || f.name() != "GAP")
                .collect();
            let cells = batch::walk_cells(&rest, &medium, batch::pass_seed(seed, 0), &self.pool);
            drop(rest);
            let checks = self.check(&cells, &medium, None);
            trace::set_on(false);
            let mut swept = Metrics::default();
            layers::framework_layers(&cells, &mut swept);
            layers::verify_layers(&checks, &mut swept);
            let gap = self
                .frameworks
                .iter()
                .position(|f| f.name() == "GAP")
                .expect("GAP is registered");
            let gap = &self.frameworks[gap..=gap];
            let gap_cells = batch::walk_cells(
                &[gap[0].as_ref()],
                &medium,
                batch::pass_seed(seed, 0),
                &self.pool,
            );
            let (gap_checks, _) = batch::check_cells(&gap_cells, &medium, None, &self.pool);
            let through_runner = batch::matrix_passes(gap, &medium, 1, seed, 0.0, &self.pool);
            runner_layers(&through_runner, &gap_cells, &gap_checks, &mut swept);
            for (name, metric) in swept.0 {
                self.out.metrics.fill(name, metric.value, metric.samples);
            }
        }
        let account = layers::serve_layers(
            &ServeInputs {
                snapshot_dir: &medium_dir,
                work: &self.work,
                pool: &self.pool,
                seed,
                connections: corpus::cores(),
                loop_seconds: self.options.seconds.min(3.0),
                scale: sweep_scale,
                daemon: focus.daemon.as_ref(),
                points: focus
                    .mix
                    .as_ref()
                    .filter(|_| workload == Workload::ServePoint),
                batches: focus
                    .mix
                    .as_ref()
                    .filter(|_| workload == Workload::ServeBatch),
            },
            &mut self.out.metrics,
        );
        self.out
            .notes
            .push("where a served point query's time goes, by kind:".to_string());
        self.out
            .notes
            .extend(account.into_iter().map(|line| format!("  {line}")));
    }
}

/// Runs one workload once.
pub fn run(workload: Workload, options: &Options) -> RunOutput {
    let started = Instant::now();
    let threads = corpus::pool_threads();
    let pool = ThreadPool::new(threads);
    let work = options.out_dir.join(format!("work-{}", std::process::id()));
    let _scratch = Scratch(work.clone());
    let scale = options.scale.unwrap_or(workload.scale());
    let reps = cold_reps(scale);
    if options.traced {
        trace::start();
    }
    let cold_started = Instant::now();
    let cold = corpus::cold_start(scale, &work.join("snapshots"), reps, &pool);
    let cold_wall = cold_started.elapsed().as_secs_f64();

    let mut info = corpus::machine_info(options.seed, threads);
    info.push(("scale".to_string(), Json::Str(scale.to_string())));
    info.push(("graphs".to_string(), Json::Arr(cold.shapes.clone())));
    let mut run = Run {
        workload,
        options,
        scale,
        pool,
        work,
        frameworks: all_frameworks(),
        out: RunOutput {
            workload: workload.name(),
            traced: options.traced,
            attempted: cold.checks,
            failed: cold.failed,
            metrics: Metrics::default(),
            info,
            classes: Vec::new(),
            notes: vec![format!(
                "snapshot loads hit a warm page cache: each file was written moments earlier by this process; {reps} cold-start repetition(s), {} registry loads",
                corpus::SNAPSHOT_LOADS
            )],
        },
        cold,
    };
    let focus = match workload {
        Workload::MatrixMedium => run.matrix_medium(),
        Workload::PipelineLarge => run.pipeline_large(),
        Workload::ServePoint | Workload::ServeBatch => run.serve(),
    };
    run.out.attempted += focus.untraced.attempted;
    run.out.failed += focus.untraced.failed;

    if options.traced {
        run.out.metrics.set(
            "bench.trace_overhead_ratio",
            focus.traced_total_ms / class_total_ms(&focus.untraced),
            focus.untraced.samples.len(),
        );
        trace::set_on(false);
        run.per_layer_rest(&focus);
        let spans = trace::stop();
        let path = options
            .out_dir
            .join(format!("trace-{}.json", workload.name()));
        std::fs::write(&path, trace::to_json(&spans).encode()).expect("write trace file");
        run.out.notes.push(format!(
            "{} spans written to {}; median self time per span name:",
            spans.len(),
            path.display()
        ));
        for (name, own) in trace::self_ms_by_name(&spans) {
            run.out
                .notes
                .push(format!("  {name}: {:.4} ms x {}", median(&own), own.len()));
        }
    } else {
        // Set-up is one repetition of the cold start (the median one) plus
        // everything else before the first timed operation, taken once.
        let cold = &run.cold;
        let setup_s = cold.rebuild_s
            + cold.write_s
            + cold.load_ms / 1e3
            + (focus.first_timed - started).as_secs_f64()
            - cold_wall;
        run.out.metrics.set("setup_s", setup_s, reps);
        cold_metrics(&run.cold, &mut run.out.metrics, reps);
        summarize(&focus.untraced, workload.tail(), &mut run.out);
    }
    if let Some(daemon) = focus.daemon {
        let engine = std::sync::Arc::clone(&daemon.engine);
        daemon.stop();
        let gate = engine.gate().snapshot();
        if gate.rejected + gate.deadline_exceeded > 0 {
            run.out.failed += gate.rejected + gate.deadline_exceeded;
            eprintln!(
                "FAIL: the daemon refused {} and timed out {} queries",
                gate.rejected, gate.deadline_exceeded
            );
        }
    }
    if !options.traced {
        let hwm = gapbs_telemetry::trace::read_vm_status().map_or(0, |vm| vm.vm_hwm_bytes);
        run.out
            .metrics
            .set("peak_rss_mb", hwm as f64 / (1024.0 * 1024.0), 1);
    }
    run.out
}
