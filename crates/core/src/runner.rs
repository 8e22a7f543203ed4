//! The trial runner: times kernels under the GAP protocol and verifies
//! every trial's output.
//!
//! Protocol per cell (framework × kernel × graph × mode): prepare what
//! the cell's kernel reads ([`Framework::prepare_kernel`], untimed), run
//! `trials` timed executions with rotating seeded sources, verify each
//! output with `gapbs-verify`, and report the best time — the statistic
//! Table IV uses.

use crate::framework::{BenchGraph, Framework};
use crate::kernel::{Kernel, Mode};
use crate::report::Report;
use crate::spec::{SourcePicker, BC_ROOTS, PR_TOLERANCE};
use gapbs_parallel::ThreadPool;
use gapbs_telemetry::{LedgerSink, Phase, Span, TrialRecord};
use std::cell::OnceCell;
use std::path::PathBuf;
use std::time::Instant;

/// Trial protocol configuration.
#[derive(Debug, Clone)]
pub struct TrialConfig {
    /// Timed executions per cell (Table IV reports the best).
    pub trials: usize,
    /// Verify every trial's output against the sequential oracles.
    pub verify: bool,
    /// Seed for source rotation.
    pub seed: u64,
    /// Worker threads (the paper pins 32 cores for Baseline; we pin
    /// whatever the host has).
    pub threads: usize,
    /// Fixed source vertex for BFS/SSSP/BC (overrides source rotation,
    /// like GAP's `-r` flag).
    pub source_override: Option<gapbs_graph::types::NodeId>,
    /// Minimum timed kernel seconds a cell's trials should add up to.
    /// Hosts with cgroup throttling freeze the CPU for ~100ms windows; if
    /// all trials of a fast kernel land inside one window, even the min
    /// is contaminated. Extra trials run (up to
    /// [`TrialConfig::max_trials`]) until the trials' own times reach
    /// this total; verification time does not count, so a slow oracle
    /// never cuts a cell's trials short.
    pub min_cell_seconds: f64,
    /// Hard cap on trials per cell.
    pub max_trials: usize,
    /// Append one JSONL record per trial to this ledger file, with the
    /// trial's times, phases and work counters.
    pub ledger_path: Option<PathBuf>,
}

impl Default for TrialConfig {
    fn default() -> Self {
        TrialConfig {
            trials: 5,
            verify: true,
            seed: 0x6a70,
            threads: gapbs_parallel::pool::default_threads(),
            source_override: None,
            min_cell_seconds: 0.4,
            max_trials: 16,
            ledger_path: None,
        }
    }
}

/// The timing record of one benchmark cell.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// Framework name.
    pub framework: String,
    /// Kernel.
    pub kernel: Kernel,
    /// Graph name.
    pub graph: String,
    /// Rule set.
    pub mode: Mode,
    /// All trial times in seconds.
    pub times: Vec<f64>,
    /// Whether every verified trial passed.
    pub verified: bool,
    /// Optional annotation (e.g. PR iteration count).
    pub note: String,
}

impl CellRecord {
    /// Best (minimum) trial time in seconds.
    pub fn best_seconds(&self) -> f64 {
        self.times.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// The comparison statistic used by Tables IV and V: the *minimum*
    /// trial time. Sources are drawn from the giant component, so every
    /// trial does comparable work, and on hosts with scheduler
    /// interference the minimum is the robust estimator of true kernel
    /// cost (the mean is contaminated by multi-millisecond steal spikes).
    pub(crate) fn stat_seconds(&self) -> f64 {
        self.best_seconds()
    }

    /// Arithmetic mean of trial times.
    pub fn mean_seconds(&self) -> f64 {
        if self.times.is_empty() {
            f64::NAN
        } else {
            self.times.iter().sum::<f64>() / self.times.len() as f64
        }
    }
}

/// Runs one cell of the benchmark matrix on a freshly provisioned pool.
///
/// Prefer [`run_cell_in_pool`] when running more than one cell: the
/// persistent pool's worker team should be spawned once per run, not
/// once per cell.
pub fn run_cell(
    framework: &dyn Framework,
    input: &BenchGraph,
    kernel: Kernel,
    mode: Mode,
    config: &TrialConfig,
) -> CellRecord {
    let pool = ThreadPool::new(config.threads);
    run_cell_in_pool(framework, input, kernel, mode, config, &pool)
}

/// Runs one cell of the benchmark matrix on an existing pool.
///
/// The pool's thread count is authoritative for execution; callers
/// should build it from `config.threads` (as [`run_matrix`] does) so
/// ledger records describe the actual team size.
pub fn run_cell_in_pool(
    framework: &dyn Framework,
    input: &BenchGraph,
    kernel: Kernel,
    mode: Mode,
    config: &TrialConfig,
    pool: &ThreadPool,
) -> CellRecord {
    run_cell_with_oracle(
        framework,
        input,
        kernel,
        mode,
        config,
        pool,
        &OnceCell::new(),
        open_ledger(config).as_ref(),
    )
}

/// Opens `config.ledger_path`, reporting (not failing on) an open error.
fn open_ledger(config: &TrialConfig) -> Option<LedgerSink> {
    let path = config.ledger_path.as_ref()?;
    LedgerSink::open(path)
        .map_err(|e| eprintln!("ledger {}: {e}", path.display()))
        .ok()
}

/// [`run_cell_in_pool`] with the input's sequential triangle count held in
/// `tc_oracle`: computed on first use, so a matrix run pays for the
/// oracle once per graph instead of once per (framework, graph) cell.
/// Each trial's record is appended to `ledger` and flushed at once, so a
/// killed run keeps every finished trial.
#[allow(clippy::too_many_arguments)]
fn run_cell_with_oracle(
    framework: &dyn Framework,
    input: &BenchGraph,
    kernel: Kernel,
    mode: Mode,
    config: &TrialConfig,
    pool: &ThreadPool,
    tc_oracle: &OnceCell<u64>,
    ledger: Option<&LedgerSink>,
) -> CellRecord {
    // Phase/counter marks advance trial by trial; the delta between marks
    // is what one trial (plus, for trial 0, the build) cost.
    let mut phases_mark = gapbs_telemetry::span::phase_times();
    let mut counters_mark = gapbs_telemetry::snapshot();
    let prepared = {
        let _build = Span::enter(Phase::Build);
        framework.prepare_kernel(input, mode, kernel, pool)
    };
    let mut picker = SourcePicker::from_candidates(input.source_candidates.clone(), config.seed);
    let mut times = Vec::with_capacity(config.trials);
    let mut verified = true;
    let mut note = String::new();
    let mut trial = 0usize;
    while trial < config.trials
        || (trial < config.max_trials.max(config.trials)
            && times.iter().sum::<f64>() < config.min_cell_seconds)
    {
        // Source-rotating kernels produce a different answer every trial,
        // so each is verified; the fixed kernels (PR, CC, TC) compute the
        // same answer per cell and are verified once.
        let verify_this = config.verify && (kernel.takes_source() || trial == 0);
        // Trace mark: one "Trial" duration event spans the kernel run plus
        // its verification (cold path — records only while a session is
        // active).
        let trial_trace_start = gapbs_telemetry::trace::now_ns();
        match kernel {
            Kernel::Bfs => {
                let source = config
                    .source_override
                    .unwrap_or_else(|| picker.next_source());
                let start = Instant::now();
                let parent = prepared.bfs(source);
                times.push(start.elapsed().as_secs_f64());
                if verify_this {
                    let _vs = Span::enter(Phase::Verify);
                    verified &= gapbs_verify::verify_bfs(&input.graph, source, &parent).is_ok();
                }
            }
            Kernel::Sssp => {
                let source = config
                    .source_override
                    .unwrap_or_else(|| picker.next_source());
                let start = Instant::now();
                let dist = prepared.sssp(source);
                times.push(start.elapsed().as_secs_f64());
                if verify_this {
                    let _vs = Span::enter(Phase::Verify);
                    verified &= gapbs_verify::verify_sssp(&input.wgraph, source, &dist).is_ok();
                }
            }
            Kernel::Pr => {
                let start = Instant::now();
                let (scores, iterations) = prepared.pr();
                times.push(start.elapsed().as_secs_f64());
                note = format!("{iterations} iters");
                if verify_this {
                    let _vs = Span::enter(Phase::Verify);
                    verified &=
                        gapbs_verify::verify_pr(&input.graph, &scores, PR_TOLERANCE * 50.0).is_ok();
                }
            }
            Kernel::Cc => {
                let start = Instant::now();
                let labels = prepared.cc();
                times.push(start.elapsed().as_secs_f64());
                if verify_this {
                    let _vs = Span::enter(Phase::Verify);
                    verified &= gapbs_verify::verify_cc(&input.graph, &labels).is_ok();
                }
            }
            Kernel::Bc => {
                let sources = match config.source_override {
                    Some(s) => vec![s; 1],
                    None => picker.next_sources(BC_ROOTS),
                };
                let start = Instant::now();
                let scores = prepared.bc(&sources);
                times.push(start.elapsed().as_secs_f64());
                if verify_this {
                    let _vs = Span::enter(Phase::Verify);
                    verified &= gapbs_verify::verify_bc(&input.graph, &sources, &scores).is_ok();
                }
            }
            Kernel::Tc => {
                let start = Instant::now();
                let count = prepared.tc();
                times.push(start.elapsed().as_secs_f64());
                note = format!("{count} triangles");
                if verify_this {
                    let _vs = Span::enter(Phase::Verify);
                    verified &= count
                        == *tc_oracle
                            .get_or_init(|| gapbs_verify::oracles::triangles(&input.sym_graph));
                }
            }
        }
        let trial_seconds = *times.last().expect("every arm records a time");
        gapbs_telemetry::span::clock().accrue(Phase::Kernel, (trial_seconds * 1e9) as u64);
        gapbs_telemetry::trace::trial(
            format!(
                "{} {} {} {} #{trial}",
                framework.name(),
                kernel.name().to_lowercase(),
                input.spec.name(),
                mode
            ),
            trial_trace_start,
        );
        if let Some(ledger) = ledger {
            let now_phases = gapbs_telemetry::span::phase_times();
            let now_counters = gapbs_telemetry::snapshot();
            let phase_delta = now_phases.delta(&phases_mark);
            let record = TrialRecord {
                framework: framework.name().to_string(),
                kernel: kernel.name().to_lowercase(),
                graph: input.spec.name().to_string(),
                mode: mode.to_string(),
                trial: trial as u64,
                seconds: trial_seconds,
                build_seconds: phase_delta.get(Phase::Build),
                relabel_seconds: phase_delta.get(Phase::Relabel),
                verified,
                threads: pool.num_threads() as u64,
                num_vertices: input.graph.num_vertices() as u64,
                num_arcs: input.graph.num_arcs() as u64,
                counters: now_counters.delta(&counters_mark),
                phases: phase_delta,
                peak_rss_bytes: gapbs_telemetry::trace::read_vm_status()
                    .map_or(0, |vm| vm.vm_hwm_bytes),
                graph_bytes: input.kernel_graph_bytes(kernel) as u64,
                git_rev: String::new(),
            };
            phases_mark = now_phases;
            counters_mark = now_counters;
            if let Err(e) = ledger.append(&record).and_then(|()| ledger.flush()) {
                eprintln!("ledger append: {e}");
            }
        }
        trial += 1;
    }
    CellRecord {
        framework: framework.name().to_string(),
        kernel,
        graph: input.spec.name().to_string(),
        mode,
        times,
        verified,
        note,
    }
}

/// Runs the full benchmark matrix: every framework × kernel × graph ×
/// mode, in the paper's table order, and collects a [`Report`].
///
/// An Optimized cell runs only where the framework's Optimized rules
/// change its configuration ([`Framework::tuned`]); the report reads
/// every other Optimized cell from its Baseline cell, so `modes` holds
/// Optimized only beside Baseline.
///
/// `progress` receives one line per completed cell (pass `|_| {}` to run
/// silently).
pub fn run_matrix<F>(
    frameworks: &[Box<dyn Framework>],
    inputs: &[BenchGraph],
    kernels: &[Kernel],
    modes: &[Mode],
    config: &TrialConfig,
    progress: F,
) -> Report
where
    F: FnMut(&CellRecord),
{
    // One persistent worker team for the whole matrix: every cell's
    // regions reuse it, so a full run pays exactly one spawn event.
    let pool = ThreadPool::new(config.threads);
    run_matrix_in_pool(frameworks, inputs, kernels, modes, config, progress, &pool)
}

/// [`run_matrix`] on an existing pool — callers that already own a team
/// (e.g. because they generated the corpus on it) avoid a second spawn.
#[allow(clippy::too_many_arguments)]
pub fn run_matrix_in_pool<F>(
    frameworks: &[Box<dyn Framework>],
    inputs: &[BenchGraph],
    kernels: &[Kernel],
    modes: &[Mode],
    config: &TrialConfig,
    mut progress: F,
    pool: &ThreadPool,
) -> Report
where
    F: FnMut(&CellRecord),
{
    let mut cells = Vec::new();
    let tc_oracles: Vec<OnceCell<u64>> = inputs.iter().map(|_| OnceCell::new()).collect();
    let ledger = open_ledger(config);
    for mode in modes {
        for (input, tc_oracle) in inputs.iter().zip(&tc_oracles) {
            for framework in frameworks {
                for &kernel in kernels {
                    if *mode == Mode::Optimized && !framework.tuned(input, kernel) {
                        continue;
                    }
                    let record = run_cell_with_oracle(
                        framework.as_ref(),
                        input,
                        kernel,
                        *mode,
                        config,
                        pool,
                        tc_oracle,
                        ledger.as_ref(),
                    );
                    progress(&record);
                    cells.push(record);
                }
            }
        }
    }
    Report::new(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::all_frameworks;
    use gapbs_graph::gen::{GraphSpec, Scale};

    fn tiny_config() -> TrialConfig {
        TrialConfig {
            trials: 1,
            verify: true,
            seed: 7,
            threads: 2,
            source_override: None,
            min_cell_seconds: 0.0,
            max_trials: 1,
            ledger_path: None,
        }
    }

    #[test]
    fn every_framework_passes_verification_on_a_tiny_graph() {
        let input = BenchGraph::generate(GraphSpec::Kron, Scale::Tiny);
        let config = tiny_config();
        for framework in all_frameworks() {
            for kernel in Kernel::ALL {
                let record = run_cell(framework.as_ref(), &input, kernel, Mode::Baseline, &config);
                assert!(
                    record.verified,
                    "{} failed verification on {kernel}",
                    framework.name()
                );
                assert_eq!(record.times.len(), 1);
                assert!(record.best_seconds() >= 0.0);
            }
        }
    }

    #[test]
    fn optimized_mode_also_verifies_on_directed_road() {
        let input = BenchGraph::generate(GraphSpec::Road, Scale::Tiny);
        let config = tiny_config();
        for framework in all_frameworks() {
            for kernel in Kernel::ALL {
                let record = run_cell(framework.as_ref(), &input, kernel, Mode::Optimized, &config);
                assert!(
                    record.verified,
                    "{} failed optimized verification on {kernel}",
                    framework.name()
                );
            }
        }
    }

    #[test]
    fn matrix_run_holds_every_tc_cell_to_its_graphs_oracle() {
        let inputs: Vec<BenchGraph> = [GraphSpec::Kron, GraphSpec::Road]
            .iter()
            .map(|&spec| BenchGraph::generate(spec, Scale::Tiny))
            .collect();
        let report = run_matrix(
            &all_frameworks(),
            &inputs,
            &[Kernel::Tc],
            &[Mode::Baseline, Mode::Optimized],
            &tiny_config(),
            |_| {},
        );
        // Every Baseline TC cell, and each Optimized one a framework tunes.
        let frameworks = all_frameworks();
        let tuned = inputs
            .iter()
            .flat_map(|input| frameworks.iter().filter(|f| f.tuned(input, Kernel::Tc)))
            .count();
        assert!(tuned > 0, "Galois tunes TC everywhere");
        assert_eq!(report.cells().len(), 2 * frameworks.len() + tuned);
        for input in &inputs {
            let want = format!(
                "{} triangles",
                gapbs_verify::oracles::triangles(&input.sym_graph)
            );
            for cell in report
                .cells()
                .iter()
                .filter(|c| c.graph == input.spec.name())
            {
                assert!(cell.verified, "{} on {}", cell.framework, cell.graph);
                assert_eq!(cell.note, want, "{} on {}", cell.framework, cell.graph);
            }
        }
    }

    /// A framework whose triangle count sleeps a known time, standing in
    /// for a kernel of fixed cost.
    struct Sleepy;

    struct SleepyKernels;

    const SLEEP: std::time::Duration = std::time::Duration::from_millis(40);

    impl crate::framework::PreparedKernels for SleepyKernels {
        fn bfs(&self, _: gapbs_graph::types::NodeId) -> Vec<gapbs_graph::types::NodeId> {
            unimplemented!()
        }
        fn sssp(&self, _: gapbs_graph::types::NodeId) -> Vec<gapbs_graph::types::Distance> {
            unimplemented!()
        }
        fn pr(&self) -> (Vec<f64>, usize) {
            unimplemented!()
        }
        fn cc(&self) -> Vec<gapbs_graph::types::NodeId> {
            unimplemented!()
        }
        fn bc(&self, _: &[gapbs_graph::types::NodeId]) -> Vec<f64> {
            unimplemented!()
        }
        fn tc(&self) -> u64 {
            std::thread::sleep(SLEEP);
            0
        }
    }

    impl Framework for Sleepy {
        fn name(&self) -> &'static str {
            "Sleepy"
        }
        fn info(&self) -> crate::framework::FrameworkInfo {
            all_frameworks()[0].info()
        }
        fn algorithm(&self, _: Kernel) -> crate::framework::AlgorithmChoice {
            crate::framework::AlgorithmChoice::plain("sleep")
        }
        fn prepare<'g>(
            &self,
            _: &'g BenchGraph,
            _: Mode,
            _: &ThreadPool,
        ) -> Box<dyn crate::framework::PreparedKernels + 'g> {
            Box::new(SleepyKernels)
        }
    }

    #[test]
    fn min_cell_seconds_counts_kernel_time_not_verification() {
        // At Small the triangle oracle the first verified trial computes
        // takes about as long as a sleep, enough to cut a wall-time loop
        // short.
        let input = BenchGraph::generate(GraphSpec::Kron, Scale::Small);
        // 2.5 sleeps: a third trial is needed, a fourth never is, unless
        // two sleeps overshoot by 10 ms each.
        let config = |verify| TrialConfig {
            verify,
            min_cell_seconds: 2.5 * SLEEP.as_secs_f64(),
            max_trials: 16,
            ..tiny_config()
        };
        let trials = |verify| {
            // A fresh oracle cell, so the verified run pays for the oracle
            // inside its first trial's wall time.
            let record = run_cell_with_oracle(
                &Sleepy,
                &input,
                Kernel::Tc,
                Mode::Baseline,
                &config(verify),
                &ThreadPool::new(1),
                &OnceCell::new(),
                None,
            );
            assert!(record.times.iter().all(|&t| t >= SLEEP.as_secs_f64()));
            record.times.len()
        };
        let unverified = trials(false);
        assert_eq!(unverified, 3);
        assert_eq!(
            trials(true),
            unverified,
            "verification changed the trial count"
        );
    }

    #[test]
    fn cell_statistics_are_sane() {
        let record = CellRecord {
            framework: "X".into(),
            kernel: Kernel::Bfs,
            graph: "Kron".into(),
            mode: Mode::Baseline,
            times: vec![0.3, 0.1, 0.2],
            verified: true,
            note: String::new(),
        };
        assert_eq!(record.best_seconds(), 0.1);
        assert!((record.mean_seconds() - 0.2).abs() < 1e-12);
    }
}
