//! End-to-end harness test: a miniature version of the full study runs,
//! verifies, and renders every table.

use gapbs::core::report::{render_table1, render_table2, render_table3};
use gapbs::core::{all_frameworks, run_matrix, BenchGraph, Kernel, Mode, TrialConfig};
use gapbs::graph::gen::{GraphSpec, Scale};

#[test]
fn mini_study_runs_and_renders_all_tables() {
    let inputs: Vec<BenchGraph> = [GraphSpec::Kron, GraphSpec::Road]
        .into_iter()
        .map(|s| BenchGraph::generate(s, Scale::Tiny))
        .collect();
    let frameworks = all_frameworks();
    let config = TrialConfig {
        trials: 2,
        verify: true,
        seed: 99,
        threads: 2,
        source_override: None,
        min_cell_seconds: 0.0,
        max_trials: 2,
        ledger_path: None,
    };
    let mut progress_lines = 0usize;
    let report = run_matrix(
        &frameworks,
        &inputs,
        &Kernel::ALL,
        &Mode::ALL,
        &config,
        |_| progress_lines += 1,
    );
    // Every Baseline cell, and each Optimized cell a framework tunes.
    let tuned = frameworks
        .iter()
        .flat_map(|fw| inputs.iter().map(move |input| (fw, input)))
        .flat_map(|(fw, input)| Kernel::ALL.into_iter().filter(|&k| fw.tuned(input, k)))
        .count();
    assert!(tuned > 0, "no framework tunes a mini-study cell");
    let expected_cells = frameworks.len() * inputs.len() * Kernel::ALL.len() + tuned;
    assert_eq!(progress_lines, expected_cells);
    assert_eq!(report.cells().len(), expected_cells);
    assert!(
        report.cells().iter().all(|c| c.verified),
        "all cells must verify"
    );
    assert!(report
        .cells()
        .iter()
        .all(|c| c.times.len() == config.trials));

    // Table IV: a winner exists for every kernel × graph × mode.
    for mode in Mode::ALL {
        for kernel in Kernel::ALL {
            for g in ["Kron", "Road"] {
                assert!(
                    report.fastest(kernel, g, mode).is_some(),
                    "no winner for {kernel} on {g} ({mode})"
                );
            }
        }
    }

    // Table V: ratios exist for every non-GAP framework.
    for fw in ["SuiteSparse", "Galois", "GraphIt", "GKC", "NWGraph"] {
        for kernel in Kernel::ALL {
            let r = report.speedup(fw, kernel, "Kron", Mode::Baseline);
            assert!(r.is_some(), "missing speedup for {fw} {kernel}");
            assert!(r.unwrap() > 0.0);
        }
    }

    // Renderers.
    let rows: Vec<_> = inputs.iter().map(|b| (b.spec, &b.graph)).collect();
    assert!(render_table1(&rows).contains("Road"));
    assert!(render_table2(&frameworks).contains("GraphIt"));
    assert!(render_table3(&frameworks).contains("FastSV"));
    assert!(report.table4().contains("TABLE IV"));
    assert!(report.table5().contains("TABLE V"));

    // CSV shape: header + one row per cell.
    let csv = report.to_csv();
    assert_eq!(csv.lines().count(), expected_cells + 1);
    assert!(csv.starts_with("mode,graph,framework,kernel"));
}

#[test]
fn disabling_verification_skips_oracles_but_keeps_times() {
    let input = BenchGraph::generate(GraphSpec::Urand, Scale::Tiny);
    let frameworks = all_frameworks();
    let config = TrialConfig {
        trials: 1,
        verify: false,
        seed: 1,
        threads: 1,
        source_override: None,
        min_cell_seconds: 0.0,
        max_trials: 1,
        ledger_path: None,
    };
    let record = gapbs::core::run_cell(
        frameworks[0].as_ref(),
        &input,
        Kernel::Tc,
        Mode::Baseline,
        &config,
    );
    assert!(record.verified, "unverified cells default to trusted");
    assert_eq!(record.times.len(), 1);
    assert!(record.note.contains("triangles"));
}
