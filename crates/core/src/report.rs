//! Table renderers: regenerates Tables I–V of the paper from a benchmark
//! run (plain text and CSV).

use crate::framework::Framework;
use crate::kernel::{Kernel, Mode};
use crate::registry::BASELINE_FRAMEWORK;
use crate::runner::CellRecord;
use gapbs_graph::gen::GraphSpec;
use gapbs_graph::stats;
use gapbs_graph::Graph;
use std::fmt::Write as _;

/// Graph column order used by Tables IV and V.
pub const GRAPH_ORDER: [GraphSpec; 5] = GraphSpec::TABLE_ORDER;

/// Heat-map classification of a speedup ratio (Table V's color coding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Heat {
    /// Slower than the GAP reference.
    Red,
    /// Within ±5% of the reference.
    White,
    /// Faster than the reference.
    Green,
}

impl Heat {
    /// Classifies a ratio (1.0 = parity with GAP).
    pub(crate) fn from_ratio(ratio: f64) -> Heat {
        if ratio < 0.95 {
            Heat::Red
        } else if ratio <= 1.05 {
            Heat::White
        } else {
            Heat::Green
        }
    }
}

/// A completed benchmark run.
#[derive(Debug, Clone)]
pub struct Report {
    cells: Vec<CellRecord>,
}

impl Report {
    /// Wraps completed cells.
    pub(crate) fn new(cells: Vec<CellRecord>) -> Self {
        Report { cells }
    }

    /// All recorded cells.
    pub fn cells(&self) -> &[CellRecord] {
        &self.cells
    }

    /// The framework names in the order they first appear.
    fn frameworks(&self) -> Vec<&str> {
        let mut seen: Vec<&str> = Vec::new();
        for c in &self.cells {
            if !seen.contains(&c.framework.as_str()) {
                seen.push(&c.framework);
            }
        }
        seen
    }

    /// Looks up one cell. An Optimized cell the run left out, because
    /// the framework's Optimized rules equal its Baseline
    /// ([`Framework::tuned`]), reads as the Baseline cell; its `mode`
    /// then says Baseline.
    pub(crate) fn find(
        &self,
        framework: &str,
        kernel: Kernel,
        graph: &str,
        mode: Mode,
    ) -> Option<&CellRecord> {
        let exact = |mode: Mode| {
            self.cells.iter().find(|c| {
                c.framework == framework && c.kernel == kernel && c.graph == graph && c.mode == mode
            })
        };
        exact(mode).or_else(|| exact(Mode::Baseline))
    }

    /// Speedup of `framework` over the GAP reference for a test
    /// (Table V's percentage / 100): above 1.0 = faster than GAP.
    pub fn speedup(&self, framework: &str, kernel: Kernel, graph: &str, mode: Mode) -> Option<f64> {
        let fw = self.find(framework, kernel, graph, mode)?.stat_seconds();
        let gap = self
            .find(BASELINE_FRAMEWORK, kernel, graph, mode)?
            .stat_seconds();
        if fw > 0.0 {
            Some(gap / fw)
        } else {
            None
        }
    }

    /// The fastest framework and its time for a test (one Table IV cell).
    pub fn fastest(&self, kernel: Kernel, graph: &str, mode: Mode) -> Option<(&str, f64)> {
        self.fastest_cell(kernel, graph, mode)
            .map(|c| (c.framework.as_str(), c.stat_seconds()))
    }

    fn fastest_cell(&self, kernel: Kernel, graph: &str, mode: Mode) -> Option<&CellRecord> {
        self.frameworks()
            .into_iter()
            .filter_map(|fw| self.find(fw, kernel, graph, mode))
            .filter(|c| c.verified)
            .min_by(|a, b| a.stat_seconds().total_cmp(&b.stat_seconds()))
    }

    /// Renders Table IV: fastest times for both rule sets, annotated with
    /// the winning framework.
    pub fn table4(&self) -> String {
        let mut out = String::new();
        out.push_str("TABLE IV — FASTEST TIMES (seconds)\n");
        // Room for the longest winner's name, so every row's columns line up.
        let name = self.frameworks().iter().map(|f| f.len()).max().unwrap_or(0);
        for mode in Mode::ALL {
            let width = 15 + name + mark_width(mode);
            mode_header(&mut out, mode);
            let _ = write!(out, "  {:>6}", "Kernel");
            for g in GRAPH_ORDER {
                let _ = write!(out, " {:>width$}", g.name());
            }
            let _ = writeln!(out);
            for kernel in Kernel::ALL {
                let _ = write!(out, "  {:>6}", kernel.name());
                for g in GRAPH_ORDER {
                    match self.fastest_cell(kernel, g.name(), mode) {
                        Some(c) => {
                            let _ = write!(
                                out,
                                " {:>12.6} ({:>name$}){}",
                                c.stat_seconds(),
                                c.framework,
                                mark(c, mode)
                            );
                        }
                        None => {
                            let _ = write!(out, " {:>width$}", "-");
                        }
                    }
                }
                end_row(&mut out);
            }
        }
        out
    }

    /// Renders Table V: per-framework speedups over the GAP reference as
    /// percentages with heat classes.
    pub fn table5(&self) -> String {
        let mut out = String::new();
        out.push_str("TABLE V — SPEEDUP OVER GAP REFERENCE (100% = parity)\n");
        let frameworks = self.frameworks();
        for mode in Mode::ALL {
            let width = 12 + mark_width(mode);
            mode_header(&mut out, mode);
            let _ = write!(out, "  {:>12} {:>6}", "Framework", "Kernel");
            for g in GRAPH_ORDER {
                let _ = write!(out, " {:>width$}", g.name());
            }
            let _ = writeln!(out);
            for &fw in frameworks.iter().filter(|&&fw| fw != BASELINE_FRAMEWORK) {
                for kernel in Kernel::ALL {
                    let _ = write!(out, "  {:>12} {:>6}", fw, kernel.name());
                    for g in GRAPH_ORDER {
                        let cell = self.find(fw, kernel, g.name(), mode);
                        match (cell, self.speedup(fw, kernel, g.name(), mode)) {
                            (Some(c), Some(r)) => {
                                let heat = match Heat::from_ratio(r) {
                                    Heat::Red => "-",
                                    Heat::White => "=",
                                    Heat::Green => "+",
                                };
                                let _ =
                                    write!(out, " {:>10.2}%{}{}", r * 100.0, heat, mark(c, mode));
                            }
                            _ => {
                                let _ = write!(out, " {:>width$}", "-");
                            }
                        }
                    }
                    end_row(&mut out);
                }
            }
        }
        out
    }

    /// Parses a report back from [`Report::to_csv`] output, so analyses
    /// (shape claims, custom tables) can run without re-measuring.
    ///
    /// Each row contributes one cell whose single recorded time is the
    /// row's `best_s` (the statistic the tables use).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed input.
    pub fn from_csv(text: &str) -> Result<Report, String> {
        let mut cells = Vec::new();
        for (idx, line) in text.lines().enumerate().skip(1) {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() < 8 {
                return Err(format!("line {}: expected 8+ fields", idx + 1));
            }
            let mode = match fields[0] {
                "Baseline" => Mode::Baseline,
                "Optimized" => Mode::Optimized,
                other => return Err(format!("line {}: bad mode {other:?}", idx + 1)),
            };
            let kernel = Kernel::ALL
                .into_iter()
                .find(|k| k.name() == fields[3])
                .ok_or_else(|| format!("line {}: bad kernel {:?}", idx + 1, fields[3]))?;
            let best: f64 = fields[4]
                .parse()
                .map_err(|_| format!("line {}: bad time {:?}", idx + 1, fields[4]))?;
            let verified: bool = fields[7]
                .parse()
                .map_err(|_| format!("line {}: bad verified flag", idx + 1))?;
            cells.push(CellRecord {
                framework: fields[2].to_string(),
                kernel,
                graph: fields[1].to_string(),
                mode,
                times: vec![best],
                verified,
                note: fields.get(8).unwrap_or(&"").to_string(),
            });
        }
        Ok(Report::new(cells))
    }

    /// Serializes every cell as CSV
    /// (`mode,graph,framework,kernel,best,mean,trials,verified,note`).
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("mode,graph,framework,kernel,best_s,mean_s,trials,verified,note\n");
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{},{},{},{},{:.6},{:.6},{},{},{}",
                c.mode,
                c.graph,
                c.framework,
                c.kernel,
                c.best_seconds(),
                c.mean_seconds(),
                c.times.len(),
                c.verified,
                c.note.replace(',', ";")
            );
        }
        out
    }
}

/// Marks an Optimized-section cell read from the Baseline cell.
const BASELINE_MARK: &str = " = Baseline";

/// Room the Optimized section of Tables IV and V keeps for the mark.
fn mark_width(mode: Mode) -> usize {
    match mode {
        Mode::Baseline => 0,
        Mode::Optimized => BASELINE_MARK.len(),
    }
}

/// The mark for `cell` shown under `mode`, padded to [`mark_width`].
fn mark(cell: &CellRecord, mode: Mode) -> String {
    let mark = if cell.mode == mode { "" } else { BASELINE_MARK };
    format!("{mark:<0$}", mark_width(mode))
}

/// Ends a row of Tables IV and V without the last column's padding.
fn end_row(out: &mut String) {
    out.truncate(out.trim_end_matches(' ').len());
    out.push('\n');
}

/// The section title of Tables IV and V, with the mark's legend under
/// Optimized.
fn mode_header(out: &mut String, mode: Mode) {
    let _ = match mode {
        Mode::Baseline => writeln!(out, "\n  {mode}"),
        Mode::Optimized => writeln!(
            out,
            "\n  {mode} (\"{}\": the framework's Optimized rules pick its Baseline configuration, \
             so the Baseline sample stands)",
            BASELINE_MARK.trim_start()
        ),
    };
}

/// Renders Table I for a corpus: graph statistics at the run's scale.
pub fn render_table1(graphs: &[(GraphSpec, &Graph)]) -> String {
    let mut out = String::from(
        "TABLE I — GRAPHS USED FOR EVALUATION\n\
         Name     Vertices    Edges       Directed  Degree  Distribution  ApproxDiameter\n",
    );
    for (spec, g) in graphs {
        let s = stats::summarize(g);
        let _ = writeln!(
            out,
            "{:<8} {:<11} {:<11} {:<9} {:<7.1} {:<13} {}",
            spec.name(),
            s.num_vertices,
            s.num_edges,
            if s.directed { "Y" } else { "N" },
            s.average_degree,
            s.degree_family.to_string(),
            s.approx_diameter
        );
    }
    out
}

/// Renders Table II: framework attribute matrix.
pub fn render_table2(frameworks: &[Box<dyn Framework>]) -> String {
    let mut out = String::from("TABLE II — MAIN ATTRIBUTES OF FRAMEWORKS CONSIDERED\n");
    for fw in frameworks {
        let info = fw.info();
        let _ = writeln!(out, "\n{}", info.name);
        let _ = writeln!(out, "  Type:             {}", info.kind);
        let _ = writeln!(out, "  Data structure:   {}", info.data_structure);
        let _ = writeln!(out, "  Abstraction:      {}", info.abstraction);
        let _ = writeln!(out, "  Synchronization:  {}", info.synchronization);
        let _ = writeln!(out, "  Intended users:   {}", info.intended_users);
    }
    out
}

/// Renders Table III: algorithm used by each framework per kernel, with
/// footnote flags (1 bucket fusion, 2 relabeling, 3 SIMD-analogue,
/// 4 async variant).
pub fn render_table3(frameworks: &[Box<dyn Framework>]) -> String {
    let mut out = String::from("TABLE III — ALGORITHMS USED BY EACH FRAMEWORK\n");
    let _ = write!(out, "{:>6}", "Task");
    for fw in frameworks {
        let _ = write!(out, " {:>24}", fw.name());
    }
    let _ = writeln!(out);
    for kernel in Kernel::ALL {
        let _ = write!(out, "{:>6}", kernel.name());
        for fw in frameworks {
            let _ = write!(out, " {:>24}", fw.algorithm(kernel).render());
        }
        let _ = writeln!(out);
    }
    out.push_str(
        "Footnotes: 1 bucket fusion, 2 heuristic relabeling, 3 SIMD-analogue kernels, 4 async variant\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::all_frameworks;

    fn record(fw: &str, kernel: Kernel, graph: &str, mode: Mode, t: f64) -> CellRecord {
        CellRecord {
            framework: fw.into(),
            kernel,
            graph: graph.into(),
            mode,
            times: vec![t],
            verified: true,
            note: String::new(),
        }
    }

    fn sample_report() -> Report {
        Report::new(vec![
            record("GAP", Kernel::Bfs, "Kron", Mode::Baseline, 0.2),
            record("GKC", Kernel::Bfs, "Kron", Mode::Baseline, 0.1),
            record("GraphIt", Kernel::Bfs, "Kron", Mode::Baseline, 0.4),
        ])
    }

    #[test]
    fn speedups_are_relative_to_gap() {
        let r = sample_report();
        assert!(
            (r.speedup("GKC", Kernel::Bfs, "Kron", Mode::Baseline)
                .unwrap()
                - 2.0)
                .abs()
                < 1e-12
        );
        assert!(
            (r.speedup("GraphIt", Kernel::Bfs, "Kron", Mode::Baseline)
                .unwrap()
                - 0.5)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn fastest_picks_the_minimum() {
        let r = sample_report();
        let (fw, t) = r.fastest(Kernel::Bfs, "Kron", Mode::Baseline).unwrap();
        assert_eq!(fw, "GKC");
        assert!((t - 0.1).abs() < 1e-12);
    }

    #[test]
    fn untuned_optimized_cells_read_as_their_marked_baseline() {
        let (b, o) = (Mode::Baseline, Mode::Optimized);
        let mut cells = sample_report().cells;
        cells.push(record("GraphIt", Kernel::Bfs, "Kron", o, 0.05));
        let r = Report::new(cells);
        assert_eq!(r.speedup("GKC", Kernel::Bfs, "Kron", o), Some(2.0));
        assert_eq!(r.speedup("GraphIt", Kernel::Bfs, "Kron", o), Some(4.0));
        assert_eq!(r.fastest(Kernel::Bfs, "Kron", b).unwrap().0, "GKC");
        assert_eq!(r.fastest(Kernel::Bfs, "Kron", o).unwrap().0, "GraphIt");

        let t5 = r.table5();
        let (baseline, optimized) = t5.split_at(t5.find("Optimized").unwrap());
        let row = |section: &str, fw: &str| -> String {
            let line = section
                .lines()
                .find(|l| l.contains(fw) && l.contains("BFS"));
            line.expect("a BFS row").to_string()
        };
        assert!(row(optimized, "GKC").contains("200.00%+ = Baseline"));
        assert!(!row(optimized, "GraphIt").contains("= Baseline"));
        assert!(!row(baseline, "GKC").contains("= Baseline"));

        let t4 = r.table4();
        let optimized = &t4[t4.find("Optimized").unwrap()..];
        let bfs = optimized.lines().find(|l| l.contains("BFS")).unwrap();
        assert!(
            bfs.contains("(GraphIt)") && !bfs.contains("= Baseline"),
            "{bfs}"
        );
    }

    #[test]
    fn table4_columns_line_up_when_suitesparse_wins() {
        // SuiteSparse wins the even graphs, GAP the odd ones.
        let mut cells = Vec::new();
        for kernel in Kernel::ALL {
            for (i, g) in GRAPH_ORDER.iter().enumerate() {
                let ss = if i % 2 == 0 { 0.1 } else { 0.3 };
                cells.push(record("GAP", kernel, g.name(), Mode::Baseline, 0.2));
                cells.push(record("SuiteSparse", kernel, g.name(), Mode::Baseline, ss));
            }
        }
        let t4 = Report::new(cells).table4();
        assert!(!t4.contains("scale"), "{t4}");
        let baseline = &t4[..t4.find("Optimized").unwrap()];
        let ends =
            |line: &str, c: char| -> Vec<usize> { line.match_indices(c).map(|(i, _)| i).collect() };
        let header = baseline.lines().find(|l| l.contains("Kernel")).unwrap();
        let name_ends: Vec<usize> = GRAPH_ORDER
            .iter()
            .map(|g| header.find(g.name()).unwrap() + g.name().len() - 1)
            .collect();
        let rows: Vec<&str> = baseline
            .lines()
            .filter(|l| l.starts_with("  ") && l.ends_with(")"))
            .collect();
        assert_eq!(rows.len(), Kernel::ALL.len());
        for row in rows {
            assert!(row.contains("(SuiteSparse)"), "{row}");
            assert_eq!(ends(row, ')'), name_ends, "{header}\n{row}");
        }
    }

    #[test]
    fn heat_classes_split_at_parity() {
        assert_eq!(Heat::from_ratio(0.5), Heat::Red);
        assert_eq!(Heat::from_ratio(1.0), Heat::White);
        assert_eq!(Heat::from_ratio(2.0), Heat::Green);
    }

    #[test]
    fn tables_render_without_panicking() {
        let r = sample_report();
        assert!(r.table4().contains("TABLE IV"));
        assert!(r.table5().contains("TABLE V"));
        assert!(r.to_csv().lines().count() >= 4);
        let fws = all_frameworks();
        assert!(render_table2(&fws).contains("SuiteSparse"));
        let t3 = render_table3(&fws);
        assert!(t3.contains("Label Propagation"));
        assert!(t3.contains("Lee & Low"));
    }

    #[test]
    fn table1_renders_graph_rows() {
        use gapbs_graph::gen::Scale as GScale;
        let g = GraphSpec::Kron.generate(GScale::Tiny);
        let out = render_table1(&[(GraphSpec::Kron, &g)]);
        assert!(out.contains("Kron"));
        assert!(out.contains("power"));
    }
}
