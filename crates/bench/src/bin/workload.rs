//! Extension experiment: frontier-profile workload characterization.
//!
//! The GAP suite "was designed in conjunction with a workload
//! characterization to ensure it exposes a range of computational
//! demands" (§II). This binary reproduces the core of that view for the
//! reproduction corpus: per-graph BFS level profiles, which explain *why*
//! topology decides Table V (long-thin Road vs short-explosive
//! power-law).
//!
//! ```sh
//! GAPBS_SCALE=medium cargo run --release -p gapbs-bench --bin workload
//! ```

use gapbs_bench::{corpus, scale_from_env};
use gapbs_graph::stats;

fn main() {
    let scale = scale_from_env().unwrap_or_else(|e| {
        eprintln!("GAPBS_SCALE: {e}");
        std::process::exit(2)
    });
    eprintln!("generating corpus at scale {scale}...");
    println!(
        "{:<8} {:>7} {:>10} {:>12} {:>12}",
        "Graph", "depth", "peak frac", "pull levels", "reached"
    );
    for input in corpus(scale) {
        let source = input.source_candidates[0];
        let p = stats::frontier_profile(&input.graph, source);
        let reached: usize = p.frontier_sizes.iter().sum();
        println!(
            "{:<8} {:>7} {:>9.1}% {:>12} {:>12}",
            input.spec.name(),
            p.depth(),
            p.peak_fraction() * 100.0,
            p.pull_level_count(),
            reached
        );
    }
    println!(
        "\nReading: Road's long, thin profile forces many synchronized rounds\n\
         (the paper's §VI discussion); the power-law graphs concentrate nearly\n\
         all work in 2-3 explosive levels where pull direction dominates."
    );
}
