//! Regenerates Table I: the graph corpus and its topology statistics.
//!
//! ```sh
//! GAPBS_SCALE=medium cargo run --release -p gapbs-bench --bin table1_graphs
//! ```

use gapbs_bench::{corpus, scale_from_env};
use gapbs_core::report::render_table1;

fn main() {
    let scale = scale_from_env().unwrap_or_else(|e| {
        eprintln!("GAPBS_SCALE: {e}");
        std::process::exit(2)
    });
    eprintln!("generating corpus at scale {scale}...");
    let inputs = corpus(scale);
    let rows: Vec<_> = inputs.iter().map(|b| (b.spec, &b.graph)).collect();
    println!("{}", render_table1(&rows));
    println!("(corpus scale: {scale}; the paper's graphs are 10^3-10^4x larger — see DESIGN.md)");
}
