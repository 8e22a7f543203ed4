//! GAP-style `converter` binary: builds graphs once and serializes them
//! to a `.gsnap` snapshot so later runs skip generation and parsing.
//!
//! ```sh
//! cargo run --release --bin converter -- -g 14 -b kron14.gsnap
//! cargo run --release --bin converter -- -f input.el -s -b out.gsnap
//! cargo run --release --bin converter -- -c road -e road.el
//! ```
//!
//! `-b <path>` writes a full snapshot bundle (graph, weights, the
//! symmetrized view of a directed graph, source candidates, Δ) that the
//! kernel binaries load with `-f <path>`; `-e <path>` writes a text edge
//! list.

use gapbs::cli::{parse_or_exit, CliOptions};
use gapbs::graph::io;
use gapbs::graph::snapshot::{self, Compression};

fn main() {
    let opts: CliOptions = parse_or_exit();
    let input = opts.load().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    eprintln!(
        "loaded graph: {} vertices, {} edges, directed={}",
        input.graph.num_vertices(),
        input.graph.num_edges(),
        input.graph.is_directed()
    );
    let mut wrote = false;
    if let Some((_, path)) = opts.extra.iter().find(|(f, _)| f == "-b") {
        let contents = input.snapshot_contents(0);
        snapshot::write(path.as_ref(), &contents, Compression::Auto).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote snapshot to {path}");
        wrote = true;
    }
    if let Some((_, path)) = opts.extra.iter().find(|(f, _)| f == "-e") {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(2);
        });
        io::write_edge_list(&input.graph, file).expect("serialization failed");
        eprintln!("wrote edge list to {path}");
        wrote = true;
    }
    if !wrote {
        eprintln!("nothing to do: pass -b <path> (.gsnap) and/or -e <path> (.el)");
        std::process::exit(2);
    }
}
