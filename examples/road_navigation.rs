//! Road-network routing on the high-diameter corpus graph — the workload
//! that separates asynchronous from bulk-synchronous frameworks in the
//! paper (§VI).
//!
//! Demonstrates:
//! * SSSP routing with per-graph delta,
//! * hop counts via BFS,
//! * delta sensitivity ("GAP allows customization of this parameter ...
//!   it can lead to orders of magnitude difference", §IV-A).
//!
//! ```sh
//! cargo run --release --example road_navigation
//! ```

use gapbs::graph::gen::{GraphSpec, Scale};
use gapbs::graph::types::{INF_DIST, NO_PARENT};
use gapbs::parallel::ThreadPool;
use std::time::Instant;

fn main() {
    let spec = GraphSpec::Road;
    let graph = spec.generate(Scale::Small);
    let wgraph = spec.generate_weighted(Scale::Small);
    println!(
        "Road-like network: {} intersections, {} road segments, diameter ≈ {}",
        graph.num_vertices(),
        graph.num_edges(),
        gapbs::graph::stats::approx_diameter(&graph)
    );
    let pool = ThreadPool::default();
    let depot = 0;

    // Route lengths from the depot.
    let dist = gapbs::gap_ref::sssp(&wgraph, depot, 2, &pool);
    let reachable = dist.iter().filter(|&&d| d < INF_DIST).count();
    let farthest = dist
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d < INF_DIST)
        .max_by_key(|&(_, &d)| d)
        .expect("depot reaches itself");
    println!(
        "\nFrom depot {depot}: {reachable} reachable intersections; farthest is {} at cost {}",
        farthest.0, farthest.1
    );

    // Hop counts (BFS) for comparison with weighted routes.
    let parent = gapbs::gap_ref::bfs(&graph, depot, &pool);
    let hops_reachable = parent.iter().filter(|&&p| p != NO_PARENT).count();
    println!("BFS agrees on reachability: {hops_reachable} vertices");

    // Delta sensitivity sweep: the one parameter GAP lets you tune.
    println!("\nDelta sensitivity (same result, different bucket work):");
    println!("{:>8} {:>12}", "delta", "time (s)");
    for delta in [1, 2, 8, 64, 1024] {
        let t0 = Instant::now();
        let d = gapbs::gap_ref::sssp(&wgraph, depot, delta, &pool);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(d, dist, "delta must not change distances");
        println!("{delta:>8} {secs:>12.6}");
    }
}
