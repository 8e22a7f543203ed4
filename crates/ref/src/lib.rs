//! GAP Benchmark Suite reference kernels, ported from the C++ reference
//! implementations the paper uses as its performance baseline.
//!
//! The six kernels and the algorithms behind them (Table III, `GAP` row):
//!
//! | Kernel | Algorithm |
//! |--------|-----------|
//! | [`bfs()`]   | Direction-optimizing BFS (Beamer et al.) |
//! | [`sssp()`]  | Delta-stepping with bucket fusion |
//! | [`pr()`]    | PageRank, Jacobi-style SpMV (pull from in-edges) |
//! | [`cc()`]    | Afforest with subgraph sampling (Sutton et al.) |
//! | [`bc()`]    | Brandes with a successor bitmap, 4 root vertices |
//! | [`tc()`]    | Order-invariant counting with heuristic relabeling |
//!
//! Every kernel takes a [`ThreadPool`](gapbs_parallel::ThreadPool) so the
//! harness can pin the thread count, mirroring the paper's fixed-core
//! Baseline methodology.

mod bc;
pub mod bfs;
mod cc;
pub mod ms_bfs;
pub mod pr;
mod sssp;
pub mod tc;

pub use bc::bc;
pub use bfs::bfs;
pub use cc::cc;
pub use ms_bfs::{depths_from_parents, ms_bfs, MsBfsResult};
pub use pr::pr;
pub use sssp::sssp;
pub use tc::tc;

/// Default PageRank damping factor used across the suite.
pub const PR_DAMPING: f64 = 0.85;
/// Default PageRank L1 convergence tolerance (GAP's `-t 1e-4`).
pub const PR_TOLERANCE: f64 = 1e-4;
/// Default PageRank iteration cap (GAP's `-i 20`; we allow more so the
/// Jacobi/Gauss–Seidel convergence contrast is visible).
pub const PR_MAX_ITERS: usize = 100;
