//! GraphIt-style framework: algorithms decoupled from *schedules*.
//!
//! GraphIt's thesis (§III-D) is that one algorithm admits many execution
//! strategies — traversal direction, frontier layout, deduplication,
//! cache tiling, bucket fusion — and that choosing them should be separate
//! from expressing the algorithm. This crate mirrors that split:
//!
//! * [`Schedule`] carries the strategy knobs,
//! * each kernel takes a `Schedule` and executes the same algorithm under
//!   it,
//! * [`Schedule::baseline`] is what the autotuner-free Baseline run uses,
//!   and [`Schedule::optimized_for`] returns the per-graph schedules the
//!   GraphIt team hand-picked for the Optimized data set (push-only BFS on
//!   Road, cache-tiled PR, short-circuited label propagation, naive TC
//!   intersection on small graphs — all from §V).
//!
//! CC deliberately uses **label propagation**: the paper explains GraphIt
//! "does not yet support sampling algorithms" like Afforest, making its CC
//! the slowest of the suite (O(E·D) vs Afforest's ~O(V)) — a shape this
//! reproduction preserves.

mod bc;
mod bfs;
mod cc;
mod pr;
mod schedule;
mod sssp;
mod tc;

pub use bc::bc;
pub use bfs::bfs;
pub use cc::cc;
pub use pr::pr;
pub use schedule::{Direction, FrontierLayout, Intersection, Schedule};
pub use sssp::sssp;
pub use tc::tc;
