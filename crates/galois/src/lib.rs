//! Galois-style framework: the operator formulation with asynchronous
//! work-stealing worklists (§III-B).
//!
//! What distinguishes this crate from the GAP reference:
//!
//! * **Asynchronous data-driven execution.** BFS, SSSP and the depth pass
//!   of BC can run without rounds — active vertices are pushed and popped
//!   from a [`ChunkedWorklist`](gapbs_parallel::ChunkedWorklist) until it
//!   drains. On high-diameter graphs this avoids thousands of
//!   bulk-synchronous barriers (the Road win in Table V).
//! * **Topology heuristics.** In Baseline mode the framework samples the
//!   degree distribution and *assumes* a low diameter for power-law graphs
//!   and a high diameter otherwise, picking the algorithm variant
//!   accordingly — exactly the §V sampling scheme (which guesses wrong on
//!   Urand, as the paper discusses).
//! * **Gauss–Seidel PageRank.** Scores update in place and converge in
//!   fewer iterations than the reference's Jacobi sweep.
//! * **Edge-blocked Afforest** for CC in Optimized mode (better load
//!   balancing on Web).

mod bc;
mod bfs;
pub mod cc;
mod heuristic;
mod pr;
mod sssp;
pub mod tc;

pub use bc::bc;
pub use bfs::bfs;
pub use cc::cc;
pub use heuristic::{classify, ExecutionStyle};
pub use pr::pr;
pub use sssp::sssp;
pub use tc::tc;
