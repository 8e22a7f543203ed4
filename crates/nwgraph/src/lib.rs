//! NWGraph-style framework: a *generic* library whose algorithms are
//! written against range abstractions, not a concrete graph type
//! (§III-C).
//!
//! The fundamental interface is a "range of ranges": any type exposing a
//! per-vertex neighbor iterator satisfies [`AdjacencyRange`] and can run
//! every kernel. The kernels therefore traverse through iterator
//! abstractions rather than raw slices — the genuine analogue of
//! NWGraph's reliance on STL ranges, whose overhead the paper observes is
//! "particularly noticeable for Road" (§V-A/E).
//!
//! Algorithm choices follow Table III's NWGraph row: direction-optimizing
//! BFS with a simple untuned switch, delta-stepping SSSP (no bucket
//! fusion), Gauss–Seidel PR, Afforest CC, Brandes BC *without* a
//! direction-optimized forward pass, and TC over a cyclic row
//! distribution with timed degree-relabeling.

mod adjacency;
mod algorithms;

pub use adjacency::{AdjacencyRange, InRange, OutRange, WeightedAdjacencyRange, WeightedOutRange};
pub use algorithms::{bc, bfs, cc, pr, sssp, tc};
