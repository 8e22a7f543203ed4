//! A GraphBLAS-style sparse linear algebra engine plus LAGraph-style graph
//! kernels, mirroring SuiteSparse:GraphBLAS as evaluated in the paper.
//!
//! Three deliberate fidelity choices reproduce the behaviours the paper
//! attributes to SuiteSparse:
//!
//! 1. **64-bit indices everywhere.** GraphBLAS is designed for matrices
//!    with up to 2⁶⁰ rows, so it pays a 64-bit index tax the 32-bit
//!    frameworks do not (§V). [`GrbMatrix`] and [`GrbVector`] use `u64`.
//! 2. **Bulk operations only.** Algorithms are expressed as masked
//!    matrix-vector products over semirings ([`ops`]); there is no
//!    per-vertex early exit beyond what the `any` monoid's terminal
//!    condition allows. High-diameter graphs therefore execute many small,
//!    whole-vector operations — the Road-graph weakness in Table V.
//! 3. **Representation switching.** Vectors convert between sparse-list,
//!    bitmap and full storage ([`vector::Storage`]), and the conversion
//!    time is part of the kernel, as the paper notes for the BFS.
//!
//! The [`lagraph`] module implements the six GAP kernels strictly on top
//! of this engine, the way LAGraph sits on GraphBLAS.

mod frontier;
pub mod lagraph;
mod matrix;
pub mod ops;
pub mod semiring;
mod vector;
mod workspace;

pub use matrix::GrbMatrix;
pub use vector::{GrbVector, Storage};
pub use workspace::OpWorkspace;

/// Index type: 64-bit, per the GraphBLAS design point discussed in §V.
pub(crate) type GrbIndex = u64;
