//! Graph Kernel Collection (GKC)-style framework: hand-tuned black-box
//! kernels built on HPC techniques (§III-E).
//!
//! The C++ original leans on SIMD intrinsics and inline assembly; the
//! portable analogues here keep the *structural* optimizations that carry
//! GKC's results in the paper:
//!
//! * **Thread-local output buffers** sized to stay cache-resident,
//!   explicitly flushed to the shared frontier — the false-sharing
//!   avoidance of §III-E1 ([`LocalBuffer`](gapbs_parallel::LocalBuffer)).
//! * **Branch-reduced merge loops** for set intersection (the scalar
//!   stand-in for SIMD set intersection; reduced branch misprediction is
//!   the effect that matters, per Inoue et al.).
//! * **Heuristic-driven relabeling** for TC based on degree skewness
//!   (Lee & Low), applied only when the sampled skew justifies the sort —
//!   which is why GKC's TC wins on *every* graph in Table V, including
//!   Road where the heuristic declines to sort.
//! * **Shiloach–Vishkin hybrid CC**, the one framework not using
//!   Afforest — replicating the §V-C observation that Afforest's
//!   advantage inverts on Urand.

mod bc;
mod bfs;
mod cc;
mod pr;
mod sssp;
pub mod tc;

pub use bc::bc;
pub use bfs::bfs;
pub use cc::cc;
pub use pr::pr;
pub use sssp::sssp;
pub use tc::tc;
