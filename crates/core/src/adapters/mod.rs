//! Framework adapters: one per evaluated system, mapping the shared
//! [`Framework`](crate::Framework) interface onto each crate's kernels.

mod galois;
mod gkc;
mod graphit;
mod nwgraph;
mod ref_impl;
mod suitesparse;

pub use galois::GaloisFramework;
pub use gkc::GkcFramework;
pub use graphit::GraphItFramework;
pub(crate) use nwgraph::NwGraphFramework;
pub use ref_impl::GapReference;
pub use suitesparse::SuiteSparseFramework;
