//! Graph substrate for the GAPBS reproduction.
//!
//! This crate provides everything the six framework crates consume:
//!
//! * [`CsrGraph`] / [`WCsrGraph`] — compressed sparse row adjacency with
//!   optional edge weights,
//! * [`Graph`] / [`WGraph`] — a directed or undirected graph holding both
//!   outgoing and incoming adjacency (GAP stores both so that transposition
//!   is never timed inside a kernel),
//! * [`Builder`] — edge-list ingestion with sorting, de-duplication,
//!   symmetrization and relabeling (the paper notes all evaluated frameworks
//!   sort adjacency lists and remove duplicate edges),
//! * [`gen`] — seeded generators for the five GAP input graphs
//!   (Road, Twitter, Web, Kron, Urand) at configurable scale,
//! * [`stats`] — the topology statistics reported in Table I
//!   (degree distribution classification and an approximate diameter probe),
//! * [`io`] — GAP-compatible `.el`/`.wel` text edge lists plus a binary snapshot format.
//!
//! # Example
//!
//! ```
//! use gapbs_graph::{gen, stats};
//!
//! let graph = gen::kron(10, 16, 42); // 2^10 vertices, avg degree 16
//! let summary = stats::summarize(&graph);
//! assert!(summary.num_vertices > 0);
//! ```

pub mod builder;
mod csr;
pub mod edgelist;
mod error;
pub mod gen;
mod graph;
pub mod intersect;
pub mod io;
pub mod perm;
pub mod rng;
pub mod scc;
mod segment;
pub mod snapshot;
pub mod stats;
mod strips;
pub mod types;

pub use builder::Builder;
pub use csr::{CsrGraph, WCsrGraph};
pub use edgelist::Edge;
pub use error::{BuildError, GraphError, SnapshotError};
pub use graph::{Graph, WGraph};
pub use snapshot::{Compression, Snapshot, SnapshotBundle};
pub use strips::Strips;
pub use types::Weight;
