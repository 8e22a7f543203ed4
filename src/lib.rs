//! # gapbs — a Rust reproduction of the GAP Benchmark Suite framework study
//!
//! This umbrella crate re-exports the whole workspace behind one
//! dependency, mirroring the structure of the IISWC 2020 paper
//! *Evaluation of Graph Analytics Frameworks Using the GAP Benchmark
//! Suite*:
//!
//! * [`graph`] — graph substrate (CSR, builders, the five-graph corpus
//!   generators, Table I statistics, I/O),
//! * [`parallel`] — the shared parallel runtime (pools, frontiers,
//!   worklists, buckets),
//! * six framework crates, one per evaluated system:
//!   [`gap_ref`], [`suitesparse`], [`galois`], [`graphit`], [`nwgraph`],
//!   [`gkc`],
//! * [`verify`] — sequential output verifiers for every kernel,
//! * [`core`] — the harness: spec, trial runner, registry, Tables I–V.
//!
//! # Quickstart
//!
//! ```
//! use gapbs::core::{run_cell, BenchGraph, Kernel, Mode, TrialConfig};
//! use gapbs::core::adapters::GapReference;
//! use gapbs::graph::gen::{GraphSpec, Scale};
//!
//! let input = BenchGraph::generate(GraphSpec::Kron, Scale::Tiny);
//! let config = TrialConfig { trials: 1, ..Default::default() };
//! let record = run_cell(&GapReference, &input, Kernel::Bfs, Mode::Baseline, &config);
//! assert!(record.verified);
//! ```

/// GAP-style command-line interface shared by the per-kernel binaries.
pub mod cli;

/// Graph substrate: types, builders, generators, statistics, I/O.
pub use gapbs_graph as graph;

/// Shared parallel runtime.
pub use gapbs_parallel as parallel;

/// GAP reference kernels.
pub use gapbs_ref as gap_ref;

/// GraphBLAS engine + LAGraph kernels (SuiteSparse stand-in).
pub use gapbs_grb as suitesparse;

/// Operator-formulation framework (Galois stand-in).
pub use gapbs_galois as galois;

/// Schedule-decoupled framework (GraphIt stand-in).
pub use gapbs_graphit as graphit;

/// Generic range-of-ranges library (NWGraph stand-in).
pub use gapbs_nwgraph as nwgraph;

/// Hand-tuned kernel collection (GKC stand-in).
pub use gapbs_gkc as gkc;

/// Output verifiers.
pub use gapbs_verify as verify;

/// Benchmark harness: spec, runner, registry, tables.
pub use gapbs_core as core;

/// Serving layer: the resident-corpus query daemon (`serve` binary).
pub use gapbs_serve as serve;
