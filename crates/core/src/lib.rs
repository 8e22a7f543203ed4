//! The benchmark harness — the paper's methodological contribution,
//! reproduced as a library.
//!
//! The study's recipe (§IV, §VI): run every framework on the *same*
//! hardware, under negotiated rules, in two configurations:
//!
//! * **Baseline** — out-of-the-box behaviour: built-in heuristics allowed,
//!   per-graph hand tuning forbidden (except SSSP's delta);
//! * **Optimized** — per-graph tuning allowed, optimizations reported.
//!
//! This crate provides:
//!
//! * [`Kernel`] / [`Mode`] — the 6-kernel × 2-mode test space,
//! * [`BenchGraph`] — a prepared benchmark input (both graph directions,
//!   weighted companion, symmetrized TC view, per-graph delta),
//! * [`Framework`] / [`PreparedKernels`] — the adapter interface each of
//!   the six framework crates implements ([`adapters`]),
//! * [`registry::all_frameworks`] — the evaluated frameworks,
//! * `runner` — the trial protocol (rotating seeded sources, best-of-N
//!   timing, per-trial verification via `gapbs-verify`),
//! * [`report`] — renderers for Tables I through V.

pub mod adapters;
pub mod framework;
mod kernel;
pub mod registry;
pub mod report;
mod runner;
pub mod snapshot_cache;
pub mod spec;

pub use framework::{BenchGraph, Framework, PreparedKernels};
pub use kernel::{Kernel, Mode};
pub use registry::all_frameworks;
pub use report::Report;
pub use runner::{
    run_cell, run_cell_in_pool, run_matrix, run_matrix_in_pool, CellRecord, TrialConfig,
};
pub use snapshot_cache::CacheOutcome;
