//! `gapbs-serve`: graph analytics as a service on the persistent pool.
//!
//! The paper's harness is batch-shaped: build a graph, time 16 trials,
//! print a table. This crate turns the same machinery into a resident
//! daemon — the deployment shape where framework overheads the paper
//! measures per-trial (graph construction, kernel preparation) are paid
//! once and amortized over a query stream:
//!
//! * `registry` — the corpus, generated once at startup and shared
//!   immutably (`Arc<BenchGraph>`) by every handler thread;
//! * [`protocol`] — line-delimited JSON requests/responses with stable
//!   error codes and canonical-form response fingerprints;
//! * `admission` — a bounded concurrency gate with deadline-aware
//!   queueing, so overload degrades into fast rejections instead of
//!   unbounded queueing inside the pool;
//! * `coalesce` — an opt-in admission-window collector that
//!   transparently merges concurrent same-graph single-source BFS
//!   queries into one multi-source (MS-BFS) execution, with per-source
//!   fan-out and unchanged canonical fingerprints;
//! * [`engine`] — one request lifecycle for single queries and
//!   `sources` batches: admit, prepare what the kernel reads, execute at
//!   the width concurrency allows, deadline-check, account one ledger
//!   record;
//! * `metrics` — the live metrics plane: one snapshot of the gate's
//!   lifecycle series, per-{kernel, graph, framework} latency
//!   histograms, and pool and RSS series read at scrape time, rendered
//!   as the `metrics` object of `{"cmd":"stats"}` and as the
//!   `--metrics-addr` listener's Prometheus `/metrics` (beside the
//!   `/health`/`/ready` probes); [`scrape_problems`] checks the
//!   invariants every scrape upholds (`docs/OPERATIONS.md`);
//! * [`server`] — the TCP accept loop, per-connection handler threads,
//!   and the graceful drain sequence (SIGINT or `{"cmd":"shutdown"}`).
//!
//! Load is generated from outside: the repo benchmark's `serve_point` and
//! `serve_batch` workloads (`benchmark/`) drive the daemon closed-loop,
//! and `tests/protocol.rs` asserts that served fingerprints are
//! bit-identical to local batch-mode runs.
//!
//! Concurrency model: handler threads are plain OS threads. A query
//! admitted alone gets the kernel parallelism of the one shared
//! [`ThreadPool`]; a query admitted beside another runs at width 1 on
//! its own handler thread, so concurrent queries split the cores rather
//! than take turns on the pool's leader lock. The admission gate bounds
//! how many queries share the cores, which keeps tail latency legible:
//! `max_active` × per-kernel runtime is the worst-case queueing delay a
//! query sees once admitted.
//!
//! [`ThreadPool`]: gapbs_parallel::ThreadPool

mod admission;
mod coalesce;
pub mod engine;
mod metrics;
pub mod protocol;
mod registry;
pub mod server;
mod signal;

pub use admission::{AdmissionGate, AdmitError, GateSnapshot, Permit};
pub use engine::{execute_query, run_query_local, Engine, EngineConfig, QueryOutcome};
pub use metrics::scrape_problems;
pub use protocol::{parse_request, BatchQuery, Command, ProtoError, Query};
pub use registry::{GraphRegistry, LoadRecord, RegistryOptions};
pub use server::{serve_main, ServeConfig, Server};
