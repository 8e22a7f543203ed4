//! Shared parallel runtime for the GAPBS reproduction.
//!
//! The six frameworks in the paper sit on different C++ runtimes (OpenMP,
//! TBB, cilk, a custom Galois runtime). This crate is their common Rust
//! substrate, exposing each execution style the paper contrasts:
//!
//! * [`ThreadPool`] + [`ThreadPool::for_each_index`] — bulk-synchronous
//!   loops with static / dynamic / guided scheduling (the OpenMP-style
//!   frameworks). The pool is *persistent*: workers spawn once, spin
//!   then park on an epoch barrier between regions ([`barrier`]), and
//!   `Dynamic`/`Guided` loops claim chunks from per-worker work-stealing
//!   range deques (`deque`) rather than one shared counter,
//! * [`SlidingQueue`] / [`QueueBuffer`] — the GAP reference's frontier
//!   structure with per-thread buffered appends,
//! * [`ChunkedWorklist`] — Galois-style asynchronous work-stealing worklist
//!   with termination detection,
//! * [`OrderedWorklist`] — the OBIM-style approximate-priority variant
//!   asynchronous delta-stepping needs for work efficiency,
//! * [`buckets::file_relaxations`] — the between-rounds bucket filing
//!   every bulk-synchronous delta-stepping coordinator shares,
//! * [`AtomicBitmap`] — dense visited/frontier sets,
//! * [`LocalBuffer`] — GKC-style cache-sized thread-local output buffers,
//! * [`scan`] / [`scatter`] — exclusive prefix sum and a stable
//!   counting-sort scatter over per-worker row windows (no atomics), the
//!   stages the parallel CSR graph build is assembled from (with
//!   [`SharedSlice`] as the disjoint-write escape hatch both share),
//! * [`atomics`] — min/max/add CAS loops for the label arrays kernels share.
//!
//! Thread count defaults to the machine's available parallelism and can be
//! pinned with the `GAPBS_THREADS` environment variable, mirroring
//! `OMP_NUM_THREADS` in the paper's methodology (§IV-A fixes 32 cores for
//! the Baseline data set).

pub mod atomics;
pub mod barrier;
mod bitmap;
pub mod buckets;
mod deque;
mod local_buffer;
mod ordered;
mod per_worker;
pub mod pool;
pub mod scan;
pub mod scatter;
mod shared;
mod sliding_queue;
pub mod sync;
mod worklist;

pub use bitmap::AtomicBitmap;
pub use local_buffer::LocalBuffer;
pub use ordered::OrderedWorklist;
pub use per_worker::PerWorker;
pub use pool::{PoolStats, Schedule, ThreadPool};
pub use shared::SharedSlice;
pub use sliding_queue::{QueueBuffer, SlidingQueue};
pub use worklist::ChunkedWorklist;
