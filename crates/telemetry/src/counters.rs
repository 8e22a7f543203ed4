//! The lock-free execution-counter registry.
//!
//! Counters live in per-thread *shards* of relaxed atomics: a recording
//! thread only ever touches its own cache-line-padded shard, so the hot
//! path is one uncontended `fetch_add(Relaxed)`. Aggregation walks all
//! shards — it runs at span close / trial end, never inside a kernel.
//!
//! The vocabulary is fixed (see [`Counter`]) so ledger records stay
//! schema-stable across runs and the work golden
//! (`results/work-golden.json`) can pin them field by field. The counts follow the GAP suite's own workload view: kernels
//! are characterized by frontier and edge traffic, not just seconds.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The fixed counter vocabulary.
///
/// Work counts only — times live in [`crate::span`]. See
/// `docs/TELEMETRY.md` for the unit and producer of each counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Adjacency entries scanned by a kernel (push scans out-edges, pull
    /// scans in-edges until the break; SpMV counts touched entries).
    EdgesExamined,
    /// Vertices appended to a frontier structure.
    FrontierPushes,
    /// Bulk-synchronous rounds: BFS levels, SSSP bucket steps, CC hook
    /// rounds, BC levels.
    Iterations,
    /// Push↔pull transitions of a direction-optimizing traversal.
    DirectionSwitches,
    /// Items pushed into delta-stepping buckets (tentative relaxations).
    BucketRelaxations,
    /// Bucket pushes clamped into the active bucket — work that
    /// re-processes a vertex the current round already settled.
    BucketReRelaxations,
    /// Items pushed onto an asynchronous worklist.
    WorklistPushes,
    /// Successful steals from another thread's worklist deque.
    WorklistSteals,
    /// PageRank iterations until convergence.
    PrIterations,
    /// Element comparisons spent in triangle counting's neighbor-list
    /// intersections (not intersection *calls*; every comparison also
    /// examines an adjacency element, so `tc_intersections <=
    /// edges_examined` is an invariant `perf_compare --lint` checks).
    TcIntersections,
    /// Worker teams brought up by a `ThreadPool` — one event per pool,
    /// regardless of how many regions it later runs.
    PoolWorkerSpawns,
    /// Parallel regions launched on a `ThreadPool` (every `run` /
    /// `for_each_index` / `reduce_index` entry).
    PoolRegions,
    /// Index ranges stolen from another worker's loop deque during
    /// `Dynamic`/`Guided` scheduling.
    PoolSteals,
    /// Times a pool worker blocked on the region barrier waiting for
    /// work (a spurious condvar wakeup counts once per re-block).
    PoolParks,
    /// Adjacency slots filled by the graph builder's parallel scatter
    /// (both directions of a directed build; symmetrized mirrors count).
    BuildEdgesScattered,
    /// Duplicate adjacency entries dropped by the builder's per-row
    /// dedup stage (for weighted graphs, the non-minimum parallel edges).
    BuildDupsDropped,
    /// GraphBLAS sparse-accumulator combines into an already-occupied
    /// slot (a second contribution to the same output index).
    SpaHits,
    /// GraphBLAS sparse-accumulator first-writes (a new output index
    /// became occupied this operation).
    SpaInserts,
    /// Mask membership probes answered by the word-packed bitmap fast
    /// path (one `u64` test instead of a binary search).
    MaskBitmapTests,
    /// Queries the serving daemon's admission gate let onto the pool.
    /// In serve ledgers this is a *cumulative* daemon total at record
    /// time, not a per-window delta (see `docs/SERVING.md`).
    QueriesAdmitted,
    /// Queries the admission gate turned away (wait queue full or the
    /// daemon was draining). Cumulative in serve ledgers.
    QueriesRejected,
    /// Queries that completed execution and produced a success response.
    /// Cumulative in serve ledgers; never exceeds `queries_admitted`.
    QueriesCompleted,
    /// Queries whose deadline expired — either in the admission queue
    /// (never run), fail-fast after admission with an already-expired
    /// deadline (never run), or after execution finished too late
    /// (result discarded, error response sent). Cumulative in serve
    /// ledgers.
    DeadlineExceeded,
    /// Queries answered by a *batched* multi-source execution — explicit
    /// `batch` request members plus coalesced single-source queries.
    /// Cumulative in serve ledgers; never exceeds `queries_admitted`.
    BatchQueries,
    /// Widest multi-source batch executed so far (a monotone high-water
    /// mark, not a sum). Cumulative-max in serve ledgers.
    BatchWidth,
}

impl Counter {
    /// Every counter, in ledger order.
    pub const ALL: [Counter; 25] = [
        Counter::EdgesExamined,
        Counter::FrontierPushes,
        Counter::Iterations,
        Counter::DirectionSwitches,
        Counter::BucketRelaxations,
        Counter::BucketReRelaxations,
        Counter::WorklistPushes,
        Counter::WorklistSteals,
        Counter::PrIterations,
        Counter::TcIntersections,
        Counter::PoolWorkerSpawns,
        Counter::PoolRegions,
        Counter::PoolSteals,
        Counter::PoolParks,
        Counter::BuildEdgesScattered,
        Counter::BuildDupsDropped,
        Counter::SpaHits,
        Counter::SpaInserts,
        Counter::MaskBitmapTests,
        Counter::QueriesAdmitted,
        Counter::QueriesRejected,
        Counter::QueriesCompleted,
        Counter::DeadlineExceeded,
        Counter::BatchQueries,
        Counter::BatchWidth,
    ];

    /// Number of counters in the vocabulary.
    pub(crate) const COUNT: usize = Self::ALL.len();

    /// The stable snake_case ledger key.
    pub fn name(self) -> &'static str {
        match self {
            Counter::EdgesExamined => "edges_examined",
            Counter::FrontierPushes => "frontier_pushes",
            Counter::Iterations => "iterations",
            Counter::DirectionSwitches => "direction_switches",
            Counter::BucketRelaxations => "bucket_relaxations",
            Counter::BucketReRelaxations => "bucket_re_relaxations",
            Counter::WorklistPushes => "worklist_pushes",
            Counter::WorklistSteals => "worklist_steals",
            Counter::PrIterations => "pr_iterations",
            Counter::TcIntersections => "tc_intersections",
            Counter::PoolWorkerSpawns => "pool_worker_spawns",
            Counter::PoolRegions => "pool_regions",
            Counter::PoolSteals => "pool_steals",
            Counter::PoolParks => "pool_parks",
            Counter::BuildEdgesScattered => "build_edges_scattered",
            Counter::BuildDupsDropped => "build_dups_dropped",
            Counter::SpaHits => "spa_hits",
            Counter::SpaInserts => "spa_inserts",
            Counter::MaskBitmapTests => "mask_bitmap_tests",
            Counter::QueriesAdmitted => "queries_admitted",
            Counter::QueriesRejected => "queries_rejected",
            Counter::QueriesCompleted => "queries_completed",
            Counter::DeadlineExceeded => "deadline_exceeded",
            Counter::BatchQueries => "batch_queries",
            Counter::BatchWidth => "batch_width",
        }
    }

    /// Parses a ledger key back to the counter.
    pub(crate) fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// An aggregated, immutable view of every counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSet {
    values: [u64; Counter::COUNT],
}

impl CounterSet {
    /// The all-zero set.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Value of one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// Sets one counter (ledger parsing and tests).
    pub fn set(&mut self, c: Counter, v: u64) {
        self.values[c as usize] = v;
    }

    /// `self - other`, saturating — the work done between two snapshots.
    pub fn delta(&self, other: &CounterSet) -> CounterSet {
        let mut out = CounterSet::zero();
        for c in Counter::ALL {
            out.set(c, self.get(c).saturating_sub(other.get(c)));
        }
        out
    }

    /// `true` when every counter is zero.
    #[cfg(test)]
    pub(crate) fn is_zero(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }

    /// Traversed edges per second — the GAP suite's headline rate metric.
    /// `None` when no edges were counted or the time is degenerate.
    pub(crate) fn teps(&self, seconds: f64) -> Option<f64> {
        let edges = self.get(Counter::EdgesExamined);
        (edges > 0 && seconds > 0.0).then(|| edges as f64 / seconds)
    }

    /// Work efficiency: edges examined relative to the graph's arc count
    /// `m`. A direction-optimizing BFS lands well below 1.0; a Jacobi PR
    /// pays ~1.0 per iteration.
    pub(crate) fn work_ratio(&self, num_arcs: u64) -> Option<f64> {
        let edges = self.get(Counter::EdgesExamined);
        (edges > 0 && num_arcs > 0).then(|| edges as f64 / num_arcs as f64)
    }

    /// `(key, value)` pairs in ledger order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.into_iter().map(|c| (c, self.get(c)))
    }
}

/// Number of shards. More than any plausible thread count at reproduction
/// scale; threads hash round-robin onto shards, and two threads sharing a
/// shard is still correct (atomic adds), just marginally contended.
const SHARDS: usize = 64;

/// One shard: a cache-line-padded row of counter cells.
#[repr(align(128))]
#[derive(Debug)]
struct Shard {
    cells: [AtomicU64; Counter::COUNT],
}

impl Shard {
    const fn new() -> Self {
        // `AtomicU64::new(0)` is const, but arrays can't be built from a
        // non-Copy const fn result directly; splat via the const item.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Shard {
            cells: [ZERO; Counter::COUNT],
        }
    }
}

/// A sharded counter registry.
///
/// The global instance behind [`record`] is the one kernels write; tests
/// and embedders can also own private registries.
#[derive(Debug)]
pub(crate) struct Registry {
    shards: [Shard; SHARDS],
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates a zeroed registry.
    pub(crate) const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const SHARD: Shard = Shard::new();
        Registry {
            shards: [SHARD; SHARDS],
        }
    }

    /// Adds `n` to `counter` in the calling thread's shard. Relaxed: the
    /// total is only read at aggregation points after joins.
    #[inline]
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        if n == 0 {
            return;
        }
        self.shards[shard_index()].cells[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Sums every shard into one [`CounterSet`].
    pub(crate) fn aggregate(&self) -> CounterSet {
        let mut out = CounterSet::zero();
        for shard in &self.shards {
            for c in Counter::ALL {
                let v = shard.cells[c as usize].load(Ordering::Relaxed);
                out.set(c, out.get(c).wrapping_add(v));
            }
        }
        out
    }

    /// Zeroes every cell.
    pub(crate) fn reset(&self) {
        for shard in &self.shards {
            for cell in &shard.cells {
                cell.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// The calling thread's shard slot, assigned round-robin on first use.
fn shard_index() -> usize {
    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SLOT.with(|s| *s)
}

static GLOBAL: Registry = Registry::new();

/// Records `n` units of `counter` against the global registry: one relaxed
/// `fetch_add` on the calling thread's shard.
///
/// Always compiled. Hot loops never call this per element: they count
/// into a local and record once per chunk, worker or round, which keeps
/// the counters cheap enough that there is no uninstrumented build.
#[inline]
pub fn record(counter: Counter, n: u64) {
    GLOBAL.add(counter, n);
}

/// Aggregated view of the global registry.
pub fn snapshot() -> CounterSet {
    GLOBAL.aggregate()
}

/// Zeroes the global registry.
pub(crate) fn reset() {
    GLOBAL.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for c in Counter::ALL {
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        assert_eq!(Counter::from_name("bogus"), None);
    }

    #[test]
    fn registry_aggregates_across_threads() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let reg = &reg;
                s.spawn(move || {
                    for _ in 0..1000 {
                        reg.add(Counter::EdgesExamined, 3);
                    }
                    reg.add(Counter::WorklistSteals, t as u64);
                });
            }
        });
        let agg = reg.aggregate();
        assert_eq!(agg.get(Counter::EdgesExamined), 8 * 1000 * 3);
        assert_eq!(agg.get(Counter::WorklistSteals), (0..8).sum::<u64>());
        assert_eq!(agg.get(Counter::PrIterations), 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let reg = Registry::new();
        reg.add(Counter::FrontierPushes, 42);
        assert!(!reg.aggregate().is_zero());
        reg.reset();
        assert!(reg.aggregate().is_zero());
    }

    #[test]
    fn zero_adds_are_free_and_invisible() {
        let reg = Registry::new();
        reg.add(Counter::Iterations, 0);
        assert!(reg.aggregate().is_zero());
    }

    #[test]
    fn delta_subtracts_saturating() {
        let mut a = CounterSet::zero();
        a.set(Counter::EdgesExamined, 10);
        let mut b = CounterSet::zero();
        b.set(Counter::EdgesExamined, 4);
        b.set(Counter::Iterations, 2);
        assert_eq!(a.delta(&b).get(Counter::EdgesExamined), 6);
        assert_eq!(a.delta(&b).get(Counter::Iterations), 0, "saturates at zero");
    }

    #[test]
    fn derived_metrics() {
        let mut s = CounterSet::zero();
        assert_eq!(s.teps(1.0), None);
        s.set(Counter::EdgesExamined, 2_000);
        assert_eq!(s.teps(2.0), Some(1_000.0));
        assert_eq!(s.work_ratio(4_000), Some(0.5));
        assert_eq!(s.work_ratio(0), None);
    }
}
