//! Persistent fork-join thread pool with OpenMP-style loop scheduling.
//!
//! Workers are spawned **once** per pool and wait between regions on a
//! spin-then-park epoch barrier ([`crate::barrier`]); launching a region
//! is an atomic store the polling team picks up within a microsecond,
//! not `num_threads` OS thread spawns and not a futex round trip.
//! BFS/SSSP/PR launch one region per level, bucket, or sweep, so a trial
//! that used to pay thousands of spawn/join cycles now pays them exactly
//! once — the OpenMP persistent-team behaviour the GAP reference kernels
//! assume. A `Dynamic(chunk)` loop whose whole range fits one chunk does
//! not involve the team at all: it runs inline on the caller (see
//! [`ThreadPool::for_each_index_tid`]).
//!
//! `Dynamic`/`Guided` scheduling claims chunks from per-worker
//! work-stealing range deques (`crate::deque`) instead of one shared
//! counter, so skewed power-law loops no longer serialize every chunk
//! claim through a single contended cache line.

use crate::barrier::RegionBarrier;
use crate::deque::{ChunkPolicy, RangeDeques, MAX_INDEX};
use gapbs_telemetry::{record, trace, Counter};
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Loop-scheduling policy, mirroring OpenMP's `schedule` clause which the
/// GAP reference kernels select per loop (e.g. `dynamic, 64` over vertices,
/// `static` over dense arrays).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Contiguous equal slices per thread: lowest overhead, no balancing.
    Static,
    /// Threads claim fixed-size chunks from per-worker stealing deques:
    /// balances skewed work (power-law adjacency) with an uncontended
    /// local claim in the common case.
    Dynamic(usize),
    /// Chunks start large and shrink geometrically toward the loop tail:
    /// a compromise for loops whose tail is irregular.
    Guided,
}

/// Parses a thread-count string (the `GAPBS_THREADS` format).
///
/// # Errors
///
/// Rejects zero, signs, garbage, and anything else that is not a
/// positive integer, with a message naming the offending value.
pub fn parse_threads(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err("GAPBS_THREADS must be a positive integer, got 0".into()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "GAPBS_THREADS must be a positive integer, got {value:?}"
        )),
    }
}

/// Resolves the default thread count: `GAPBS_THREADS` if set, otherwise
/// the machine's available parallelism.
///
/// # Errors
///
/// Returns the [`parse_threads`] error when `GAPBS_THREADS` is set to an
/// invalid value — a benchmark config with a typoed thread count must
/// fail loudly, not silently run on all cores.
pub(crate) fn try_default_threads() -> Result<usize, String> {
    match std::env::var("GAPBS_THREADS") {
        Ok(value) => parse_threads(&value),
        Err(std::env::VarError::NotPresent) => Ok(std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err("GAPBS_THREADS is set but is not valid UTF-8".into())
        }
    }
}

/// Resolves the default thread count: `GAPBS_THREADS` if set, otherwise
/// the machine's available parallelism.
///
/// # Panics
///
/// Panics when `GAPBS_THREADS` is set but invalid (garbage or `0`), so
/// a misconfigured benchmark aborts instead of measuring the wrong
/// machine shape. Use `try_default_threads` to handle the error.
pub fn default_threads() -> usize {
    try_default_threads()
        .unwrap_or_else(|e| panic!("{e} (unset it or set a positive thread count)"))
}

/// Lifetime telemetry of one pool (the global telemetry counters mirror
/// these, summed over every pool in the process).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker-team bring-ups: 0 before the pool's first region, exactly 1
    /// after — the team spawns lazily on first use and never again, which
    /// is the property the persistent pool exists to provide (and puts
    /// the spawn inside the first trial's telemetry window).
    pub spawn_events: u64,
    /// Parallel regions launched (`run` / `for_each_index` /
    /// `reduce_index` calls, including the ones that ran inline on the
    /// caller: every loop of a 1-thread pool, and sub-chunk `Dynamic`
    /// loops of any pool).
    pub regions: u64,
    /// Ranges stolen between workers by `Dynamic`/`Guided` loops.
    pub steals: u64,
    /// Times a worker gave up polling for the next region and blocked
    /// on the barrier's condvar. Back-to-back regions cost none, so
    /// `parks / regions` near zero means the poll phase is absorbing the
    /// gaps between regions; an idle pool parks each worker once.
    pub parks: u64,
}

impl PoolStats {
    /// Per-field difference versus an earlier snapshot of the *same*
    /// pool (saturating, so a stale baseline never underflows). This is
    /// what rate-style consumers — the serve daemon's metrics scrape —
    /// use to turn lifetime totals into "regions since last scrape".
    pub fn delta(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            spawn_events: self.spawn_events.saturating_sub(earlier.spawn_events),
            regions: self.regions.saturating_sub(earlier.regions),
            steals: self.steals.saturating_sub(earlier.steals),
            parks: self.parks.saturating_sub(earlier.parks),
        }
    }
}

/// A type-erased pointer to a region's `Fn(usize)` body.
///
/// Validity: the leader publishes a `Job` only via `RegionBarrier::release`
/// and does not return from [`ThreadPool::run`] — normally or by
/// unwinding — until `RegionBarrier::await_team` has seen every worker
/// check back in, so the borrow behind the raw pointer strictly outlives
/// every dereference. That holds however the two sides wait: a worker
/// dereferences the pointer only between reading it from the gate and
/// its own `complete`, whether it got there by polling or from the
/// condvar, and `await_team` returns only after an `Acquire` load has
/// observed all `workers` of those `complete` increments. A worker
/// polling for the *next* epoch holds only a stale copy it never
/// dereferences again (`wait` hands out a job once per epoch).
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize) + Sync),
}

impl Job {
    fn erase<F: Fn(usize) + Sync>(f: &F) -> Job {
        let wide: &(dyn Fn(usize) + Sync) = f;
        // SAFETY: erases the borrow's lifetime from the fat pointer's
        // type only — the leader upholds the real lifetime by joining
        // the team (polling or parked, `await_team` returns only once
        // every worker has checked in) before `run` returns or unwinds
        // (see the struct docs).
        let f: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(wide) };
        Job { f }
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Job(..)")
    }
}

// SAFETY: the pointee is `Sync` (shared calls are safe from any thread)
// and the leader keeps it alive for the whole region (see `Job` docs).
unsafe impl Send for Job {}

thread_local! {
    /// Whether the current thread is already executing a region body.
    /// A nested `run` from inside a region executes inline instead of
    /// re-entering the barrier (the outer region owns the workers).
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// State shared between the pool handles and the worker threads.
#[derive(Debug)]
struct Core {
    num_threads: usize,
    barrier: RegionBarrier<Job>,
    /// Serializes concurrent `run` callers from different threads; a
    /// region owns the whole team.
    leader: crate::sync::Mutex<()>,
    /// Set by a worker whose region body panicked; the leader re-raises.
    panicked: AtomicBool,
    /// `true` once the worker team has been spawned (fast path of
    /// [`ThreadPool::ensure_team`]).
    team_ready: AtomicBool,
    spawn_events: AtomicU64,
    regions: AtomicU64,
    steals: AtomicU64,
}

impl Core {
    /// Counts a region launch and returns its pool-lifetime sequence
    /// number (the `region` id trace events carry).
    fn note_region(&self) -> u64 {
        let id = self.regions.fetch_add(1, Ordering::Relaxed);
        record(Counter::PoolRegions, 1);
        id
    }

    fn note_steals(&self, tid: usize, steals: u64) {
        if steals > 0 {
            self.steals.fetch_add(steals, Ordering::Relaxed);
            record(Counter::PoolSteals, steals);
            if trace::is_on() {
                trace::steal(tid, steals);
            }
        }
    }
}

/// Runs `body` as worker `tid` of region `region`, emitting a trace
/// duration event covering it when tracing is on. Outside a session this
/// is one relaxed load plus `body()`.
#[inline]
fn traced_body(tid: usize, region: u64, body: impl FnOnce()) {
    if trace::is_on() {
        let start = trace::now_ns();
        body();
        trace::region(tid, region, start);
    } else {
        body();
    }
}

/// Owns the worker handles; dropped when the last `ThreadPool` clone
/// goes away, releasing and joining the team.
#[derive(Debug)]
struct Inner {
    core: Arc<Core>,
    /// Spawned lazily by [`ThreadPool::ensure_team`] on the first region;
    /// empty until then (and forever on a 1-thread pool).
    workers: crate::sync::Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.core.barrier.shutdown();
        for handle in self.workers.get_mut().drain(..) {
            let _ = handle.join();
        }
    }
}

/// A persistent fork-join thread pool.
///
/// `num_threads - 1` workers are spawned lazily at the pool's first
/// parallel region — exactly once per pool — and wait between regions,
/// polling briefly before they park; the thread calling
/// [`ThreadPool::run`] participates as thread 0, OpenMP-master style.
/// Clones share the same worker team, and the team is joined when the
/// last clone drops.
///
/// # Example
///
/// ```
/// use gapbs_parallel::{Schedule, ThreadPool};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = ThreadPool::new(4);
/// let sum = AtomicUsize::new(0);
/// pool.for_each_index(100, Schedule::Dynamic(8), |i| {
///     sum.fetch_add(i, Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 99 * 100 / 2);
/// assert_eq!(pool.stats().spawn_events, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ThreadPool {
    inner: Arc<Inner>,
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::new(default_threads())
    }
}

impl ThreadPool {
    /// Creates a pool whose team runs parallel regions on `num_threads`
    /// threads (`num_threads - 1` spawned workers plus the caller).
    ///
    /// # Panics
    ///
    /// Panics if `num_threads` is zero.
    pub fn new(num_threads: usize) -> Self {
        assert!(num_threads > 0, "thread pool needs at least one thread");
        let core = Arc::new(Core {
            num_threads,
            barrier: RegionBarrier::new(num_threads - 1),
            leader: crate::sync::Mutex::new(()),
            panicked: AtomicBool::new(false),
            team_ready: AtomicBool::new(false),
            spawn_events: AtomicU64::new(0),
            regions: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        });
        ThreadPool {
            inner: Arc::new(Inner {
                core,
                workers: crate::sync::Mutex::new(Vec::new()),
            }),
        }
    }

    /// Spawns the worker team on the pool's first region (idempotent).
    ///
    /// Lazy spawning keeps a never-used pool free and, more importantly,
    /// attributes the one spawn event to the work that first needed the
    /// team — so a ledgered benchmark run shows the spawn inside its
    /// first trial's counter window instead of losing it to setup.
    fn ensure_team(&self) {
        let core = &self.inner.core;
        if core.team_ready.load(Ordering::Acquire) {
            return;
        }
        let mut workers = self.inner.workers.lock();
        if core.team_ready.load(Ordering::Acquire) {
            return;
        }
        core.spawn_events.fetch_add(1, Ordering::Relaxed);
        record(Counter::PoolWorkerSpawns, 1);
        *workers = (1..core.num_threads)
            .map(|tid| {
                let core = Arc::clone(core);
                std::thread::Builder::new()
                    .name(format!("gapbs-pool-{tid}"))
                    .spawn(move || worker_loop(&core, tid))
                    .expect("spawn pool worker")
            })
            .collect();
        core.team_ready.store(true, Ordering::Release);
    }

    /// Number of threads used for parallel regions.
    pub fn num_threads(&self) -> usize {
        self.inner.core.num_threads
    }

    /// Snapshot of this pool's lifetime spawn/region/steal/park counts.
    pub fn stats(&self) -> PoolStats {
        let core = &self.inner.core;
        PoolStats {
            spawn_events: core.spawn_events.load(Ordering::Relaxed),
            regions: core.regions.load(Ordering::Relaxed),
            steals: core.steals.load(Ordering::Relaxed),
            parks: core.barrier.parks(),
        }
    }

    /// Whether a loop over `0..n` runs inline on the caller as tid 0:
    /// always on a 1-thread pool, and on any pool when the whole range
    /// fits one chunk of a `Dynamic(chunk)` schedule — the call site
    /// already declared that much work not worth splitting, so a near-
    /// empty BFS level or SSSP bucket takes no leader lock and wakes
    /// nobody. Concurrent callers may each be "tid 0" of their own inline
    /// loop, exactly as concurrent callers of a 1-thread pool are.
    fn runs_inline(&self, n: usize, schedule: Schedule) -> bool {
        self.num_threads() == 1 || matches!(schedule, Schedule::Dynamic(chunk) if n <= chunk.max(1))
    }

    /// Runs `f(thread_id)` on every pool thread and returns when all of
    /// them have finished (a full fork-join region).
    ///
    /// Called from inside a region body, the nested region executes all
    /// thread ids inline on the calling thread — the outer region
    /// already owns the team.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from any thread's `f` after the region joins.
    pub fn run<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.ensure_team();
        let core = &self.inner.core;
        let region = core.note_region();
        let traced = |tid: usize| traced_body(tid, region, || f(tid));
        if core.num_threads == 1 {
            traced(0);
            return;
        }
        if IN_REGION.with(Cell::get) {
            for tid in 0..core.num_threads {
                traced(tid);
            }
            return;
        }
        let _leader = core.leader.lock();
        core.barrier.release(Job::erase(&traced));
        IN_REGION.with(|c| c.set(true));
        let lead = catch_unwind(AssertUnwindSafe(|| traced(0)));
        IN_REGION.with(|c| c.set(false));
        // Always join the team before unwinding: workers hold a borrow
        // of `traced` until the completion latch opens.
        core.barrier.await_team();
        let worker_panicked = core.panicked.swap(false, Ordering::Relaxed);
        match lead {
            Err(payload) => resume_unwind(payload),
            Ok(()) if worker_panicked => {
                panic!("a pool worker panicked during a parallel region")
            }
            Ok(()) => {}
        }
    }

    /// Parallel `for i in 0..n` under the given schedule.
    pub fn for_each_index<F>(&self, n: usize, schedule: Schedule, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.for_each_index_tid(n, schedule, |_tid, i| f(i));
    }

    /// Parallel `for i in 0..n` where the body also receives the id of
    /// the worker running each iteration. This is the loop primitive for
    /// per-worker spill buffers ([`PerWorker`](crate::PerWorker)): the
    /// schedule decides who runs which index, and the body uses `tid` to
    /// reach that worker's private accumulator without write-sharing.
    ///
    /// A loop that fits one chunk of its `Dynamic(chunk)` schedule (and
    /// every loop of a 1-thread pool) runs inline on the caller as tid 0;
    /// it still counts as a region in [`PoolStats`].
    pub fn for_each_index_tid<F>(&self, n: usize, schedule: Schedule, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if n == 0 {
            return;
        }
        let threads = self.num_threads();
        if self.runs_inline(n, schedule) {
            self.ensure_team();
            let region = self.inner.core.note_region();
            traced_body(0, region, || {
                for i in 0..n {
                    f(0, i);
                }
            });
            return;
        }
        let state = LoopState::new(n, threads, schedule);
        let core = &self.inner.core;
        self.run(|tid| {
            let mut body = |lo: usize, hi: usize| {
                for i in lo..hi {
                    f(tid, i);
                }
            };
            let steals = state.drain(tid, &mut body);
            core.note_steals(tid, steals);
        });
    }

    /// Parallel map-reduce over `0..n` under the given schedule:
    /// `map(i)` values are combined with `fold` within each thread and
    /// the per-thread partials reduced with `fold` again.
    ///
    /// # Example
    ///
    /// ```
    /// use gapbs_parallel::{Schedule, ThreadPool};
    ///
    /// let pool = ThreadPool::new(3);
    /// let sum = pool.reduce_index(1000, Schedule::Guided, 0u64, |i| i as u64, |a, b| a + b);
    /// assert_eq!(sum, 999 * 1000 / 2);
    /// ```
    pub fn reduce_index<T, M, F>(
        &self,
        n: usize,
        schedule: Schedule,
        identity: T,
        map: M,
        fold: F,
    ) -> T
    where
        T: Clone + Send + Sync,
        M: Fn(usize) -> T + Sync,
        F: Fn(T, T) -> T + Sync,
    {
        if n == 0 {
            return identity;
        }
        let threads = self.num_threads();
        if self.runs_inline(n, schedule) {
            self.ensure_team();
            let region = self.inner.core.note_region();
            let mut acc = Some(identity);
            traced_body(0, region, || {
                let mut a = acc.take().expect("accumulator present");
                for i in 0..n {
                    a = fold(a, map(i));
                }
                acc = Some(a);
            });
            return acc.expect("accumulator present after loop");
        }
        let state = LoopState::new(n, threads, schedule);
        let core = &self.inner.core;
        let partials = crate::sync::Mutex::new(Vec::with_capacity(threads));
        self.run(|tid| {
            // Option dance: `drain` takes an `FnMut`, which cannot move a
            // captured accumulator out; `take`/put-back keeps `fold` by-value.
            let mut acc = Some(identity.clone());
            let mut body = |lo: usize, hi: usize| {
                let mut a = acc.take().expect("accumulator present between chunks");
                for i in lo..hi {
                    a = fold(a, map(i));
                }
                acc = Some(a);
            };
            let steals = state.drain(tid, &mut body);
            core.note_steals(tid, steals);
            partials
                .lock()
                .push(acc.expect("accumulator present after drain"));
        });
        partials.into_inner().into_iter().fold(identity, &fold)
    }
}

/// Chunk-claiming state of one loop region.
#[derive(Debug)]
enum LoopState {
    /// One contiguous slice per thread, computed from the thread id.
    Static { n: usize, threads: usize },
    /// Per-worker stealing deques (`Dynamic`/`Guided`, n <= u32::MAX).
    Stealing {
        deques: RangeDeques,
        policy: ChunkPolicy,
    },
    /// Shared-counter fallback for loops too long to pack (never hit at
    /// reproduction scale). The chunk is sized inside the claiming CAS
    /// loop from the freshly observed remainder.
    Shared {
        next: AtomicUsize,
        n: usize,
        threads: usize,
        policy: ChunkPolicy,
    },
}

impl LoopState {
    fn new(n: usize, threads: usize, schedule: Schedule) -> LoopState {
        let policy = match schedule {
            Schedule::Static => return LoopState::Static { n, threads },
            Schedule::Dynamic(chunk) => ChunkPolicy::Fixed(chunk.max(1)),
            Schedule::Guided => ChunkPolicy::Half,
        };
        if n <= MAX_INDEX {
            LoopState::Stealing {
                deques: RangeDeques::split(n, threads),
                policy,
            }
        } else {
            LoopState::Shared {
                next: AtomicUsize::new(0),
                n,
                threads,
                policy,
            }
        }
    }

    /// Feeds `body` every chunk thread `tid` is responsible for, and
    /// returns how many ranges it stole from other workers.
    fn drain(&self, tid: usize, body: &mut dyn FnMut(usize, usize)) -> u64 {
        match self {
            LoopState::Static { n, threads } => {
                let per = n.div_ceil(*threads);
                let lo = (tid * per).min(*n);
                let hi = ((tid + 1) * per).min(*n);
                if lo < hi {
                    body(lo, hi);
                }
                0
            }
            LoopState::Stealing { deques, policy } => {
                let mut steals = 0u64;
                loop {
                    while let Some((lo, hi)) = deques.claim(tid, *policy) {
                        body(lo, hi);
                    }
                    if deques.steal(tid, &mut steals) {
                        continue;
                    }
                    // Everything looked empty; a range mid-steal is
                    // invisible, so yield once and re-scan before
                    // leaving the region to the thief.
                    std::thread::yield_now();
                    if !deques.steal(tid, &mut steals) {
                        break;
                    }
                }
                steals
            }
            LoopState::Shared {
                next,
                n,
                threads,
                policy,
            } => {
                loop {
                    let mut chunk = 0usize;
                    let claimed = next.fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                        if cur >= *n {
                            return None;
                        }
                        let remaining = *n - cur;
                        chunk = match policy {
                            ChunkPolicy::Fixed(size) => (*size).clamp(1, remaining),
                            // Guided over a shared counter: the classic
                            // remaining / 2T, shrunk from the value the
                            // CAS actually claims against.
                            ChunkPolicy::Half => (remaining / (2 * *threads)).max(1),
                        };
                        Some(cur + chunk)
                    });
                    match claimed {
                        Ok(lo) => body(lo, (lo + chunk).min(*n)),
                        Err(_) => break,
                    }
                }
                0
            }
        }
    }
}

/// Body of one spawned worker: wait (poll, then park), run the published
/// job, check in.
fn worker_loop(core: &Core, tid: usize) {
    let mut epoch = 0u64;
    loop {
        let wake = core.barrier.wait(epoch);
        let Some(job) = wake.job else { return };
        epoch = wake.epoch;
        IN_REGION.with(|c| c.set(true));
        // SAFETY: `wait` returned this job for a new epoch, so the leader
        // is inside `run` for it and keeps the pointee alive until every
        // worker — this one included — has called `complete` below; the
        // pointer is not touched after that (see `Job`).
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.f)(tid) }));
        IN_REGION.with(|c| c.set(false));
        if result.is_err() {
            core.panicked.store(true, Ordering::Relaxed);
        }
        core.barrier.complete();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn all_schedules_cover_every_index_exactly_once() {
        for schedule in [Schedule::Static, Schedule::Dynamic(7), Schedule::Guided] {
            let pool = ThreadPool::new(4);
            let n = 1000;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.for_each_index(n, schedule, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{schedule:?} missed or duplicated an index"
            );
        }
    }

    #[test]
    fn exactly_once_under_contention_and_awkward_shapes() {
        // Small n vs threads, n == 1, primes, and skewed bodies that
        // force stealing: every index must be delivered exactly once.
        let pool = ThreadPool::new(5);
        for schedule in [Schedule::Static, Schedule::Dynamic(3), Schedule::Guided] {
            for n in [1usize, 2, 4, 5, 17, 97, 1009] {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                pool.for_each_index(n, schedule, |i| {
                    // Skew: early indices are ~100x heavier, so late
                    // workers drain and steal.
                    if i < n / 8 {
                        std::hint::black_box((0..100).sum::<usize>());
                    }
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                let bad: Vec<usize> = (0..n)
                    .filter(|&i| hits[i].load(Ordering::Relaxed) != 1)
                    .collect();
                assert!(bad.is_empty(), "{schedule:?} n={n}: bad {bad:?}");
            }
        }
    }

    #[test]
    fn back_to_back_regions_observe_prior_writes() {
        // Region k writes f(k-1)'s outputs + 1; any missed barrier
        // ordering or lost region shows up as a wrong final value.
        let pool = ThreadPool::new(4);
        let n = 257;
        let cells: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        for round in 0..100 {
            pool.for_each_index(n, Schedule::Dynamic(8), |i| {
                let seen = cells[i].load(Ordering::Relaxed);
                assert_eq!(seen, round, "index {i} missed a region's write");
                cells[i].store(seen + 1, Ordering::Relaxed);
            });
        }
        assert!(cells.iter().all(|c| c.load(Ordering::Relaxed) == 100));
    }

    #[test]
    fn one_spawn_event_many_regions() {
        let pool = ThreadPool::new(3);
        for _ in 0..50 {
            pool.for_each_index(64, Schedule::Guided, |i| {
                std::hint::black_box(i);
            });
        }
        let stats = pool.stats();
        assert_eq!(
            stats.spawn_events, 1,
            "workers spawned once, not per region"
        );
        assert_eq!(stats.regions, 50);
        // Clones share the team and its stats.
        let clone = pool.clone();
        clone.run(|_| {});
        assert_eq!(pool.stats().regions, 51);
    }

    #[test]
    fn nested_regions_run_inline() {
        let pool = ThreadPool::new(3);
        let calls = AtomicUsize::new(0);
        pool.run(|_| {
            // A nested region from inside a region body must not
            // deadlock; it executes every tid inline.
            pool.run(|_| {
                calls.fetch_add(1, Ordering::Relaxed);
            });
        });
        // 3 outer bodies x 3 inline nested tids.
        assert_eq!(calls.into_inner(), 9);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(|tid| {
                if tid == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "worker panic must reach the caller");
        // The team is still alive and consistent afterwards.
        let sum = AtomicUsize::new(0);
        pool.for_each_index(10, Schedule::Static, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 45);
    }

    #[test]
    fn empty_range_is_a_no_op() {
        ThreadPool::new(2).for_each_index(0, Schedule::Static, |_| panic!("must not run"));
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = ThreadPool::new(1);
        let mut seen = 0usize;
        let sum = AtomicUsize::new(0);
        pool.for_each_index(10, Schedule::Guided, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        seen += sum.load(Ordering::Relaxed);
        assert_eq!(seen, 45);
    }

    #[test]
    fn reduce_sums_correctly_under_every_schedule() {
        let pool = ThreadPool::new(3);
        for schedule in [Schedule::Static, Schedule::Dynamic(64), Schedule::Guided] {
            let total = pool.reduce_index(10_000, schedule, 0u64, |i| i as u64, |a, b| a + b);
            assert_eq!(total, 9_999 * 10_000 / 2, "{schedule:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn thread_count_parsing_is_strict() {
        assert_eq!(parse_threads("8"), Ok(8));
        assert_eq!(parse_threads(" 4 "), Ok(4));
        for bad in ["0", "", "two", "-3", "4.5", "8 cores"] {
            let err = parse_threads(bad).unwrap_err();
            assert!(
                err.contains("positive integer"),
                "{bad:?} -> {err:?} should name the constraint"
            );
        }
    }
}
