//! Galois-style asynchronous work-stealing worklist.
//!
//! The paper credits Galois' performance on high-diameter graphs to its
//! "concurrent sparse worklists" that let data-driven algorithms run
//! *asynchronously*: there are no rounds — threads push and pop active
//! vertices until the worklist drains (§III-B). This module reproduces
//! that execution model with per-thread chunked FIFO deques (one local
//! worker per thread plus batch stealing) and a pending-counter
//! termination detector.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::pool::ThreadPool;
use crate::sync::Mutex;

/// One thread's deque: the owner pops from the front (FIFO keeps
/// label-correcting operators near priority order); thieves take a batch
/// from the back. Lock-based — at reproduction scale the lock is
/// uncontended because owners batch their local work.
#[derive(Debug)]
struct Deque<T> {
    items: Mutex<VecDeque<T>>,
}

impl<T> Deque<T> {
    fn new() -> Self {
        Deque {
            items: Mutex::new(VecDeque::new()),
        }
    }

    fn push(&self, item: T) {
        self.items.lock().push_back(item);
    }

    fn pop(&self) -> Option<T> {
        self.items.lock().pop_front()
    }

    /// Steals up to half the victim's items (at least one), returning one
    /// to work on immediately and appending the rest to `local`.
    fn steal_batch_and_pop(&self, local: &Deque<T>) -> Option<T> {
        let mut victim = self.items.lock();
        let take = victim.len().div_ceil(2);
        if take == 0 {
            return None;
        }
        let first = victim.pop_back();
        if take > 1 {
            let mut mine = local.items.lock();
            for _ in 1..take {
                match victim.pop_back() {
                    Some(item) => mine.push_back(item),
                    None => break,
                }
            }
        }
        first
    }
}

/// An asynchronous chunked worklist executor.
///
/// # Example
///
/// Counting down from a seed set: each item spawns its decrement until 0.
///
/// ```
/// use gapbs_parallel::{ChunkedWorklist, ThreadPool};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let processed = AtomicUsize::new(0);
/// ChunkedWorklist::new(ThreadPool::new(2)).for_each(vec![3u32, 2], |item, push| {
///     processed.fetch_add(1, Ordering::Relaxed);
///     if item > 0 {
///         push(item - 1);
///     }
///     0 // edges examined
/// });
/// assert_eq!(processed.into_inner(), 4 + 3); // 3,2,1,0 and 2,1,0
/// ```
#[derive(Debug)]
pub struct ChunkedWorklist {
    pool: ThreadPool,
}

impl ChunkedWorklist {
    /// Creates a worklist executor over the given pool.
    pub fn new(pool: ThreadPool) -> Self {
        ChunkedWorklist { pool }
    }

    /// Processes `initial` and everything transitively pushed by `op` until
    /// the worklist drains. `op` receives the item and a `push` callback to
    /// add new work, and returns the number of edges it examined; work is
    /// processed in no particular order (asynchronous execution). Each
    /// worker counts its pushes, steals and examined edges locally and
    /// records them once, when it leaves the worklist.
    pub fn for_each<T, F>(&self, initial: Vec<T>, op: F)
    where
        T: Send,
        F: Fn(T, &mut dyn FnMut(T)) -> u64 + Sync,
    {
        let nthreads = self.pool.num_threads();
        if nthreads == 1 {
            // Asynchronous semantics degenerate to a FIFO loop. FIFO
            // matters: label-correcting operators (BFS/SSSP relaxations)
            // process items in near-priority order under FIFO but do
            // exponentially redundant work under LIFO on deep graphs.
            let mut queue = VecDeque::from(initial);
            let (mut pushes, mut edges) = (0u64, 0u64);
            while let Some(item) = queue.pop_front() {
                edges += op(item, &mut |v| {
                    pushes += 1;
                    queue.push_back(v);
                });
            }
            record_worker(pushes, 0, edges);
            return;
        }
        let pending = AtomicUsize::new(initial.len());
        let deques: Vec<Deque<T>> = (0..nthreads).map(|_| Deque::new()).collect();
        // Scatter the seed set round-robin so every thread starts busy.
        for (i, item) in initial.into_iter().enumerate() {
            deques[i % nthreads].push(item);
        }
        self.pool.run(|tid| {
            let local = &deques[tid];
            let (mut pushes, mut steals, mut edges) = (0u64, 0u64, 0u64);
            loop {
                let item = local.pop().or_else(|| {
                    let stolen = Self::steal(tid, local, &deques);
                    steals += u64::from(stolen.is_some());
                    stolen
                });
                match item {
                    Some(item) => {
                        let mut pushed = 0usize;
                        edges += op(item, &mut |v| {
                            local.push(v);
                            pushed += 1;
                        });
                        pushes += pushed as u64;
                        // One pop finished, `pushed` new items appeared.
                        if pushed > 0 {
                            pending.fetch_add(pushed, Ordering::SeqCst);
                        }
                        pending.fetch_sub(1, Ordering::SeqCst);
                    }
                    None => {
                        if pending.load(Ordering::SeqCst) == 0 {
                            break;
                        }
                        // Yield rather than spin: the test environment may
                        // multiplex more workers than cores.
                        std::thread::yield_now();
                    }
                }
            }
            record_worker(pushes, steals, edges);
        });
    }

    fn steal<T>(tid: usize, local: &Deque<T>, deques: &[Deque<T>]) -> Option<T> {
        for (i, victim) in deques.iter().enumerate() {
            if i == tid {
                continue;
            }
            if let Some(item) = victim.steal_batch_and_pop(local) {
                return Some(item);
            }
        }
        None
    }
}

/// One worker's totals, recorded once as it leaves the worklist.
fn record_worker(pushes: u64, steals: u64, edges: u64) {
    use gapbs_telemetry::{record, Counter};
    record(Counter::WorklistPushes, pushes);
    record(Counter::WorklistSteals, steals);
    record(Counter::EdgesExamined, edges);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn worklist(threads: usize) -> ChunkedWorklist {
        ChunkedWorklist::new(ThreadPool::new(threads))
    }

    #[test]
    fn drains_initial_items() {
        for threads in [1, 4] {
            let count = AtomicUsize::new(0);
            worklist(threads).for_each((0..100u32).collect(), |_, _| {
                count.fetch_add(1, Ordering::Relaxed);
                0
            });
            assert_eq!(count.into_inner(), 100, "threads={threads}");
        }
    }

    #[test]
    fn transitive_pushes_are_processed() {
        for threads in [1, 4] {
            // Each item k spawns k-1 .. 0, so item 5 yields 6 pops.
            let count = AtomicUsize::new(0);
            worklist(threads).for_each(vec![5u32], |item, push| {
                count.fetch_add(1, Ordering::Relaxed);
                if item > 0 {
                    push(item - 1);
                }
                0
            });
            assert_eq!(count.into_inner(), 6, "threads={threads}");
        }
    }

    #[test]
    fn empty_initial_set_terminates() {
        worklist(4).for_each(Vec::<u32>::new(), |_, _| panic!("no work expected"));
    }

    #[test]
    fn fan_out_work_is_all_seen() {
        // BFS-like fan-out: every item < 1000 pushes 2 children; count
        // total pops against the closed-form tree size.
        for threads in [1, 4] {
            let count = AtomicUsize::new(0);
            worklist(threads).for_each(vec![1u32], |item, push| {
                count.fetch_add(1, Ordering::Relaxed);
                let l = item * 2;
                let r = item * 2 + 1;
                if l < 64 {
                    push(l);
                }
                if r < 64 {
                    push(r);
                }
                0
            });
            assert_eq!(count.into_inner(), 63, "threads={threads}");
        }
    }

    #[test]
    fn steal_moves_batches_to_the_thief() {
        let victim = Deque::new();
        let thief = Deque::new();
        for i in 0..10u32 {
            victim.push(i);
        }
        let got = victim.steal_batch_and_pop(&thief);
        assert!(got.is_some());
        // Half of ten taken: one returned, four relocated.
        assert_eq!(thief.items.lock().len(), 4);
        assert_eq!(victim.items.lock().len(), 5);
    }
}
