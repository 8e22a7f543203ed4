//! OBIM-style ordered worklist: asynchronous execution with *approximate*
//! priority order.
//!
//! Galois' signature scheduler (the "obim" in its SSSP) keeps one bag of
//! work per priority level; threads always draw from the lowest non-empty
//! bag but never synchronize globally, so execution stays asynchronous
//! while work-efficiency approaches that of a strict priority queue. This
//! is what lets asynchronous delta-stepping avoid both barrier costs *and*
//! the redundant relaxations a plain FIFO/LIFO worklist does.

use crate::pool::ThreadPool;
use crate::sync::{Mutex, RwLock};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Items drawn per lock acquisition.
const CHUNK: usize = 64;

/// An asynchronous priority-bucketed worklist executor.
///
/// # Example
///
/// Items are processed in approximate ascending priority; pushes may
/// target any priority at or above the current one.
///
/// ```
/// use gapbs_parallel::{OrderedWorklist, ThreadPool};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let processed = AtomicUsize::new(0);
/// let wl = OrderedWorklist::new(ThreadPool::new(2));
/// wl.for_each(vec![(0usize, 10u32)], |item, push| {
///     processed.fetch_add(1, Ordering::Relaxed);
///     if item > 0 {
///         push(1, item - 1);
///     }
///     0 // edges examined
/// });
/// assert_eq!(processed.into_inner(), 11);
/// ```
#[derive(Debug)]
pub struct OrderedWorklist {
    pool: ThreadPool,
}

impl OrderedWorklist {
    /// Creates an executor over the given pool.
    pub fn new(pool: ThreadPool) -> Self {
        OrderedWorklist { pool }
    }

    /// Processes `initial` `(priority, item)` pairs and everything
    /// transitively pushed by `op`, drawing from the lowest non-empty
    /// priority bucket. Priorities of pushed work may be any level; the
    /// scheduler is *approximate*, so an item pushed below the level a
    /// thread is currently draining may be processed "late" — operators
    /// must tolerate out-of-order application (label-correcting
    /// operators do). `op` returns the number of edges it examined; each
    /// worker records its total once, when it leaves the worklist.
    pub fn for_each<T, F>(&self, initial: Vec<(usize, T)>, op: F)
    where
        T: Send,
        F: Fn(T, &mut dyn FnMut(usize, T)) -> u64 + Sync,
    {
        use gapbs_telemetry::{record, Counter};
        let buckets = Buckets::new();
        let pending = AtomicUsize::new(initial.len());
        for (priority, item) in initial {
            buckets.push(priority, item);
        }
        if self.pool.num_threads() == 1 {
            // Sequential: exact priority order.
            let mut local: Vec<(usize, T)> = Vec::new();
            let mut edges = 0u64;
            while let Some(batch) = buckets.pop_chunk() {
                for item in batch {
                    edges += op(item, &mut |p, v| local.push((p, v)));
                    for (p, v) in local.drain(..) {
                        buckets.push(p, v);
                    }
                }
            }
            record(Counter::EdgesExamined, edges);
            return;
        }
        self.pool.run(|_| {
            let mut local: Vec<(usize, T)> = Vec::new();
            let mut edges = 0u64;
            loop {
                match buckets.pop_chunk() {
                    Some(batch) => {
                        let taken = batch.len();
                        let mut produced = 0usize;
                        for item in batch {
                            edges += op(item, &mut |p, v| {
                                local.push((p, v));
                                produced += 1;
                            });
                            for (p, v) in local.drain(..) {
                                buckets.push(p, v);
                            }
                        }
                        if produced > 0 {
                            pending.fetch_add(produced, Ordering::SeqCst);
                        }
                        pending.fetch_sub(taken, Ordering::SeqCst);
                    }
                    None => {
                        if pending.load(Ordering::SeqCst) == 0 {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            }
            record(Counter::EdgesExamined, edges);
        });
    }
}

/// Growable array of priority bags with a lowest-non-empty hint.
#[derive(Debug)]
struct Buckets<T> {
    bags: RwLock<Vec<Mutex<Vec<T>>>>,
    /// Lower bound on the lowest non-empty level (may lag reality).
    floor: AtomicUsize,
}

impl<T> Buckets<T> {
    fn new() -> Self {
        Buckets {
            bags: RwLock::new(Vec::new()),
            floor: AtomicUsize::new(0),
        }
    }

    fn push(&self, priority: usize, item: T) {
        {
            let bags = self.bags.read();
            if let Some(bag) = bags.get(priority) {
                bag.lock().push(item);
                // Pushing below the hint lowers it again.
                self.floor.fetch_min(priority, Ordering::Relaxed);
                return;
            }
        }
        let mut bags = self.bags.write();
        while bags.len() <= priority {
            bags.push(Mutex::new(Vec::new()));
        }
        bags[priority].lock().push(item);
        self.floor.fetch_min(priority, Ordering::Relaxed);
    }

    /// Takes up to [`CHUNK`] items from the lowest non-empty bag.
    fn pop_chunk(&self) -> Option<Vec<T>> {
        let bags = self.bags.read();
        let start = self.floor.load(Ordering::Relaxed).min(bags.len());
        for level in start..bags.len() {
            let mut bag = bags[level].lock();
            if bag.is_empty() {
                continue;
            }
            // Advance the hint opportunistically (approximate by design).
            self.floor.store(level, Ordering::Relaxed);
            let take = bag.len().min(CHUNK);
            let rest = bag.len() - take;
            return Some(bag.split_off(rest));
        }
        // Everything at or above the hint was empty; reset the hint in
        // case a concurrent push landed below it.
        self.floor.store(0, Ordering::Relaxed);
        // One more sweep from zero to be sure.
        for bag in bags.iter() {
            let mut bag = bag.lock();
            if !bag.is_empty() {
                let take = bag.len().min(CHUNK);
                let rest = bag.len() - take;
                return Some(bag.split_off(rest));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn processes_all_initial_items() {
        for threads in [1, 4] {
            let count = AtomicUsize::new(0);
            let wl = OrderedWorklist::new(ThreadPool::new(threads));
            wl.for_each(
                (0..200usize).map(|i| (i % 7, i as u32)).collect(),
                |_, _| {
                    count.fetch_add(1, Ordering::Relaxed);
                    0
                },
            );
            assert_eq!(count.into_inner(), 200, "threads={threads}");
        }
    }

    #[test]
    fn transitive_pushes_drain() {
        for threads in [1, 4] {
            let count = AtomicUsize::new(0);
            let wl = OrderedWorklist::new(ThreadPool::new(threads));
            wl.for_each(vec![(0usize, 6u32)], |item, push| {
                count.fetch_add(1, Ordering::Relaxed);
                if item > 0 {
                    push(item as usize, item - 1);
                }
                0
            });
            assert_eq!(count.into_inner(), 7, "threads={threads}");
        }
    }

    #[test]
    fn sequential_execution_respects_priority_order() {
        // With one thread and no pushes, items come out lowest-level
        // first (within a level, order is unspecified).
        let seen = Mutex::new(Vec::new());
        let wl = OrderedWorklist::new(ThreadPool::new(1));
        wl.for_each(
            vec![(3usize, 3u32), (1, 1), (2, 2), (0, 0), (1, 11)],
            |item, _| {
                seen.lock().push(item);
                0
            },
        );
        let seen = seen.into_inner();
        let levels: Vec<u32> = seen.iter().map(|&x| x % 10).collect();
        let mut sorted = levels.clone();
        sorted.sort_unstable();
        assert_eq!(levels, sorted, "priority order violated: {seen:?}");
    }

    #[test]
    fn empty_initial_terminates() {
        let wl = OrderedWorklist::new(ThreadPool::new(4));
        wl.for_each(Vec::<(usize, u32)>::new(), |_, _| panic!("no work"));
    }

    #[test]
    fn pushes_below_current_level_are_still_processed() {
        // An item at level 5 pushes work at level 1; the hint must fall
        // back so the level-1 item is not lost.
        let count = AtomicUsize::new(0);
        let wl = OrderedWorklist::new(ThreadPool::new(2));
        wl.for_each(vec![(5usize, 100u32)], |item, push| {
            count.fetch_add(1, Ordering::Relaxed);
            if item == 100 {
                push(1, 1);
            }
            0
        });
        assert_eq!(count.into_inner(), 2);
    }
}
