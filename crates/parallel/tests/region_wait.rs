//! The pool's spin-then-park region wait and inline sub-chunk loops,
//! driven through the public API the way kernels and the serve daemon
//! drive them. Team sizes 7 and 16 oversubscribe any small host, which is
//! where a waiter exhausts its poll budget mid-sequence and polling and
//! parked workers mix.

use gapbs_parallel::barrier::POLL_BUDGET;
use gapbs_parallel::{PerWorker, Schedule, ThreadPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Runs `f` on its own thread and fails the test instead of hanging it
/// if `f` has not returned within `limit` — a lost wake is a deadlock.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("no result within {limit:?}: deadlock or lost wake"))
}

#[test]
fn exactly_once_and_back_to_back_visibility_at_every_team_size() {
    for threads in [2, 7, 16] {
        within(Duration::from_secs(120), move || {
            let pool = ThreadPool::new(threads);
            let n = 193;
            let cells: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            for round in 0..300 {
                // Region k reads what region k-1 wrote through relaxed
                // atomics: only the barrier orders them.
                pool.for_each_index(n, Schedule::Dynamic(4), |i| {
                    let seen = cells[i].load(Ordering::Relaxed);
                    assert_eq!(seen, round, "threads={threads}: index {i} lost a region");
                    cells[i].store(seen + 1, Ordering::Relaxed);
                });
                if round % 64 == 0 {
                    // Let the team park now and then, so releases reach
                    // both polling and sleeping workers.
                    std::thread::sleep(POLL_BUDGET * 10);
                }
            }
            let ran = AtomicUsize::new(0);
            pool.run(|tid| {
                ran.fetch_add(tid + 1, Ordering::Relaxed);
            });
            assert_eq!(ran.into_inner(), threads * (threads + 1) / 2);
            assert_eq!(pool.stats().regions, 301);
        });
    }
}

#[test]
fn two_callers_share_one_pool_through_inline_and_full_regions() {
    // The serve pattern: two handler threads, one pool, a mix of loops
    // that need the team (serialised by the leader lock) and sub-chunk
    // loops that run inline on whichever handler called.
    const REGIONS: usize = 10_000;
    within(Duration::from_secs(300), || {
        let pool = ThreadPool::new(4);
        let handles: Vec<_> = (0..2)
            .map(|caller| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for r in 0..REGIONS / 2 {
                        let n = if (r + caller) % 3 == 0 {
                            400
                        } else {
                            1 + r % 64
                        };
                        let sum =
                            pool.reduce_index(n, Schedule::Dynamic(64), 0, |i| i, |a, b| a + b);
                        assert_eq!(sum, n * (n - 1) / 2, "caller {caller} round {r}");
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(pool.stats().regions, REGIONS as u64);
    });
}

#[test]
fn a_panicking_body_reaches_the_leader_and_the_next_region_runs() {
    within(Duration::from_secs(60), || {
        let pool = ThreadPool::new(3);
        // Warm the team so the workers are polling, not parked, when the
        // panicking region is released.
        pool.run(|_| {});
        for culprit in [2, 0] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.run(|tid| {
                    if tid == culprit {
                        panic!("boom in {tid}");
                    }
                });
            }));
            assert!(
                result.is_err(),
                "panic in tid {culprit} must reach the caller"
            );
            let sum = AtomicUsize::new(0);
            pool.for_each_index(100, Schedule::Dynamic(8), |i| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
            assert_eq!(
                sum.into_inner(),
                4950,
                "pool unusable after panic in tid {culprit}"
            );
        }
        // An inline loop's panic is the caller's own.
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_index(4, Schedule::Dynamic(64), |_| panic!("inline boom"));
        }));
        assert!(result.is_err());
        pool.run(|_| {});
    });
}

#[test]
fn drop_is_prompt_whether_workers_poll_or_are_parked() {
    for settle in [Duration::ZERO, POLL_BUDGET * 100] {
        let pool = ThreadPool::new(7);
        pool.run(|_| {});
        // Zero: the team is still inside its poll window. Otherwise it
        // has parked on the condvar.
        std::thread::sleep(settle);
        let start = Instant::now();
        drop(pool);
        let took = start.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "drop after settling {settle:?} took {took:?}"
        );
    }
}

#[test]
fn an_idle_pool_parks_its_workers_within_10ms() {
    let pool = ThreadPool::new(4);
    for _ in 0..100 {
        pool.run(|_| {});
    }
    let before = pool.stats().parks;
    // This region wakes whoever parked so far, so each of the three
    // workers must park once more for the pool to go quiet.
    pool.run(|_| {});
    std::thread::sleep(Duration::from_millis(10));
    // Every worker gave up polling and is blocked on the condvar: an
    // idle daemon's pool burns no CPU. (The loop is for a loaded host
    // that schedules a worker late; 10 ms is 100 poll budgets.)
    let deadline = Instant::now() + Duration::from_secs(10);
    while pool.stats().parks < before + 3 {
        assert!(
            Instant::now() < deadline,
            "workers still polling: {:?}",
            pool.stats()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let parked = pool.stats().parks;
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(
        pool.stats().parks,
        parked,
        "a parked worker must stay parked while idle"
    );
    // ...and the parked team still answers.
    let sum = AtomicUsize::new(0);
    pool.run(|tid| {
        sum.fetch_add(tid, Ordering::Relaxed);
    });
    assert_eq!(sum.into_inner(), 6);
}

#[test]
fn inline_sub_chunk_loops_match_the_one_thread_pool() {
    let serial = ThreadPool::new(1);
    let pool = ThreadPool::new(4);
    // Order-sensitive fold: any split across workers changes the result.
    let chain = |p: &ThreadPool, n: usize, chunk: usize| {
        p.reduce_index(
            n,
            Schedule::Dynamic(chunk),
            1u64,
            |i| i as u64 + 1,
            |a, b| a.wrapping_mul(31).wrapping_add(b),
        )
    };
    let spill = |p: &ThreadPool, n: usize, chunk: usize| {
        let buffers: PerWorker<Vec<usize>> = PerWorker::with_default(p.num_threads());
        p.for_each_index_tid(n, Schedule::Dynamic(chunk), |tid, i| {
            // SAFETY: slot `tid` is exclusive to the body running as `tid`.
            unsafe { buffers.get_mut(tid) }.push(i);
        });
        buffers.into_inner()
    };
    for (n, chunk) in [(1, 1), (1, 64), (63, 64), (64, 64), (1, 0)] {
        let regions = pool.stats().regions;
        assert_eq!(
            chain(&pool, n, chunk),
            chain(&serial, n, chunk),
            "n={n} chunk={chunk}"
        );
        let buffers = spill(&pool, n, chunk);
        // Everything lands in tid 0's buffer, in index order, as on the
        // 1-thread pool; the other workers' buffers stay empty.
        assert_eq!(
            buffers[0],
            spill(&serial, n, chunk)[0],
            "n={n} chunk={chunk}"
        );
        assert!(
            buffers[1..].iter().all(Vec::is_empty),
            "n={n} chunk={chunk}"
        );
        assert_eq!(
            pool.stats().regions,
            regions + 2,
            "inline loops still count"
        );
    }
    assert_eq!(
        pool.stats().parks,
        0,
        "inline loops never touch the team's barrier"
    );
    // One index past the chunk is a real region again and still correct.
    let mut all: Vec<usize> = spill(&pool, 65, 64).into_iter().flatten().collect();
    all.sort_unstable();
    assert_eq!(all, (0..65).collect::<Vec<_>>());
}
