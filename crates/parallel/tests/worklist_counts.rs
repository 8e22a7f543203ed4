//! The counts the worklists and the bucket filing record.
//!
//! The counter registry is process-global, so these checks live in a test
//! binary of their own, with every kernel run inside `capture`.

use gapbs_parallel::buckets::file_relaxations;
use gapbs_parallel::{ChunkedWorklist, OrderedWorklist, ThreadPool};
use gapbs_telemetry::{capture, Counter};

/// Both worklists sum what their operators report and record it once per
/// worker, so the totals are exact at any thread count.
#[test]
fn worklists_record_exact_totals_at_any_thread_count() {
    // A binary tree over 1..64: 63 items, 62 pushes, 2 "edges" per item.
    let children = |item: u32| [2 * item, 2 * item + 1].into_iter().filter(|&c| c < 64);
    for threads in [1, 3] {
        let pool = ThreadPool::new(threads);
        let ((), chunked) = capture(|| {
            ChunkedWorklist::new(pool.clone()).for_each(vec![1u32], |item, push| {
                children(item).for_each(&mut *push);
                2
            })
        });
        assert_eq!(
            chunked.get(Counter::EdgesExamined),
            126,
            "threads={threads}"
        );
        assert_eq!(
            chunked.get(Counter::WorklistPushes),
            62,
            "threads={threads}"
        );
        let ((), ordered) = capture(|| {
            OrderedWorklist::new(pool.clone()).for_each(vec![(0usize, 1u32)], |item, push| {
                children(item).for_each(|c| push(c as usize, c));
                2
            })
        });
        assert_eq!(
            ordered.get(Counter::EdgesExamined),
            126,
            "threads={threads}"
        );
    }
}

/// One wave's relaxations and re-relaxations are recorded once each.
#[test]
fn bucket_filing_counts_relaxations_and_stale_levels() {
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); 3];
    let ((), counts) = capture(|| file_relaxations(&mut buckets, 2, vec![(0, 7), (2, 8), (5, 9)]));
    assert_eq!(counts.get(Counter::BucketRelaxations), 3);
    assert_eq!(counts.get(Counter::BucketReRelaxations), 1);
}
