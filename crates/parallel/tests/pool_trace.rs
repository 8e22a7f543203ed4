//! Pool region and steal trace events.
//!
//! Trace sessions are process-global, so this check lives in a test
//! binary of its own: a pool run by any concurrent test in the same
//! process would land its regions in this session.

use gapbs_parallel::{Schedule, ThreadPool};
use gapbs_telemetry::trace::{self, EventKind};

#[test]
fn regions_and_steals_land_in_the_trace() {
    let pool = ThreadPool::new(3);
    // Warm the team up outside the session so spawn noise stays out.
    pool.run(|_| {});
    trace::start(std::time::Duration::ZERO);
    pool.for_each_index(1000, Schedule::Dynamic(1), |i| {
        // Skew so late workers steal.
        if i < 64 {
            std::hint::black_box((0..2000).sum::<usize>());
        }
    });
    let t = trace::stop();
    let regions: Vec<u32> = t
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Region { worker, .. } => Some(worker),
            _ => None,
        })
        .collect();
    assert_eq!(regions.len(), 3, "one region event per worker: {regions:?}");
    for worker in 0..3 {
        assert!(regions.contains(&worker), "worker {worker} missing");
    }
    assert!(
        t.events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Steal { .. })),
        "skewed Dynamic(1) loop should record at least one steal"
    );
}
