//! Delta-stepping bucket filing, shared by the bulk-synchronous SSSP
//! kernels of the frameworks.
//!
//! A drain wave of delta-stepping produces `(bucket, vertex)` pairs for
//! every improved distance; between parallel rounds the coordinator files
//! them into a growable array of buckets. A pair aimed at a bucket that
//! is already finished lands in the current one instead: that is a
//! re-relaxation, work the round in progress has to redo.

use gapbs_telemetry::{record, Counter};

/// Files `items` into `buckets`, growing the array as needed and clamping
/// levels below `current` up to `current`. Records the wave's
/// `bucket_relaxations` and `bucket_re_relaxations` once.
pub fn file_relaxations<T>(buckets: &mut Vec<Vec<T>>, current: usize, items: Vec<(usize, T)>) {
    let relaxations = items.len() as u64;
    let mut stale = 0u64;
    for (level, item) in items {
        stale += u64::from(level < current);
        let level = level.max(current);
        if buckets.len() <= level {
            buckets.resize_with(level + 1, Vec::new);
        }
        buckets[level].push(item);
    }
    record(Counter::BucketRelaxations, relaxations);
    record(Counter::BucketReRelaxations, stale);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn files_by_level_and_grows_the_array() {
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new()];
        file_relaxations(&mut buckets, 0, vec![(2, 20), (0, 1), (2, 21)]);
        assert_eq!(buckets, vec![vec![1], vec![], vec![20, 21]]);
    }

    #[test]
    fn stale_levels_clamp_to_the_current_bucket() {
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(), Vec::new(), Vec::new()];
        file_relaxations(&mut buckets, 2, vec![(0, 7), (1, 8), (3, 9)]);
        assert_eq!(buckets, vec![vec![], vec![], vec![7, 8], vec![9]]);
    }
}
