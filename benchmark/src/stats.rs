//! The benchmark's own arithmetic: order statistics, the tail rule,
//! geometric mean and the per-class summaries every workload reports.

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted values.
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a bug in the
/// workload, not a number to report.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Quartile `k` (1..=3) as Python's `statistics.quantiles(values, n=4)`
/// computes it (the exclusive method), which is what the driver uses for
/// the spread of a metric over ten runs.
pub fn quartile(values: &[f64], k: usize) -> f64 {
    assert!(values.len() >= 2 && (1..=3).contains(&k));
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    let j = (k * (m + 1) / 4).clamp(1, m - 1);
    let delta = (k * (m + 1)) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// The highest whole percentile (at most 99) that still has at least ten
/// samples beyond it, or `None` below twenty samples, where not even the
/// median has ten on each side.
pub fn tail_percentile(samples: usize) -> Option<u32> {
    if samples < 20 {
        return None;
    }
    let p = (100.0 * (1.0 - 10.0 / samples as f64)).floor() as u32;
    Some(p.clamp(50, 99))
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    (values
        .iter()
        .map(|v| v.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / values.len() as f64)
        .exp()
}

/// One timed operation: a kernel trial or a served request, tagged with
/// the class (cell or query class) it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the workload's class table.
    pub class: usize,
    /// Latency in milliseconds.
    pub ms: f64,
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// One summary per class of a sample set, as `(class, summary)`; classes
/// without samples are skipped.
///
/// The end-to-end class metrics summarise with [`mean`], not [`median`]:
/// the trials of a cell differ by source and the replies of a query class
/// by what the other connection happens to run, and the mean averages
/// over both where the median of three samples, or of a two-mode mixture,
/// jumps between them (over eight seeds the sum of class means spread by
/// 2.4 % on `matrix_medium` and 11 % on `serve_batch`, of medians by
/// 4.3 % and 17 %). The single-threaded stage replay has no such
/// mixture and keeps the median, which shrugs off a host hiccup.
pub fn by_class(
    samples: &[Sample],
    classes: usize,
    summarize: fn(&[f64]) -> f64,
) -> Vec<(usize, f64)> {
    let mut by_class: Vec<Vec<f64>> = vec![Vec::new(); classes];
    for s in samples {
        by_class[s.class].push(s.ms);
    }
    by_class
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .map(|(c, v)| (c, summarize(v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_counts_and_ignores_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 100.0), 5.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 25.0), 2.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartile(&v, 1), 2.75);
        assert_eq!(quartile(&v, 2), 5.5);
        assert_eq!(quartile(&v, 3), 8.25);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartile(&[2.0, 1.0], 1), 0.75);
        assert_eq!(quartile(&[2.0, 1.0], 3), 2.25);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_percentile(7000), Some(99));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        for n in [20usize, 57, 360, 1234, 7000] {
            let p = tail_percentile(n).unwrap();
            let beyond = n as f64 * (1.0 - f64::from(p) / 100.0);
            assert!(
                beyond >= 10.0 || p == 99,
                "{n} samples, p{p}: {beyond} beyond"
            );
        }
    }

    #[test]
    fn geomean_weighs_small_and_large_values_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[0.5, 2.0, 4.0, 0.25]) - 1.0).abs() < 1e-9);
        // Halving the smallest value moves it as much as halving the largest.
        let base = geomean(&[0.1, 10.0, 1000.0]);
        let a = geomean(&[0.05, 10.0, 1000.0]);
        let b = geomean(&[0.1, 10.0, 500.0]);
        assert!((a / base - b / base).abs() < 1e-12);
    }

    #[test]
    fn by_class_groups_samples_and_skips_empty_classes() {
        let samples = [
            Sample { class: 0, ms: 1.0 },
            Sample { class: 2, ms: 9.0 },
            Sample { class: 0, ms: 3.0 },
            Sample { class: 2, ms: 2.0 },
            Sample { class: 2, ms: 7.0 },
        ];
        assert_eq!(by_class(&samples, 3, mean), vec![(0, 2.0), (2, 6.0)]);
        assert_eq!(by_class(&samples, 3, median), vec![(0, 2.0), (2, 7.0)]);
    }
}
