//! The Baseline-mode topology heuristic (§V): sample vertex degrees to
//! decide whether the graph has a power-law degree distribution, and
//! *assume* low diameter if it does, high diameter otherwise.
//!
//! The paper highlights that this guess is wrong for Urand — uniform
//! degrees but low diameter — which is why Baseline Galois BFS on Urand is
//! slow (8.93% of GAP) while the Optimized run, which knows the diameter,
//! recovers to 77.85%.

use gapbs_graph::types::NodeId;
use gapbs_graph::Graph;

/// Which execution style the heuristic selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionStyle {
    /// Bulk-synchronous rounds (assumed-low-diameter graphs).
    BulkSynchronous,
    /// Asynchronous worklist (assumed-high-diameter graphs).
    Asynchronous,
}

/// Samples out-degrees and classifies the execution style for Baseline
/// mode: power-law degrees → bulk-synchronous, otherwise asynchronous.
pub fn classify(g: &Graph) -> ExecutionStyle {
    if has_power_law_degrees(g) {
        ExecutionStyle::BulkSynchronous
    } else {
        ExecutionStyle::Asynchronous
    }
}

/// Degree-sampling power-law detector (similar to GAP's TC sampling).
pub(crate) fn has_power_law_degrees(g: &Graph) -> bool {
    let n = g.num_vertices();
    if n < 16 {
        return false;
    }
    let sample_size = 1000.min(n);
    let stride = (n / sample_size).max(1);
    let mut sample: Vec<usize> = (0..n)
        .step_by(stride)
        .take(sample_size)
        .map(|u| g.out_degree(u as NodeId))
        .collect();
    sample.sort_unstable();
    let median = sample[sample.len() / 2].max(1);
    let p99 = sample[sample.len() * 99 / 100];
    // Heavy tail: the 99th percentile dwarfs the median.
    p99 >= 8 * median
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::gen;

    #[test]
    fn kron_is_power_law_hence_bulk_synchronous() {
        let g = gen::kron(11, 16, 3);
        assert_eq!(classify(&g), ExecutionStyle::BulkSynchronous);
    }

    #[test]
    fn road_is_flat_hence_asynchronous() {
        let g = gen::road(&gen::RoadConfig::gap_like(40), 3);
        assert_eq!(classify(&g), ExecutionStyle::Asynchronous);
    }

    #[test]
    fn urand_misclassifies_as_asynchronous() {
        // The paper's point: uniform degrees look "high diameter" to the
        // sampler even though Urand's diameter is tiny.
        let g = gen::urand(11, 16, 3);
        assert_eq!(classify(&g), ExecutionStyle::Asynchronous);
    }
}
