//! Degree-aware destination strips for pull-direction kernels.
//!
//! A pull sweep (`bottom_up_step`, PageRank's in-edge accumulation, grb's
//! `mxv`) writes each destination vertex exactly once but streams that
//! vertex's whole in-edge row. Scheduling such sweeps in fixed-size vertex
//! chunks makes chunk cost track *degree*, not count — on power-law graphs
//! one hub-heavy chunk straggles while dozens of leaf chunks finish
//! instantly, and the per-chunk working set (destination window + its
//! in-edge span) can blow past the LLC.
//!
//! [`Strips`] instead partitions the destination range by *in-edge mass*:
//! every strip spans roughly the same number of in-edges (found by binary
//! search over the CSR offsets — the GraphMat-style partitioning argument
//! from the related work), sized so a strip's streamed row bytes plus its
//! resident destination window fit an LLC budget. Strip boundaries depend
//! only on the graph, never on the thread count, and every destination is
//! written by exactly one strip — so strip-scheduled sweeps stay
//! bit-identical across thread counts and schedules.

use crate::csr::CsrGraph;
use crate::types::NodeId;
use std::ops::Range;

/// Per-strip byte budget for the streamed in-edge targets plus the
/// resident destination window: 2 MiB, half of a typical per-core LLC
/// slice, leaving room for the source-side array the sweep reads through.
pub(crate) const STRIP_BYTES: usize = 2 << 20;

/// Bytes each in-edge target contributes to the streamed working set.
const BYTES_PER_EDGE: usize = std::mem::size_of::<NodeId>();

/// A degree-aware partition of a destination vertex range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Strips {
    /// Strictly increasing vertex boundaries; strip `s` covers
    /// `bounds[s]..bounds[s + 1]`.
    bounds: Vec<u32>,
}

impl Strips {
    /// Partitions the destinations of `csr` (the *in*-adjacency a pull
    /// kernel walks) into strips of roughly `STRIP_BYTES` streamed
    /// bytes each.
    pub fn pull(csr: &CsrGraph) -> Self {
        Strips::with_budget(csr, STRIP_BYTES)
    }

    /// [`Strips::pull`] with an explicit byte budget (small budgets let
    /// tests exercise many strips on small graphs).
    fn with_budget(csr: &CsrGraph, budget_bytes: usize) -> Self {
        let offsets = csr.offsets_raw();
        Self::build(
            csr.num_vertices(),
            csr.num_edges(),
            budget_bytes,
            |target| offsets.partition_point(|&o| o as usize <= target) - 1,
        )
    }

    /// [`Strips::pull`] over raw `u64` row offsets, for CSR-shaped
    /// structures outside this crate (grb's `GrbMatrix` keeps 64-bit
    /// offsets as the paper's index-width tax).
    pub fn pull_offsets(offsets: &[u64]) -> Self {
        let n = offsets.len().saturating_sub(1);
        let m = offsets.last().copied().unwrap_or(0) as usize;
        Self::build(n, m, STRIP_BYTES, |target| {
            offsets.partition_point(|&o| o as usize <= target) - 1
        })
    }

    fn build(
        n: usize,
        m: usize,
        budget_bytes: usize,
        last_row_at_or_before: impl Fn(usize) -> usize,
    ) -> Self {
        let edges_per_strip = (budget_bytes / BYTES_PER_EDGE).max(1);
        let num_strips = m.div_ceil(edges_per_strip).max(1);
        let mut bounds = Vec::with_capacity(num_strips + 1);
        bounds.push(0u32);
        for s in 1..num_strips {
            let target = s * edges_per_strip;
            // Last vertex whose row starts at or before the edge target:
            // strips inherit the row structure, so a single huge row is
            // never split (it simply owns its strip).
            let v = last_row_at_or_before(target);
            let v = (v as u32).min(n as u32);
            if v > *bounds.last().expect("non-empty") {
                bounds.push(v);
            }
        }
        if *bounds.last().expect("non-empty") < n as u32 || n == 0 {
            bounds.push(n as u32);
        }
        Strips { bounds }
    }

    /// Number of strips.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// `true` when the partition covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.bounds.len() < 2 || *self.bounds.last().expect("non-empty") == 0
    }

    /// The destination range of strip `s`.
    #[inline]
    pub fn range(&self, s: usize) -> Range<usize> {
        self.bounds[s] as usize..self.bounds[s + 1] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn cover_and_disjoint(strips: &Strips, n: usize) {
        let mut next = 0usize;
        for s in 0..strips.len() {
            let r = strips.range(s);
            assert_eq!(
                r.start,
                next,
                "strip {s} must start where {} ended",
                s.max(1) - 1
            );
            assert!(r.end > r.start, "strip {s} must be non-empty");
            next = r.end;
        }
        assert_eq!(next, n, "strips must cover every destination");
    }

    #[test]
    fn strips_partition_every_graph_shape() {
        for g in [
            gen::kron(10, 16, 7),
            gen::urand(10, 8, 3),
            gen::road(&gen::RoadConfig::gap_like(24), 1),
        ] {
            let strips = Strips::with_budget(g.in_csr(), 4 << 10);
            cover_and_disjoint(&strips, g.num_vertices());
        }
    }

    #[test]
    fn strip_edge_mass_is_balanced() {
        let g = gen::kron(11, 16, 5);
        let csr = g.in_csr();
        let budget_edges = (8 << 10) / std::mem::size_of::<NodeId>();
        let strips = Strips::with_budget(csr, 8 << 10);
        assert!(strips.len() > 1, "scale-11 kron must need several strips");
        let max_row: usize = g.vertices().map(|v| csr.degree(v)).max().unwrap();
        for s in 0..strips.len() {
            let edges: usize = strips.range(s).map(|v| csr.degree(v as u32)).sum();
            // A strip never exceeds the budget by more than one row (rows
            // are never split).
            assert!(
                edges <= budget_edges + max_row,
                "strip {s} carries {edges} edges vs budget {budget_edges} + row {max_row}"
            );
        }
    }

    #[test]
    fn empty_graph_yields_empty_partition() {
        let strips = Strips::pull_offsets(&[0]);
        assert!(strips.is_empty());
        assert_eq!(strips.len(), 1);
        assert_eq!(strips.range(0), 0..0);
    }
}
