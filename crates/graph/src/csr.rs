//! Compressed sparse row adjacency structures.
//!
//! A [`CsrGraph`] stores one direction of adjacency (all out-neighbors, or
//! all in-neighbors) of a graph. Adjacency lists are sorted by destination
//! and duplicate-free — the construction invariant the paper notes every
//! evaluated framework maintains.
//!
//! Row offsets are `u32`, like the targets: every graph the repo builds,
//! loads or times has fewer than `u32::MAX` arcs, and the 32-bit offset
//! array halves the bytes touched per row lookup. The builder, the binary
//! reader and the snapshot loader reject inputs past that limit with a
//! structured error. The paper's 64-bit index tax is reproduced by
//! `gapbs-grb`'s `GrbIndex = u64`, not here.

use crate::segment::Segment;
use crate::types::{NodeId, Weight};

/// One direction of adjacency in compressed sparse row form.
///
/// `offsets` has `num_vertices() + 1` entries; the neighbors of vertex `u`
/// occupy `targets[offsets[u]..offsets[u + 1]]`, sorted ascending with no
/// duplicates.
///
/// The arrays are `Segment`s: owned vectors when built from an edge
/// list, zero-copy views when loaded from an mmap'ed snapshot. Equality
/// and cloning follow the element contents either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Segment<u32>,
    targets: Segment<NodeId>,
}

/// Checks every CSR invariant on `(offsets, targets)`: monotone offsets
/// starting at 0 and ending at `targets.len()`, sorted duplicate-free
/// rows, in-range targets. O(V + E). Returns the first violation as a
/// message; debug builds panic on it, the snapshot loader's paranoid
/// mode surfaces it as a structured error.
pub(crate) fn check_parts(offsets: &[u32], targets: &[NodeId]) -> Result<(), String> {
    if offsets.is_empty() {
        return Err("offsets must have at least one entry".to_string());
    }
    if offsets[0] != 0 {
        return Err("offsets must start at 0".to_string());
    }
    let last = *offsets.last().expect("non-empty") as usize;
    if last != targets.len() {
        return Err(format!(
            "offsets must end at targets.len() ({last} != {})",
            targets.len()
        ));
    }
    let n = offsets.len() - 1;
    for w in offsets.windows(2) {
        if w[0] > w[1] {
            return Err("offsets must be monotone".to_string());
        }
    }
    for u in 0..n {
        let row = &targets[offsets[u] as usize..offsets[u + 1] as usize];
        for pair in row.windows(2) {
            if pair[0] >= pair[1] {
                return Err(format!(
                    "adjacency list of {u} must be sorted and duplicate-free"
                ));
            }
        }
        if let Some(&last) = row.last() {
            if last as usize >= n {
                return Err(format!("target {last} out of range"));
            }
        }
    }
    Ok(())
}

/// Panics unless `(offsets, targets)` satisfy every CSR invariant (see
/// [`check_parts`]).
#[cfg(any(test, debug_assertions))]
fn validate_parts(offsets: &[u32], targets: &[NodeId]) {
    if let Err(msg) = check_parts(offsets, targets) {
        panic!("{msg}");
    }
}

impl CsrGraph {
    /// Builds a CSR from raw parts, validating every invariant: the
    /// hand-written fixtures of the unit tests. Construction paths use
    /// [`Self::from_parts_unchecked`]; untrusted bytes enter only through
    /// the snapshot loader, which reports violations as errors.
    ///
    /// # Panics
    ///
    /// Panics if the offsets are not monotone, do not start at zero, or do
    /// not end at `targets.len()`, or if any adjacency list is unsorted or
    /// contains duplicates or out-of-range targets.
    #[cfg(test)]
    pub(crate) fn from_parts(offsets: Vec<u32>, targets: Vec<NodeId>) -> Self {
        validate_parts(&offsets, &targets);
        CsrGraph {
            offsets: Segment::from_vec(offsets),
            targets: Segment::from_vec(targets),
        }
    }

    /// Builds a CSR from trusted builder output without release-mode
    /// validation. Debug builds still run the full invariant check, so
    /// every test exercises it; release rebuilds skip the O(V+E) sweep the
    /// deterministic pipeline has already paid for.
    pub(crate) fn from_parts_unchecked(offsets: Vec<u32>, targets: Vec<NodeId>) -> Self {
        Self::from_segments_unchecked(Segment::from_vec(offsets), Segment::from_vec(targets))
    }

    /// Builds a CSR directly over [`Segment`] storage — the snapshot
    /// loader's boundary. Trust comes from the snapshot's section
    /// checksums (always verified on load); paranoid loads additionally
    /// run [`check_parts`] before calling this. Debug builds re-validate
    /// unconditionally, mirroring [`Self::from_parts_unchecked`].
    pub(crate) fn from_segments_unchecked(offsets: Segment<u32>, targets: Segment<NodeId>) -> Self {
        #[cfg(debug_assertions)]
        validate_parts(&offsets, &targets);
        debug_assert!(!offsets.is_empty());
        CsrGraph { offsets, targets }
    }

    /// Narrows the `usize` offsets produced by the builder's scan stage
    /// to `u32`. The caller must have checked the arc total with
    /// `builder::check_arc_count`.
    pub(crate) fn from_scan_unchecked(offsets: Vec<usize>, targets: Vec<NodeId>) -> Self {
        let offsets: Vec<u32> = offsets.into_iter().map(|o| o as u32).collect();
        Self::from_parts_unchecked(offsets, targets)
    }

    /// Number of vertices.
    #[inline]
    pub(crate) fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored directed arcs.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `u` in this direction.
    #[inline]
    pub(crate) fn degree(&self, u: NodeId) -> usize {
        let u = u as usize;
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// The sorted neighbor slice of `u`.
    #[inline]
    pub(crate) fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let u = u as usize;
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Offset of the first neighbor of `u` inside [`Self::targets_raw`].
    #[inline]
    pub fn offset(&self, u: NodeId) -> usize {
        self.offsets[u as usize] as usize
    }

    /// The raw offsets array (length `num_vertices() + 1`).
    #[inline]
    pub fn offsets_raw(&self) -> &[u32] {
        &self.offsets
    }

    /// A handle to the offsets storage (cheap for views; the snapshot
    /// loader uses this to share one offsets section between the
    /// unweighted and weighted CSRs).
    pub(crate) fn offsets_segment(&self) -> Segment<u32> {
        self.offsets.clone()
    }

    /// The raw flattened target array.
    #[inline]
    pub fn targets_raw(&self) -> &[NodeId] {
        &self.targets
    }

    /// Resident bytes of this adjacency: offsets plus targets.
    pub(crate) fn graph_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.targets.len() * std::mem::size_of::<NodeId>()
    }

    /// Returns `true` if edge `(u, v)` is present, via the shared
    /// galloping probe (exponential then binary search).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        crate::intersect::contains(self.neighbors(u), v)
    }

    /// Iterates over `(u, v)` arcs in CSR order.
    #[inline]
    pub fn iter_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_vertices() as NodeId)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }
}

/// Weighted compressed sparse row adjacency.
///
/// Weights are stored in a parallel array so that unweighted kernels can walk
/// `targets` without touching weights (matching GAP's `WNode` layout intent
/// while keeping cache behaviour predictable at this scale).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WCsrGraph {
    csr: CsrGraph,
    weights: Segment<Weight>,
}

impl WCsrGraph {
    /// Builds a weighted CSR from an unweighted CSR plus a parallel weight
    /// array.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != csr.num_edges()`.
    pub(crate) fn from_parts(csr: CsrGraph, weights: Vec<Weight>) -> Self {
        Self::from_segments(csr, Segment::from_vec(weights))
    }

    /// [`Self::from_parts`] over [`Segment`] storage (snapshot loads).
    pub(crate) fn from_segments(csr: CsrGraph, weights: Segment<Weight>) -> Self {
        assert_eq!(
            weights.len(),
            csr.num_edges(),
            "weight array must parallel the target array"
        );
        WCsrGraph { csr, weights }
    }

    /// Number of vertices.
    #[inline]
    pub(crate) fn num_vertices(&self) -> usize {
        self.csr.num_vertices()
    }

    /// Number of stored directed arcs.
    #[inline]
    pub(crate) fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// Out-degree of `u`.
    #[inline]
    pub(crate) fn degree(&self, u: NodeId) -> usize {
        self.csr.degree(u)
    }

    /// The sorted neighbor slice of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        self.csr.neighbors(u)
    }

    /// The weight slice parallel to [`Self::neighbors`] for `u`.
    #[inline]
    pub fn weights(&self, u: NodeId) -> &[Weight] {
        let lo = self.csr.offset(u);
        let hi = self.csr.offset(u + 1);
        &self.weights[lo..hi]
    }

    /// Iterates `(neighbor, weight)` pairs of `u`.
    #[inline]
    pub fn neighbors_weighted(&self, u: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        self.neighbors(u)
            .iter()
            .copied()
            .zip(self.weights(u).iter().copied())
    }

    /// The unweighted view of this adjacency.
    #[inline]
    pub fn unweighted(&self) -> &CsrGraph {
        &self.csr
    }

    /// The raw flattened weight array.
    #[inline]
    pub fn weights_raw(&self) -> &[Weight] {
        &self.weights
    }

    /// Resident bytes of this adjacency: offsets, targets, and weights.
    pub(crate) fn graph_bytes(&self) -> usize {
        self.csr.graph_bytes() + self.weights.len() * std::mem::size_of::<Weight>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> {1,2}, 1 -> {3}, 2 -> {3}, 3 -> {}
        CsrGraph::from_parts(vec![0, 2, 3, 4, 4], vec![1, 2, 3, 3])
    }

    #[test]
    fn basic_accessors() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[] as &[NodeId]);
    }

    #[test]
    fn has_edge_binary_search() {
        let g = diamond();
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 3));
        assert!(g.has_edge(2, 3));
    }

    #[test]
    fn edge_iteration_covers_all_arcs() {
        let g = diamond();
        let edges: Vec<_> = g.iter_edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_rows_rejected() {
        CsrGraph::from_parts(vec![0, 2], vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_targets_rejected() {
        CsrGraph::from_parts(vec![0, 1], vec![7]);
    }

    #[test]
    fn graph_bytes_counts_u32_offsets_and_targets() {
        // 5 offsets * 4 bytes + 4 targets * 4 bytes.
        assert_eq!(diamond().graph_bytes(), 5 * 4 + 4 * 4);
    }

    #[test]
    fn weighted_parallel_arrays() {
        let g = diamond();
        let wg = WCsrGraph::from_parts(g, vec![10, 20, 30, 40]);
        assert_eq!(wg.weights(0), &[10, 20]);
        let pairs: Vec<_> = wg.neighbors_weighted(0).collect();
        assert_eq!(pairs, vec![(1, 10), (2, 20)]);
        assert_eq!(
            wg.graph_bytes(),
            wg.unweighted().graph_bytes() + 4 * std::mem::size_of::<Weight>()
        );
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn weight_length_mismatch_rejected() {
        WCsrGraph::from_parts(diamond(), vec![1, 2]);
    }
}
