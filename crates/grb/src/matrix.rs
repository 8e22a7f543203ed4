//! The GraphBLAS matrix: CSR with 64-bit indices.
//!
//! Built once from a [`Graph`] or
//! [`WGraph`] outside the timed region (GAP stores
//! both graph directions ahead of time). Weights default to 1 for pattern
//! matrices.

use crate::GrbIndex;
use gapbs_graph::{Graph, WGraph};

/// A sparse matrix in CSR form with `u64` row offsets and column indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrbMatrix {
    nrows: GrbIndex,
    ncols: GrbIndex,
    offsets: Vec<u64>,
    cols: Vec<GrbIndex>,
    weights: Vec<i32>,
}

impl GrbMatrix {
    /// Builds a pattern matrix (all weights 1) from raw CSR parts.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent offsets.
    pub(crate) fn from_csr(nrows: u64, ncols: u64, offsets: Vec<u64>, cols: Vec<GrbIndex>) -> Self {
        assert_eq!(offsets.len() as u64, nrows + 1, "offset length mismatch");
        assert_eq!(
            *offsets.last().unwrap_or(&0),
            cols.len() as u64,
            "offsets must end at nnz"
        );
        let weights = vec![1; cols.len()];
        GrbMatrix {
            nrows,
            ncols,
            offsets,
            cols,
            weights,
        }
    }

    /// Adjacency matrix of `g` (row `i` = out-neighbors of vertex `i`).
    ///
    /// The graph's `u32` offsets and targets widen to `u64` indices here
    /// (the paper's index-width tax, kept on purpose).
    pub fn from_graph(g: &Graph) -> Self {
        Self::convert(g.num_vertices(), g.out_csr())
    }

    /// Transposed adjacency (row `i` = in-neighbors of vertex `i`).
    pub(crate) fn from_graph_transposed(g: &Graph) -> Self {
        Self::convert(g.num_vertices(), g.in_csr())
    }

    fn convert(n: usize, csr: &gapbs_graph::CsrGraph) -> Self {
        let offsets: Vec<u64> = csr.offsets_raw().iter().map(|&o| u64::from(o)).collect();
        let cols: Vec<GrbIndex> = csr
            .targets_raw()
            .iter()
            .map(|&t| GrbIndex::from(t))
            .collect();
        GrbMatrix {
            nrows: n as u64,
            ncols: n as u64,
            weights: vec![1; cols.len()],
            offsets,
            cols,
        }
    }

    /// Weighted adjacency matrix of `wg`.
    pub(crate) fn from_wgraph(wg: &WGraph) -> Self {
        let csr = wg.out_wcsr();
        let n = wg.num_vertices();
        let offsets: Vec<u64> = csr
            .unweighted()
            .offsets_raw()
            .iter()
            .map(|&o| u64::from(o))
            .collect();
        let cols: Vec<GrbIndex> = csr
            .unweighted()
            .targets_raw()
            .iter()
            .map(|&t| GrbIndex::from(t))
            .collect();
        GrbMatrix {
            nrows: n as u64,
            ncols: n as u64,
            offsets,
            cols,
            weights: csr.weights_raw().to_vec(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> GrbIndex {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> GrbIndex {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nvals(&self) -> u64 {
        self.cols.len() as u64
    }

    /// Degree-aware row strips for pull-direction walks over this matrix
    /// (LLC-sized entry mass per strip; see [`gapbs_graph::Strips`]).
    pub fn pull_strips(&self) -> gapbs_graph::Strips {
        gapbs_graph::Strips::pull_offsets(&self.offsets)
    }

    /// Column indices of row `i`, sorted ascending.
    pub fn row(&self, i: GrbIndex) -> &[GrbIndex] {
        let lo = self.offsets[i as usize] as usize;
        let hi = self.offsets[i as usize + 1] as usize;
        &self.cols[lo..hi]
    }

    /// `(column, weight)` pairs of row `i`.
    pub(crate) fn row_weighted(&self, i: GrbIndex) -> impl Iterator<Item = (GrbIndex, i32)> + '_ {
        let (cols, weights) = self.row_parts(i);
        cols.iter().copied().zip(weights.iter().copied())
    }

    /// Column and weight slices of row `i` — the zero-overhead accessor
    /// the operation engine's hot loops index directly.
    pub(crate) fn row_parts(&self, i: GrbIndex) -> (&[GrbIndex], &[i32]) {
        let lo = self.offsets[i as usize] as usize;
        let hi = self.offsets[i as usize + 1] as usize;
        (&self.cols[lo..hi], &self.weights[lo..hi])
    }

    /// Lower-triangular part, strictly below the diagonal (`tril(A, -1)`).
    pub fn tril(&self) -> GrbMatrix {
        self.filtered(|i, j| j < i)
    }

    /// Upper-triangular part, strictly above the diagonal (`triu(A, 1)`).
    pub fn triu(&self) -> GrbMatrix {
        self.filtered(|i, j| j > i)
    }

    /// Explicit transpose (`A'`).
    pub fn transpose(&self) -> GrbMatrix {
        let n = self.ncols as usize;
        let mut counts = vec![0u64; n];
        for &c in &self.cols {
            counts[c as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut acc = 0u64;
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut cols = vec![0 as GrbIndex; self.cols.len()];
        let mut weights = vec![0i32; self.cols.len()];
        let mut cursor = offsets.clone();
        for i in 0..self.nrows {
            for (j, w) in self.row_weighted(i) {
                let slot = cursor[j as usize] as usize;
                cols[slot] = i;
                weights[slot] = w;
                cursor[j as usize] += 1;
            }
        }
        GrbMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            offsets,
            cols,
            weights,
        }
    }

    fn filtered<F: Fn(GrbIndex, GrbIndex) -> bool>(&self, keep: F) -> GrbMatrix {
        let mut offsets = Vec::with_capacity(self.nrows as usize + 1);
        offsets.push(0u64);
        let mut cols = Vec::new();
        let mut weights = Vec::new();
        for i in 0..self.nrows {
            for (j, w) in self.row_weighted(i) {
                if keep(i, j) {
                    cols.push(j);
                    weights.push(w);
                }
            }
            offsets.push(cols.len() as u64);
        }
        GrbMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            offsets,
            cols,
            weights,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::edgelist::edges;
    use gapbs_graph::Builder;

    fn triangle() -> Graph {
        Builder::new()
            .symmetrize(true)
            .build(edges([(0, 1), (1, 2), (2, 0)]))
            .unwrap()
    }

    #[test]
    fn adjacency_rows_match_graph() {
        let g = triangle();
        let a = GrbMatrix::from_graph(&g);
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.nvals(), 6);
        assert_eq!(a.row(0), &[1, 2]);
    }

    #[test]
    fn tril_triu_split_the_matrix() {
        let a = GrbMatrix::from_graph(&triangle());
        let l = a.tril();
        let u = a.triu();
        assert_eq!(l.nvals() + u.nvals(), a.nvals());
        assert_eq!(l.row(2), &[0, 1]);
        assert_eq!(u.row(0), &[1, 2]);
        assert_eq!(l.row(0), &[] as &[GrbIndex]);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = Builder::new().build(edges([(0, 1), (0, 2)])).unwrap();
        let a = GrbMatrix::from_graph(&g);
        let at = a.transpose();
        assert_eq!(at.row(1), &[0]);
        assert_eq!(at.row(2), &[0]);
        assert_eq!(at.row(0), &[] as &[GrbIndex]);
    }

    #[test]
    fn weighted_matrix_keeps_weights() {
        use gapbs_graph::edgelist::wedges;
        let wg = Builder::new()
            .build_weighted(wedges([(0, 1, 7), (0, 2, 9)]))
            .unwrap();
        let a = GrbMatrix::from_wgraph(&wg);
        let row: Vec<_> = a.row_weighted(0).collect();
        assert_eq!(row, vec![(1, 7), (2, 9)]);
    }
}
