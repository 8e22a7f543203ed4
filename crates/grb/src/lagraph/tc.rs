//! LAGraph triangle counting: `L = tril(A,-1); U = triu(A,1);
//! C<L> = L * U'; count = sum(C)` over the `plus-pair` semiring, after an
//! optional heuristic-driven degree permutation (§III-A).
//!
//! The adjacency matrix is symmetric, so `U' = L` and one `tril` serves
//! both operands of the masked product.

use super::LaGraphContext;
use crate::matrix::GrbMatrix;
use crate::ops::mxm_pair_masked_sum;
use gapbs_graph::perm;
use gapbs_parallel::ThreadPool;

/// Counts triangles. The graph behind `ctx` must be undirected
/// (symmetrized), per the GAP spec.
pub fn tc(ctx: &LaGraphContext, pool: &ThreadPool) -> u64 {
    tc_on_matrix(&ctx.a, pool)
}

/// Counts triangles of a symmetric adjacency matrix, with the optional
/// presort decided by a degree-skew heuristic (relabeling time is part of
/// the kernel, per the benchmark rules).
pub(crate) fn tc_on_matrix(a: &GrbMatrix, pool: &ThreadPool) -> u64 {
    let a_sorted;
    let a = if worth_sorting(a) {
        a_sorted = permute_by_degree(a);
        &a_sorted
    } else {
        a
    };
    // `U' = L` for a symmetric matrix, so `triu` and the explicit
    // transpose need not be materialized.
    let l = a.tril();
    mxm_pair_masked_sum(&l, &l, pool)
}

/// Degree-skew heuristic mirroring GAP's `WorthRelabelling`.
fn worth_sorting(a: &GrbMatrix) -> bool {
    perm::sampled_degrees(a.nrows() as usize, |i| a.row(i as u64).len())
        .is_some_and(|(mean, median)| mean as usize > 2 * median.max(1))
}

/// Rebuilds the matrix with vertices relabeled by descending degree.
fn permute_by_degree(a: &GrbMatrix) -> GrbMatrix {
    let n = a.nrows();
    let mut order: Vec<u64> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(a.row(i).len()), i));
    let mut new_of_old = vec![0u64; n as usize];
    for (new, &old) in order.iter().enumerate() {
        new_of_old[old as usize] = new as u64;
    }
    // Scatter and re-sort rows under the permutation.
    let mut rows: Vec<Vec<u64>> = vec![Vec::new(); n as usize];
    for i in 0..n {
        let ni = new_of_old[i as usize];
        for &j in a.row(i) {
            rows[ni as usize].push(new_of_old[j as usize]);
        }
    }
    let mut offsets = Vec::with_capacity(n as usize + 1);
    offsets.push(0u64);
    let mut cols = Vec::new();
    for row in &mut rows {
        row.sort_unstable();
        cols.extend_from_slice(row);
        offsets.push(cols.len() as u64);
    }
    GrbMatrix::from_csr(n, n, offsets, cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lagraph::LaGraphContext;
    use gapbs_graph::edgelist::edges;
    use gapbs_graph::{gen, Builder};

    fn pool() -> ThreadPool {
        ThreadPool::new(2)
    }

    #[test]
    fn triangle_counts_one() {
        let g = Builder::new()
            .symmetrize(true)
            .build(edges([(0, 1), (1, 2), (2, 0)]))
            .unwrap();
        let ctx = LaGraphContext::from_graph(&g);
        assert_eq!(tc(&ctx, &pool()), 1);
    }

    #[test]
    fn matches_sequential_count_on_random_graphs() {
        for seed in 1..4 {
            let g = gen::kron(8, 10, seed);
            let ctx = LaGraphContext::from_graph(&g);
            let want = brute_force(&g);
            assert_eq!(tc(&ctx, &pool()), want, "seed {seed}");
        }
    }

    #[test]
    fn presort_does_not_change_count() {
        let g = gen::kron(9, 12, 5);
        let a = GrbMatrix::from_graph(&g);
        let plain = {
            let l = a.tril();
            let ut = a.triu().transpose();
            mxm_pair_masked_sum(&l, &ut, &pool())
        };
        let sorted = {
            let p = permute_by_degree(&a);
            let l = p.tril();
            let ut = p.triu().transpose();
            mxm_pair_masked_sum(&l, &ut, &pool())
        };
        assert_eq!(plain, sorted);
    }

    fn brute_force(g: &gapbs_graph::Graph) -> u64 {
        let mut count = 0;
        for u in g.vertices() {
            for &v in g.out_neighbors(u) {
                if v <= u {
                    continue;
                }
                for &w in g.out_neighbors(v) {
                    if w > v && g.out_csr().has_edge(u, w) {
                        count += 1;
                    }
                }
            }
        }
        count
    }
}
