//! Batched Brandes BC: all four root vertices advance through *one* pass
//! over the adjacency matrix per level.
//!
//! The paper (§V-E): "Most of the operations are matrix-matrix, where one
//! matrix is dense and 4-by-n." This module reproduces that data shape —
//! frontier, path-count and dependency state are 4-wide values, and each
//! level is a single sweep over `A` that advances every column at once —
//! instead of running four independent vector sweeps.

use super::LaGraphContext;
use crate::frontier::{vxm_multi, FrontierMatrix};
use crate::semiring::PlusSecond;
use crate::GrbIndex;
use gapbs_graph::types::{NodeId, Score};
use gapbs_parallel::ThreadPool;

/// Number of batched roots (the GAP spec's BC approximation width).
pub(crate) const BATCH: usize = 4;

/// Runs batch Brandes over up to `BATCH` sources per sweep, returning
/// scores normalized by the maximum (the GAP output convention).
pub fn bc_batch(ctx: &LaGraphContext, sources: &[NodeId], pool: &ThreadPool) -> Vec<Score> {
    let n = ctx.num_vertices() as usize;
    let mut scores = vec![0.0; n];
    if n == 0 {
        return scores;
    }
    for chunk in sources.chunks(BATCH) {
        batch_pass(ctx, chunk, &mut scores, pool);
    }
    let max = scores.iter().cloned().fold(0.0, Score::max);
    if max > 0.0 {
        for s in &mut scores {
            *s /= max;
        }
    }
    scores
}

/// One 4-wide forward/backward pass.
fn batch_pass(ctx: &LaGraphContext, sources: &[NodeId], scores: &mut [Score], pool: &ThreadPool) {
    let n = ctx.num_vertices() as usize;
    let k = sources.len();
    // numsp: n×4 dense path counts; 0 = "column has not discovered this
    // vertex yet" (the structural role the matrix mask plays in LAGraph).
    let mut numsp = vec![[0.0f64; BATCH]; n];
    // depth per column, for the backward level checks.
    let mut depth = vec![[u32::MAX; BATCH]; n];
    for (c, &s) in sources.iter().enumerate() {
        numsp[s as usize][c] = 1.0;
        depth[s as usize][c] = 0;
    }
    // The union frontier: vertices active in at least one column, with
    // their per-column path counts. Duplicate sources merge into one row.
    let semiring = PlusSecond::default();
    let mut frontier: FrontierMatrix<f64> = FrontierMatrix::new(k);
    {
        let mut uniq: Vec<GrbIndex> = sources.iter().map(|&s| GrbIndex::from(s)).collect();
        uniq.sort_unstable();
        uniq.dedup();
        for s in uniq {
            let active = (0..k)
                .filter(|&c| sources[c] == s as NodeId)
                .fold(0u64, |m, c| m | 1 << c);
            let vals: Vec<f64> = (0..k)
                .map(|c| if sources[c] == s as NodeId { 1.0 } else { 0.0 })
                .collect();
            frontier.push_row(s, active, &vals);
        }
    }
    let mut levels: Vec<FrontierMatrix<f64>> = vec![frontier.clone()];
    let mut d = 0u32;
    // Forward: one multi-column vxm over A per level advances every
    // column, masked to the columns that have not discovered each output.
    while !frontier.is_empty() {
        gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
        gapbs_telemetry::trace_iter!(BcLevel {
            depth: d,
            frontier: frontier.len() as u64
        });
        let advanced = {
            let undiscovered = |j: GrbIndex| {
                let row = &numsp[j as usize];
                (0..k)
                    .filter(|&c| row[c] == 0.0)
                    .fold(0u64, |m, c| m | 1 << c)
            };
            vxm_multi(
                &semiring,
                &frontier,
                &ctx.a,
                &undiscovered,
                &ctx.workspace,
                pool,
            )
        };
        if advanced.is_empty() {
            break;
        }
        // Commit the level: record depths and fold counts into numsp.
        // Every active column passed the mask, so its count is fresh.
        for (j, active, counts) in advanced.iter() {
            let mut cols = active;
            while cols != 0 {
                let c = cols.trailing_zeros() as usize;
                cols &= cols - 1;
                numsp[j as usize][c] = counts[c];
                depth[j as usize][c] = d + 1;
            }
        }
        levels.push(advanced.clone());
        frontier = advanced;
        d += 1;
    }
    // Backward: one sweep over A' per level accumulates all columns.
    let mut delta = vec![[0.0f64; BATCH]; n];
    for level_idx in (1..levels.len()).rev() {
        for (j, _, _) in levels[level_idx].iter() {
            // t1[j][c] = (1 + delta_j) / numsp_j for columns where j sits
            // at this level.
            let mut t1 = [0.0f64; BATCH];
            for c in 0..k {
                if depth[j as usize][c] == level_idx as u32 {
                    t1[c] = (1.0 + delta[j as usize][c]) / numsp[j as usize][c];
                }
            }
            for i in ctx.at.row(j) {
                let i = *i as usize;
                for c in 0..k {
                    let di = depth[i][c];
                    if t1[c] > 0.0 && di != u32::MAX && di + 1 == level_idx as u32 {
                        delta[i][c] += numsp[i][c] * t1[c];
                    }
                }
            }
        }
    }
    for v in 0..n {
        for (c, &s) in sources.iter().enumerate() {
            if v as NodeId != s {
                scores[v] += delta[v][c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::{edgelist::edges, gen, Builder};
    use gapbs_verify::oracles::brandes;

    fn assert_close(a: &[Score], b: &[Score]) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-9, "vertex {i}: {x} vs {y}");
        }
    }

    #[test]
    fn batch_matches_oracle_on_random_graphs() {
        let pool = ThreadPool::new(2);
        for seed in [1, 2, 3] {
            let g = gen::kron(8, 8, seed);
            let ctx = crate::lagraph::LaGraphContext::from_graph(&g);
            let sources = [0, 7, 13, 42];
            assert_close(&bc_batch(&ctx, &sources, &pool), &brandes(&g, &sources));
        }
    }

    #[test]
    fn batch_is_thread_count_invariant() {
        let g = gen::kron(9, 10, 6);
        let ctx = crate::lagraph::LaGraphContext::from_graph(&g);
        let sources = [0, 7, 13, 42];
        let serial = bc_batch(&ctx, &sources, &ThreadPool::new(1));
        for threads in [2, 7] {
            let got = bc_batch(&ctx, &sources, &ThreadPool::new(threads));
            for (v, (a, b)) in serial.iter().zip(&got).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits(),
                    "vertex {v}: {a} vs {b} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn duplicate_and_short_source_sets_work() {
        let g = Builder::new()
            .build(edges([(0, 1), (0, 2), (1, 3), (2, 3)]))
            .unwrap();
        let ctx = crate::lagraph::LaGraphContext::from_graph(&g);
        let pool = ThreadPool::new(2);
        assert_close(&bc_batch(&ctx, &[0], &pool), &brandes(&g, &[0]));
        assert_close(&bc_batch(&ctx, &[0, 0], &pool), &brandes(&g, &[0, 0]));
        // More than BATCH sources chunk into multiple passes.
        let many = [0, 1, 2, 3, 0];
        assert_close(&bc_batch(&ctx, &many, &pool), &brandes(&g, &many));
    }

    #[test]
    fn deep_road_graph_levels_align_per_column() {
        let g = gen::road(&gen::RoadConfig::gap_like(14), 5);
        let ctx = crate::lagraph::LaGraphContext::from_graph(&g);
        let sources = [0, 7, 50, 120];
        let pool = ThreadPool::new(2);
        assert_close(&bc_batch(&ctx, &sources, &pool), &brandes(&g, &sources));
    }
}
