//! LAGraph connected components: FastSV (Zhang, Azad, Hu) over the
//! `min-second` semiring.
//!
//! FastSV iterates three dense-vector rules — stochastic hooking,
//! aggressive hooking, and shortcutting — until the parent vector `f`
//! stabilizes. The paper notes the GraphBLAS C API's assignment with a MIN
//! accumulator is undefined for duplicate indices, so LAGraph's CC carries
//! its own scatter-min kernel; [`scatter_min`] is that kernel here.

use super::LaGraphContext;
use crate::ops::{mxv, Mask};
use crate::semiring::MinSecond;
use crate::vector::GrbVector;
use crate::GrbIndex;
use gapbs_graph::types::NodeId;
use gapbs_parallel::{Schedule, SharedSlice, ThreadPool};

/// Below this vector length the per-round dense steps run serially.
const CC_CUTOFF: usize = 1 << 12;

/// Runs FastSV, returning per-vertex component labels.
pub fn cc(ctx: &LaGraphContext, pool: &ThreadPool) -> Vec<NodeId> {
    let n = ctx.num_vertices();
    let mut f: Vec<GrbIndex> = (0..n).collect();
    if n == 0 {
        return Vec::new();
    }
    let semiring = MinSecond::default();
    let mut round: u32 = 0;
    loop {
        gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
        // gp = f[f] (grandparent). Pure gather: every slot is written by
        // exactly one index from reads of the immutable `f`, so the
        // pooled path is value-identical to the serial one.
        let par = n as usize >= CC_CUTOFF && pool.num_threads() > 1;
        let gp: Vec<GrbIndex> = if par {
            let mut gp = vec![0 as GrbIndex; n as usize];
            let out = SharedSlice::new(&mut gp);
            pool.for_each_index(n as usize, Schedule::Static, |i| {
                // SAFETY: one writer per index i.
                unsafe { out.write(i, f[f[i] as usize]) };
            });
            gp
        } else {
            f.iter().map(|&p| f[p as usize]).collect()
        };
        // mngp = min over neighbors of gp: one masked-free mxv per
        // direction (weak connectivity on directed graphs needs both).
        // Full storage: FastSV's vectors are dense, and the mxv gather
        // needs O(1) access to gp.
        let mut gp_vec = GrbVector::full(n, GrbIndex::MAX);
        gp_vec.as_full_slice_mut().copy_from_slice(&gp);
        let mut mngp: Vec<GrbIndex> = gp.clone();
        let pulled: GrbVector<GrbIndex> = mxv(
            &semiring,
            &ctx.a,
            &gp_vec,
            None::<&Mask<'_, ()>>,
            &ctx.workspace,
            pool,
        );
        merge_min(&mut mngp, &pulled, par, pool);
        if ctx.directed {
            let pulled_t: GrbVector<GrbIndex> = mxv(
                &semiring,
                &ctx.at,
                &gp_vec,
                None::<&Mask<'_, ()>>,
                &ctx.workspace,
                pool,
            );
            merge_min(&mut mngp, &pulled_t, par, pool);
        }
        let mut changed = false;
        // Stochastic hooking: f[f[i]] = min(f[f[i]], mngp[i]).
        let hooks: Vec<(GrbIndex, GrbIndex)> = (0..n as usize).map(|i| (f[i], mngp[i])).collect();
        changed |= scatter_min(&mut f, &hooks);
        // Aggressive hooking: f[i] = min(f[i], mngp[i], gp[i]). Each
        // slot depends only on its own index, so the pooled version is
        // value-identical; `changed` is OR-reduced (order-free).
        if par {
            let out = SharedSlice::new(&mut f);
            changed |= pool.reduce_index(
                n as usize,
                Schedule::Static,
                false,
                |i| {
                    let target = mngp[i].min(gp[i]);
                    // SAFETY: one writer per index i.
                    unsafe {
                        if target < out.read(i) {
                            out.write(i, target);
                            return true;
                        }
                    }
                    false
                },
                |a, b| a | b,
            );
        } else {
            for i in 0..n as usize {
                let target = mngp[i].min(gp[i]);
                if target < f[i] {
                    f[i] = target;
                    changed = true;
                }
            }
        }
        // Shortcutting: f[i] = f[f[i]].
        for i in 0..n as usize {
            let ff = f[f[i] as usize];
            if ff < f[i] {
                f[i] = ff;
                changed = true;
            }
        }
        gapbs_telemetry::trace_iter!(CcRound {
            round,
            changed: u64::from(changed)
        });
        round += 1;
        if !changed {
            break;
        }
    }
    f.into_iter().map(|x| x as NodeId).collect()
}

/// Folds a pulled min-second product into `mngp` slot-wise. The sparse
/// product has unique indices, so the pooled path writes disjointly and
/// matches the serial fold exactly.
fn merge_min(mngp: &mut [GrbIndex], pulled: &GrbVector<GrbIndex>, par: bool, pool: &ThreadPool) {
    let entries = pulled.sparse_entries().expect("engine products are sparse");
    if par && entries.len() >= CC_CUTOFF {
        let out = SharedSlice::new(mngp);
        pool.for_each_index(entries.len(), Schedule::Static, |e| {
            let (i, v) = entries[e];
            // SAFETY: sparse indices are unique → one writer per slot.
            unsafe {
                let cur = out.read(i as usize);
                if v < cur {
                    out.write(i as usize, v);
                }
            }
        });
    } else {
        for &(i, v) in entries {
            let slot = &mut mngp[i as usize];
            *slot = (*slot).min(v);
        }
    }
}

/// Scatter with MIN reduction on duplicate targets: `dst[idx] =
/// min(dst[idx], value)` for every `(idx, value)` pair. Returns whether
/// anything changed. (The GraphBLAS C API leaves duplicate-index assign
/// undefined; FastSV needs the min-reduction semantics, §V-C.)
pub(crate) fn scatter_min(dst: &mut [GrbIndex], updates: &[(GrbIndex, GrbIndex)]) -> bool {
    let mut changed = false;
    for &(idx, value) in updates {
        let slot = &mut dst[idx as usize];
        if value < *slot {
            *slot = value;
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::edgelist::edges;
    use gapbs_graph::{gen, Builder};
    use gapbs_verify::verify_cc;

    fn pool() -> ThreadPool {
        ThreadPool::new(2)
    }

    #[test]
    fn islands_get_distinct_labels() {
        let g = Builder::new()
            .symmetrize(true)
            .num_vertices(5)
            .build(edges([(0, 1), (2, 3)]))
            .unwrap();
        let ctx = LaGraphContext::from_graph(&g);
        let c = cc(&ctx, &pool());
        assert_eq!(c[0], c[1]);
        assert_eq!(c[2], c[3]);
        assert_ne!(c[0], c[2]);
        assert_ne!(c[4], c[0]);
    }

    #[test]
    fn directed_weak_connectivity() {
        let g = Builder::new().build(edges([(0, 1), (2, 1)])).unwrap();
        let ctx = LaGraphContext::from_graph(&g);
        let c = cc(&ctx, &pool());
        assert_eq!(c[0], c[1]);
        assert_eq!(c[1], c[2]);
    }

    #[test]
    fn matches_union_find_on_random_graphs() {
        for seed in 1..4 {
            let g = gen::urand(8, 6, seed);
            let ctx = LaGraphContext::from_graph(&g);
            let got = cc(&ctx, &pool());
            verify_cc(&g, &got).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn scatter_min_reduces_duplicates() {
        let mut dst = vec![9, 9, 9];
        let changed = scatter_min(&mut dst, &[(1, 5), (1, 3), (1, 7)]);
        assert!(changed);
        assert_eq!(dst, vec![9, 3, 9]);
        assert!(!scatter_min(&mut dst, &[(1, 4)]));
    }
}
