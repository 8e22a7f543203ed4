//! Fundamental scalar types shared across the workspace.
//!
//! Like five of the six frameworks in the paper, the substrate uses 32-bit
//! indices throughout ("the other frameworks use 32-bit indices throughout by
//! default"): vertex identifiers here, and CSR row offsets in
//! `crate::csr`. The GraphBLAS-style crate widens indices to 64 bits
//! internally to reproduce the index-width tax discussed in Section V.

/// Identifier of a vertex. 32 bits, matching the GAP reference code.
pub type NodeId = u32;

/// Edge weight for weighted kernels (SSSP).
///
/// GAP generates uniform integer weights in `[1, 256)` and runs
/// delta-stepping over the min-plus (tropical) semiring on `int32`.
pub type Weight = i32;

/// Distance accumulated along a path of [`Weight`]s.
///
/// 64-bit so that path sums cannot overflow even on adversarial inputs.
pub type Distance = i64;

/// Sentinel distance meaning "unreached".
pub const INF_DIST: Distance = i64::MAX;

/// Sentinel parent meaning "not visited" in BFS parent arrays.
pub const NO_PARENT: NodeId = NodeId::MAX;

/// Floating-point score type used by PageRank and betweenness centrality.
pub type Score = f64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinels_are_extreme() {
        assert_eq!(NO_PARENT, u32::MAX);
        assert!(INF_DIST > i64::from(i32::MAX) * i64::from(i32::MAX));
    }
}
