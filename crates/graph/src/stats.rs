//! Topology statistics backing Table I: vertex/edge counts, average degree,
//! degree-distribution classification, and an approximate diameter probe.

use crate::gen::corpus::DegreeFamily;
use crate::graph::Graph;
use crate::types::NodeId;
use std::collections::VecDeque;

/// Summary of a graph's topology, one row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSummary {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of edges (GAP counting: undirected edges count once).
    pub num_edges: usize,
    /// Whether the graph is directed.
    pub directed: bool,
    /// Average arc degree.
    pub average_degree: f64,
    /// Classified degree-distribution family.
    pub degree_family: DegreeFamily,
    /// Approximate diameter from a double-sweep BFS probe.
    pub approx_diameter: usize,
    /// Resident adjacency bytes (offsets + targets across stored
    /// directions) — the footprint the compact-offset layout halves the
    /// offset share of.
    pub graph_bytes: usize,
}

/// Computes the full Table I row for a graph.
pub fn summarize(g: &Graph) -> GraphSummary {
    GraphSummary {
        num_vertices: g.num_vertices(),
        num_edges: g.num_edges(),
        directed: g.is_directed(),
        average_degree: g.average_degree(),
        degree_family: classify_degrees(g),
        approx_diameter: approx_diameter(g),
        graph_bytes: g.graph_bytes(),
    }
}

/// Maximum out-degree.
pub(crate) fn max_degree(g: &Graph) -> usize {
    g.vertices().map(|u| g.out_degree(u)).max().unwrap_or(0)
}

/// Classifies the degree distribution into Table I's three families using
/// simple, robust moments:
///
/// * **bounded** — the maximum degree is a small constant (road networks);
/// * **power** — the maximum degree dwarfs the mean (heavy tail);
/// * **normal** — otherwise (degrees concentrate around the mean).
pub(crate) fn classify_degrees(g: &Graph) -> DegreeFamily {
    let max = max_degree(g) as f64;
    let mean = g.average_degree().max(f64::MIN_POSITIVE);
    if max <= 16.0 && max <= mean * 4.0 {
        DegreeFamily::Bounded
    } else if max >= mean * 8.0 {
        DegreeFamily::Power
    } else {
        DegreeFamily::Normal
    }
}

/// Sequential BFS returning the eccentricity (greatest finite depth) and the
/// farthest vertex reached from `source`, following out-edges.
pub fn bfs_eccentricity(g: &Graph, source: NodeId) -> (usize, NodeId) {
    let n = g.num_vertices();
    let mut depth = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    depth[source as usize] = 0;
    queue.push_back(source);
    let mut far = (0usize, source);
    while let Some(u) = queue.pop_front() {
        let du = depth[u as usize];
        if du > far.0 {
            far = (du, u);
        }
        for &v in g.out_neighbors(u) {
            if depth[v as usize] == usize::MAX {
                depth[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    far
}

/// Approximate diameter via the classic double-sweep heuristic, repeated
/// from a few vertices: BFS from a start vertex, then BFS again from the
/// farthest vertex found; the second eccentricity lower-bounds the diameter
/// and is usually tight on real topologies.
///
/// GAP's Table I itself reports an *approximate* diameter, so a heuristic
/// probe is faithful to the benchmark's own methodology.
pub fn approx_diameter(g: &Graph) -> usize {
    let n = g.num_vertices();
    if n == 0 {
        return 0;
    }
    let mut best = 0usize;
    // A few deterministic, spread-out starting points, plus the highest-
    // degree vertex (guaranteed to sit in the dense core of power-law
    // graphs, where the spread-out picks may all be low-reach).
    let max_deg_vertex = (0..n as NodeId)
        .max_by_key(|&u| g.out_degree(u))
        .unwrap_or(0);
    let starts = [0usize, n / 3, (2 * n) / 3]
        .into_iter()
        .map(|i| i.min(n - 1) as NodeId)
        .chain(std::iter::once(max_deg_vertex));
    for s in starts {
        if g.out_degree(s) == 0 {
            continue;
        }
        let (_, far) = bfs_eccentricity(g, s);
        let (ecc2, _) = bfs_eccentricity(g, far);
        best = best.max(ecc2);
    }
    best
}

/// GAP's direction-optimizing `alpha`: switch push→pull when the
/// frontier's outgoing edges exceed `1/alpha` of the unexplored edges.
pub(crate) const DO_ALPHA: u64 = 15;

/// GAP's direction-optimizing `beta`: switch pull→push when the frontier
/// shrinks below `n / beta` vertices.
pub(crate) const DO_BETA: u64 = 18;

/// GAP's push→pull test. Every direction-optimizing traversal in the
/// suite (and [`frontier_profile`]'s prediction) shares this predicate so
/// the thresholds cannot drift apart between kernels and analysis.
#[inline]
pub fn switch_to_pull(scout_edges: u64, edges_to_check: u64) -> bool {
    scout_edges > edges_to_check / DO_ALPHA
}

/// GAP's pull→push test: the awake count dropped below `n / beta` and is
/// still shrinking (or the traversal finished).
#[inline]
pub fn switch_to_push(awake: u64, prev_awake: u64, n: u64) -> bool {
    awake == 0 || (awake <= n / DO_BETA && awake < prev_awake)
}

/// One-shot per-level direction prediction for traversals (and profiles)
/// that decide each level independently instead of tracking the push/pull
/// state machine: pull when either threshold trips.
#[inline]
pub fn predict_pull(scout_edges: u64, edges_to_check: u64, frontier_len: u64, n: u64) -> bool {
    switch_to_pull(scout_edges, edges_to_check) || frontier_len > n / DO_BETA
}

/// Per-level traversal profile of a BFS — the workload-characterization
/// view behind the GAP suite's design (the paper's cited companion study
/// shows topology dominates workload behaviour).
///
/// For each level the profile records the frontier size and its outgoing
/// edge count, plus which direction a direction-optimizing traversal
/// (GAP's `alpha`/`beta` thresholds) would pick. On Road-like graphs the
/// profile is long and thin (hundreds of tiny frontiers); on power-law
/// graphs it is short and explosive (one giant level) — the contrast that
/// decides most of Table V.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierProfile {
    /// Frontier size per BFS level, starting at the source's level.
    pub frontier_sizes: Vec<usize>,
    /// Outgoing edges of each frontier.
    pub frontier_edges: Vec<usize>,
    /// Levels a direction-optimizing traversal would run bottom-up.
    pub pull_levels: Vec<bool>,
}

impl FrontierProfile {
    /// Number of levels (the traversal depth + 1).
    pub fn depth(&self) -> usize {
        self.frontier_sizes.len()
    }

    /// The largest frontier as a fraction of reached vertices.
    pub fn peak_fraction(&self) -> f64 {
        let total: usize = self.frontier_sizes.iter().sum();
        if total == 0 {
            return 0.0;
        }
        *self.frontier_sizes.iter().max().expect("non-empty") as f64 / total as f64
    }

    /// Number of levels predicted to run bottom-up.
    pub fn pull_level_count(&self) -> usize {
        self.pull_levels.iter().filter(|&&p| p).count()
    }
}

/// Computes the [`FrontierProfile`] of a BFS from `source` with GAP's
/// direction-optimizing thresholds (`DO_ALPHA`, `DO_BETA`).
pub fn frontier_profile(g: &Graph, source: NodeId) -> FrontierProfile {
    let n = g.num_vertices();
    let mut depth = vec![usize::MAX; n];
    let mut frontier = vec![source];
    depth[source as usize] = 0;
    let mut sizes = Vec::new();
    let mut edges = Vec::new();
    let mut pulls = Vec::new();
    let mut edges_to_check = g.num_arcs();
    while !frontier.is_empty() {
        let scout: usize = frontier.iter().map(|&u| g.out_degree(u)).sum();
        sizes.push(frontier.len());
        edges.push(scout);
        pulls.push(predict_pull(
            scout as u64,
            edges_to_check as u64,
            frontier.len() as u64,
            n as u64,
        ));
        edges_to_check = edges_to_check.saturating_sub(scout);
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in g.out_neighbors(u) {
                if depth[v as usize] == usize::MAX {
                    depth[v as usize] = depth[u as usize] + 1;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    FrontierProfile {
        frontier_sizes: sizes,
        frontier_edges: edges,
        pull_levels: pulls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, RoadConfig};

    #[test]
    fn path_graph_diameter_is_exact() {
        // 0 - 1 - 2 - 3 - 4 (undirected path)
        let g = crate::Builder::new()
            .symmetrize(true)
            .build(crate::edgelist::edges([(0, 1), (1, 2), (2, 3), (3, 4)]))
            .unwrap();
        assert_eq!(approx_diameter(&g), 4);
    }

    #[test]
    fn eccentricity_finds_farthest() {
        let g = crate::Builder::new()
            .symmetrize(true)
            .build(crate::edgelist::edges([(0, 1), (1, 2)]))
            .unwrap();
        let (ecc, far) = bfs_eccentricity(&g, 0);
        assert_eq!(ecc, 2);
        assert_eq!(far, 2);
    }

    #[test]
    fn road_classifies_bounded_and_deep() {
        let g = gen::road(&RoadConfig::gap_like(48), 3);
        let s = summarize(&g);
        assert_eq!(s.degree_family, DegreeFamily::Bounded);
        assert!(
            s.approx_diameter >= 48,
            "road diameter {} too small",
            s.approx_diameter
        );
    }

    #[test]
    fn kron_classifies_power_and_shallow() {
        let g = gen::kron(11, 16, 42);
        let s = summarize(&g);
        assert_eq!(s.degree_family, DegreeFamily::Power);
        assert!(
            s.approx_diameter <= 12,
            "kron diameter {} too large",
            s.approx_diameter
        );
    }

    #[test]
    fn urand_classifies_normal() {
        let g = gen::urand(11, 16, 42);
        assert_eq!(classify_degrees(&g), DegreeFamily::Normal);
    }

    #[test]
    fn frontier_profile_separates_topologies() {
        // Road: long, thin profile; Kron: short, explosive one.
        let road = gen::road(&gen::RoadConfig::gap_like(32), 2);
        let rp = frontier_profile(&road, 0);
        let kron = gen::kron(10, 16, 2);
        let kp = frontier_profile(&kron, 0);
        assert!(
            rp.depth() > 4 * kp.depth(),
            "road depth {} vs kron depth {}",
            rp.depth(),
            kp.depth()
        );
        assert!(
            kp.peak_fraction() > rp.peak_fraction(),
            "kron peak {} vs road peak {}",
            kp.peak_fraction(),
            rp.peak_fraction()
        );
    }

    #[test]
    fn frontier_profile_counts_are_consistent() {
        let g = gen::urand(9, 8, 4);
        let p = frontier_profile(&g, 0);
        let reached: usize = p.frontier_sizes.iter().sum();
        let (ecc, _) = bfs_eccentricity(&g, 0);
        assert_eq!(p.depth(), ecc + 1, "levels = eccentricity + 1");
        assert!(reached <= g.num_vertices());
        assert_eq!(p.frontier_sizes[0], 1, "level 0 is the source alone");
        // Power-law/uniform shallow graphs should predict some pull use.
        assert!(p.pull_level_count() >= 1);
    }

    #[test]
    fn direction_predicates_follow_gap_thresholds() {
        // alpha: 100 outgoing edges > 1000/15 unexplored trips the switch.
        assert!(switch_to_pull(100, 1000));
        assert!(!switch_to_pull(5, 1000));
        // beta: awake below n/18 and shrinking (or finished) goes push.
        assert!(switch_to_push(0, 10, 1000));
        assert!(switch_to_push(50, 60, 1000));
        assert!(!switch_to_push(55, 60, 180)); // not below 180/18 = 10
        assert!(!switch_to_push(50, 50, 1000)); // not shrinking
                                                // One-shot prediction trips on either threshold.
        assert!(predict_pull(100, 1000, 1, 1000));
        assert!(predict_pull(0, 1000, 500, 1000));
        assert!(!predict_pull(5, 1000, 1, 1000));
    }
}
