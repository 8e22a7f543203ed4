//! Sequential reference oracles. Deliberately simple, deliberately sharing
//! no code with the parallel kernels they check.

use gapbs_graph::types::{Distance, NodeId, Score, INF_DIST};
use gapbs_graph::{Graph, WGraph};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// BFS depths from `source` following out-edges; `None` = unreachable.
pub(crate) fn bfs_depths(g: &Graph, source: NodeId) -> Vec<Option<usize>> {
    let n = g.num_vertices();
    let mut depth = vec![None; n];
    if n == 0 {
        return depth;
    }
    let mut q = VecDeque::new();
    depth[source as usize] = Some(0);
    q.push_back(source);
    while let Some(u) = q.pop_front() {
        let du = depth[u as usize].expect("queued implies visited");
        for &v in g.out_neighbors(u) {
            if depth[v as usize].is_none() {
                depth[v as usize] = Some(du + 1);
                q.push_back(v);
            }
        }
    }
    depth
}

/// Textbook binary-heap Dijkstra.
pub fn dijkstra(g: &WGraph, source: NodeId) -> Vec<Distance> {
    let mut dist = vec![INF_DIST; g.num_vertices()];
    if g.num_vertices() == 0 {
        return dist;
    }
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0 as Distance, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for (v, w) in g.out_neighbors_weighted(u) {
            let nd = d + Distance::from(w);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// One damped PageRank power-iteration step with uniform dangling-mass
/// redistribution, pulled over incoming edges.
pub(crate) fn pagerank_step(g: &Graph, scores: &[Score], damping: f64) -> Vec<Score> {
    let n = g.num_vertices();
    let base = (1.0 - damping) / n as Score;
    let dangling: Score = g
        .vertices()
        .filter(|&v| g.out_degree(v) == 0)
        .map(|v| scores[v as usize])
        .sum::<Score>()
        / n as Score;
    (0..n)
        .map(|v| {
            let sum: Score = g
                .in_neighbors(v as NodeId)
                .iter()
                .map(|&u| scores[u as usize] / g.out_degree(u) as Score)
                .sum();
            base + damping * (sum + dangling)
        })
        .collect()
}

/// Weak-connectivity labels via sequential union-find with path halving.
pub(crate) fn components(g: &Graph) -> Vec<NodeId> {
    let n = g.num_vertices();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for u in 0..n {
        for &v in g.out_neighbors(u as NodeId) {
            let (a, b) = (find(&mut parent, u), find(&mut parent, v as usize));
            if a != b {
                parent[a.max(b)] = a.min(b);
            }
        }
    }
    (0..n).map(|u| find(&mut parent, u) as NodeId).collect()
}

/// Sequential Brandes BC over the given sources, normalized by the maximum
/// score (the convention of the GAP reference output).
///
/// A bug the study itself found and fixed ("We identified and fixed a bug
/// in the implementation of BC's path counting algorithm", §VI): path
/// counts must accumulate from *every* same-level predecessor, not only
/// the claiming one. Every framework's BC test compares against this
/// oracle to pin that behaviour.
pub fn brandes(g: &Graph, sources: &[NodeId]) -> Vec<Score> {
    let n = g.num_vertices();
    let mut scores = vec![0.0; n];
    for &s in sources {
        let mut depth = vec![i64::MAX; n];
        let mut sigma = vec![0.0f64; n];
        let mut order = Vec::new();
        let mut q = VecDeque::new();
        depth[s as usize] = 0;
        sigma[s as usize] = 1.0;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            order.push(u);
            for &v in g.out_neighbors(u) {
                if depth[v as usize] == i64::MAX {
                    depth[v as usize] = depth[u as usize] + 1;
                    q.push_back(v);
                }
                if depth[v as usize] == depth[u as usize] + 1 {
                    sigma[v as usize] += sigma[u as usize];
                }
            }
        }
        let mut delta = vec![0.0f64; n];
        for &u in order.iter().rev() {
            for &v in g.out_neighbors(u) {
                if depth[v as usize] == depth[u as usize] + 1 {
                    delta[u as usize] +=
                        (sigma[u as usize] / sigma[v as usize]) * (1.0 + delta[v as usize]);
                }
            }
            if u != s {
                scores[u as usize] += delta[u as usize];
            }
        }
    }
    let max = scores.iter().cloned().fold(0.0, f64::max);
    if max > 0.0 {
        for s in &mut scores {
            *s /= max;
        }
    }
    scores
}

/// Sequential orientation-based triangle count.
pub fn triangles(g: &Graph) -> u64 {
    let mut count = 0u64;
    for u in g.vertices() {
        let adj_u = g.out_neighbors(u);
        for &v in adj_u {
            if v <= u {
                continue;
            }
            let adj_v = g.out_neighbors(v);
            let (mut i, mut j) = (
                adj_u.partition_point(|&x| x <= v),
                adj_v.partition_point(|&x| x <= v),
            );
            while i < adj_u.len() && j < adj_v.len() {
                match adj_u[i].cmp(&adj_v[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        count += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::edgelist::{edges, wedges};
    use gapbs_graph::{gen, Builder};

    #[test]
    fn bfs_depths_on_a_path() {
        let g = Builder::new()
            .symmetrize(true)
            .build(edges([(0, 1), (1, 2)]))
            .unwrap();
        assert_eq!(bfs_depths(&g, 0), vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn dijkstra_picks_cheaper_route() {
        let g = Builder::new()
            .build_weighted(wedges([(0, 1, 1), (1, 2, 1), (0, 2, 5)]))
            .unwrap();
        assert_eq!(dijkstra(&g, 0), vec![0, 1, 2]);
    }

    #[test]
    fn components_on_islands() {
        let g = Builder::new()
            .symmetrize(true)
            .num_vertices(5)
            .build(edges([(0, 1), (2, 3)]))
            .unwrap();
        let c = components(&g);
        assert_eq!(c[0], c[1]);
        assert_eq!(c[2], c[3]);
        assert_ne!(c[0], c[2]);
        assert_ne!(c[4], c[0]);
    }

    #[test]
    fn triangle_oracle_on_k4() {
        let mut e = Vec::new();
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                e.push((i, j));
            }
        }
        let g = Builder::new().symmetrize(true).build(edges(e)).unwrap();
        assert_eq!(triangles(&g), 4);
    }

    #[test]
    fn pagerank_step_preserves_mass() {
        let g = gen::kron(7, 8, 1);
        let n = g.num_vertices();
        let uniform = vec![1.0 / n as f64; n];
        let next = pagerank_step(&g, &uniform, 0.85);
        let total: f64 = next.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn brandes_zero_on_edgeless_graph() {
        let g = Builder::new().num_vertices(3).build(Vec::new()).unwrap();
        assert_eq!(brandes(&g, &[0]), vec![0.0, 0.0, 0.0]);
    }
}
