//! Generic graph algorithms over [`AdjacencyRange`]s.
//!
//! Everything here is a function template: the only operations used are
//! `num_vertices`, `degree` and the neighbor iterators, so any conforming
//! range type works. The iterator indirection (rather than raw slice
//! loops) is deliberate — it models the STL-range overhead the paper
//! observes for NWGraph on small graphs.

use crate::adjacency::{AdjacencyRange, WeightedAdjacencyRange};
use gapbs_graph::types::{Distance, NodeId, Score, INF_DIST, NO_PARENT};
use gapbs_graph::Weight;
use gapbs_parallel::atomics::{as_atomic_i64, as_atomic_u32, fetch_min_i64, AtomicF64};
use gapbs_parallel::buckets::file_relaxations;
use gapbs_parallel::sync::Mutex;
use gapbs_parallel::{AtomicBitmap, Schedule, ThreadPool};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

const UNVISITED_DEPTH: u32 = u32::MAX;

/// Direction-optimizing BFS with a deliberately simple switching rule
/// ("a straightforward, initial implementation ... no fine tuning of the
/// switching criteria", §V-A).
pub fn bfs<G, H>(out: &G, incoming: &H, source: NodeId, pool: &ThreadPool) -> Vec<NodeId>
where
    G: AdjacencyRange,
    H: AdjacencyRange,
{
    let n = out.num_vertices();
    let mut parent = vec![NO_PARENT; n];
    if n == 0 {
        return parent;
    }
    parent[source as usize] = source;
    let parents = as_atomic_u32(&mut parent);
    let mut frontier = vec![source];
    let visited = AtomicBitmap::new(n);
    visited.set(source as usize);
    let mut was_pull = false;
    let mut depth: u32 = 0;
    while !frontier.is_empty() {
        gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
        // Untuned switch: pull whenever the frontier passes 5% of V.
        let pull = frontier.len() > n / 20;
        if pull != was_pull {
            gapbs_telemetry::record(gapbs_telemetry::Counter::DirectionSwitches, 1);
            was_pull = pull;
        }
        gapbs_telemetry::trace_iter!(BfsLevel {
            depth,
            frontier: frontier.len() as u64,
            dir: gapbs_telemetry::trace::Dir::from_pull(pull)
        });
        depth += 1;
        if pull {
            let front = AtomicBitmap::new(n);
            for &u in &frontier {
                front.set(u as usize);
            }
            let next = Mutex::new(Vec::new());
            let scanned = pool.reduce_index(
                n,
                Schedule::Dynamic(1024),
                0u64,
                |v| {
                    if visited.get(v) {
                        return 0;
                    }
                    let mut scanned = 0u64;
                    for u in incoming.neighbors(v as NodeId) {
                        scanned += 1;
                        if front.get(u as usize) {
                            parents[v].store(u, Ordering::Relaxed);
                            visited.set(v);
                            next.lock().push(v as NodeId);
                            break;
                        }
                    }
                    scanned
                },
                |a, b| a + b,
            );
            gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, scanned);
            frontier = next.into_inner();
        } else {
            let next = Mutex::new(Vec::new());
            let stride = pool.num_threads();
            pool.run(|tid| {
                let mut local = Vec::new();
                let mut local_edges = 0u64;
                let mut i = tid;
                while i < frontier.len() {
                    let u = frontier[i];
                    for v in out.neighbors(u) {
                        local_edges += 1;
                        if visited.set_if_unset(v as usize) {
                            parents[v as usize].store(u, Ordering::Relaxed);
                            local.push(v);
                        }
                    }
                    i += stride;
                }
                gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, local_edges);
                next.lock().append(&mut local);
            });
            frontier = next.into_inner();
        }
    }
    parent
}

/// Delta-stepping SSSP (no bucket fusion; every drain is a parallel
/// round).
pub fn sssp<W>(g: &W, source: NodeId, delta: Weight, pool: &ThreadPool) -> Vec<Distance>
where
    W: WeightedAdjacencyRange,
{
    let n = g.num_vertices();
    let mut dist = vec![INF_DIST; n];
    if n == 0 {
        return dist;
    }
    let delta = Distance::from(delta.max(1));
    dist[source as usize] = 0;
    let cells = as_atomic_i64(&mut dist);
    let mut buckets: Vec<Vec<NodeId>> = vec![vec![source]];
    let mut current = 0usize;
    loop {
        while current < buckets.len() && buckets[current].is_empty() {
            current += 1;
        }
        if current >= buckets.len() {
            break;
        }
        loop {
            let frontier = std::mem::take(&mut buckets[current]);
            if frontier.is_empty() {
                break;
            }
            gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
            gapbs_telemetry::trace_iter!(SsspBucket {
                bucket: current as u64,
                size: frontier.len() as u64
            });
            let level = current as Distance;
            let collected = Mutex::new(Vec::new());
            let stride = pool.num_threads();
            pool.run(|tid| {
                let mut out = Vec::new();
                let mut local_edges = 0u64;
                let mut i = tid;
                while i < frontier.len() {
                    let u = frontier[i];
                    let du = cells[u as usize].load(Ordering::Relaxed);
                    if du / delta == level {
                        for (v, w) in g.neighbors_weighted(u) {
                            local_edges += 1;
                            let nd = du + Distance::from(w);
                            if fetch_min_i64(&cells[v as usize], nd) {
                                out.push(((nd / delta) as usize, v));
                            }
                        }
                    }
                    i += stride;
                }
                gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, local_edges);
                collected.lock().append(&mut out);
            });
            file_relaxations(&mut buckets, current, collected.into_inner());
        }
        current += 1;
        if current >= buckets.len() {
            break;
        }
    }
    dist
}

/// Gauss–Seidel PageRank (in-place updates), generic over both adjacency
/// directions.
pub fn pr<G, H>(
    out: &G,
    incoming: &H,
    damping: f64,
    tolerance: f64,
    max_iters: usize,
    pool: &ThreadPool,
) -> (Vec<Score>, usize)
where
    G: AdjacencyRange,
    H: AdjacencyRange,
{
    let n = out.num_vertices();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let nf = n as Score;
    let base = (1.0 - damping) / nf;
    let scores: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(1.0 / nf)).collect();
    let out_degree: Vec<usize> = (0..n as NodeId).map(|u| out.degree(u)).collect();
    // Every sweep pulls over every in-edge, i.e. every arc once.
    let arcs = out_degree.iter().sum::<usize>() as u64;
    let mut iterations = 0;
    for iter in 0..max_iters {
        iterations = iter + 1;
        gapbs_telemetry::record(gapbs_telemetry::Counter::PrIterations, 1);
        gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
        gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, arcs);
        let dangling: Score = (0..n)
            .filter(|&v| out_degree[v] == 0)
            .map(|v| scores[v].load())
            .sum::<Score>()
            / nf;
        let error = pool.reduce_index(
            n,
            Schedule::Guided,
            0.0f64,
            |v| {
                let sum: Score = incoming
                    .neighbors(v as NodeId)
                    .map(|u| scores[u as usize].load() / out_degree[u as usize] as Score)
                    .sum();
                let new = base + damping * (sum + dangling);
                let old = scores[v].load();
                scores[v].store(new);
                (new - old).abs()
            },
            |a, b| a + b,
        );
        // Renormalize the in-place sweep's inflated mass (see the
        // Gauss–Seidel discussion in gapbs-galois::pr).
        let mass = pool.reduce_index(
            n,
            Schedule::Static,
            0.0f64,
            |v| scores[v].load(),
            |a, b| a + b,
        );
        if mass > 0.0 {
            pool.for_each_index(n, Schedule::Static, |v| {
                scores[v].store(scores[v].load() / mass);
            });
        }
        gapbs_telemetry::trace_iter!(PrSweep {
            sweep: iterations as u32,
            residual: error
        });
        if error < tolerance {
            break;
        }
    }
    (scores.iter().map(AtomicF64::load).collect(), iterations)
}

/// Afforest connected components, generic over both directions (weak
/// connectivity).
pub fn cc<G>(g: &G, pool: &ThreadPool) -> Vec<NodeId>
where
    G: AdjacencyRange,
{
    const ROUNDS: usize = 2;
    let n = g.num_vertices();
    let mut comp: Vec<NodeId> = (0..n as NodeId).collect();
    if n == 0 {
        return comp;
    }
    {
        let cells = as_atomic_u32(&mut comp);
        for round in 0..ROUNDS {
            gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
            gapbs_telemetry::trace_iter!(CcRound {
                round: round as u32,
                changed: 0
            });
            let sampled = pool.reduce_index(
                n,
                Schedule::Dynamic(512),
                0u64,
                |u| match g.neighbors(u as NodeId).nth(round) {
                    Some(v) => {
                        link(u as NodeId, v, cells);
                        1
                    }
                    None => 0,
                },
                |a, b| a + b,
            );
            gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, sampled);
            compress(cells, pool);
        }
        let giant = sample_largest(cells, n);
        // Process every remaining edge of non-giant vertices; to stay
        // correct with only an out-range, giant vertices still link edges
        // that lead *outside* the giant component.
        let scanned = pool.reduce_index(
            n,
            Schedule::Dynamic(512),
            0u64,
            |u| {
                let cu = find(cells, u as NodeId);
                let mut scanned = 0u64;
                if cu == giant {
                    for v in g.neighbors(u as NodeId) {
                        scanned += 1;
                        if find(cells, v) != giant {
                            link(u as NodeId, v, cells);
                        }
                    }
                } else {
                    for v in g.neighbors(u as NodeId).skip(ROUNDS) {
                        scanned += 1;
                        link(u as NodeId, v, cells);
                    }
                }
                scanned
            },
            |a, b| a + b,
        );
        gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, scanned);
        compress(cells, pool);
    }
    comp
}

/// Brandes BC without a direction-optimized forward pass (§V-E: "The BC
/// kernel did not use direction optimized breadth-first search").
pub fn bc<G>(out: &G, sources: &[NodeId], pool: &ThreadPool) -> Vec<Score>
where
    G: AdjacencyRange,
{
    let n = out.num_vertices();
    let mut scores = vec![0.0; n];
    if n == 0 {
        return scores;
    }
    for &s in sources {
        let depth: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNVISITED_DEPTH)).collect();
        let sigma: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
        depth[s as usize].store(0, Ordering::Relaxed);
        sigma[s as usize].store(1.0);
        let mut levels: Vec<Vec<NodeId>> = vec![vec![s]];
        loop {
            let frontier = levels.last().expect("root level");
            if frontier.is_empty() {
                levels.pop();
                break;
            }
            gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
            let d = (levels.len() - 1) as u32;
            gapbs_telemetry::trace_iter!(BcLevel {
                depth: d,
                frontier: frontier.len() as u64
            });
            let next = Mutex::new(Vec::new());
            let stride = pool.num_threads();
            pool.run(|tid| {
                let mut local = Vec::new();
                let mut local_edges = 0u64;
                let mut i = tid;
                while i < frontier.len() {
                    let u = frontier[i];
                    let su = sigma[u as usize].load();
                    for v in out.neighbors(u) {
                        local_edges += 1;
                        let dv = depth[v as usize].load(Ordering::Relaxed);
                        if dv == UNVISITED_DEPTH
                            && depth[v as usize]
                                .compare_exchange(
                                    UNVISITED_DEPTH,
                                    d + 1,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                )
                                .is_ok()
                        {
                            local.push(v);
                            sigma[v as usize].fetch_add(su);
                        } else if depth[v as usize].load(Ordering::Relaxed) == d + 1 {
                            sigma[v as usize].fetch_add(su);
                        }
                    }
                    i += stride;
                }
                gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, local_edges);
                next.lock().append(&mut local);
            });
            levels.push(next.into_inner());
        }
        let delta: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
        for level in levels.iter().rev().skip(1) {
            let stride = pool.num_threads();
            pool.run(|tid| {
                let mut i = tid;
                while i < level.len() {
                    let u = level[i];
                    let du = depth[u as usize].load(Ordering::Relaxed);
                    let su = sigma[u as usize].load();
                    let mut acc = 0.0;
                    for v in out.neighbors(u) {
                        if depth[v as usize].load(Ordering::Relaxed) == du + 1 {
                            acc +=
                                (su / sigma[v as usize].load()) * (1.0 + delta[v as usize].load());
                        }
                    }
                    delta[u as usize].store(acc);
                    i += stride;
                }
            });
        }
        for v in 0..n {
            if v as NodeId != s {
                scores[v] += delta[v].load();
            }
        }
    }
    let max = scores.iter().cloned().fold(0.0, Score::max);
    if max > 0.0 {
        for v in &mut scores {
            *v /= max;
        }
    }
    scores
}

/// Triangle counting: relabel by descending degree (always, and timed —
/// "sorting and relabeling the edge list ... is included in the timing
/// results", §V-F), then count with a cyclic distribution of rows across
/// threads for load balance.
pub fn tc<G>(g: &G, pool: &ThreadPool) -> u64
where
    G: AdjacencyRange,
{
    let n = g.num_vertices();
    // Relabel into plain nested vectors (the STL-vector character).
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    order.sort_by_key(|&u| (std::cmp::Reverse(g.degree(u)), u));
    let mut new_id = vec![0 as NodeId; n];
    for (new, &old) in order.iter().enumerate() {
        new_id[old as usize] = new as NodeId;
    }
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for u in 0..n as NodeId {
        let nu = new_id[u as usize];
        for v in g.neighbors(u) {
            adj[nu as usize].push(new_id[v as usize]);
        }
    }
    for row in &mut adj {
        row.sort_unstable();
        row.dedup();
    }
    // Cyclic row distribution: thread t takes rows t, t+P, t+2P, ...
    let total = AtomicU64::new(0);
    let stride = pool.num_threads();
    pool.run(|tid| {
        let mut local = 0u64;
        let mut u = tid;
        let mut local_isect = 0u64;
        let mut local_edges = 0u64;
        while u < n {
            let adj_u = &adj[u];
            let prefix_u = &adj_u[..adj_u.partition_point(|&x| (x as usize) < u)];
            local_isect += prefix_u.len() as u64;
            local_edges += adj_u.len() as u64;
            for &v in prefix_u {
                let adj_v = &adj[v as usize];
                let (mut i, mut j) = (0usize, 0usize);
                while i < prefix_u.len() && j < adj_v.len() && prefix_u[i] < v && adj_v[j] < v {
                    match prefix_u[i].cmp(&adj_v[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            local += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
            u += stride;
        }
        gapbs_telemetry::record(gapbs_telemetry::Counter::TcIntersections, local_isect);
        gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, local_edges);
        total.fetch_add(local, Ordering::Relaxed);
    });
    total.into_inner()
}

fn link(u: NodeId, v: NodeId, comp: &[AtomicU32]) {
    let mut p1 = comp[u as usize].load(Ordering::Relaxed);
    let mut p2 = comp[v as usize].load(Ordering::Relaxed);
    while p1 != p2 {
        let (high, low) = if p1 > p2 { (p1, p2) } else { (p2, p1) };
        let p_high = comp[high as usize].load(Ordering::Relaxed);
        if p_high == low
            || (p_high == high
                && comp[high as usize]
                    .compare_exchange(high, low, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok())
        {
            break;
        }
        let ph = comp[high as usize].load(Ordering::Relaxed);
        p1 = comp[ph as usize].load(Ordering::Relaxed);
        p2 = comp[low as usize].load(Ordering::Relaxed);
    }
}

fn compress(comp: &[AtomicU32], pool: &ThreadPool) {
    pool.for_each_index(comp.len(), Schedule::Static, |u| {
        let mut c = comp[u].load(Ordering::Relaxed);
        while c != comp[c as usize].load(Ordering::Relaxed) {
            c = comp[c as usize].load(Ordering::Relaxed);
        }
        comp[u].store(c, Ordering::Relaxed);
    });
}

fn find(comp: &[AtomicU32], u: NodeId) -> NodeId {
    let mut c = comp[u as usize].load(Ordering::Relaxed);
    while c != comp[c as usize].load(Ordering::Relaxed) {
        c = comp[c as usize].load(Ordering::Relaxed);
    }
    c
}

fn sample_largest(comp: &[AtomicU32], n: usize) -> NodeId {
    let mut counts: HashMap<NodeId, usize> = HashMap::new();
    let stride = (n / 1024).max(1);
    for i in (0..n).step_by(stride) {
        *counts.entry(find(comp, i as NodeId)).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(label, count)| (count, std::cmp::Reverse(label)))
        .map(|(label, _)| label)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::{InRange, OutRange, WeightedOutRange};
    use gapbs_graph::gen;
    use gapbs_verify::oracles::{brandes, dijkstra, triangles};
    use gapbs_verify::{verify_bfs, verify_cc};

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn bfs_tree_is_valid() {
        let g = gen::kron(9, 10, 8);
        let parent = bfs(&OutRange(&g), &InRange(&g), 4, &pool());
        verify_bfs(&g, 4, &parent).unwrap();
    }

    #[test]
    fn sssp_matches_dijkstra() {
        let edges = gen::urand_edges(8, 8, 7);
        let wg = gen::weighted_companion(256, &edges, true, 7);
        let got = sssp(&WeightedOutRange(&wg), 0, 16, &pool());
        assert_eq!(got, dijkstra(&wg, 0));
    }

    #[test]
    fn pr_scores_sum_to_one() {
        let g = gen::kron(8, 8, 9);
        let (scores, _) = pr(&OutRange(&g), &InRange(&g), 0.85, 1e-7, 300, &pool());
        let total: f64 = scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-4);
    }

    #[test]
    fn cc_matches_union_find_on_directed_graph() {
        let g = gen::road(&gen::RoadConfig::gap_like(18), 3);
        verify_cc(&g, &cc(&OutRange(&g), &pool())).unwrap();
    }

    #[test]
    fn bc_matches_oracle() {
        let g = gen::kron(7, 8, 10);
        let sources = [0, 1, 2, 3];
        let got = bc(&OutRange(&g), &sources, &pool());
        let want = brandes(&g, &sources);
        for v in 0..g.num_vertices() {
            assert!((got[v] - want[v]).abs() < 1e-9, "vertex {v}");
        }
    }

    #[test]
    fn tc_matches_brute_force() {
        let g = gen::kron(8, 10, 11);
        assert_eq!(tc(&OutRange(&g), &pool()), triangles(&g));
    }
}
