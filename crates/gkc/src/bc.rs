//! GKC betweenness centrality: Brandes with a per-arc successor bitmap
//! (the same family as GAP — Table V shows GKC BC within a few percent of
//! GAP on every graph), driven by the local-buffer frontier machinery.

use gapbs_graph::types::{NodeId, Score};
use gapbs_graph::Graph;
use gapbs_parallel::atomics::AtomicF64;
use gapbs_parallel::sync::Mutex;
use gapbs_parallel::{AtomicBitmap, ThreadPool};
use std::sync::atomic::{AtomicU32, Ordering};

const UNVISITED: u32 = u32::MAX;

/// Runs Brandes BC from `sources`, normalized by the maximum score.
pub fn bc(g: &Graph, sources: &[NodeId], pool: &ThreadPool) -> Vec<Score> {
    let n = g.num_vertices();
    let mut scores = vec![0.0; n];
    if n == 0 {
        return scores;
    }
    let succ = AtomicBitmap::new(g.num_arcs());
    for &s in sources {
        succ.clear();
        let depth: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNVISITED)).collect();
        let sigma: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
        depth[s as usize].store(0, Ordering::Relaxed);
        sigma[s as usize].store(1.0);
        let mut levels = vec![vec![s]];
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
                let mut examined = 0u64;
                let mut i = tid;
                while i < frontier.len() {
                    let u = frontier[i];
                    let su = sigma[u as usize].load();
                    let base = g.out_csr().offset(u);
                    let row = g.out_neighbors(u);
                    examined += row.len() as u64;
                    let mut k = 0;
                    while k < row.len() {
                        let v = row[k];
                        let dv = depth[v as usize].load(Ordering::Relaxed);
                        if dv == UNVISITED
                            && depth[v as usize]
                                .compare_exchange(
                                    UNVISITED,
                                    d + 1,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                )
                                .is_ok()
                        {
                            local.push(v);
                            sigma[v as usize].fetch_add(su);
                            succ.set(base + k);
                        } else if depth[v as usize].load(Ordering::Relaxed) == d + 1 {
                            sigma[v as usize].fetch_add(su);
                            succ.set(base + k);
                        }
                        k += 1;
                    }
                    i += stride;
                }
                gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, examined);
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
                    let su = sigma[u as usize].load();
                    let base = g.out_csr().offset(u);
                    let row = g.out_neighbors(u);
                    let mut acc = 0.0;
                    let mut k = 0;
                    while k < row.len() {
                        if succ.get(base + k) {
                            let v = row[k] as usize;
                            acc += (su / sigma[v].load()) * (1.0 + delta[v].load());
                        }
                        k += 1;
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

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::gen;
    use gapbs_verify::oracles::brandes;

    #[test]
    fn matches_sequential_brandes() {
        for seed in [1, 6] {
            let g = gen::kron(8, 8, seed);
            let sources = [0, 4, 8, 12];
            let got = bc(&g, &sources, &ThreadPool::new(4));
            let want = brandes(&g, &sources);
            for v in 0..g.num_vertices() {
                assert!((got[v] - want[v]).abs() < 1e-9, "seed {seed} vertex {v}");
            }
        }
    }
}
