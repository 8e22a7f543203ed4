//! GraphIt BFS: one level-synchronous algorithm, three schedules
//! (push, pull, direction-optimizing).
//!
//! The Optimized schedule for Road is push-only: "it does not use
//! direction optimization (always push). This eliminates the runtime
//! overhead of checking the number of active vertices" (§V-A).

use crate::schedule::{Direction, FrontierLayout, Schedule};
use gapbs_graph::stats;
use gapbs_graph::types::{NodeId, NO_PARENT};
use gapbs_graph::{Graph, Strips};
use gapbs_parallel::atomics::as_atomic_u32;
use gapbs_parallel::sync::Mutex;
use gapbs_parallel::{AtomicBitmap, Schedule as LoopSched, ThreadPool};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Runs BFS from `source` under the given schedule.
pub fn bfs(g: &Graph, source: NodeId, schedule: &Schedule, pool: &ThreadPool) -> Vec<NodeId> {
    let n = g.num_vertices();
    let mut parent = vec![NO_PARENT; n];
    if n == 0 {
        return parent;
    }
    parent[source as usize] = source;
    let parents = as_atomic_u32(&mut parent);
    let mut frontier: Vec<NodeId> = vec![source];
    let visited = AtomicBitmap::new(n);
    visited.set(source as usize);
    let mut edges_to_check = g.num_arcs() as u64;
    let mut scout = g.out_degree(source) as u64;
    let mut strips: Option<Strips> = None;
    let mut was_pull = false;
    let mut depth: u32 = 0;
    while !frontier.is_empty() {
        gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
        let pull = match schedule.direction {
            Direction::Push => false,
            Direction::Pull => true,
            Direction::DirectionOptimizing => {
                // The "runtime overhead of checking the number of active
                // vertices" the Road schedule avoids.
                stats::switch_to_pull(scout, edges_to_check)
            }
        };
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
            // Pull phase over LLC-sized strips of in-edge mass; discovered
            // vertices are batched per strip before touching the shared lock.
            let strips = strips.get_or_insert_with(|| Strips::pull(g.in_csr()));
            let front = AtomicBitmap::new(n);
            for &u in &frontier {
                front.set(u as usize);
            }
            let next = Mutex::new(Vec::new());
            let awake = AtomicU64::new(0);
            pool.for_each_index(strips.len(), LoopSched::Dynamic(1), |s| {
                let mut scanned = 0u64;
                let mut woke = 0u64;
                let mut found: Vec<NodeId> = Vec::new();
                for v in strips.range(s) {
                    if !visited.get(v) {
                        for &u in g.in_neighbors(v as NodeId) {
                            scanned += 1;
                            if front.get(u as usize) {
                                parents[v].store(u, Ordering::Relaxed);
                                visited.set(v);
                                woke += g.out_degree(v as NodeId) as u64;
                                found.push(v as NodeId);
                                break;
                            }
                        }
                    }
                }
                gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, scanned);
                if woke > 0 {
                    awake.fetch_add(woke, Ordering::Relaxed);
                }
                if !found.is_empty() {
                    next.lock().extend_from_slice(&found);
                }
            });
            edges_to_check = edges_to_check.saturating_sub(scout);
            scout = awake.into_inner();
            frontier = next.into_inner();
        } else {
            edges_to_check = edges_to_check.saturating_sub(scout);
            let (next, new_scout) = push_step(g, parents, &visited, &frontier, schedule, pool);
            scout = new_scout;
            frontier = next;
        }
    }
    parent
}

fn push_step(
    g: &Graph,
    parents: &[AtomicU32],
    visited: &AtomicBitmap,
    frontier: &[NodeId],
    schedule: &Schedule,
    pool: &ThreadPool,
) -> (Vec<NodeId>, u64) {
    let scout = AtomicU64::new(0);
    match schedule.frontier {
        FrontierLayout::SparseQueue => {
            let next = Mutex::new(Vec::new());
            let stride = pool.num_threads();
            pool.run(|tid| {
                let mut local = Vec::new();
                let mut s = 0u64;
                let mut examined = 0u64;
                let mut i = tid;
                while i < frontier.len() {
                    let u = frontier[i];
                    examined += g.out_degree(u) as u64;
                    for &v in g.out_neighbors(u) {
                        if visited.set_if_unset(v as usize) {
                            parents[v as usize].store(u, Ordering::Relaxed);
                            local.push(v);
                            s += g.out_degree(v) as u64;
                        }
                    }
                    i += stride;
                }
                gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, examined);
                next.lock().append(&mut local);
                scout.fetch_add(s, Ordering::Relaxed);
            });
            (next.into_inner(), scout.into_inner())
        }
        FrontierLayout::BitVector => {
            // Dense next-frontier bitmap, then a sweep to extract it.
            let n = g.num_vertices();
            let next_bits = AtomicBitmap::new(n);
            let stride = pool.num_threads();
            pool.run(|tid| {
                let mut s = 0u64;
                let mut examined = 0u64;
                let mut i = tid;
                while i < frontier.len() {
                    let u = frontier[i];
                    examined += g.out_degree(u) as u64;
                    for &v in g.out_neighbors(u) {
                        if visited.set_if_unset(v as usize) {
                            parents[v as usize].store(u, Ordering::Relaxed);
                            next_bits.set(v as usize);
                            s += g.out_degree(v) as u64;
                        }
                    }
                    i += stride;
                }
                gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, examined);
                scout.fetch_add(s, Ordering::Relaxed);
            });
            let next: Vec<NodeId> = next_bits.iter_ones().map(|v| v as NodeId).collect();
            (next, scout.into_inner())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::gen;
    use gapbs_verify::verify_bfs;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn all_schedules_produce_valid_trees() {
        let g = gen::kron(9, 10, 6);
        let p = pool();
        for direction in [
            Direction::Push,
            Direction::Pull,
            Direction::DirectionOptimizing,
        ] {
            for frontier in [FrontierLayout::SparseQueue, FrontierLayout::BitVector] {
                let s = Schedule {
                    direction,
                    frontier,
                    ..Schedule::baseline()
                };
                let parent = bfs(&g, 2, &s, &p);
                verify_bfs(&g, 2, &parent).unwrap();
            }
        }
    }

    #[test]
    fn push_only_works_on_road() {
        let g = gen::road(&gen::RoadConfig::gap_like(20), 4);
        let s = Schedule::optimized_for(gapbs_graph::gen::GraphSpec::Road);
        let parent = bfs(&g, 0, &s, &pool());
        verify_bfs(&g, 0, &parent).unwrap();
    }
}
