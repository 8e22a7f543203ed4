//! Galois BFS: bulk-synchronous direction-optimizing for (assumed)
//! low-diameter graphs, asynchronous label-correcting for (assumed)
//! high-diameter graphs.
//!
//! The asynchronous variant maintains a single sparse worklist; an
//! operator application relaxes a vertex's depth label and re-activates
//! its neighbors. There are no rounds, so deep graphs avoid thousands of
//! barriers — at the price of redundant relaxations on shallow graphs
//! (the paper's Urand Baseline anomaly).

use crate::heuristic::ExecutionStyle;
use gapbs_graph::stats;
use gapbs_graph::types::{NodeId, NO_PARENT};
use gapbs_graph::{Graph, Strips};
use gapbs_parallel::atomics::as_atomic_u32;
use gapbs_parallel::{
    AtomicBitmap, ChunkedWorklist, QueueBuffer, Schedule, SlidingQueue, ThreadPool,
};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Runs BFS from `source` using the given execution style.
pub fn bfs(g: &Graph, source: NodeId, style: ExecutionStyle, pool: &ThreadPool) -> Vec<NodeId> {
    match style {
        ExecutionStyle::BulkSynchronous => bulk_sync(g, source, pool),
        ExecutionStyle::Asynchronous => asynchronous(g, source, pool),
    }
}

/// Asynchronous label-correcting BFS. Depth labels converge to true BFS
/// depths; parents are updated together with depths, so the final parent
/// of `v` sits at depth `depth(v) - 1`.
fn asynchronous(g: &Graph, source: NodeId, pool: &ThreadPool) -> Vec<NodeId> {
    let n = g.num_vertices();
    let mut parent = vec![NO_PARENT; n];
    if n == 0 {
        return parent;
    }
    parent[source as usize] = source;
    let depth: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    depth[source as usize].store(0, Ordering::Relaxed);
    let parents = as_atomic_u32(&mut parent);
    let worklist = ChunkedWorklist::new(pool.clone());
    worklist.for_each(vec![source], |u, push| {
        let du = depth[u as usize].load(Ordering::Relaxed);
        for &v in g.out_neighbors(u) {
            let nd = du + 1;
            // Operator: relax the depth label (fetch-min via CAS loop).
            let mut cur = depth[v as usize].load(Ordering::Relaxed);
            while nd < cur {
                match depth[v as usize].compare_exchange_weak(
                    cur,
                    nd,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        parents[v as usize].store(u, Ordering::Relaxed);
                        push(v);
                        break;
                    }
                    Err(actual) => cur = actual,
                }
            }
        }
        g.out_degree(u) as u64
    });
    // A racing relaxation can leave parent[v] pointing at a vertex whose
    // own depth later improved; one repair sweep restores the BFS-tree
    // invariant (parent depth = depth - 1).
    pool.for_each_index(n, Schedule::Static, |v| {
        let p = parents[v].load(Ordering::Relaxed);
        if p == NO_PARENT || v as NodeId == source {
            return;
        }
        let dv = depth[v].load(Ordering::Relaxed);
        if depth[p as usize].load(Ordering::Relaxed) + 1 != dv {
            for &u in g.in_neighbors(v as NodeId) {
                if depth[u as usize].load(Ordering::Relaxed) + 1 == dv {
                    parents[v].store(u, Ordering::Relaxed);
                    break;
                }
            }
        }
    });
    parent
}

/// Bulk-synchronous direction-optimizing BFS (the same family of
/// algorithm as GAP; the paper notes the two use the same approach on
/// power-law graphs, with Galois paying generic-library overhead).
fn bulk_sync(g: &Graph, source: NodeId, pool: &ThreadPool) -> Vec<NodeId> {
    let n = g.num_vertices();
    let mut parent = vec![NO_PARENT; n];
    if n == 0 {
        return parent;
    }
    parent[source as usize] = source;
    let mut queue = SlidingQueue::new(n + 1);
    queue.push(source);
    queue.slide_window();
    let front = AtomicBitmap::new(n);
    let parents = as_atomic_u32(&mut parent);
    let mut edges_to_check = g.num_arcs() as u64;
    let mut scout = g.out_degree(source) as u64;
    let mut strips: Option<Strips> = None;
    let mut was_pull = false;
    let mut depth: u32 = 0;
    while !queue.is_window_empty() {
        gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
        let pull = stats::switch_to_pull(scout, edges_to_check);
        if pull != was_pull {
            gapbs_telemetry::record(gapbs_telemetry::Counter::DirectionSwitches, 1);
            was_pull = pull;
        }
        if pull {
            // Pull phase, walked in LLC-sized strips of in-edge mass.
            let strips = strips.get_or_insert_with(|| Strips::pull(g.in_csr()));
            front.clear();
            for &u in queue.window() {
                front.set(u as usize);
            }
            let mut awake = queue.window_len() as u64;
            loop {
                let prev = awake;
                gapbs_telemetry::trace_iter!(BfsLevel {
                    depth,
                    frontier: prev,
                    dir: gapbs_telemetry::trace::Dir::Pull
                });
                depth += 1;
                let next = AtomicBitmap::new(n);
                let count = AtomicU64::new(0);
                pool.for_each_index(strips.len(), Schedule::Dynamic(1), |s| {
                    let mut woke = 0u64;
                    let mut scanned = 0u64;
                    for v in strips.range(s) {
                        if parents[v].load(Ordering::Relaxed) == NO_PARENT {
                            for &u in g.in_neighbors(v as NodeId) {
                                scanned += 1;
                                if front.get(u as usize) {
                                    parents[v].store(u, Ordering::Relaxed);
                                    next.set(v);
                                    woke += 1;
                                    break;
                                }
                            }
                        }
                    }
                    gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, scanned);
                    if woke > 0 {
                        count.fetch_add(woke, Ordering::Relaxed);
                    }
                });
                awake = count.into_inner();
                front.copy_from(&next);
                if stats::switch_to_push(awake, prev, n as u64) {
                    break;
                }
            }
            queue.reset();
            let mut buf = QueueBuffer::new();
            for v in front.iter_ones() {
                buf.push(v as NodeId, &queue);
            }
            buf.flush(&queue);
            queue.slide_window();
            scout = 1;
        } else {
            gapbs_telemetry::trace_iter!(BfsLevel {
                depth,
                frontier: queue.window_len() as u64,
                dir: gapbs_telemetry::trace::Dir::Push
            });
            depth += 1;
            edges_to_check = edges_to_check.saturating_sub(scout);
            let window = queue.window();
            let new_scout = AtomicU64::new(0);
            pool.run(|tid| {
                let mut buf = QueueBuffer::new();
                let mut local = 0u64;
                let stride = pool.num_threads();
                let mut i = tid;
                let mut examined = 0u64;
                while i < window.len() {
                    let u = window[i];
                    examined += g.out_degree(u) as u64;
                    for &v in g.out_neighbors(u) {
                        if parents[v as usize].load(Ordering::Relaxed) == NO_PARENT
                            && parents[v as usize]
                                .compare_exchange(
                                    NO_PARENT,
                                    u,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                )
                                .is_ok()
                        {
                            buf.push(v, &queue);
                            local += g.out_degree(v) as u64;
                        }
                    }
                    i += stride;
                }
                buf.flush(&queue);
                gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, examined);
                new_scout.fetch_add(local, Ordering::Relaxed);
            });
            scout = new_scout.into_inner();
            queue.slide_window();
        }
        if queue.is_window_empty() {
            break;
        }
    }
    parent
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::edgelist::edges;
    use gapbs_graph::{gen, Builder};
    use gapbs_verify::verify_bfs;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn both_styles_build_valid_trees_on_road() {
        let g = gen::road(&gen::RoadConfig::gap_like(20), 7);
        let p = pool();
        for style in [
            ExecutionStyle::Asynchronous,
            ExecutionStyle::BulkSynchronous,
        ] {
            let parent = bfs(&g, 0, style, &p);
            verify_bfs(&g, 0, &parent).unwrap();
        }
    }

    #[test]
    fn both_styles_build_valid_trees_on_kron() {
        let g = gen::kron(9, 10, 2);
        let p = pool();
        for style in [
            ExecutionStyle::Asynchronous,
            ExecutionStyle::BulkSynchronous,
        ] {
            let parent = bfs(&g, 5, style, &p);
            verify_bfs(&g, 5, &parent).unwrap();
        }
    }

    #[test]
    fn directed_reachability_respected() {
        let g = Builder::new().build(edges([(0, 1), (2, 0)])).unwrap();
        let parent = bfs(&g, 0, ExecutionStyle::Asynchronous, &pool());
        assert_eq!(parent[1], 0);
        assert_eq!(parent[2], NO_PARENT);
    }
}
