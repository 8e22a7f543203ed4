//! GKC BFS: direction-optimizing traversal with cache-sized thread-local
//! frontier buffers.
//!
//! "For implementations other than TC, each thread allocates its own
//! memory buffer ... explicitly flushed back to the global buffer"
//! (§III-E1). Because the abstractions are minimal, this kernel carries
//! the least per-iteration overhead of the suite — the property behind
//! GKC's strong Road BFS showing (157.85% of GAP, Table V).

use gapbs_graph::stats;
use gapbs_graph::types::{NodeId, NO_PARENT};
use gapbs_graph::{Graph, Strips};
use gapbs_parallel::atomics::as_atomic_u32;
use gapbs_parallel::{AtomicBitmap, QueueBuffer, Schedule, SlidingQueue, ThreadPool};
use std::sync::atomic::{AtomicU64, Ordering};

/// L1-friendly buffer size (entries) for the local frontier buffers.
const LOCAL_BUFFER: usize = 1024;

/// Runs BFS from `source`, returning the parent array.
pub fn bfs(g: &Graph, source: NodeId, pool: &ThreadPool) -> Vec<NodeId> {
    let n = g.num_vertices();
    let mut parent = vec![NO_PARENT; n];
    if n == 0 {
        return parent;
    }
    parent[source as usize] = source;
    let parents = as_atomic_u32(&mut parent);
    let mut queue = SlidingQueue::new(n + 1);
    queue.push(source);
    queue.slide_window();
    let front = AtomicBitmap::new(n);
    let next = AtomicBitmap::new(n);
    let mut edges_left = g.num_arcs() as u64;
    let mut scout = g.out_degree(source) as u64;
    let mut strips: Option<Strips> = None;
    let mut was_pull = false;
    let mut depth: u32 = 0;
    while !queue.is_window_empty() {
        gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
        let pull = stats::switch_to_pull(scout, edges_left);
        if pull != was_pull {
            gapbs_telemetry::record(gapbs_telemetry::Counter::DirectionSwitches, 1);
            was_pull = pull;
        }
        if pull {
            // Pull phase over dense bitmaps, walked in LLC-sized strips of
            // in-edge mass (computed once, on the first switch).
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
                next.clear();
                let count = AtomicU64::new(0);
                pool.for_each_index(strips.len(), Schedule::Dynamic(1), |s| {
                    let mut woke = 0u64;
                    let mut examined = 0u64;
                    for v in strips.range(s) {
                        if parents[v].load(Ordering::Relaxed) == NO_PARENT {
                            // Tight scalar loop over the raw slice (the
                            // SIMD gather analogue).
                            let row = g.in_neighbors(v as NodeId);
                            let mut k = 0;
                            while k < row.len() {
                                let u = row[k];
                                if front.get(u as usize) {
                                    parents[v].store(u, Ordering::Relaxed);
                                    next.set(v);
                                    woke += 1;
                                    break;
                                }
                                k += 1;
                            }
                            examined += ((k + 1).min(row.len())) as u64;
                        }
                    }
                    gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, examined);
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
            let mut buf = QueueBuffer::with_capacity(LOCAL_BUFFER);
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
            edges_left = edges_left.saturating_sub(scout);
            let window = queue.window();
            let scout_sum = AtomicU64::new(0);
            let stride = pool.num_threads();
            pool.run(|tid| {
                // Cache-sized local buffer, flushed in bulk (§III-E1/E2).
                let mut buf = QueueBuffer::with_capacity(LOCAL_BUFFER);
                let mut local_scout = 0u64;
                let mut examined = 0u64;
                let mut i = tid;
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
                            local_scout += g.out_degree(v) as u64;
                        }
                    }
                    i += stride;
                }
                buf.flush(&queue);
                gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, examined);
                scout_sum.fetch_add(local_scout, Ordering::Relaxed);
            });
            scout = scout_sum.into_inner();
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
    use gapbs_graph::gen;
    use gapbs_verify::verify_bfs;

    #[test]
    fn valid_tree_on_road_and_kron() {
        for g in [
            gen::road(&gen::RoadConfig::gap_like(20), 1),
            gen::kron(9, 10, 1),
        ] {
            let parent = bfs(&g, 0, &ThreadPool::new(4));
            verify_bfs(&g, 0, &parent).unwrap();
        }
    }
}
