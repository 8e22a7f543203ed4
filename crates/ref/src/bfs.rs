//! Direction-optimizing breadth-first search (Beamer, Asanović, Patterson).
//!
//! The traversal alternates between a *top-down* (push) step over a sparse
//! frontier queue and a *bottom-up* (pull) step over a dense bitmap. The
//! heuristic switches top-down → bottom-up when the frontier's outgoing
//! edge count exceeds `1/alpha` of the unexplored edges, and back when the
//! frontier shrinks below `n / beta` vertices — GAP's `alpha = 15`,
//! `beta = 18` (`stats::DO_ALPHA`, `stats::DO_BETA`).

use gapbs_graph::stats;
use gapbs_graph::types::{NodeId, NO_PARENT};
use gapbs_graph::{Graph, Strips};
use gapbs_parallel::atomics::as_atomic_u32;
use gapbs_parallel::{AtomicBitmap, PerWorker, QueueBuffer, Schedule, SlidingQueue, ThreadPool};
use gapbs_telemetry::trace::Dir;
use gapbs_telemetry::trace_iter;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Runs direction-optimizing BFS from `source`, returning the parent array:
/// `parent[source] == source`, unreached vertices hold
/// [`NO_PARENT`].
pub fn bfs(g: &Graph, source: NodeId, pool: &ThreadPool) -> Vec<NodeId> {
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
    let next = AtomicBitmap::new(n);
    // Edges left to explore, for the push→pull heuristic.
    let mut edges_to_check = g.num_arcs() as u64;
    let mut scout_count = g.out_degree(source) as u64;
    // Cache-sized vertex strips for the pull phase, computed lazily on the
    // first direction switch (push-only traversals never pay for them).
    let mut strips: Option<Strips> = None;

    let parents = as_atomic_u32(&mut parent);
    let mut depth: u32 = 0;
    while !queue.is_window_empty() {
        if stats::switch_to_pull(scout_count, edges_to_check) {
            // Bottom-up phase: convert queue → bitmap, pull until the
            // frontier is small again, convert back.
            gapbs_telemetry::record(gapbs_telemetry::Counter::DirectionSwitches, 1);
            queue_to_bitmap(&queue, &front, pool);
            let strips = strips.get_or_insert_with(|| Strips::pull(g.in_csr()));
            let mut awake_count = queue.window_len() as u64;
            let mut old_awake;
            loop {
                gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
                trace_iter!(BfsLevel {
                    depth,
                    frontier: awake_count,
                    dir: Dir::Pull
                });
                depth += 1;
                old_awake = awake_count;
                next.clear();
                awake_count = bottom_up_step(g, parents, &front, &next, strips, pool);
                front.copy_from(&next);
                if stats::switch_to_push(awake_count, old_awake, n as u64) {
                    break;
                }
            }
            bitmap_to_queue(&front, &mut queue, pool);
            gapbs_telemetry::record(gapbs_telemetry::Counter::DirectionSwitches, 1);
            scout_count = 1; // stay top-down for at least one step
        } else {
            gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
            trace_iter!(BfsLevel {
                depth,
                frontier: queue.window_len() as u64,
                dir: Dir::Push
            });
            depth += 1;
            edges_to_check = edges_to_check.saturating_sub(scout_count);
            scout_count = top_down_step(g, parents, &queue, pool);
            queue.slide_window();
        }
        if queue.is_window_empty() {
            break;
        }
    }
    parent
}

/// One push step: frontier vertices claim their unvisited neighbors.
/// Returns the total out-degree of newly visited vertices (scout count).
fn top_down_step(
    g: &Graph,
    parents: &[AtomicU32],
    queue: &SlidingQueue<NodeId>,
    pool: &ThreadPool,
) -> u64 {
    struct TdWorker {
        buffer: QueueBuffer<NodeId>,
        scout: u64,
        edges: u64,
    }
    let window = queue.window();
    // Range-stealing chunks instead of a hand-rolled stride: a run of hub
    // vertices no longer pins one stride owner while the rest idle.
    let mut workers = PerWorker::new(pool.num_threads(), || TdWorker {
        buffer: QueueBuffer::new(),
        scout: 0,
        edges: 0,
    });
    pool.for_each_index_tid(window.len(), Schedule::Dynamic(64), |tid, i| {
        // SAFETY: slot `tid` is exclusive to the worker currently running
        // as `tid`; the borrow does not outlive this body.
        let w = unsafe { workers.get_mut(tid) };
        let u = window[i];
        w.edges += g.out_degree(u) as u64;
        for &v in g.out_neighbors(u) {
            if parents[v as usize].load(Ordering::Relaxed) == NO_PARENT
                && parents[v as usize]
                    .compare_exchange(NO_PARENT, u, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            {
                w.buffer.push(v, queue);
                w.scout += g.out_degree(v) as u64;
            }
        }
    });
    let mut scout = 0u64;
    let mut edges = 0u64;
    for w in workers.iter_mut() {
        w.buffer.flush(queue);
        scout += w.scout;
        edges += w.edges;
    }
    gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, edges);
    scout
}

/// One pull step: every unvisited vertex scans its in-neighbors for a
/// frontier member. Returns the number of newly awakened vertices.
///
/// Vertices are walked in degree-aware strips whose in-edge mass fits the
/// LLC, so the frontier bitmap words touched by a strip stay resident
/// while its columns are scanned.
fn bottom_up_step(
    g: &Graph,
    parents: &[AtomicU32],
    front: &AtomicBitmap,
    next: &AtomicBitmap,
    strips: &Strips,
    pool: &ThreadPool,
) -> u64 {
    let awake = AtomicU64::new(0);
    pool.for_each_index(strips.len(), Schedule::Dynamic(1), |s| {
        let mut scanned = 0u64;
        let mut woke = 0u64;
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
            awake.fetch_add(woke, Ordering::Relaxed);
        }
    });
    awake.into_inner()
}

fn queue_to_bitmap(queue: &SlidingQueue<NodeId>, bitmap: &AtomicBitmap, pool: &ThreadPool) {
    pool.for_each_index(bitmap.num_words(), Schedule::Static, |wi| {
        bitmap.store_word(wi, 0);
    });
    let window = queue.window();
    pool.for_each_index(window.len(), Schedule::Dynamic(1024), |i| {
        bitmap.set(window[i] as usize);
    });
}

fn bitmap_to_queue(bitmap: &AtomicBitmap, queue: &mut SlidingQueue<NodeId>, pool: &ThreadPool) {
    queue.reset();
    // Per-worker buffered appends over word-sized chunks; the queue window
    // is consumed as a set, so the interleaving of flushes is immaterial.
    let mut buffers: PerWorker<QueueBuffer<NodeId>> =
        PerWorker::new(pool.num_threads(), QueueBuffer::new);
    {
        let queue = &*queue;
        pool.for_each_index_tid(bitmap.num_words(), Schedule::Dynamic(64), |tid, wi| {
            // SAFETY: slot `tid` is exclusive to the worker running as `tid`.
            let buffer = unsafe { buffers.get_mut(tid) };
            let mut bits = bitmap.load_word(wi);
            while bits != 0 {
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                buffer.push((wi * 64 + tz) as NodeId, queue);
            }
        });
        for buffer in buffers.iter_mut() {
            buffer.flush(queue);
        }
    }
    queue.slide_window();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::edgelist::edges;
    use gapbs_graph::{gen, Builder};

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    fn depths_from_parents(g: &Graph, source: NodeId, parent: &[NodeId]) -> Vec<Option<usize>> {
        // Recover depth by walking parents; panics on malformed trees.
        (0..g.num_vertices() as NodeId)
            .map(|v| {
                if parent[v as usize] == NO_PARENT {
                    return None;
                }
                let mut cur = v;
                let mut d = 0usize;
                while cur != source {
                    cur = parent[cur as usize];
                    d += 1;
                    assert!(d <= g.num_vertices(), "cycle in parent tree");
                }
                Some(d)
            })
            .collect()
    }

    #[test]
    fn path_graph_parents_form_the_path() {
        let g = Builder::new()
            .symmetrize(true)
            .build(edges([(0, 1), (1, 2), (2, 3)]))
            .unwrap();
        let parent = bfs(&g, 0, &pool());
        assert_eq!(parent[0], 0);
        assert_eq!(parent[1], 0);
        assert_eq!(parent[2], 1);
        assert_eq!(parent[3], 2);
    }

    #[test]
    fn unreachable_vertices_have_no_parent() {
        let g = Builder::new()
            .num_vertices(4)
            .build(edges([(0, 1)]))
            .unwrap();
        let parent = bfs(&g, 0, &pool());
        assert_eq!(parent[1], 0);
        assert_eq!(parent[2], NO_PARENT);
        assert_eq!(parent[3], NO_PARENT);
    }

    #[test]
    fn depths_match_sequential_bfs_on_random_graph() {
        let g = gen::kron(9, 12, 5);
        let parent = bfs(&g, 3, &pool());
        let (ecc, _) = gapbs_graph::stats::bfs_eccentricity(&g, 3);
        let depths = depths_from_parents(&g, 3, &parent);
        let max_depth = depths.iter().flatten().max().copied().unwrap();
        assert_eq!(max_depth, ecc, "parent-tree depth must equal BFS depth");
    }

    #[test]
    fn directed_graph_follows_edge_direction() {
        // 0 -> 1 -> 2, and 3 -> 0: vertex 3 unreachable from 0.
        let g = Builder::new()
            .build(edges([(0, 1), (1, 2), (3, 0)]))
            .unwrap();
        let parent = bfs(&g, 0, &pool());
        assert_eq!(parent[2], 1);
        assert_eq!(parent[3], NO_PARENT);
    }

    #[test]
    fn high_diameter_road_is_fully_reached() {
        let g = gen::road(&gen::RoadConfig::gap_like(24), 8);
        let p = pool();
        let parent = bfs(&g, 0, &p);
        let reached = parent.iter().filter(|&&x| x != NO_PARENT).count();
        // The backbone stitching keeps the giant component large.
        assert!(
            reached > g.num_vertices() / 2,
            "only {reached} of {} reached",
            g.num_vertices()
        );
    }
}
