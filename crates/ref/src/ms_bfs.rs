//! Multi-source BFS: up to 64 concurrent searches packed into one `u64`
//! per vertex.
//!
//! A service answering many users' traversal queries on the same graph
//! sees many concurrent *sources*; running them one at a time sweeps the
//! identical adjacency once per source. MS-BFS (Then et al., "The More
//! the Merrier") packs each search into one bit of a machine word: a
//! vertex's `seen`/`frontier` state for all 64 searches is a single
//! `u64`, and one top-down sweep per level advances every search at
//! once. An edge is examined once per level it is incident to *any*
//! frontier — not once per source — which is where the aggregate-TEPS
//! win comes from.
//!
//! The claim primitive is the same word-CAS idea
//! [`AtomicBitmap`](gapbs_parallel::AtomicBitmap) uses for single-source
//! claims, widened to a full word: `seen[v].fetch_or(new)` hands the
//! calling thread exactly the bits it transitioned 0→1, so every
//! `(vertex, source)` pair gets exactly one parent/depth writer. Depths
//! are a pure function of graph and sources (level-synchronous), so each
//! source's depth array is bit-identical to what a standalone
//! [`bfs`](crate::bfs::bfs) run canonicalizes to, at every thread count.
//! Parent *choices*, as everywhere else in this suite, are race winners;
//! the parent arrays are valid BFS trees but compare via depths.

use gapbs_graph::types::{NodeId, NO_PARENT};
use gapbs_graph::Graph;
use gapbs_parallel::atomics::as_atomic_u32;
use gapbs_parallel::{PerWorker, QueueBuffer, Schedule, SlidingQueue, ThreadPool};
use gapbs_telemetry::trace::Dir;
use gapbs_telemetry::trace_iter;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum number of sources one word-packed sweep carries (one bit per
/// search in a `u64`).
pub const MAX_BATCH: usize = 64;

/// Depth value meaning "unreached" in [`MsBfsResult::depths`].
pub const UNREACHED_DEPTH: u32 = u32::MAX;

/// Per-source results of a multi-source BFS, indexed `[source][vertex]`.
#[derive(Debug, Clone)]
pub struct MsBfsResult {
    /// `parents[s][v]`: parent of `v` in source `s`'s BFS tree
    /// (`parents[s][sources[s]] == sources[s]`; unreached vertices hold
    /// [`NO_PARENT`]).
    pub parents: Vec<Vec<NodeId>>,
    /// `depths[s][v]`: BFS depth of `v` from source `s`, or
    /// [`UNREACHED_DEPTH`]. Deterministic — a pure function of graph and
    /// source.
    pub depths: Vec<Vec<u32>>,
}

/// Converts a BFS parent array into the canonical depth array: depths
/// are a pure function of graph and source, parent choices are race
/// winners. This is the form MS-BFS bit-identity is asserted in (the
/// serve layer's fingerprints hash the same canonicalization).
pub fn depths_from_parents(parents: &[NodeId]) -> Vec<u32> {
    let n = parents.len();
    let mut depth = vec![UNREACHED_DEPTH; n];
    for start in 0..n {
        if depth[start] != UNREACHED_DEPTH || parents[start] == NO_PARENT {
            continue;
        }
        // Chase parents until a known depth or the root, then unwind.
        let mut chain = Vec::new();
        let mut v = start;
        loop {
            if depth[v] != UNREACHED_DEPTH {
                break;
            }
            let p = parents[v] as usize;
            if p == v {
                depth[v] = 0; // root: parent[source] == source
                break;
            }
            chain.push(v);
            v = p;
        }
        let mut d = depth[v];
        while let Some(u) = chain.pop() {
            d += 1;
            depth[u] = d;
        }
    }
    depth
}

/// Runs BFS from every vertex in `sources` with one shared sweep per
/// [`MAX_BATCH`]-wide group, returning per-source parent and depth
/// arrays. Sources may repeat (each occurrence gets its own result
/// column) and may be isolated vertices.
///
/// # Panics
///
/// Panics if any source is out of the graph's vertex range.
pub fn ms_bfs(g: &Graph, sources: &[NodeId], pool: &ThreadPool) -> MsBfsResult {
    let mut result = MsBfsResult {
        parents: Vec::with_capacity(sources.len()),
        depths: Vec::with_capacity(sources.len()),
    };
    for group in sources.chunks(MAX_BATCH) {
        let (mut parents, mut depths) = ms_bfs_word(g, group, pool);
        result.parents.append(&mut parents);
        result.depths.append(&mut depths);
    }
    result
}

/// One word-packed sweep over at most [`MAX_BATCH`] sources.
#[allow(clippy::type_complexity)]
fn ms_bfs_word(
    g: &Graph,
    sources: &[NodeId],
    pool: &ThreadPool,
) -> (Vec<Vec<NodeId>>, Vec<Vec<u32>>) {
    let n = g.num_vertices();
    let k = sources.len();
    debug_assert!(k <= MAX_BATCH);
    let mut parents: Vec<Vec<NodeId>> = (0..k).map(|_| vec![NO_PARENT; n]).collect();
    let mut depths: Vec<Vec<u32>> = (0..k).map(|_| vec![UNREACHED_DEPTH; n]).collect();
    if n == 0 || k == 0 {
        return (parents, depths);
    }
    // One result column per source, written through atomic views because
    // claims land from any worker (each (vertex, source) exactly once).
    let parent_views: Vec<_> = parents.iter_mut().map(|p| as_atomic_u32(p)).collect();
    let depth_views: Vec<_> = depths.iter_mut().map(|d| as_atomic_u32(d)).collect();

    // Word-packed per-vertex state: bit c of seen[v] ⇔ search c reached v;
    // front/next hold the bits active in the current/next level.
    let seen: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let mut front: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let mut next: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();

    // Ping-pong sliding queues: each level's frontier is built into `nxt`
    // while `cur`'s window is consumed, then the roles swap. A vertex is
    // enqueued exactly once per level (on its word's 0→nonzero flip), so
    // per-level usage is bounded by n and a reset reclaims the capacity.
    let mut cur: SlidingQueue<NodeId> = SlidingQueue::new(n + 1);
    let mut nxt: SlidingQueue<NodeId> = SlidingQueue::new(n + 1);

    for (c, &s) in sources.iter().enumerate() {
        assert!((s as usize) < n, "source {s} out of range ({n} vertices)");
        let si = s as usize;
        parent_views[c][si].store(s, Ordering::Relaxed);
        depth_views[c][si].store(0, Ordering::Relaxed);
        let bit = 1u64 << c;
        seen[si].fetch_or(bit, Ordering::Relaxed);
        if front[si].fetch_or(bit, Ordering::Relaxed) == 0 {
            cur.push(s);
        }
    }
    cur.slide_window();

    struct MsWorker {
        buffer: QueueBuffer<NodeId>,
        edges: u64,
    }

    let mut level: u32 = 0;
    while !cur.is_window_empty() {
        gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
        trace_iter!(BfsLevel {
            depth: level,
            frontier: cur.window_len() as u64,
            dir: Dir::Push
        });
        let window = cur.window();
        let mut workers = PerWorker::new(pool.num_threads(), || MsWorker {
            buffer: QueueBuffer::new(),
            edges: 0,
        });
        {
            let nxt = &nxt;
            pool.for_each_index_tid(window.len(), Schedule::Dynamic(64), |tid, i| {
                // SAFETY: slot `tid` is exclusive to the worker currently
                // running as `tid`; the borrow ends with this body.
                let w = unsafe { workers.get_mut(tid) };
                let u = window[i];
                let word = front[u as usize].load(Ordering::Relaxed);
                w.edges += g.out_degree(u) as u64;
                for &v in g.out_neighbors(u) {
                    let vi = v as usize;
                    let mut new = word & !seen[vi].load(Ordering::Relaxed);
                    if new == 0 {
                        continue;
                    }
                    // The fetch_or hands this thread exactly the bits it
                    // flipped 0→1: each (v, c) claim happens once globally.
                    new &= !seen[vi].fetch_or(new, Ordering::Relaxed);
                    if new == 0 {
                        continue;
                    }
                    if next[vi].fetch_or(new, Ordering::Relaxed) == 0 {
                        w.buffer.push(v, nxt);
                    }
                    let mut bits = new;
                    while bits != 0 {
                        let c = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        parent_views[c][vi].store(u, Ordering::Relaxed);
                        depth_views[c][vi].store(level + 1, Ordering::Relaxed);
                    }
                }
            });
            let mut edges = 0u64;
            for w in workers.iter_mut() {
                w.buffer.flush(nxt);
                edges += w.edges;
            }
            gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, edges);
        }
        // Only window vertices hold nonzero front words; zeroing them
        // here hands the next swap an all-clear `next` buffer.
        pool.for_each_index(window.len(), Schedule::Dynamic(1024), |i| {
            front[window[i] as usize].store(0, Ordering::Relaxed);
        });
        nxt.slide_window();
        cur.reset();
        std::mem::swap(&mut cur, &mut nxt);
        std::mem::swap(&mut front, &mut next);
        level += 1;
    }
    (parents, depths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::edgelist::edges;
    use gapbs_graph::{gen, Builder};

    fn assert_matches_single_source(g: &Graph, sources: &[NodeId], pool: &ThreadPool) {
        let result = ms_bfs(g, sources, pool);
        assert_eq!(result.parents.len(), sources.len());
        assert_eq!(result.depths.len(), sources.len());
        for (c, &s) in sources.iter().enumerate() {
            let single = depths_from_parents(&crate::bfs::bfs(g, s, pool));
            assert_eq!(
                result.depths[c], single,
                "depth mismatch for source {s} (column {c})"
            );
            // The packed parent array must agree with its own depth
            // column: parent at depth d-1 over a real edge.
            for v in 0..g.num_vertices() {
                let p = result.parents[c][v];
                let d = result.depths[c][v];
                if d == UNREACHED_DEPTH {
                    assert_eq!(p, NO_PARENT, "unreached vertex {v} has a parent");
                } else if d == 0 {
                    assert_eq!(p, v as NodeId, "root parent must be itself");
                } else {
                    assert_eq!(
                        result.depths[c][p as usize],
                        d - 1,
                        "vertex {v}'s parent {p} is not one level up"
                    );
                    assert!(
                        g.out_neighbors(p).contains(&(v as NodeId)),
                        "parent {p} has no edge to {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_bfs_across_thread_counts_and_batch_widths() {
        let kron = gen::kron(9, 12, 5);
        let road = gen::road(&gen::RoadConfig::gap_like(24), 8);
        for threads in [1, 2, 7, 16] {
            let pool = ThreadPool::new(threads);
            for width in [1usize, 3, 64] {
                let sources: Vec<NodeId> = (0..width)
                    .map(|i| ((i * 37 + 3) % kron.num_vertices()) as NodeId)
                    .collect();
                assert_matches_single_source(&kron, &sources, &pool);
                let sources: Vec<NodeId> = (0..width)
                    .map(|i| ((i * 11) % road.num_vertices()) as NodeId)
                    .collect();
                assert_matches_single_source(&road, &sources, &pool);
            }
        }
    }

    #[test]
    fn duplicate_and_unreachable_sources_each_get_a_column() {
        // 0 -> 1 -> 2 and isolated-ish 3 -> 0: from 3 everything is
        // reachable, from 2 nothing is; duplicates must match exactly.
        let g = Builder::new()
            .num_vertices(5)
            .build(edges([(0, 1), (1, 2), (3, 0)]))
            .unwrap();
        let pool = ThreadPool::new(4);
        assert_matches_single_source(&g, &[2, 0, 2, 3, 0, 4], &pool);
    }

    #[test]
    fn more_than_max_batch_sources_are_chunked() {
        let g = gen::kron(8, 10, 7);
        let pool = ThreadPool::new(4);
        let sources: Vec<NodeId> = (0..(MAX_BATCH + 5))
            .map(|i| (i % MAX_BATCH) as NodeId)
            .collect();
        let result = ms_bfs(&g, &sources, &pool);
        assert_eq!(result.depths.len(), MAX_BATCH + 5);
        // Chunk boundary columns agree with their duplicates in chunk 0.
        assert_eq!(result.depths[MAX_BATCH], result.depths[0]);
        assert_eq!(result.depths[MAX_BATCH + 1], result.depths[1]);
    }

    #[test]
    fn empty_source_list_yields_empty_result() {
        let g = gen::kron(6, 4, 1);
        let pool = ThreadPool::new(2);
        let result = ms_bfs(&g, &[], &pool);
        assert!(result.parents.is_empty());
        assert!(result.depths.is_empty());
    }
}
