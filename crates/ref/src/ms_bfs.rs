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
//! The result is depths only: they are what every caller reads, and a
//! depth is a pure function of graph and source (level-synchronous), so
//! each column is bit-identical to what a standalone [`bfs`](crate::bfs::bfs)
//! run canonicalizes to, at every thread count. Each level runs in two
//! phases:
//!
//! 1. *Expand.* Every frontier vertex takes its word with
//!    `front[u].swap(0)` and, per out-edge, ORs the searches that have
//!    not seen `v` into `next[v]`. `seen` is read-only here, so an edge
//!    costs one atomic read-modify-write only when it adds a bit `next[v]`
//!    lacks; the RMW that flips `next[v]` from zero enqueues `v`.
//! 2. *Settle.* Each vertex of the new frontier is owned by exactly one
//!    iteration, which folds `next[v]` into `seen[v]` with a plain load
//!    and store and writes depth `level + 1` for each of its bits.

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
/// [`MAX_BATCH`]-wide group, returning per-source depth arrays. Sources
/// may repeat (each occurrence gets its own result column) and may be
/// isolated vertices.
///
/// # Panics
///
/// Panics if any source is out of the graph's vertex range.
pub fn ms_bfs(g: &Graph, sources: &[NodeId], pool: &ThreadPool) -> MsBfsResult {
    let mut depths = Vec::with_capacity(sources.len());
    for group in sources.chunks(MAX_BATCH) {
        depths.append(&mut ms_bfs_word(g, group, pool));
    }
    MsBfsResult { depths }
}

/// One word-packed sweep over at most [`MAX_BATCH`] sources.
fn ms_bfs_word(g: &Graph, sources: &[NodeId], pool: &ThreadPool) -> Vec<Vec<u32>> {
    let n = g.num_vertices();
    let k = sources.len();
    debug_assert!(k <= MAX_BATCH);
    let mut depths: Vec<Vec<u32>> = (0..k).map(|_| vec![UNREACHED_DEPTH; n]).collect();
    if n == 0 || k == 0 {
        return depths;
    }
    // One result column per source, written through atomic views because
    // settles land from any worker (each (vertex, source) exactly once).
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
                // Taking the word clears it, so the next swap hands this
                // level's `front` back as an all-clear `next`.
                let word = front[u as usize].swap(0, Ordering::Relaxed);
                w.edges += g.out_degree(u) as u64;
                for &v in g.out_neighbors(u) {
                    let vi = v as usize;
                    let new = word & !seen[vi].load(Ordering::Relaxed);
                    if new & !next[vi].load(Ordering::Relaxed) == 0 {
                        continue;
                    }
                    if next[vi].fetch_or(new, Ordering::Relaxed) == 0 {
                        w.buffer.push(v, nxt);
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
        nxt.slide_window();
        // Relaxed suffices in both phases: the pool's region join orders
        // every expand write before any settle read, and each settle
        // before the next level's expand.
        let settled = nxt.window();
        pool.for_each_index(settled.len(), Schedule::Dynamic(256), |i| {
            let v = settled[i] as usize;
            let mut bits = next[v].load(Ordering::Relaxed);
            let was = seen[v].load(Ordering::Relaxed);
            seen[v].store(was | bits, Ordering::Relaxed);
            while bits != 0 {
                let c = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                depth_views[c][v].store(level + 1, Ordering::Relaxed);
            }
        });
        cur.reset();
        std::mem::swap(&mut cur, &mut nxt);
        std::mem::swap(&mut front, &mut next);
        level += 1;
    }
    depths
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapbs_graph::edgelist::edges;
    use gapbs_graph::gen::{GraphSpec, Scale};
    use gapbs_graph::{gen, Builder};

    fn assert_matches_single_source(g: &Graph, sources: &[NodeId], pool: &ThreadPool) {
        let result = ms_bfs(g, sources, pool);
        assert_eq!(result.depths.len(), sources.len());
        for (c, &s) in sources.iter().enumerate() {
            let single = depths_from_parents(&crate::bfs::bfs(g, s, pool));
            assert_eq!(
                result.depths[c], single,
                "depth mismatch for source {s} (column {c})"
            );
        }
    }

    #[test]
    fn matches_bfs_across_thread_counts_and_batch_widths() {
        let kron = gen::kron(9, 12, 5);
        let road = gen::road(&gen::RoadConfig::gap_like(24), 8);
        // Directed: in-edges are not out-edges, so a search must follow
        // the arcs' direction only.
        let twitter = GraphSpec::Twitter.generate(Scale::Tiny);
        assert!(twitter.is_directed());
        for threads in [1, 2, 7, 16] {
            let pool = ThreadPool::new(threads);
            for width in [1usize, 3, 64] {
                for (g, stride, offset) in [(&kron, 37, 3), (&road, 11, 0), (&twitter, 29, 1)] {
                    let sources: Vec<NodeId> = (0..width)
                        .map(|i| ((i * stride + offset) % g.num_vertices()) as NodeId)
                        .collect();
                    assert_matches_single_source(g, &sources, &pool);
                }
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
    fn degenerate_graphs_match_bfs() {
        let pool = ThreadPool::new(3);
        // No edges at all: every source reaches only itself.
        let edgeless = Builder::new().num_vertices(6).build(Vec::new()).unwrap();
        assert_matches_single_source(&edgeless, &[0, 5, 3, 3], &pool);
        // One vertex.
        let single = Builder::new().num_vertices(1).build(Vec::new()).unwrap();
        assert_matches_single_source(&single, &[0, 0], &pool);
        // An isolated source beside a connected path.
        let path = Builder::new()
            .num_vertices(5)
            .build(edges([(0, 1), (1, 2), (2, 3)]))
            .unwrap();
        assert_matches_single_source(&path, &[4, 0, 4], &pool);
        // Self-loops only: a loop never reaches a new vertex.
        let loops = Builder::new()
            .num_vertices(4)
            .build(edges([(0, 0), (1, 1), (2, 2), (3, 3)]))
            .unwrap();
        assert_matches_single_source(&loops, &[0, 1, 2, 3], &pool);
        // A max-degree star, entered from the hub and from leaves.
        let n = 300u32;
        let star = Builder::new()
            .num_vertices(n as usize)
            .symmetrize(true)
            .build(edges((1..n).map(|leaf| (0, leaf))))
            .unwrap();
        let sources: Vec<NodeId> = (0..MAX_BATCH as NodeId).map(|i| i * 4).collect();
        assert_matches_single_source(&star, &sources, &pool);
    }

    #[test]
    fn more_than_max_batch_sources_are_chunked() {
        let g = gen::kron(8, 10, 7);
        let pool = ThreadPool::new(4);
        // 65 sources: the 65th column is the first of a second sweep.
        let sources: Vec<NodeId> = (0..(MAX_BATCH + 1))
            .map(|i| ((i * 13) % g.num_vertices()) as NodeId)
            .collect();
        assert_matches_single_source(&g, &sources, &pool);
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
    fn empty_inputs_yield_empty_results() {
        let pool = ThreadPool::new(2);
        let g = gen::kron(6, 4, 1);
        assert!(ms_bfs(&g, &[], &pool).depths.is_empty());
        let empty = Builder::new().build(Vec::new()).unwrap();
        assert_eq!(empty.num_vertices(), 0);
        assert!(ms_bfs(&empty, &[], &pool).depths.is_empty());
    }
}
