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
//! run canonicalizes to, at every thread count.
//!
//! Like `bfs`, the sweep picks a direction per level: it pulls when the
//! frontier's out-degree sum (`scout`) times `MS_PULL_ALPHA` exceeds one
//! pass over every vertex and arc, and pushes otherwise. A push level runs
//! in two phases:
//!
//! 1. *Expand.* Every frontier vertex takes its word with
//!    `front[u].swap(0)` and, per out-edge, ORs the searches that have
//!    not seen `v` into `next[v]`. `seen` is read-only here, so an edge
//!    costs one atomic read-modify-write only when it adds a bit `next[v]`
//!    lacks; the RMW that flips `next[v]` from zero enqueues `v`.
//! 2. *Settle.* Each vertex of the new frontier is owned by exactly one
//!    iteration, which folds `next[v]` into `seen[v]` with a plain load
//!    and store and writes depth `level + 1` for each of its bits.
//!
//! On a 1-thread pool the two phases fold into one pass: with no other
//! worker to race, an edge claims its new searches in `seen` at once and
//! settles them, with plain loads and stores.
//!
//! A pull level is one region over all vertices, and the owner of `v`
//! does everything: unless `seen[v]` already holds every search, it ORs
//! `front[u]` over `v`'s in-arcs, keeps the searches `v` has not seen,
//! and settles them itself. Every store is plain — no atomic RMW and no
//! branch per arc. The old window's `front` words are cleared afterwards.

use gapbs_graph::types::{NodeId, NO_PARENT};
use gapbs_graph::Graph;
use gapbs_parallel::atomics::as_atomic_u32;
use gapbs_parallel::{PerWorker, QueueBuffer, Schedule, SlidingQueue, ThreadPool};
use gapbs_telemetry::trace::Dir;
use gapbs_telemetry::trace_iter;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum number of sources one word-packed sweep carries (one bit per
/// search in a `u64`).
pub(crate) const MAX_BATCH: usize = 64;

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
/// `MAX_BATCH`-wide group, returning per-source depth arrays. Sources
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

/// Push/pull crossover of the per-level direction rule: a level pulls
/// when `scout * MS_PULL_ALPHA > num_arcs + n`, where `scout` is the
/// frontier's out-degree sum and the right side is one pull sweep (every
/// vertex plus every in-arc).
///
/// Derivation, on a 2-core x86 host over the medium corpus: with the
/// two-pass push at width 1, a pushed edge cost about 29 ns (a load of
/// `seen`, a data-dependent branch and, when productive, an atomic RMW on
/// a random `next` word); a pulled vertex or in-arc costs about 4.4 ns (a
/// streaming OR of `front` words, no branch per arc). That puts
/// break-even near 6.6, but a lattice's pushed edges are cheaper
/// (neighbours share cache lines), and cheaper still in the width-1
/// single pass: at 6, Road pulls about 130 levels and its width-1 line
/// goes from about 60 to 113 ms. 2 is slower on the low-diameter graphs;
/// 3 and 4 time the same there (their wide levels hold about 0.93 of a
/// sweep), and 3 also keeps Road's widest medium levels (0.24–0.26 of a
/// sweep) on the push side. GAP's [`DO_ALPHA`](gapbs_graph::stats::DO_ALPHA)
/// divides one search's *unexplored* edges and is not reused here.
pub(crate) const MS_PULL_ALPHA: u64 = 3;

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
    // A vertex whose `seen` word holds every search's bit is saturated:
    // no later level can add to it, so a pull skips its in-arcs.
    let all = u64::MAX >> (MAX_BATCH - k);
    let pull_sweep = (g.num_arcs() + n) as u64;

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

    // Out-degree sum of the current window: the push cost of the level.
    let mut scout = 0u64;
    for (c, &s) in sources.iter().enumerate() {
        assert!((s as usize) < n, "source {s} out of range ({n} vertices)");
        let si = s as usize;
        depth_views[c][si].store(0, Ordering::Relaxed);
        let bit = 1u64 << c;
        seen[si].fetch_or(bit, Ordering::Relaxed);
        if front[si].fetch_or(bit, Ordering::Relaxed) == 0 {
            cur.push(s);
            scout += g.out_degree(s) as u64;
        }
    }
    cur.slide_window();

    struct MsWorker {
        buffer: QueueBuffer<NodeId>,
        edges: u64,
        scout: u64,
    }
    let mut workers = PerWorker::new(pool.num_threads(), || MsWorker {
        buffer: QueueBuffer::new(),
        edges: 0,
        scout: 0,
    });
    // Writes depth `depth` for every search in `bits` at `v`.
    let settle = |v: usize, mut bits: u64, depth: u32| {
        while bits != 0 {
            let c = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            depth_views[c][v].store(depth, Ordering::Relaxed);
        }
    };

    let alone = pool.num_threads() == 1;
    let mut level: u32 = 0;
    let mut pulling = false;
    while !cur.is_window_empty() {
        gapbs_telemetry::record(gapbs_telemetry::Counter::Iterations, 1);
        let pull = scout * MS_PULL_ALPHA > pull_sweep;
        if pull != pulling {
            gapbs_telemetry::record(gapbs_telemetry::Counter::DirectionSwitches, 1);
            pulling = pull;
        }
        trace_iter!(BfsLevel {
            depth: level,
            frontier: cur.window_len() as u64,
            dir: if pull { Dir::Pull } else { Dir::Push }
        });
        let window = cur.window();
        // Relaxed suffices throughout: the pool's region join orders every
        // write of one region before any read of the next.
        if pull {
            // Pull: the owner of `v` ORs its in-neighbours' `front` words
            // and settles `v` itself, so `next`, `seen` and the depths take
            // plain stores. `front` is read-only here.
            let nxt = &nxt;
            pool.for_each_index_tid(n, Schedule::Dynamic(1024), |tid, vi| {
                let s = seen[vi].load(Ordering::Relaxed);
                if s == all {
                    next[vi].store(0, Ordering::Relaxed);
                    return;
                }
                // SAFETY: slot `tid` is exclusive to the worker currently
                // running as `tid`; the borrow ends with this body.
                let w = unsafe { workers.get_mut(tid) };
                let v = vi as NodeId;
                let parents = g.in_neighbors(v);
                w.edges += parents.len() as u64;
                let acc = parents
                    .iter()
                    .fold(0, |acc, &u| acc | front[u as usize].load(Ordering::Relaxed));
                let new = acc & !s;
                next[vi].store(new, Ordering::Relaxed);
                if new != 0 {
                    seen[vi].store(s | new, Ordering::Relaxed);
                    settle(vi, new, level + 1);
                    w.scout += g.out_degree(v) as u64;
                    w.buffer.push(v, nxt);
                }
            });
            // Hand this level's `front` back all-clear as the next `next`.
            pool.for_each_index(window.len(), Schedule::Dynamic(256), |i| {
                front[window[i] as usize].store(0, Ordering::Relaxed);
            });
        } else if alone {
            // Push at width 1: no other worker can race on `seen`, so an
            // edge claims its new searches there at once and settles them,
            // in one pass with plain loads and stores.
            let w = workers.iter_mut().next().expect("a pool has a worker");
            for &u in window {
                let word = front[u as usize].load(Ordering::Relaxed);
                front[u as usize].store(0, Ordering::Relaxed);
                w.edges += g.out_degree(u) as u64;
                for &v in g.out_neighbors(u) {
                    let vi = v as usize;
                    let s = seen[vi].load(Ordering::Relaxed);
                    let new = word & !s;
                    if new == 0 {
                        continue;
                    }
                    seen[vi].store(s | new, Ordering::Relaxed);
                    let was = next[vi].load(Ordering::Relaxed);
                    next[vi].store(was | new, Ordering::Relaxed);
                    if was == 0 {
                        w.buffer.push(v, &nxt);
                        w.scout += g.out_degree(v) as u64;
                    }
                    settle(vi, new, level + 1);
                }
            }
        } else {
            // Push, phase 1 (expand).
            let nxt = &nxt;
            pool.for_each_index_tid(window.len(), Schedule::Dynamic(64), |tid, i| {
                // SAFETY: as above.
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
        }
        let mut edges = 0u64;
        for w in workers.iter_mut() {
            w.buffer.flush(&nxt);
            edges += std::mem::take(&mut w.edges);
        }
        gapbs_telemetry::record(gapbs_telemetry::Counter::EdgesExamined, edges);
        nxt.slide_window();
        if !pull && !alone {
            // Push, phase 2 (settle): each vertex of the new frontier is
            // owned by one iteration, which folds `next[v]` into `seen[v]`.
            let settled = nxt.window();
            pool.for_each_index_tid(settled.len(), Schedule::Dynamic(256), |tid, i| {
                // SAFETY: as above.
                let w = unsafe { workers.get_mut(tid) };
                let v = settled[i];
                let vi = v as usize;
                let bits = next[vi].load(Ordering::Relaxed);
                let was = seen[vi].load(Ordering::Relaxed);
                seen[vi].store(was | bits, Ordering::Relaxed);
                settle(vi, bits, level + 1);
                w.scout += g.out_degree(v) as u64;
            });
        }
        scout = workers
            .iter_mut()
            .map(|w| std::mem::take(&mut w.scout))
            .sum();
        cur.reset();
        std::mem::swap(&mut cur, &mut nxt);
        std::mem::swap(&mut front, &mut next);
        level += 1;
    }
    if pulling {
        // As in `bfs`, a pull phase counts its way back out even when the
        // sweep ends inside it: switches are twice the pull phases.
        gapbs_telemetry::record(gapbs_telemetry::Counter::DirectionSwitches, 1);
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

    /// The direction the rule picks at each level of each word's sweep
    /// (`true` = pull), recomputed from the result: level `l`'s frontier
    /// is every vertex some column of the word reaches at depth `l`.
    fn directions(g: &Graph, depths: &[Vec<u32>]) -> Vec<Vec<bool>> {
        let n = g.num_vertices();
        let sweep = (g.num_arcs() + n) as u64;
        depths
            .chunks(MAX_BATCH)
            .map(|word| {
                (0..)
                    .map_while(|level| {
                        let frontier: Vec<NodeId> = (0..n as NodeId)
                            .filter(|&v| word.iter().any(|col| col[v as usize] == level))
                            .collect();
                        let scout: u64 = frontier.iter().map(|&v| g.out_degree(v) as u64).sum();
                        (!frontier.is_empty()).then_some(scout * MS_PULL_ALPHA > sweep)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn pulled_levels_match_bfs_across_thread_counts() {
        let kron = GraphSpec::Kron.generate(Scale::Tiny);
        let hub = (0..kron.num_vertices() as NodeId)
            .max_by_key(|&u| kron.out_degree(u))
            .unwrap();
        let spread = |g: &Graph, k: usize| -> Vec<NodeId> {
            let live: Vec<NodeId> = g.vertices().filter(|&u| g.out_degree(u) > 0).collect();
            (0..k).map(|i| live[(i * 37 + 3) % live.len()]).collect()
        };
        // A directed out-star: from the hub alone, level 0's scout is half
        // a sweep, and every leaf must find the hub among its in-arcs.
        let n = 300u32;
        let out_star = Builder::new()
            .num_vertices(n as usize)
            .build(edges((1..n).map(|leaf| (0, leaf))))
            .unwrap();
        let star = Builder::new()
            .num_vertices(n as usize)
            .symmetrize(true)
            .build(edges((1..n).map(|leaf| (0, leaf))))
            .unwrap();
        let star_sources: Vec<NodeId> = (0..MAX_BATCH as NodeId).map(|i| i * 4).collect();
        // Directed: a pull must read in-arcs only, never out-arcs.
        let twitter = GraphSpec::Twitter.generate(Scale::Tiny);
        // 65 sources: the second word holds one search, from the hub.
        let mut wide = spread(&kron, MAX_BATCH);
        wide.push(hub);
        // (name, graph, sources, whether level 0 pulls)
        let cases: [(&str, &Graph, Vec<NodeId>, bool); 6] = [
            ("kron, k = 1", &kron, vec![hub], false),
            ("kron, k = 63", &kron, spread(&kron, 63), false),
            ("out-star from its hub", &out_star, vec![0], true),
            ("star from its hub and leaves", &star, star_sources, true),
            (
                "directed twitter",
                &twitter,
                spread(&twitter, MAX_BATCH),
                false,
            ),
            ("kron, 65 sources", &kron, wide, false),
        ];
        for (name, g, sources, level0_pulls) in &cases {
            let dirs = directions(g, &ms_bfs(g, sources, &ThreadPool::new(1)).depths);
            assert!(
                dirs.iter().all(|word| word.contains(&true)),
                "{name}: some word never pulls: {dirs:?}"
            );
            assert_eq!(dirs[0][0], *level0_pulls, "{name}: level 0 direction");
            for threads in [1, 2, 7, 16] {
                assert_matches_single_source(g, sources, &ThreadPool::new(threads));
            }
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
