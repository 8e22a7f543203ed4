//! Randomized property tests over the core data structures and the
//! kernels' algebraic invariants.
//!
//! Each property is checked against a deterministic stream of random
//! edge lists (seeded xoshiro, see `gapbs::graph::rng`), so failures
//! reproduce exactly without an external shrinker.

use gapbs::graph::edgelist::{Edge, WEdge};
use gapbs::graph::rng::SeededRng;
use gapbs::graph::types::{NodeId, INF_DIST, NO_PARENT};
use gapbs::graph::{perm, Builder, Graph, WGraph};
use gapbs::parallel::ThreadPool;

const N: NodeId = 48;
const CASES: u64 = 24;

fn rand_edges(rng: &mut SeededRng) -> Vec<Edge> {
    let count = rng.gen_range(0..300usize);
    (0..count)
        .map(|_| Edge::new(rng.gen_range(0..N), rng.gen_range(0..N)))
        .collect()
}

fn rand_wedges(rng: &mut SeededRng) -> Vec<WEdge> {
    let count = rng.gen_range(0..300usize);
    (0..count)
        .map(|_| {
            WEdge::new(
                rng.gen_range(0..N),
                rng.gen_range(0..N),
                rng.gen_range(1..64i32),
            )
        })
        .collect()
}

fn build(edges: Vec<Edge>, symmetrize: bool) -> Graph {
    Builder::new()
        .num_vertices(N as usize)
        .symmetrize(symmetrize)
        .build(edges)
        .expect("endpoints in range by construction")
}

fn build_weighted(edges: Vec<WEdge>) -> WGraph {
    Builder::new()
        .num_vertices(N as usize)
        .build_weighted(edges)
        .expect("valid weighted edges")
}

/// Runs `check` over `CASES` deterministic random cases. The case seed is
/// passed through so assertion messages can name the failing case.
fn for_cases(tag: u64, mut check: impl FnMut(u64, &mut SeededRng)) {
    for case in 0..CASES {
        let seed = tag * 10_000 + case;
        let mut rng = SeededRng::seed_from_u64(seed);
        check(seed, &mut rng);
    }
}

/// Builder invariant: adjacency is sorted, deduplicated, in range.
#[test]
fn builder_produces_sorted_dedup_adjacency() {
    for_cases(1, |seed, rng| {
        let sym = rng.next_u64() & 1 == 1;
        let g = build(rand_edges(rng), sym);
        for u in g.vertices() {
            let row = g.out_neighbors(u);
            for w in row.windows(2) {
                assert!(w[0] < w[1], "case {seed}: row of {u} not sorted/dedup");
            }
            assert!(row.iter().all(|&v| (v as usize) < g.num_vertices()));
        }
        // In-adjacency mirrors out-adjacency.
        let out_arcs: usize = g.vertices().map(|u| g.out_degree(u)).sum();
        let in_arcs: usize = g.vertices().map(|u| g.in_degree(u)).sum();
        assert_eq!(out_arcs, in_arcs, "case {seed}");
    });
}

/// Symmetrized graphs are actually symmetric.
#[test]
fn symmetrize_makes_adjacency_symmetric() {
    for_cases(2, |seed, rng| {
        let g = build(rand_edges(rng), true);
        for u in g.vertices() {
            for &v in g.out_neighbors(u) {
                assert!(
                    g.out_csr().has_edge(v, u),
                    "case {seed}: missing mirror of ({u},{v})"
                );
            }
        }
    });
}

/// BFS parent trees are valid: parent edges exist and reachability
/// matches a sequential BFS.
#[test]
fn bfs_parent_tree_is_valid() {
    for_cases(3, |seed, rng| {
        let g = build(rand_edges(rng), false);
        let pool = ThreadPool::new(2);
        let parent = gapbs::gap_ref::bfs(&g, 0, &pool);
        assert!(
            gapbs::verify::verify_bfs(&g, 0, &parent).is_ok(),
            "case {seed}"
        );
        let _ = parent.iter().filter(|&&p| p != NO_PARENT).count();
    });
}

/// SSSP equals Dijkstra for every delta.
#[test]
fn sssp_equals_dijkstra() {
    for_cases(4, |seed, rng| {
        let edges = rand_wedges(rng);
        let delta = rng.gen_range(1i32..64);
        let g = build_weighted(edges);
        let pool = ThreadPool::new(2);
        let got = gapbs::gap_ref::sssp(&g, 0, delta, &pool);
        assert!(
            gapbs::verify::verify_sssp(&g, 0, &got).is_ok(),
            "case {seed} (delta {delta})"
        );
        assert_eq!(got[0], 0, "case {seed}");
        assert!(got.iter().all(|&d| d == INF_DIST || d >= 0), "case {seed}");
    });
}

/// Triangle counts are invariant under vertex relabeling.
#[test]
fn tc_is_permutation_invariant() {
    for_cases(5, |seed, rng| {
        let g = build(rand_edges(rng), true);
        let pool = ThreadPool::new(2);
        let base = gapbs::gap_ref::tc(&g, &pool);
        // Derive a permutation from the seed deterministically.
        let n = g.num_vertices();
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let p = perm::Permutation::new(order);
        let permuted = perm::apply(&g, &p);
        assert_eq!(gapbs::gap_ref::tc(&permuted, &pool), base, "case {seed}");
    });
}

/// The asynchronous OBIM-ordered SSSP agrees with the verifier's
/// Dijkstra oracle on arbitrary graphs (the ordered worklist must not
/// lose or duplicate relaxations).
#[test]
fn async_obim_sssp_is_exact() {
    for_cases(6, |seed, rng| {
        let g = build_weighted(rand_wedges(rng));
        let pool = ThreadPool::new(2);
        let got = gapbs::galois::sssp(
            &g,
            0,
            16,
            gapbs::galois::ExecutionStyle::Asynchronous,
            &pool,
        );
        assert!(
            gapbs::verify::verify_sssp(&g, 0, &got).is_ok(),
            "case {seed}"
        );
    });
}

/// All CC implementations induce the same partition.
#[test]
fn cc_partitions_agree() {
    for_cases(7, |seed, rng| {
        let g = build(rand_edges(rng), true);
        let pool = ThreadPool::new(2);
        let a = gapbs::gap_ref::cc(&g, &pool);
        let b = gapbs::gkc::cc(&g, &pool);
        let c = gapbs::graphit::cc(&g, false, &pool);
        assert!(gapbs::verify::verify_cc(&g, &a).is_ok(), "case {seed}");
        assert!(gapbs::verify::verify_cc(&g, &b).is_ok(), "case {seed}");
        assert!(gapbs::verify::verify_cc(&g, &c).is_ok(), "case {seed}");
    });
}

/// PageRank scores form a probability distribution.
#[test]
fn pr_is_a_distribution() {
    for_cases(8, |seed, rng| {
        let g = build(rand_edges(rng), false);
        let pool = ThreadPool::new(2);
        let result = gapbs::gap_ref::pr(&g, &pool);
        let total: f64 = result.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-4, "case {seed}: sum = {total}");
        assert!(result.scores.iter().all(|&s| s >= 0.0), "case {seed}");
    });
}

/// Snapshots round-trip arbitrary graphs.
#[test]
fn binary_io_roundtrips() {
    use gapbs::graph::snapshot::{self, Compression, SnapshotContents};
    let path = std::env::temp_dir().join(format!("gapbs-prop-{}.gsnap", std::process::id()));
    for_cases(9, |seed, rng| {
        let sym = rng.next_u64() & 1 == 1;
        let g = build(rand_edges(rng), sym);
        let compression = if rng.next_u64() & 1 == 1 {
            Compression::Always
        } else {
            Compression::Never
        };
        snapshot::write(&path, &SnapshotContents::graph_only(&g, 0), compression)
            .expect("write snapshot");
        let g2 = gapbs::graph::Snapshot::open(&path)
            .and_then(|snap| snap.graph())
            .expect("read back");
        assert_eq!(g, g2, "case {seed}");
    });
    std::fs::remove_file(&path).ok();
}

/// Every pair of vertices in the largest SCC is mutually reachable,
/// and the SCC is maximal w.r.t. sampled outside vertices.
#[test]
fn largest_scc_members_are_mutually_reachable() {
    for_cases(10, |seed, rng| {
        let g = build(rand_edges(rng), false);
        let scc = gapbs::graph::scc::largest_scc(&g);
        assert!(!scc.is_empty() || g.num_vertices() == 0, "case {seed}");
        // Reachability oracle via sequential BFS.
        let reaches = |from: NodeId, to: NodeId| -> bool {
            let mut seen = vec![false; g.num_vertices()];
            let mut stack = vec![from];
            seen[from as usize] = true;
            while let Some(u) = stack.pop() {
                if u == to {
                    return true;
                }
                for &v in g.out_neighbors(u) {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        stack.push(v);
                    }
                }
            }
            from == to
        };
        // Sample pairs (full quadratic check would dominate the test).
        for (i, &a) in scc.iter().enumerate().step_by(7) {
            let b = scc[(i * 13 + 1) % scc.len()];
            assert!(reaches(a, b), "case {seed}: {a} cannot reach {b} in SCC");
            assert!(reaches(b, a), "case {seed}: {b} cannot reach {a} in SCC");
        }
    });
}

/// Frontier profiles partition the reachable set and level sizes sum
/// to the reach count.
#[test]
fn frontier_profile_is_consistent() {
    for_cases(11, |seed, rng| {
        let g = build(rand_edges(rng), false);
        if g.num_vertices() == 0 {
            return;
        }
        let p = gapbs::graph::stats::frontier_profile(&g, 0);
        let total: usize = p.frontier_sizes.iter().sum();
        assert!(total >= 1, "case {seed}: source always reached");
        assert!(total <= g.num_vertices(), "case {seed}");
        assert_eq!(
            p.frontier_sizes.len(),
            p.frontier_edges.len(),
            "case {seed}"
        );
        assert_eq!(p.frontier_sizes.len(), p.pull_levels.len(), "case {seed}");
        // Edge counts per level are bounded by the graph's arc count.
        assert!(
            p.frontier_edges.iter().all(|&e| e <= g.num_arcs()),
            "case {seed}"
        );
    });
}

/// Degree-descending relabeling is a bijection preserving the degree
/// multiset.
#[test]
fn relabeling_preserves_structure() {
    for_cases(12, |seed, rng| {
        let g = build(rand_edges(rng), true);
        let p = perm::degree_descending(&g);
        let inv = p.inverse();
        for u in g.vertices() {
            assert_eq!(inv.new_id(p.new_id(u)), u, "case {seed}");
        }
        let h = perm::apply(&g, &p);
        assert_eq!(g.num_arcs(), h.num_arcs(), "case {seed}");
        let mut dg: Vec<_> = g.vertices().map(|u| g.out_degree(u)).collect();
        let mut dh: Vec<_> = h.vertices().map(|u| h.out_degree(u)).collect();
        dg.sort_unstable();
        dh.sort_unstable();
        assert_eq!(dg, dh, "case {seed}");
    });
}

/// Every loop schedule delivers each index exactly once, under thread
/// contention and skewed per-index work (which forces `Dynamic`/`Guided`
/// range stealing). A sum check would miss double-visits that cancel;
/// per-index hit counts do not.
#[test]
fn every_schedule_visits_each_index_exactly_once() {
    use gapbs::parallel::Schedule;
    use std::sync::atomic::{AtomicUsize, Ordering};
    for_cases(13, |seed, rng| {
        let threads = rng.gen_range(2..6usize);
        let n = rng.gen_range(1..2500usize);
        let schedule = match rng.gen_range(0..4u32) {
            0 => Schedule::Static,
            1 => Schedule::Dynamic(rng.gen_range(1..32usize)),
            2 => Schedule::Guided,
            // Chunk larger than the loop: one claim drains a whole range.
            _ => Schedule::Dynamic(n + 1),
        };
        let pool = ThreadPool::new(threads);
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each_index(n, schedule, |i| {
            // Skew the head of the range so tail workers drain and steal.
            if i < n / 10 {
                std::hint::black_box((0..200).sum::<usize>());
            }
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        let bad: Vec<usize> = (0..n)
            .filter(|&i| hits[i].load(Ordering::Relaxed) != 1)
            .collect();
        assert!(
            bad.is_empty(),
            "case {seed}: {schedule:?} threads={threads} n={n} bad={:?}",
            &bad[..bad.len().min(10)]
        );
    });
}

/// Back-to-back regions on one persistent pool observe each other's
/// writes: the region barrier must order region k's stores before
/// region k+1's loads on every worker, and reusing the pool must not
/// lose or duplicate a region.
#[test]
fn pool_reuse_orders_regions_and_shares_one_team() {
    use gapbs::parallel::Schedule;
    use std::sync::atomic::{AtomicUsize, Ordering};
    for_cases(14, |seed, rng| {
        let threads = rng.gen_range(2..5usize);
        let n = rng.gen_range(1..600usize);
        let rounds = rng.gen_range(2..40usize);
        let pool = ThreadPool::new(threads);
        let cells: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        for round in 0..rounds {
            let schedule = if round % 2 == 0 {
                Schedule::Dynamic(7)
            } else {
                Schedule::Guided
            };
            pool.for_each_index(n, schedule, |i| {
                // Relaxed is deliberate: cross-region visibility must
                // come from the pool's barrier, not this load's order.
                let seen = cells[i].load(Ordering::Relaxed);
                assert_eq!(
                    seen, round,
                    "case {seed}: index {i} missed region {round}'s predecessor write"
                );
                cells[i].store(seen + 1, Ordering::Relaxed);
            });
        }
        assert!(cells.iter().all(|c| c.load(Ordering::Relaxed) == rounds));
        let stats = pool.stats();
        assert_eq!(stats.spawn_events, 1, "case {seed}: one team per pool");
        assert_eq!(stats.regions, rounds as u64, "case {seed}");
    });
}

/// `reduce_index` agrees with the sequential fold under every schedule.
#[test]
fn reduce_index_matches_sequential_fold_under_all_schedules() {
    use gapbs::parallel::Schedule;
    for_cases(15, |seed, rng| {
        let threads = rng.gen_range(1..5usize);
        let n = rng.gen_range(0..3000usize);
        let pool = ThreadPool::new(threads);
        for schedule in [Schedule::Static, Schedule::Dynamic(13), Schedule::Guided] {
            let total = pool.reduce_index(
                n,
                schedule,
                0u64,
                |i| (i as u64).wrapping_mul(2654435761),
                |a, b| a.wrapping_add(b),
            );
            let expect = (0..n as u64)
                .map(|i| i.wrapping_mul(2654435761))
                .fold(0u64, u64::wrapping_add);
            assert_eq!(total, expect, "case {seed}: {schedule:?} threads={threads}");
        }
    });
}
