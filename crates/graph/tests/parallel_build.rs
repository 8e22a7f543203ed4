//! Property tests: the pooled construction pipeline must be
//! *byte-identical* to the serial reference for every thread count,
//! schedule, and adversarial input shape.
//!
//! The serial reference is twofold: a 1-thread pool run of the same
//! staged pipeline (the code path the builder takes with no pool), and
//! an independent BTreeMap/BTreeSet oracle that knows nothing about
//! CSR, scatter, or scanning.

use gapbs_graph::builder::symmetrize_graph;
use gapbs_graph::edgelist::{Edge, WEdge};
use gapbs_graph::gen;
use gapbs_graph::perm::{self, Permutation};
use gapbs_graph::types::{NodeId, Weight};
use gapbs_graph::{Builder, Graph, WGraph};
use gapbs_parallel::ThreadPool;
use std::collections::{BTreeMap, BTreeSet};

/// Thread counts the issue calls out: serial, even, odd/prime, oversubscribed.
const THREADS: [usize; 4] = [1, 2, 7, 16];

/// Adversarial edge lists: duplicates, self-loops, isolated vertices,
/// skewed degrees, and the empty list.
fn adversarial_inputs() -> Vec<(&'static str, usize, Vec<Edge>)> {
    let mut cases = Vec::new();
    cases.push(("empty", 5, Vec::new()));
    cases.push((
        "dups+loops",
        6,
        [
            (0, 1),
            (1, 0),
            (0, 1),
            (2, 2),
            (0, 1),
            (3, 4),
            (4, 3),
            (2, 2),
        ]
        .iter()
        .map(|&(a, b)| Edge::new(a, b))
        .collect(),
    ));
    // Vertices 50..64 are isolated; vertex 0 is a hub touching everyone.
    let mut skew = Vec::new();
    for v in 1..50u32 {
        skew.push(Edge::new(0, v));
        if v % 3 == 0 {
            skew.push(Edge::new(v, 0)); // reverse duplicates under symmetrize
        }
        if v % 7 == 0 {
            skew.push(Edge::new(v, v)); // sprinkled self-loops
        }
    }
    cases.push(("hub+isolated", 64, skew));
    // Pseudo-random mid-size list with collisions on purpose.
    let mut dense = Vec::new();
    let mut x = 9u64;
    for _ in 0..4000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = ((x >> 33) % 61) as u32;
        let b = ((x >> 13) % 61) as u32;
        dense.push(Edge::new(a, b));
    }
    cases.push(("random61", 61, dense));
    cases
}

/// Oracle adjacency: per-vertex sorted deduped neighbor set.
fn oracle_adjacency(
    n: usize,
    edges: &[Edge],
    symmetrize: bool,
    drop_loops: bool,
) -> BTreeMap<usize, BTreeSet<NodeId>> {
    let mut adj: BTreeMap<usize, BTreeSet<NodeId>> = (0..n).map(|u| (u, BTreeSet::new())).collect();
    for e in edges {
        if drop_loops && e.src == e.dst {
            continue;
        }
        adj.get_mut(&(e.src as usize)).unwrap().insert(e.dst);
        if symmetrize {
            adj.get_mut(&(e.dst as usize)).unwrap().insert(e.src);
        }
    }
    adj
}

fn assert_matches_oracle(g: &Graph, oracle: &BTreeMap<usize, BTreeSet<NodeId>>) {
    for (&u, expected) in oracle {
        let got: Vec<NodeId> = g.out_neighbors(u as NodeId).to_vec();
        let want: Vec<NodeId> = expected.iter().copied().collect();
        assert_eq!(got, want, "adjacency of vertex {u} diverges from oracle");
    }
}

#[test]
fn pooled_build_is_identical_to_serial_and_oracle() {
    for (name, n, edges) in adversarial_inputs() {
        for symmetrize in [false, true] {
            for drop_loops in [false, true] {
                let make = |pool: Option<&ThreadPool>| {
                    let mut b = Builder::new()
                        .num_vertices(n)
                        .symmetrize(symmetrize)
                        .remove_self_loops(drop_loops);
                    if let Some(p) = pool {
                        b = b.pool(p);
                    }
                    b.build(edges.clone()).expect("in-range endpoints")
                };
                let serial = make(None);
                assert_matches_oracle(
                    &serial,
                    &oracle_adjacency(n, &edges, symmetrize, drop_loops),
                );
                for threads in THREADS {
                    let pool = ThreadPool::new(threads);
                    let pooled = make(Some(&pool));
                    assert_eq!(
                        pooled, serial,
                        "{name}: sym={symmetrize} loops={drop_loops} @ {threads} threads"
                    );
                }
            }
        }
    }
}

/// Weighted oracle: min weight wins among duplicates of the same arc.
fn oracle_weights(
    n: usize,
    edges: &[WEdge],
    symmetrize: bool,
) -> BTreeMap<(usize, NodeId), Weight> {
    let mut min: BTreeMap<(usize, NodeId), Weight> = BTreeMap::new();
    let mut add = |u: usize, v: NodeId, w: Weight| {
        min.entry((u, v))
            .and_modify(|m| *m = (*m).min(w))
            .or_insert(w);
    };
    let _ = n;
    for e in edges {
        add(e.src as usize, e.dst, e.weight);
        if symmetrize {
            add(e.dst as usize, e.src, e.weight);
        }
    }
    min
}

fn assert_weights_match_oracle(g: &WGraph, oracle: &BTreeMap<(usize, NodeId), Weight>) {
    let mut arcs = 0usize;
    for u in g.vertices() {
        for (v, w) in g.out_wcsr().neighbors_weighted(u) {
            assert_eq!(
                Some(&w),
                oracle.get(&(u as usize, v)),
                "weight of arc {u}->{v} diverges from min-weight oracle"
            );
            arcs += 1;
        }
    }
    assert_eq!(arcs, oracle.len(), "arc count diverges from oracle");
}

#[test]
fn weighted_build_keeps_min_weight_and_matches_serial() {
    // Duplicate arcs with different weights, in adversarial orders.
    let edges: Vec<WEdge> = [
        (0, 1, 9),
        (0, 1, 3),
        (1, 0, 7), // reverse dup: merges under symmetrize only
        (0, 1, 5),
        (2, 3, 2),
        (3, 2, 1),
        (4, 4, 8), // self-loop keeps its weight when loops are kept
        (4, 4, 6),
        (5, 0, 4),
    ]
    .iter()
    .map(|&(a, b, w)| WEdge::new(a, b, w))
    .collect();
    let n = 6;
    for symmetrize in [false, true] {
        let make = |pool: Option<&ThreadPool>| {
            let mut b = Builder::new().num_vertices(n).symmetrize(symmetrize);
            if let Some(p) = pool {
                b = b.pool(p);
            }
            b.build_weighted(edges.clone()).expect("valid weights")
        };
        let serial = make(None);
        assert_weights_match_oracle(&serial, &oracle_weights(n, &edges, symmetrize));
        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            assert_eq!(
                make(Some(&pool)),
                serial,
                "weighted sym={symmetrize} @ {threads} threads"
            );
        }
    }
}

#[test]
fn permutation_apply_is_thread_count_independent() {
    // Directed graph with hubs, isolated vertices, and a self-loop.
    let mut edges = Vec::new();
    for v in 1..40u32 {
        edges.push(Edge::new(0, v % 17));
        edges.push(Edge::new(v % 13, (v * 7) % 19));
    }
    edges.push(Edge::new(5, 5));
    for (directed, g) in [
        (
            true,
            Builder::new()
                .num_vertices(48)
                .build(edges.clone())
                .unwrap(),
        ),
        (
            false,
            Builder::new()
                .num_vertices(48)
                .symmetrize(true)
                .build(edges.clone())
                .unwrap(),
        ),
    ] {
        assert_eq!(g.is_directed(), directed);
        for p in [
            perm::degree_descending(&g),
            Permutation::identity(g.num_vertices()),
            // Reversal permutation: maximally far from identity.
            Permutation::new((0..g.num_vertices() as NodeId).rev().collect::<Vec<_>>()),
        ] {
            let serial = perm::apply(&g, &p);
            for threads in THREADS {
                let pool = ThreadPool::new(threads);
                assert_eq!(
                    perm::apply_in(&g, &p, &pool),
                    serial,
                    "directed={directed} @ {threads} threads"
                );
            }
        }
    }
}

#[test]
fn generators_are_thread_count_independent() {
    let serial = ThreadPool::new(1);
    let kron = gen::kron_edges_in(9, 8, 42, &serial);
    let urand = gen::urand_edges_in(9, 8, 42, &serial);
    let road_cfg = gen::RoadConfig::gap_like(20);
    let road = gen::road_edges_in(&road_cfg, 42, &serial);
    let weights = gen::with_uniform_weights_in(&kron, 42, &serial);
    for threads in [2, 7, 16] {
        let pool = ThreadPool::new(threads);
        assert_eq!(
            kron,
            gen::kron_edges_in(9, 8, 42, &pool),
            "kron @ {threads}"
        );
        assert_eq!(
            urand,
            gen::urand_edges_in(9, 8, 42, &pool),
            "urand @ {threads}"
        );
        assert_eq!(
            road,
            gen::road_edges_in(&road_cfg, 42, &pool),
            "road @ {threads}"
        );
        assert_eq!(
            weights,
            gen::with_uniform_weights_in(&kron, 42, &pool),
            "weights @ {threads}"
        );
    }
}

#[test]
fn symmetrize_graph_is_thread_count_independent() {
    let g = Builder::new()
        .num_vertices(40)
        .build(gen::kron_edges(5, 6, 3))
        .unwrap();
    let serial = symmetrize_graph(&g, &ThreadPool::new(1));
    assert!(!serial.is_directed());
    for threads in [2, 7, 16] {
        let pool = ThreadPool::new(threads);
        assert_eq!(symmetrize_graph(&g, &pool), serial, "@ {threads} threads");
    }
}

#[test]
fn corpus_generation_is_pool_size_independent() {
    use gapbs_graph::gen::{GraphSpec, Scale};
    let serial = ThreadPool::new(1);
    for spec in [GraphSpec::Kron, GraphSpec::Road] {
        let g1 = spec.generate_in(Scale::Tiny, &serial);
        let w1 = spec.generate_weighted_in(Scale::Tiny, &serial);
        let pool = ThreadPool::new(7);
        assert_eq!(g1, spec.generate_in(Scale::Tiny, &pool), "{spec}");
        assert_eq!(
            w1,
            spec.generate_weighted_in(Scale::Tiny, &pool),
            "{spec} weighted"
        );
    }
}

/// Oracle in-adjacency of a directed build: who points at each vertex.
fn oracle_in_adjacency(
    n: usize,
    edges: &[Edge],
    drop_loops: bool,
) -> BTreeMap<usize, BTreeSet<NodeId>> {
    let reversed: Vec<Edge> = edges.iter().map(|e| e.reversed()).collect();
    oracle_adjacency(n, &reversed, false, drop_loops)
}

/// The `in` direction is a transpose of the finished `out` CSR; it must
/// equal what an independent pass over the raw edge list says, at every
/// thread count.
#[test]
fn transposed_in_direction_matches_oracle() {
    fn check(name: &str, n: usize, edges: &[Edge], drop_loops: bool) {
        let oracle = oracle_in_adjacency(n, edges, drop_loops);
        for threads in THREADS {
            let g = Builder::new()
                .num_vertices(n)
                .remove_self_loops(drop_loops)
                .pool(&ThreadPool::new(threads))
                .build(edges.to_vec())
                .expect("in-range endpoints");
            assert!(g.is_directed());
            for (&v, expected) in &oracle {
                let want: Vec<NodeId> = expected.iter().copied().collect();
                assert_eq!(
                    g.in_neighbors(v as NodeId),
                    want.as_slice(),
                    "{name}: in-row {v}, loops={drop_loops} @ {threads} threads"
                );
            }
            assert_eq!(g.in_csr().num_edges(), g.out_csr().num_edges());
        }
    }
    for (name, n, edges) in adversarial_inputs() {
        for drop_loops in [false, true] {
            check(name, n, &edges, drop_loops);
        }
    }
}

/// Duplicate arcs keep their minimum weight in the `out` rows; the
/// transpose must carry exactly that weight to the `in` rows.
#[test]
fn min_weight_rule_survives_the_transpose() {
    let mut edges = Vec::new();
    let mut x = 5u64;
    for _ in 0..3000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // 23 vertices, so most arcs repeat with different weights.
        let (a, b) = (((x >> 33) % 23) as u32, ((x >> 13) % 23) as u32);
        edges.push(WEdge::new(a, b, 1 + ((x >> 50) % 200) as Weight));
    }
    let oracle = oracle_weights(23, &edges, false);
    for threads in THREADS {
        let g = Builder::new()
            .num_vertices(23)
            .pool(&ThreadPool::new(threads))
            .build_weighted(edges.clone())
            .expect("valid weights");
        assert_weights_match_oracle(&g, &oracle);
        let mut arcs = 0usize;
        for v in g.vertices() {
            let row: Vec<(NodeId, Weight)> = g.in_neighbors_weighted(v).collect();
            assert!(
                row.windows(2).all(|p| p[0].0 < p[1].0),
                "in-row {v} unsorted"
            );
            for (u, w) in row {
                assert_eq!(
                    Some(&w),
                    oracle.get(&(u as usize, v)),
                    "in-weight of {u}->{v} @ {threads} threads"
                );
                arcs += 1;
            }
        }
        assert_eq!(arcs, oracle.len());
    }
}

/// `symmetrize_graph` merges the stored `out` and `in` rows; the result
/// must be the oracle's symmetric adjacency and the graph the builder's
/// own `symmetrize(true)` produces.
#[test]
fn merged_symmetrize_matches_oracle_and_builder() {
    fn check(name: &str, n: usize, edges: &[Edge]) {
        let builder = Builder::new().num_vertices(n);
        let directed = builder.build(edges.to_vec()).unwrap();
        let expect = builder
            .clone()
            .symmetrize(true)
            .build(edges.to_vec())
            .unwrap();
        let oracle = oracle_adjacency(n, edges, true, false);
        for threads in THREADS {
            let sym = symmetrize_graph(&directed, &ThreadPool::new(threads));
            assert_eq!(sym, expect, "{name} @ {threads} threads");
            for (&u, expected) in &oracle {
                let want: Vec<NodeId> = expected.iter().copied().collect();
                assert_eq!(sym.out_neighbors(u as NodeId), want.as_slice(), "{name}");
            }
        }
    }
    let mut cases = adversarial_inputs();
    // Rows that exist in one direction only: sources 0..8 never receive,
    // sinks 8..16 never send, 16..20 stay isolated.
    let one_way: Vec<Edge> = (0..8u32)
        .flat_map(|u| {
            (8..16u32)
                .filter(move |v| (u + v) % 3 != 0)
                .map(move |v| Edge::new(u, v))
        })
        .collect();
    cases.push(("one-way", 20, one_way));
    // Every vertex loops on itself and the pair (0, 1) is mutual.
    let mut loops: Vec<Edge> = (0..6u32).map(|v| Edge::new(v, v)).collect();
    loops.extend([Edge::new(0, 1), Edge::new(1, 0)]);
    cases.push(("all-loops", 6, loops));
    for (name, n, edges) in cases {
        check(name, n, &edges);
    }
}
