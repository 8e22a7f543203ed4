//! Cross-framework agreement: all six frameworks must compute equivalent
//! answers for every kernel on every corpus topology.
//!
//! This is the reproduction's answer to the paper's §VI call for
//! "more formally specified verification and validation procedures".

use gapbs::core::{all_frameworks, BenchGraph, Kernel, Mode, PreparedKernels};
use gapbs::graph::gen::{GraphSpec, Scale};
use gapbs::graph::types::{NodeId, NO_PARENT};
use gapbs::parallel::ThreadPool;
use std::collections::HashMap;

fn corpus() -> Vec<BenchGraph> {
    GraphSpec::TABLE_ORDER
        .iter()
        .map(|&s| BenchGraph::generate(s, Scale::Tiny))
        .collect()
}

fn pool() -> ThreadPool {
    ThreadPool::new(2)
}

fn same_partition(a: &[NodeId], b: &[NodeId]) -> bool {
    let mut f = HashMap::new();
    let mut r = HashMap::new();
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&x, &y)| *f.entry(x).or_insert(y) == y && *r.entry(y).or_insert(x) == x)
}

#[test]
fn bfs_reachability_agrees_across_frameworks() {
    for input in corpus() {
        let frameworks = all_frameworks();
        let p = pool();
        let reference: Vec<bool> = frameworks[0]
            .prepare(&input, Mode::Baseline, &p)
            .bfs(0)
            .iter()
            .map(|&x| x != NO_PARENT)
            .collect();
        for fw in &frameworks[1..] {
            let got: Vec<bool> = fw
                .prepare(&input, Mode::Baseline, &p)
                .bfs(0)
                .iter()
                .map(|&x| x != NO_PARENT)
                .collect();
            assert_eq!(got, reference, "{} on {}", fw.name(), input.spec);
        }
    }
}

#[test]
fn sssp_distances_agree_across_frameworks() {
    for input in corpus() {
        let frameworks = all_frameworks();
        let p = pool();
        let reference = frameworks[0].prepare(&input, Mode::Baseline, &p).sssp(0);
        for fw in &frameworks[1..] {
            let got = fw.prepare(&input, Mode::Baseline, &p).sssp(0);
            assert_eq!(got, reference, "{} on {}", fw.name(), input.spec);
        }
    }
}

#[test]
fn pr_scores_agree_within_tolerance() {
    for input in corpus() {
        let frameworks = all_frameworks();
        let p = pool();
        let reference = frameworks[0].prepare(&input, Mode::Baseline, &p).pr().0;
        for fw in &frameworks[1..] {
            let got = fw.prepare(&input, Mode::Baseline, &p).pr().0;
            // Different iteration styles stop at slightly different
            // points; the fixed point is shared.
            let l1: f64 = got.iter().zip(&reference).map(|(a, b)| (a - b).abs()).sum();
            assert!(
                l1 < 5e-3,
                "{} on {}: L1 distance {l1}",
                fw.name(),
                input.spec
            );
        }
    }
}

#[test]
fn cc_partitions_agree_across_frameworks() {
    for input in corpus() {
        let frameworks = all_frameworks();
        let p = pool();
        let reference = frameworks[0].prepare(&input, Mode::Baseline, &p).cc();
        for fw in &frameworks[1..] {
            let got = fw.prepare(&input, Mode::Baseline, &p).cc();
            assert!(
                same_partition(&got, &reference),
                "{} on {}",
                fw.name(),
                input.spec
            );
        }
    }
}

#[test]
fn bc_scores_agree_across_frameworks() {
    for input in corpus() {
        let frameworks = all_frameworks();
        let p = pool();
        let sources = [0, 1, 2, 3];
        let reference = frameworks[0]
            .prepare(&input, Mode::Baseline, &p)
            .bc(&sources);
        for fw in &frameworks[1..] {
            let got = fw.prepare(&input, Mode::Baseline, &p).bc(&sources);
            for v in 0..reference.len() {
                assert!(
                    (got[v] - reference[v]).abs() < 1e-6,
                    "{} on {} at vertex {v}",
                    fw.name(),
                    input.spec
                );
            }
        }
    }
}

#[test]
fn tc_counts_agree_across_frameworks() {
    for input in corpus() {
        let frameworks = all_frameworks();
        let p = pool();
        let reference = frameworks[0].prepare(&input, Mode::Baseline, &p).tc();
        for fw in &frameworks[1..] {
            let got = fw.prepare(&input, Mode::Baseline, &p).tc();
            assert_eq!(got, reference, "{} on {}", fw.name(), input.spec);
        }
    }
}

#[test]
fn optimized_mode_matches_baseline_answers() {
    // Tuning may change *how* kernels run, never *what* they compute.
    for input in corpus() {
        for fw in all_frameworks() {
            let p = pool();
            let base = fw.prepare(&input, Mode::Baseline, &p);
            let opt = fw.prepare(&input, Mode::Optimized, &p);
            assert_eq!(base.sssp(0), opt.sssp(0), "{} sssp", fw.name());
            assert_eq!(base.tc(), opt.tc(), "{} tc", fw.name());
            assert!(same_partition(&base.cc(), &opt.cc()), "{} cc", fw.name());
        }
    }
}

/// One kernel's raw output, floats as bit patterns, so equality is
/// bit-for-bit.
fn raw_output(prepared: &dyn PreparedKernels, kernel: Kernel, source: NodeId) -> Vec<u64> {
    let widen = |v: Vec<u32>| v.into_iter().map(u64::from).collect();
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
    match kernel {
        Kernel::Bfs => widen(prepared.bfs(source)),
        Kernel::Sssp => prepared
            .sssp(source)
            .into_iter()
            .map(|d| d as u64)
            .collect(),
        Kernel::Pr => {
            let (scores, iterations) = prepared.pr();
            let mut out: Vec<u64> = bits(scores);
            out.push(iterations as u64);
            out
        }
        Kernel::Cc => widen(prepared.cc()),
        Kernel::Bc => bits(prepared.bc(&[source])),
        Kernel::Tc => vec![prepared.tc()],
    }
}

#[test]
fn kernel_scoped_prepare_is_bit_identical_to_full_prepare() {
    // One thread: several frameworks' PR/BC float sums and CAS-elected
    // parents follow the schedule, so only a serial run pins them.
    let p = ThreadPool::new(1);
    for input in corpus() {
        let source = input.source_candidates[0];
        for fw in all_frameworks() {
            for mode in [Mode::Baseline, Mode::Optimized] {
                let full = fw.prepare(&input, mode, &p);
                for kernel in Kernel::ALL {
                    let scoped = fw.prepare_kernel(&input, mode, kernel, &p);
                    assert_eq!(
                        raw_output(scoped.as_ref(), kernel, source),
                        raw_output(full.as_ref(), kernel, source),
                        "{} {kernel} {mode} on {}",
                        fw.name(),
                        input.spec.name()
                    );
                }
            }
        }
    }
}

/// Runs every framework's TC on `input` and holds each count to the
/// sequential oracle. `ref`, `gkc` and SuiteSparse share the marked-row
/// engine; Galois, GraphIt and NWGraph keep hand-written merge loops, so
/// the oracle plus those three are the engine's independent check.
fn assert_tc_matches_oracle(input: &BenchGraph, what: &str) {
    let want = gapbs::verify::oracles::triangles(&input.sym_graph);
    let p = pool();
    for fw in all_frameworks() {
        let got = fw.prepare(input, Mode::Baseline, &p).tc();
        assert_eq!(got, want, "{} on {what}", fw.name());
    }
}

#[test]
fn tc_counts_match_the_oracle_at_medium_scale() {
    for &spec in &GraphSpec::TABLE_ORDER {
        let input = BenchGraph::generate_in(spec, Scale::Medium, &pool());
        assert_tc_matches_oracle(&input, &format!("{spec} (medium)"));
    }
}

#[test]
fn tc_counts_match_the_oracle_on_degenerate_graphs() {
    use gapbs::graph::edgelist::{edges, wedges};
    use gapbs::graph::Builder;
    let k50: Vec<(NodeId, NodeId)> = (0..50)
        .flat_map(|i| (i + 1..50).map(move |j| (i, j)))
        .collect();
    // A triangle whose every edge is repeated in both directions.
    let duplicates: Vec<(NodeId, NodeId)> = [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)]
        .into_iter()
        .cycle()
        .take(600)
        .collect();
    let check = |what: &str, n: usize, list: Vec<(NodeId, NodeId)>, triangles: u64| {
        let builder = Builder::new().num_vertices(n).symmetrize(true);
        let graph = builder.build(edges(list.clone())).unwrap();
        let wgraph = builder
            .build_weighted(wedges(list.into_iter().map(|(u, v)| (u, v, 1))))
            .unwrap();
        let input = BenchGraph::from_graphs(GraphSpec::Kron, graph, wgraph);
        assert_eq!(
            gapbs::verify::oracles::triangles(&input.sym_graph),
            triangles,
            "oracle on {what}"
        );
        assert_tc_matches_oracle(&input, what);
    };
    check("empty", 0, vec![], 0);
    check("one vertex", 1, vec![], 0);
    check("all isolated", 64, vec![], 0);
    check("self-loops only", 12, (0..12).map(|v| (v, v)).collect(), 0);
    check("duplicate-heavy", 12, duplicates, 1);
    check(
        "max-degree star",
        200,
        (1..200).map(|v| (0, v)).collect(),
        0,
    );
    check("K50", 50, k50, 50 * 49 * 48 / 6);
    // Below 10 vertices every relabel heuristic declines.
    let k4_tail = vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)];
    check("K4 + tail (n < 10)", 6, k4_tail, 4);
}

/// `pipeline_large` checks `ref` against `gkc`, and both run on the
/// shared marked-row engine; this holds them to Galois' independent merge
/// loop on the two large graphs with the most triangles. Takes about
/// 20 s in release (see CONTRIBUTING.md).
#[test]
#[ignore = "large tier; run in release: cargo test --release --test cross_framework -- --ignored"]
fn large_tier_tc_agrees_with_an_independent_merge_count() {
    let p = pool();
    for (spec, triangles) in [(GraphSpec::Web, 520_124_274), (GraphSpec::Kron, 43_147_953)] {
        let g = BenchGraph::generate_in(spec, Scale::Large, &p).sym_graph;
        let galois = gapbs::galois::tc(&g, gapbs::galois::tc::Relabeling::HeuristicTimed, &p);
        assert_eq!(galois, triangles, "Galois merge count on {spec}");
        assert_eq!(gapbs::gap_ref::tc(&g, &p), galois, "GAP on {spec}");
        assert_eq!(gapbs::gkc::tc(&g, &p), galois, "GKC on {spec}");
    }
}

/// Every relabel heuristic reads `perm::sampled_degrees`; only the
/// threshold expression differs (GAP, Galois, GraphIt and SuiteSparse
/// floor the mean, GKC compares the real ratio). Both forms must split
/// the corpus the same way at every scale: the three skewed graphs
/// relabel, Road and Urand decline.
#[test]
fn relabel_heuristics_split_the_corpus_by_skew() {
    use gapbs::graph::perm::sampled_degrees;
    for scale in [Scale::Tiny, Scale::Small, Scale::Medium] {
        for &spec in &GraphSpec::TABLE_ORDER {
            let g = BenchGraph::generate_in(spec, scale, &pool()).sym_graph;
            let skewed = matches!(spec, GraphSpec::Web | GraphSpec::Twitter | GraphSpec::Kron);
            let what = format!("{spec} at {scale:?}");
            // The sample itself, against a direct restatement.
            let n = g.num_vertices();
            let mut sample: Vec<usize> = (0..n)
                .step_by((n / 1000).max(1))
                .take(1000)
                .map(|u| g.out_degree(u as NodeId))
                .collect();
            sample.sort_unstable();
            let (sum, median) = (sample.iter().sum::<usize>(), sample[sample.len() / 2]);
            let (mean, got_median) =
                sampled_degrees(n, |u| g.out_degree(u as NodeId)).expect("n >= 10");
            assert_eq!(got_median, median, "median of {what}");
            assert_eq!(mean as usize, sum / sample.len(), "floored mean of {what}");
            assert_eq!(mean, sum as f64 / sample.len() as f64, "mean of {what}");
            // The two threshold forms, through the public heuristics.
            assert_eq!(
                mean as usize > 2 * median.max(1),
                skewed,
                "floored form, {what}"
            );
            assert_eq!(
                gapbs::gap_ref::tc::worth_relabeling(&g),
                skewed,
                "GAP, {what}"
            );
            assert_eq!(
                gapbs::gkc::tc::degree_skewness(&g) > 2.0,
                skewed,
                "GKC, {what}"
            );
        }
    }
}
