//! Shared plumbing for the benchmark binaries.

use gapbs_core::{BenchGraph, Kernel, Mode, Report};
use gapbs_graph::gen::{GraphSpec, Scale};

pub mod perf;
pub mod trace_stats;

/// Resolves the corpus scale from `GAPBS_SCALE`
/// (`tiny|small|medium|large`), defaulting to `medium` — the scale
/// EXPERIMENTS.md reports.
pub fn scale_from_env() -> Scale {
    match std::env::var("GAPBS_SCALE").as_deref() {
        Ok("tiny") => Scale::Tiny,
        Ok("small") => Scale::Small,
        Ok("large") => Scale::Large,
        _ => Scale::Medium,
    }
}

/// Resolves the snapshot cache directory from `GAPBS_SNAPSHOT_DIR`.
/// When set, corpus loads mmap cached snapshots (building them on first
/// use); when unset, every load regenerates from the seeded generators.
pub fn snapshot_dir_from_env() -> Option<std::path::PathBuf> {
    std::env::var_os("GAPBS_SNAPSHOT_DIR")
        .filter(|v| !v.is_empty())
        .map(std::path::PathBuf::from)
}

/// Generates the full five-graph benchmark corpus at a scale.
pub fn corpus(scale: Scale) -> Vec<BenchGraph> {
    corpus_in_pool(scale, &gapbs_parallel::ThreadPool::new(1))
}

/// [`corpus`] with generation and construction on `pool` — identical
/// graphs for every pool size, built at pool speed. Honors
/// `GAPBS_SNAPSHOT_DIR` (the cached and regenerated inputs are
/// identical; the cache only changes load time).
pub fn corpus_in_pool(scale: Scale, pool: &gapbs_parallel::ThreadPool) -> Vec<BenchGraph> {
    let snapshot_dir = snapshot_dir_from_env();
    GraphSpec::TABLE_ORDER
        .iter()
        .map(|&spec| match &snapshot_dir {
            Some(dir) => BenchGraph::load_cached_in(spec, scale, dir, pool, false).0,
            None => BenchGraph::generate_in(spec, scale, pool),
        })
        .collect()
}

/// Evaluates the paper's qualitative claims against this run (see
/// EXPERIMENTS.md §shape-claims).
pub fn shape_claims(report: &Report) -> String {
    let mut out = String::from("SHAPE CLAIMS (paper finding — does this run reproduce it?)\n");
    let mut claim = |name: &str, ok: Option<bool>| {
        let verdict = match ok {
            Some(true) => "REPRODUCED",
            Some(false) => "NOT REPRODUCED",
            None => "N/A (missing cells)",
        };
        out.push_str(&format!("  [{verdict:>14}] {name}\n"));
    };
    let b = Mode::Baseline;

    // 1. §V-D: Gauss–Seidel PR's fewer iterations beat Jacobi where
    // iteration count dominates — the paper's emphasized case is Road
    // (331% of GAP; on Twitter even the paper's Galois PR is at 84%).
    claim(
        "Gauss-Seidel PR (Galois) clearly faster than Jacobi GAP on Road",
        report
            .speedup("Galois", Kernel::Pr, "Road", b)
            .map(|r| r > 1.2),
    );

    // 2. Label-propagation CC (GraphIt) is the slowest CC, worst on Road.
    let lp = report.speedup("GraphIt", Kernel::Cc, "Road", b);
    claim(
        "Label-propagation CC far slower than Afforest on Road",
        lp.map(|r| r < 0.5),
    );

    // 3. §V-A: asynchronous execution helps on Road. The paper's 3.5×
    // comes from eliding 32-way barrier synchronization, so the timing
    // form of the claim is only as strong as the host's barriers are
    // expensive: on a 2-core host a spin-then-park barrier costs under a
    // microsecond, a few hundred level barriers are cheaper than the
    // asynchronous worklist's per-vertex bookkeeping, and this verdict
    // may read FAIL. The mechanism itself — the asynchronous traversal
    // launches ≥10× fewer regions — is asserted on every host by
    // `tests/shape_claims.rs`.
    claim(
        "Asynchronous Galois BFS at least holds parity with GAP on Road",
        report
            .speedup("Galois", Kernel::Bfs, "Road", b)
            .map(|r| r > 0.85),
    );

    // 4. SuiteSparse pays its largest penalty on Road SSSP.
    let ss_road = report.speedup("SuiteSparse", Kernel::Sssp, "Road", b);
    let ss_kron = report.speedup("SuiteSparse", Kernel::Sssp, "Kron", b);
    claim(
        "SuiteSparse SSSP much slower on Road than on Kron (bulk-op tax)",
        ss_road.zip(ss_kron).map(|(r, k)| r < k && r < 0.5),
    );

    // 5. GKC TC at least parity with GAP on the skewed graphs.
    let gkc_tc = ["Web", "Twitter", "Kron"]
        .iter()
        .map(|g| report.speedup("GKC", Kernel::Tc, g, b))
        .collect::<Option<Vec<_>>>()
        .map(|v| v.iter().all(|&r| r > 0.9));
    claim("GKC TC competitive-or-better on skewed graphs", gkc_tc);

    // 7. §V-B: GraphIt SSSP is comparable to GAP everywhere — both have
    // bucket fusion (GAP adopted GraphIt's optimization).
    let graphit_sssp = ["Web", "Twitter", "Road", "Kron", "Urand"]
        .iter()
        .map(|g| report.speedup("GraphIt", Kernel::Sssp, g, b))
        .collect::<Option<Vec<_>>>()
        .map(|v| v.iter().all(|&r| r > 0.6));
    claim(
        "GraphIt SSSP comparable to GAP on every graph (shared bucket fusion)",
        graphit_sssp,
    );

    // 8. §V-D vs §V-C: SuiteSparse PR (dense bulk iteration, same basic
    // algorithm as GAP) holds up far better relative than its CC (many
    // tiny FastSV rounds) on every graph.
    let ss_pr_vs_cc = ["Web", "Twitter", "Road", "Kron", "Urand"]
        .iter()
        .filter_map(|g| {
            let pr = report.speedup("SuiteSparse", Kernel::Pr, g, b)?;
            let cc = report.speedup("SuiteSparse", Kernel::Cc, g, b)?;
            Some(pr > 4.0 * cc)
        })
        .all(|ok| ok);
    claim(
        "SuiteSparse PR holds up far better than its CC on every graph",
        Some(ss_pr_vs_cc),
    );

    // 9. §V-E: GraphIt BC wins on the synthetic graphs (224-272% in the
    // paper, from the bit-vector frontier + transposed backward pass).
    let graphit_bc = ["Kron", "Urand"]
        .iter()
        .map(|g| report.speedup("GraphIt", Kernel::Bc, g, b))
        .collect::<Option<Vec<_>>>()
        .map(|v| v.iter().all(|&r| r > 1.1));
    claim(
        "GraphIt BC faster than GAP on the synthetic graphs",
        graphit_bc,
    );

    // 6. No framework is uniformly fastest (no all-green row).
    let mut uniform_winner = false;
    for fw in ["SuiteSparse", "Galois", "GraphIt", "GKC", "NWGraph"] {
        let mut all_green = true;
        for kernel in Kernel::ALL {
            for g in ["Web", "Twitter", "Road", "Kron", "Urand"] {
                if let Some(r) = report.speedup(fw, kernel, g, b) {
                    if r <= 1.0 {
                        all_green = false;
                    }
                }
            }
        }
        uniform_winner |= all_green;
    }
    claim(
        "No framework is fastest on every test",
        Some(!uniform_winner),
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_table_order() {
        let c = corpus(Scale::Tiny);
        let names: Vec<_> = c.iter().map(|b| b.spec.name()).collect();
        assert_eq!(names, ["Web", "Twitter", "Road", "Kron", "Urand"]);
    }

    #[test]
    fn default_scale_is_medium() {
        std::env::remove_var("GAPBS_SCALE");
        assert_eq!(scale_from_env(), Scale::Medium);
    }
}
