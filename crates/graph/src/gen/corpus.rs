//! The benchmark corpus: five graphs mirroring Table I at configurable
//! scale.
//!
//! | Name    | Stand-in for        | Directed | Degree family | Diameter regime |
//! |---------|---------------------|----------|---------------|-----------------|
//! | Road    | USA road network    | yes      | bounded (≈2.4)| huge            |
//! | Twitter | follow graph        | yes      | power law (≈24)| tiny           |
//! | Web     | .sk web crawl       | yes      | power law (≈38)| moderate (tail)|
//! | Kron    | Graph500 Kronecker  | no       | power law (≈16)| tiny           |
//! | Urand   | Erdős–Rényi         | no       | normal (≈16)  | tiny            |

use super::rmat::{rmat_edges_in, RmatConfig};
use super::road::{road_edges_in, RoadConfig};
use super::{build_graph_in, erdos, weighted_companion_in};
use crate::edgelist::Edge;
use crate::graph::{Graph, WGraph};
use crate::types::NodeId;
use gapbs_parallel::ThreadPool;

/// Identifier of one of the five benchmark graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GraphSpec {
    /// Road-network-like lattice: bounded degree, huge diameter.
    Road,
    /// Social-network-like R-MAT: heavy power-law skew, tiny diameter.
    Twitter,
    /// Web-crawl-like R-MAT with a high-diameter tail.
    Web,
    /// Graph500 Kronecker, undirected.
    Kron,
    /// Uniform random (Erdős–Rényi), undirected.
    Urand,
}

impl GraphSpec {
    /// All five benchmark graphs in Table IV's column order
    /// (Web, Twitter, Road, Kron, Urand).
    pub const TABLE_ORDER: [GraphSpec; 5] = [
        GraphSpec::Web,
        GraphSpec::Twitter,
        GraphSpec::Road,
        GraphSpec::Kron,
        GraphSpec::Urand,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            GraphSpec::Road => "Road",
            GraphSpec::Twitter => "Twitter",
            GraphSpec::Web => "Web",
            GraphSpec::Kron => "Kron",
            GraphSpec::Urand => "Urand",
        }
    }

    /// Whether the graph is directed (Table I's `Directed` column).
    #[cfg(test)]
    pub(crate) fn is_directed(self) -> bool {
        matches!(self, GraphSpec::Road | GraphSpec::Twitter | GraphSpec::Web)
    }

    /// Whether the topology has a high diameter (drives algorithm selection
    /// heuristics in Galois, §V).
    pub fn high_diameter(self) -> bool {
        matches!(self, GraphSpec::Road)
    }

    /// Deterministic seed used for this graph's generator.
    pub fn seed(self) -> u64 {
        match self {
            GraphSpec::Road => 0x0c0a_d001,
            GraphSpec::Twitter => 0x7717_7e20,
            GraphSpec::Web => 0x3e5b_c4a11,
            GraphSpec::Kron => 0x6b20_4e00,
            GraphSpec::Urand => 0x02a4_d000,
        }
    }

    /// Generates the edge list, vertex count and symmetrize flag for this
    /// graph at the given scale, drawing on `pool`. The output is a pure
    /// function of the spec and scale — pool size never changes it.
    fn edges_in(self, scale: Scale, pool: &ThreadPool) -> (usize, Vec<Edge>, bool) {
        match self {
            GraphSpec::Road => {
                let cfg = RoadConfig::gap_like(scale.road_side());
                (
                    cfg.num_vertices(),
                    road_edges_in(&cfg, self.seed(), pool),
                    false,
                )
            }
            GraphSpec::Twitter => {
                let cfg = RmatConfig {
                    scale: scale.rmat_scale(),
                    edges_per_vertex: 24,
                    a: 0.65,
                    b: 0.15,
                    c: 0.15,
                    shuffle_ids: true,
                };
                (
                    cfg.num_vertices(),
                    rmat_edges_in(&cfg, self.seed(), pool),
                    false,
                )
            }
            GraphSpec::Web => {
                let cfg = RmatConfig {
                    scale: scale.rmat_scale(),
                    edges_per_vertex: 38,
                    a: 0.60,
                    b: 0.19,
                    c: 0.19,
                    shuffle_ids: true,
                };
                let mut edges = rmat_edges_in(&cfg, self.seed(), pool);
                let core_n = cfg.num_vertices();
                // High-diameter tail: a bidirectional chain of extra pages
                // hanging off page 0 stretches the diameter the way deep
                // site hierarchies do in the .sk crawl (Table I: 135 vs
                // Twitter's 14).
                let tail = 10 * scale.rmat_scale() as usize;
                let mut prev = 0 as NodeId;
                for i in 0..tail {
                    let v = (core_n + i) as NodeId;
                    edges.push(Edge::new(prev, v));
                    edges.push(Edge::new(v, prev));
                    prev = v;
                }
                (core_n + tail, edges, false)
            }
            GraphSpec::Kron => {
                let cfg = RmatConfig::graph500(scale.rmat_scale() + 1, 8);
                (
                    cfg.num_vertices(),
                    rmat_edges_in(&cfg, self.seed(), pool),
                    true,
                )
            }
            GraphSpec::Urand => {
                let s = scale.rmat_scale() + 1;
                (
                    1 << s,
                    erdos::urand_edges_in(s, 16, self.seed(), pool),
                    true,
                )
            }
        }
    }

    /// Generates the unweighted graph at the given scale.
    pub fn generate(self, scale: Scale) -> Graph {
        self.generate_in(scale, &ThreadPool::new(1))
    }

    /// [`GraphSpec::generate`] with generation and construction on `pool`.
    pub fn generate_in(self, scale: Scale, pool: &ThreadPool) -> Graph {
        let (n, edges, sym) = self.edges_in(scale, pool);
        build_graph_in(n, edges, sym, pool)
    }

    /// Both forms [`GraphSpec::generate_in`] and
    /// [`GraphSpec::generate_weighted_in`] return, from one run of the
    /// edge generator instead of one each.
    pub fn generate_both_in(self, scale: Scale, pool: &ThreadPool) -> (Graph, WGraph) {
        let (n, edges, sym) = self.edges_in(scale, pool);
        let wgraph = weighted_companion_in(n, &edges, sym, self.seed(), pool);
        (build_graph_in(n, edges, sym, pool), wgraph)
    }

    /// Generates the weighted companion (same topology, GAP-style uniform
    /// weights) at the given scale.
    pub fn generate_weighted(self, scale: Scale) -> WGraph {
        self.generate_weighted_in(scale, &ThreadPool::new(1))
    }

    /// [`GraphSpec::generate_weighted`] with generation and construction
    /// on `pool`.
    pub fn generate_weighted_in(self, scale: Scale, pool: &ThreadPool) -> WGraph {
        let (n, edges, sym) = self.edges_in(scale, pool);
        weighted_companion_in(n, &edges, sym, self.seed(), pool)
    }
}

impl std::fmt::Display for GraphSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for GraphSpec {
    type Err = String;

    /// Parses a graph [`name`](GraphSpec::name), ignoring case.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_lowercase().as_str() {
            "web" => Ok(GraphSpec::Web),
            "twitter" => Ok(GraphSpec::Twitter),
            "road" => Ok(GraphSpec::Road),
            "kron" => Ok(GraphSpec::Kron),
            "urand" => Ok(GraphSpec::Urand),
            other => Err(format!(
                "unknown graph {other:?}; expected web|twitter|road|kron|urand"
            )),
        }
    }
}

/// Degree-distribution family, as classified in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegreeFamily {
    /// Bounded maximum degree (road networks).
    Bounded,
    /// Power-law / heavy-tailed.
    Power,
    /// Concentrated around the mean (uniform random).
    Normal,
}

impl std::fmt::Display for DegreeFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegreeFamily::Bounded => "bounded",
            DegreeFamily::Power => "power",
            DegreeFamily::Normal => "normal",
        })
    }
}

/// Corpus scale presets. The paper's graphs have 10⁸–10⁹ edges; these
/// presets shrink every graph proportionally so that the full 30-test
/// matrix runs on a laptop while preserving the topology contrasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scale {
    /// Sub-second corpus for unit and property tests (≈1k vertices).
    Tiny,
    /// Seconds-scale corpus for integration tests (≈8k vertices).
    Small,
    /// Default benchmark corpus (≈16–64k vertices, 10⁵–10⁶ arcs).
    Medium,
    /// Stress corpus: ≈16× Medium edge counts (10⁶–10⁷ arcs), the tier
    /// the snapshot cache makes practical — regenerating it from
    /// scratch on every process start is what snapshots eliminate.
    Large,
}

impl Scale {
    /// log2 vertex count used for the directed R-MAT graphs.
    fn rmat_scale(self) -> u32 {
        match self {
            Scale::Tiny => 9,
            Scale::Small => 12,
            Scale::Medium => 14,
            Scale::Large => 18,
        }
    }

    /// Side length of the road lattice.
    fn road_side(self) -> usize {
        match self {
            Scale::Tiny => 24,
            Scale::Small => 64,
            Scale::Medium => 160,
            Scale::Large => 640,
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Large => "large",
        })
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    /// Parses a scale name as [`Display`](std::fmt::Display) writes it,
    /// ignoring case.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_lowercase().as_str() {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "medium" => Ok(Scale::Medium),
            "large" => Ok(Scale::Large),
            other => Err(format!(
                "unknown scale {other:?}; expected tiny|small|medium|large"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One generated corpus member: the spec plus both graph forms.
    struct CorpusEntry {
        /// Which benchmark graph this is.
        spec: GraphSpec,
        /// Unweighted form (BFS, PR, CC, BC, TC).
        graph: Graph,
        /// Weighted companion with identical topology (SSSP).
        wgraph: WGraph,
    }

    /// Generates the full five-graph corpus at the given scale, in Table IV
    /// column order.
    fn corpus(scale: Scale) -> Vec<CorpusEntry> {
        let pool = ThreadPool::new(1);
        GraphSpec::TABLE_ORDER
            .iter()
            .map(|&spec| {
                let (graph, wgraph) = spec.generate_both_in(scale, &pool);
                CorpusEntry {
                    spec,
                    graph,
                    wgraph,
                }
            })
            .collect()
    }

    #[test]
    fn names_parse_back_ignoring_case() {
        for spec in GraphSpec::TABLE_ORDER {
            assert_eq!(spec.name().parse(), Ok(spec));
            assert_eq!(spec.name().to_uppercase().parse(), Ok(spec));
        }
        for scale in [Scale::Tiny, Scale::Small, Scale::Medium, Scale::Large] {
            assert_eq!(scale.to_string().parse(), Ok(scale));
            assert_eq!(scale.to_string().to_uppercase().parse(), Ok(scale));
        }
        assert_eq!(
            "Orkut".parse::<GraphSpec>(),
            Err("unknown graph \"orkut\"; expected web|twitter|road|kron|urand".to_string())
        );
        assert_eq!(
            "huge".parse::<Scale>(),
            Err("unknown scale \"huge\"; expected tiny|small|medium|large".to_string())
        );
        assert!("".parse::<Scale>().is_err());
    }

    #[test]
    fn corpus_has_five_entries_in_table_order() {
        let c = corpus(Scale::Tiny);
        let names: Vec<_> = c.iter().map(|e| e.spec.name()).collect();
        assert_eq!(names, ["Web", "Twitter", "Road", "Kron", "Urand"]);
    }

    #[test]
    fn directedness_matches_table_one() {
        for entry in corpus(Scale::Tiny) {
            assert_eq!(
                entry.graph.is_directed(),
                entry.spec.is_directed(),
                "{}",
                entry.spec
            );
        }
    }

    #[test]
    fn weighted_and_unweighted_topologies_agree() {
        for entry in corpus(Scale::Tiny) {
            assert_eq!(entry.graph.num_vertices(), entry.wgraph.num_vertices());
            assert_eq!(entry.graph.num_arcs(), entry.wgraph.num_arcs());
            let g = &entry.graph;
            for u in g.vertices().step_by(37) {
                assert_eq!(g.out_neighbors(u), entry.wgraph.out_neighbors(u));
            }
        }
    }

    /// FNV-1a over a stream of 64-bit words: the corpus fingerprint the
    /// golden table below pins.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        use crate::snapshot::{FNV1A_OFFSET, FNV1A_PRIME};
        words
            .into_iter()
            .fold(FNV1A_OFFSET, |h, w| (h ^ w).wrapping_mul(FNV1A_PRIME))
    }

    fn csr_words(csr: &crate::csr::CsrGraph) -> impl Iterator<Item = u64> + '_ {
        let offsets = csr.offsets_raw().iter().map(|&o| u64::from(o));
        offsets.chain(csr.targets_raw().iter().map(|&t| u64::from(t)))
    }

    fn graph_hash(g: &Graph) -> u64 {
        fnv(csr_words(g.out_csr()).chain(csr_words(g.in_csr())))
    }

    fn wcsr_words(w: &crate::csr::WCsrGraph) -> impl Iterator<Item = u64> + '_ {
        csr_words(w.unweighted()).chain(w.weights_raw().iter().map(|&x| x as u64))
    }

    fn wgraph_hash(g: &WGraph) -> u64 {
        fnv(wcsr_words(g.out_wcsr()).chain(wcsr_words(g.in_wcsr())))
    }

    /// `[edge list, Graph, WGraph, symmetrized view]` per graph in
    /// [`GraphSpec::TABLE_ORDER`], computed at the commit before the
    /// stable scatter and the integer R-MAT sampler went in. The corpus
    /// is part of every recorded result (snapshot `params_hash`, served
    /// fingerprints, EXPERIMENTS.md counts), so construction changes
    /// must leave these alone.
    #[rustfmt::skip]
    const GOLDEN: [(Scale, [[u64; 4]; 5]); 3] = [
        (Scale::Tiny, [
            [0xd91d_a378_cb34_a89e, 0x4ce3_9950_ec08_6b5f, 0x6fdc_bb3d_4841_d6a9, 0xff7f_551c_0877_4bad],
            [0x2040_ca70_5dca_b2c0, 0x8a23_31c8_3955_b593, 0xbf4c_ba5b_264c_0aa3, 0xc057_f341_7bb7_8445],
            [0x83c5_a517_a19d_58bd, 0x44bb_896c_cfbf_d885, 0x412e_f675_593e_f75f, 0x44bb_896c_cfbf_d885],
            [0xad04_60e9_2e0f_5c50, 0xfd6c_b750_9d5c_19c5, 0x3f4f_fe57_4ec3_b9f5, 0xfd6c_b750_9d5c_19c5],
            [0x9fc9_b823_2fac_b7bb, 0xf3a0_469d_f9e9_fcbd, 0xd736_9b2b_f440_85e5, 0xf3a0_469d_f9e9_fcbd],
        ]),
        (Scale::Small, [
            [0x254a_2358_90b7_21ec, 0x3194_e7ba_5c03_554f, 0x838d_5929_e835_c3f5, 0x0b74_f249_9e41_7f75],
            [0x95b4_1ebf_9424_1afe, 0xbc01_e3fb_2276_23f1, 0xda17_61f4_bc1e_c663, 0x3a01_2a37_98d2_3b35],
            [0x9a58_1afe_18e6_363f, 0xa546_6bb8_b846_ade5, 0x9c9b_51ed_ed90_e1a5, 0xa546_6bb8_b846_ade5],
            [0xa91c_8813_e04d_b476, 0x7386_0987_484e_2ca5, 0x69a2_6c08_a6b8_29e5, 0x7386_0987_484e_2ca5],
            [0x3ed7_d6a7_bb2d_72a4, 0x0fc9_a9f9_5abb_ac6d, 0xa254_3fc3_82e1_68cd, 0x0fc9_a9f9_5abb_ac6d],
        ]),
        (Scale::Medium, [
            [0xaf4a_e67b_125d_2e8a, 0x1c7f_6948_9ba1_d387, 0xc2e6_baaa_5899_9b7f, 0x4229_01f6_201c_4e39],
            [0x7f8d_acfa_0d01_6d3d, 0x569f_b184_fede_c6ab, 0x01b3_e464_7610_58c7, 0x83bc_a37f_470e_fe99],
            [0x9ad7_30e5_01d4_a891, 0x0c7f_1d31_4675_79d1, 0x15ca_5715_8976_b5d5, 0x0c7f_1d31_4675_79d1],
            [0xec9d_241d_416c_baa8, 0xe23f_007b_e2f2_72a5, 0x8a58_ddae_d0e8_7eb3, 0xe23f_007b_e2f2_72a5],
            [0x90f5_0d85_f001_9afe, 0x4860_d14b_225a_8f05, 0x7141_3fdb_98e7_5795, 0x4860_d14b_225a_8f05],
        ]),
    ];

    #[test]
    fn corpus_matches_golden_hashes() {
        let pool = ThreadPool::new(2);
        for (scale, golden) in GOLDEN {
            for (spec, want) in GraphSpec::TABLE_ORDER.into_iter().zip(golden) {
                let (n, edges, sym) = spec.edges_in(scale, &pool);
                let edge_hash = fnv([n as u64, u64::from(sym)].into_iter().chain(
                    edges
                        .iter()
                        .flat_map(|e| [u64::from(e.src), u64::from(e.dst)]),
                ));
                let (graph, wgraph) = (
                    spec.generate_in(scale, &pool),
                    spec.generate_weighted_in(scale, &pool),
                );
                let (both_g, both_w) = spec.generate_both_in(scale, &pool);
                assert!(both_g == graph && both_w == wgraph, "{spec} @ {scale}");
                let sym_hash = if graph.is_directed() {
                    graph_hash(&crate::builder::symmetrize_graph(&graph, &pool))
                } else {
                    graph_hash(&graph)
                };
                let got = [
                    edge_hash,
                    graph_hash(&graph),
                    wgraph_hash(&wgraph),
                    sym_hash,
                ];
                assert_eq!(got, want, "{spec} @ {scale}: got {got:#018x?}");
            }
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let a = GraphSpec::Kron.generate(Scale::Tiny);
        let b = GraphSpec::Kron.generate(Scale::Tiny);
        assert_eq!(a, b);
    }
}
