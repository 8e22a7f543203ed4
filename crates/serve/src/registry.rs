//! The resident graph registry.
//!
//! The daemon's core premise — and the reason a serving layer makes
//! sense on top of a benchmark harness — is that graph construction
//! dominates single-query latency. The registry pays that cost once at
//! startup: every corpus member is generated and prepared on the
//! persistent pool, wrapped in an [`Arc`], and served immutably for the
//! daemon's lifetime. Handlers clone `Arc`s, never graphs.
//!
//! With a snapshot directory ([`RegistryOptions::snapshot_dir`], the
//! `--snapshot-dir` flag), "pays that cost once" becomes literal across
//! *processes*: the first daemon builds and snapshots each graph, every
//! later one mmaps the finished CSR arrays in milliseconds. The
//! registry records per-graph cache outcomes and the total time to
//! ready so the metrics plane can expose cold-start behaviour.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use gapbs_core::framework::{BenchGraph, Framework};
use gapbs_core::registry::all_frameworks;
use gapbs_core::CacheOutcome;
use gapbs_graph::gen::{GraphSpec, Scale};
use gapbs_parallel::ThreadPool;

/// How the registry sources its graphs at startup.
#[derive(Debug, Clone, Default)]
pub struct RegistryOptions {
    /// Snapshot cache directory. `None` regenerates every graph from
    /// the seeded generators (the prepared inputs are identical either
    /// way; only load time differs).
    pub snapshot_dir: Option<PathBuf>,
    /// Run the full O(V+E) structural validation on snapshot loads
    /// instead of the default checksum-only verification.
    pub paranoid: bool,
}

/// One graph's startup accounting: how it was sourced and how long the
/// load took (generation+preparation on a miss, mmap+decode on a hit).
#[derive(Debug, Clone, Copy)]
pub struct LoadRecord {
    /// Which graph.
    pub spec: GraphSpec,
    /// Snapshot cache hit or rebuild. Without a snapshot directory
    /// every load is a [`CacheOutcome::Miss`] — it rebuilt from source.
    pub outcome: CacheOutcome,
    /// Wall-clock seconds for this graph's load.
    pub seconds: f64,
}

/// Immutable corpus + framework registry shared by every handler thread.
pub struct GraphRegistry {
    scale: Scale,
    graphs: Vec<(GraphSpec, Arc<BenchGraph>)>,
    frameworks: Vec<Box<dyn Framework>>,
    loads: Vec<LoadRecord>,
    time_to_ready_seconds: f64,
}

impl GraphRegistry {
    /// Generates and prepares `specs` at `scale` on `pool`, logging one
    /// line per graph to stderr (the daemon's operator channel).
    pub fn load(scale: Scale, specs: &[GraphSpec], pool: &ThreadPool) -> GraphRegistry {
        Self::load_with(scale, specs, pool, &RegistryOptions::default())
    }

    /// [`GraphRegistry::load`] with explicit sourcing options: when
    /// `opts.snapshot_dir` is set, each graph mmaps its cached snapshot
    /// if present (building and writing it on first use).
    pub fn load_with(
        scale: Scale,
        specs: &[GraphSpec],
        pool: &ThreadPool,
        opts: &RegistryOptions,
    ) -> GraphRegistry {
        let started = Instant::now();
        let mut loads = Vec::with_capacity(specs.len());
        let graphs = specs
            .iter()
            .map(|&spec| {
                let start = Instant::now();
                let (bg, outcome) = match &opts.snapshot_dir {
                    Some(dir) => BenchGraph::load_cached_in(spec, scale, dir, pool, opts.paranoid),
                    None => (
                        BenchGraph::generate_in(spec, scale, pool),
                        CacheOutcome::Miss,
                    ),
                };
                let seconds = start.elapsed().as_secs_f64();
                let source = match (opts.snapshot_dir.is_some(), outcome) {
                    (true, CacheOutcome::Hit) => "snapshot",
                    (true, CacheOutcome::Miss) => "built, snapshot written",
                    (false, _) => "built",
                };
                eprintln!(
                    "serve: loaded {} ({} vertices, {} edges) in {seconds:.2}s [{source}]",
                    spec.name(),
                    bg.graph.num_vertices(),
                    bg.graph.num_edges(),
                );
                loads.push(LoadRecord {
                    spec,
                    outcome,
                    seconds,
                });
                (spec, Arc::new(bg))
            })
            .collect();
        GraphRegistry {
            scale,
            graphs,
            frameworks: all_frameworks(),
            loads,
            time_to_ready_seconds: started.elapsed().as_secs_f64(),
        }
    }

    /// The scale every resident graph was generated at.
    pub(crate) fn scale(&self) -> Scale {
        self.scale
    }

    /// Wall-clock seconds from load start until every graph was
    /// resident — the daemon's cold-start cost, exposed as the
    /// `time_to_ready_seconds` gauge.
    pub(crate) fn time_to_ready_seconds(&self) -> f64 {
        self.time_to_ready_seconds
    }

    /// Per-graph startup accounting, in load order.
    pub fn load_records(&self) -> &[LoadRecord] {
        &self.loads
    }

    /// Looks up a resident graph. `None` means the graph exists in the
    /// corpus vocabulary but was not loaded into this daemon.
    pub fn get(&self, spec: GraphSpec) -> Option<&Arc<BenchGraph>> {
        self.graphs
            .iter()
            .find(|(s, _)| *s == spec)
            .map(|(_, bg)| bg)
    }

    /// Looks up a framework by display name.
    pub fn framework(&self, name: &str) -> Option<&dyn Framework> {
        self.frameworks
            .iter()
            .find(|f| f.name() == name)
            .map(|f| f.as_ref())
    }

    /// The resident graphs, in load order.
    pub(crate) fn graphs(&self) -> impl Iterator<Item = (GraphSpec, &Arc<BenchGraph>)> {
        self.graphs.iter().map(|(s, bg)| (*s, bg))
    }

    /// Adds a framework to the roster, so tests can serve a failing one.
    #[cfg(test)]
    pub(crate) fn with_framework(mut self, framework: Box<dyn Framework>) -> GraphRegistry {
        self.frameworks.push(framework);
        self
    }
}

impl std::fmt::Debug for GraphRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphRegistry")
            .field("scale", &self.scale)
            .field(
                "graphs",
                &self.graphs.iter().map(|(s, _)| s).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_requested_graphs_and_resolves_frameworks() {
        let pool = ThreadPool::new(2);
        let reg = GraphRegistry::load(Scale::Tiny, &[GraphSpec::Kron, GraphSpec::Road], &pool);
        assert!(reg.get(GraphSpec::Kron).is_some());
        assert!(reg.get(GraphSpec::Road).is_some());
        assert!(reg.get(GraphSpec::Web).is_none(), "web was not loaded");
        assert!(reg.framework("GAP").is_some());
        assert!(reg.framework("SuiteSparse").is_some());
        assert!(reg.framework("Ligra").is_none());
        assert_eq!(reg.graphs().count(), 2);
        // Without a snapshot dir every load is a rebuild.
        assert!(reg
            .load_records()
            .iter()
            .all(|r| r.outcome == CacheOutcome::Miss));
        assert!(reg.time_to_ready_seconds() > 0.0);
    }

    #[test]
    fn snapshot_dir_misses_then_hits_with_identical_graphs() {
        let dir = std::env::temp_dir().join(format!("gapbs-serve-reg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create snapshot dir");
        let pool = ThreadPool::new(2);
        let opts = RegistryOptions {
            snapshot_dir: Some(dir.clone()),
            paranoid: false,
        };
        let cold = GraphRegistry::load_with(Scale::Tiny, &[GraphSpec::Kron], &pool, &opts);
        assert_eq!(cold.load_records()[0].outcome, CacheOutcome::Miss);
        let warm = GraphRegistry::load_with(Scale::Tiny, &[GraphSpec::Kron], &pool, &opts);
        assert_eq!(warm.load_records()[0].outcome, CacheOutcome::Hit);
        let a = cold.get(GraphSpec::Kron).expect("cold graph");
        let b = warm.get(GraphSpec::Kron).expect("warm graph");
        assert_eq!(a.graph, b.graph, "snapshot load must be bit-identical");
        assert_eq!(a.source_candidates, b.source_candidates);
        std::fs::remove_dir_all(&dir).ok();
    }
}
