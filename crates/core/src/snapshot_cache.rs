//! Snapshot-dir caching for prepared benchmark inputs.
//!
//! Every binary used to regenerate and rebuild the whole corpus on each
//! start — the dominant cost at the larger scales. With a snapshot
//! directory, each `(spec, scale)` pair is built **once**, written as a
//! [`gapbs_graph::snapshot`] file, and subsequent processes mmap the
//! finished CSR arrays in milliseconds.
//!
//! Cache keying is two-layer:
//!
//! * the **file name** encodes spec, scale and snapshot format version,
//!   so a format bump simply misses the old files rather than
//!   misreading them;
//! * the **params hash** inside the header covers the generator seed
//!   and shape, so a stale file (e.g. a seed change in a newer build)
//!   is detected as [`SnapshotError::ParamsMismatch`] and rebuilt.
//!
//! A cache miss falls back to the ordinary deterministic generation
//! path and then writes the snapshot best-effort — a read-only cache
//! directory degrades to a warning, never a failure.

use crate::framework::BenchGraph;
use gapbs_graph::gen::{GraphSpec, Scale};
use gapbs_graph::snapshot::{
    self, Compression, LoadOptions, SnapshotContents, WriteStats, FNV1A_OFFSET, FNV1A_PRIME,
    FORMAT_VERSION,
};
use gapbs_graph::{GraphError, Snapshot, SnapshotError};
use gapbs_parallel::ThreadPool;
use std::path::{Path, PathBuf};

/// Whether a cached-load request was served from a snapshot file or had
/// to rebuild (serve's hit/miss counters are fed from this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Loaded from an existing, valid snapshot.
    Hit,
    /// Rebuilt from the generators (no file, stale file, or load error).
    Miss,
}

/// Generator-provenance hash stored in the snapshot header: covers the
/// graph identity (name + seed), the scale, and the snapshot format
/// version. Any change to generator seeds or the format invalidates
/// cached files through this value.
pub(crate) fn params_hash(spec: GraphSpec, scale: Scale) -> u64 {
    let mut h = FNV1A_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV1A_PRIME);
        }
    };
    eat(spec.name().as_bytes());
    eat(scale.to_string().as_bytes());
    eat(&spec.seed().to_le_bytes());
    eat(&u64::from(FORMAT_VERSION).to_le_bytes());
    h
}

/// The canonical snapshot file path for a corpus member: the format
/// version is part of the name, so format bumps miss cleanly instead of
/// parsing old files.
pub fn snapshot_path(dir: &Path, spec: GraphSpec, scale: Scale) -> PathBuf {
    dir.join(format!(
        "{}-{}-v{}.gsnap",
        spec.name().to_lowercase(),
        scale,
        FORMAT_VERSION
    ))
}

impl BenchGraph {
    /// Writes this prepared input as a snapshot at the canonical path
    /// under `dir`, returning the per-section size accounting. The
    /// cache always uses [`Compression::Auto`]; the repo benchmark pins
    /// [`Compression::Always`] to time the compact load separately.
    pub fn write_snapshot(&self, dir: &Path, scale: Scale) -> Result<WriteStats, GraphError> {
        self.write_snapshot_with(dir, scale, Compression::Auto)
    }

    /// [`Self::write_snapshot`] with an explicit adjacency encoding.
    pub fn write_snapshot_with(
        &self,
        dir: &Path,
        scale: Scale,
        compression: Compression,
    ) -> Result<WriteStats, GraphError> {
        snapshot::write(
            &snapshot_path(dir, self.spec, scale),
            &self.snapshot_contents(params_hash(self.spec, scale)),
            compression,
        )
    }

    /// Everything this input stores in a snapshot bundle: the graph, its
    /// weighted companion, the symmetrized view when directed, the
    /// source candidates and Δ.
    pub fn snapshot_contents(&self, params_hash: u64) -> SnapshotContents<'_> {
        SnapshotContents {
            graph: &self.graph,
            wgraph: Some(&self.wgraph),
            sym_graph: self.graph.is_directed().then_some(&self.sym_graph),
            source_candidates: Some(&self.source_candidates),
            delta: self.delta,
            params_hash,
        }
    }

    /// Loads a prepared input from a snapshot file, verifying the
    /// stored params hash against what this build's generators would
    /// produce (a mismatch means the file is stale, not corrupt).
    pub fn from_snapshot_in(
        spec: GraphSpec,
        scale: Scale,
        path: &Path,
        pool: &ThreadPool,
        paranoid: bool,
    ) -> Result<Self, GraphError> {
        let snap = Snapshot::open_with(
            path,
            LoadOptions {
                paranoid,
                force_heap: false,
            },
        )?;
        let expected = params_hash(spec, scale);
        if snap.params_hash() != expected {
            return Err(GraphError::Snapshot(SnapshotError::ParamsMismatch {
                stored: snap.params_hash(),
                expected,
            }));
        }
        let bundle = snap.bundle_in(Some(pool))?;
        Ok(BenchGraph {
            spec,
            graph: bundle.graph,
            wgraph: bundle.wgraph,
            sym_graph: bundle.sym_graph,
            delta: bundle.delta,
            source_candidates: bundle.source_candidates,
        })
    }

    /// The snapshot-dir cache: mmap the canonical file if present and
    /// valid, otherwise rebuild from the generators and write the file
    /// best-effort. Returns the input plus whether this was a cache
    /// hit — the prepared input is identical either way.
    pub fn load_cached_in(
        spec: GraphSpec,
        scale: Scale,
        dir: &Path,
        pool: &ThreadPool,
        paranoid: bool,
    ) -> (Self, CacheOutcome) {
        let path = snapshot_path(dir, spec, scale);
        if path.exists() {
            match Self::from_snapshot_in(spec, scale, &path, pool, paranoid) {
                Ok(bg) => return (bg, CacheOutcome::Hit),
                Err(e) => {
                    eprintln!(
                        "snapshot cache: rebuilding {spec} {scale}: {} failed to load: {e}",
                        path.display()
                    );
                }
            }
        }
        let bg = Self::generate_in(spec, scale, pool);
        if let Err(e) = bg.write_snapshot(dir, scale) {
            eprintln!("snapshot cache: could not write {}: {e}", path.display());
        }
        (bg, CacheOutcome::Miss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("gapbs-cache-{}-{tag}-{id}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create cache dir");
        dir
    }

    fn assert_same_input(a: &BenchGraph, b: &BenchGraph) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.wgraph, b.wgraph);
        assert_eq!(a.sym_graph, b.sym_graph);
        assert_eq!(a.delta, b.delta);
        assert_eq!(a.source_candidates, b.source_candidates);
    }

    #[test]
    fn miss_then_hit_round_trips_every_structure() {
        let dir = tmp_dir("roundtrip");
        let pool = ThreadPool::new(2);
        for spec in [GraphSpec::Road, GraphSpec::Kron] {
            let built = BenchGraph::generate_in(spec, Scale::Tiny, &pool);
            let (first, outcome) =
                BenchGraph::load_cached_in(spec, Scale::Tiny, &dir, &pool, false);
            assert_eq!(outcome, CacheOutcome::Miss, "{spec}: empty dir must miss");
            assert_same_input(&built, &first);

            let (second, outcome) =
                BenchGraph::load_cached_in(spec, Scale::Tiny, &dir, &pool, true);
            assert_eq!(outcome, CacheOutcome::Hit, "{spec}: second load must hit");
            assert_same_input(&built, &second);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_params_hash_rebuilds_instead_of_serving_wrong_data() {
        let dir = tmp_dir("stale");
        let pool = ThreadPool::new(1);
        // Build a Kron snapshot, then present it under Urand's canonical
        // path: the params hash catches the lie and the cache rebuilds.
        let (_, outcome) =
            BenchGraph::load_cached_in(GraphSpec::Kron, Scale::Tiny, &dir, &pool, false);
        assert_eq!(outcome, CacheOutcome::Miss);
        std::fs::rename(
            snapshot_path(&dir, GraphSpec::Kron, Scale::Tiny),
            snapshot_path(&dir, GraphSpec::Urand, Scale::Tiny),
        )
        .expect("rename");
        let (bg, outcome) =
            BenchGraph::load_cached_in(GraphSpec::Urand, Scale::Tiny, &dir, &pool, false);
        assert_eq!(outcome, CacheOutcome::Miss, "stale file must not hit");
        assert_eq!(bg.graph, GraphSpec::Urand.generate(Scale::Tiny));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn params_hash_separates_every_spec_and_scale() {
        let mut seen = std::collections::HashSet::new();
        for spec in GraphSpec::TABLE_ORDER {
            for scale in [Scale::Tiny, Scale::Small, Scale::Medium, Scale::Large] {
                assert!(
                    seen.insert(params_hash(spec, scale)),
                    "collision at {spec} {scale}"
                );
            }
        }
    }
}
