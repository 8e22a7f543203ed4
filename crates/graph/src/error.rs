//! Error types for graph construction and I/O.

use std::error::Error;
use std::fmt;

/// Errors raised while building a graph from an edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// An edge endpoint is outside the declared vertex range.
    EndpointOutOfRange {
        /// Offending vertex id.
        node: u64,
        /// Number of vertices the builder was configured with.
        num_vertices: u64,
    },
    /// The builder was asked for a graph with zero vertices but edges exist.
    EdgesWithoutVertices,
    /// The arc count does not fit the `u32` row offsets every graph uses.
    ArcCountOverflow {
        /// Arc count the scan produced.
        arcs: u64,
    },
    /// A weighted edge carried a non-positive weight, which delta-stepping
    /// (and the GAP spec) does not permit.
    NonPositiveWeight {
        /// Source endpoint of the offending edge.
        src: u64,
        /// Destination endpoint of the offending edge.
        dst: u64,
        /// The rejected weight.
        weight: i64,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::EndpointOutOfRange { node, num_vertices } => write!(
                f,
                "edge endpoint {node} out of range for graph with {num_vertices} vertices"
            ),
            BuildError::EdgesWithoutVertices => {
                write!(f, "edge list is non-empty but vertex count is zero")
            }
            BuildError::ArcCountOverflow { arcs } => write!(
                f,
                "{arcs} arcs exceed the u32 row-offset limit of {} arcs",
                u32::MAX
            ),
            BuildError::NonPositiveWeight { src, dst, weight } => write!(
                f,
                "edge ({src}, {dst}) has non-positive weight {weight}; GAP SSSP requires positive weights"
            ),
        }
    }
}

impl Error for BuildError {}

/// Errors raised while reading a binary graph snapshot. Every
/// malformation a hostile or truncated file can exhibit maps to a
/// variant here — the loader never panics or reads out of bounds on bad
/// input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with the snapshot magic.
    BadMagic {
        /// The first eight bytes actually found.
        found: [u8; 8],
    },
    /// The format version is newer (or older) than this build supports.
    UnsupportedVersion {
        /// Version stored in the file.
        found: u16,
        /// Version this build reads and writes.
        supported: u16,
    },
    /// The file ends before a structure it declares.
    Truncated {
        /// What the loader was reading when it ran out of bytes.
        what: &'static str,
        /// Bytes the structure needs.
        needed: u64,
        /// Bytes actually available.
        have: u64,
    },
    /// A stored checksum does not match the bytes on disk.
    ChecksumMismatch {
        /// Which structure failed (`"header"` or a section name).
        section: &'static str,
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum computed over the mapped bytes.
        computed: u64,
    },
    /// A section the header's flags promise is absent.
    MissingSection {
        /// Section name.
        section: &'static str,
    },
    /// The snapshot was built from different generator parameters than
    /// the caller expects (stale cache entry).
    ParamsMismatch {
        /// Parameter hash recorded in the file.
        stored: u64,
        /// Parameter hash the caller derived from its generator config.
        expected: u64,
    },
    /// A structural inconsistency not covered by the variants above
    /// (bad section bounds, impossible counts, misalignment).
    Malformed {
        /// Description of the inconsistency.
        message: String,
    },
    /// Paranoid validation found a CSR invariant violation the
    /// checksums could not catch (a well-formed file describing an
    /// invalid graph).
    Invalid {
        /// The violated invariant.
        message: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic { found } => {
                write!(f, "bad snapshot magic {found:02x?}")
            }
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build supports {supported})"
            ),
            SnapshotError::Truncated { what, needed, have } => write!(
                f,
                "snapshot truncated reading {what}: need {needed} bytes, have {have}"
            ),
            SnapshotError::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in {section}: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::MissingSection { section } => {
                write!(f, "snapshot is missing required section {section}")
            }
            SnapshotError::ParamsMismatch { stored, expected } => write!(
                f,
                "snapshot parameter hash {stored:#018x} does not match expected {expected:#018x}"
            ),
            SnapshotError::Malformed { message } => write!(f, "malformed snapshot: {message}"),
            SnapshotError::Invalid { message } => {
                write!(f, "snapshot describes an invalid graph: {message}")
            }
        }
    }
}

impl Error for SnapshotError {}

/// Errors raised by graph I/O routines.
#[derive(Debug)]
pub enum GraphError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line of an edge-list file failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of what went wrong.
        message: String,
    },
    /// The parsed edge list violated a builder invariant.
    Build(BuildError),
    /// A binary snapshot failed to load.
    Snapshot(SnapshotError),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::Build(e) => write!(f, "build error: {e}"),
            GraphError::Snapshot(e) => write!(f, "snapshot error: {e}"),
        }
    }
}

impl Error for GraphError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            GraphError::Build(e) => Some(e),
            GraphError::Snapshot(e) => Some(e),
            GraphError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

impl From<BuildError> for GraphError {
    fn from(e: BuildError) -> Self {
        GraphError::Build(e)
    }
}

impl From<SnapshotError> for GraphError {
    fn from(e: SnapshotError) -> Self {
        GraphError::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = BuildError::EndpointOutOfRange {
            node: 10,
            num_vertices: 5,
        };
        let s = e.to_string();
        assert!(s.contains("10"));
        assert!(s.contains('5'));
        assert!(s.starts_with(char::is_lowercase));
    }

    #[test]
    fn graph_error_sources_chain() {
        let e = GraphError::from(BuildError::EdgesWithoutVertices);
        assert!(Error::source(&e).is_some());
    }
}
