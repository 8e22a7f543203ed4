//! Graph I/O: GAP-compatible text edge lists (`.el` / `.wel`) and a compact
//! binary serialized-graph format (`.sg` / `.wsg`), mirroring the file kinds
//! the GAP reference code ships with.

use crate::builder::Builder;
use crate::edgelist::{Edge, WEdge};
use crate::error::GraphError;
use crate::graph::{Graph, WGraph};
use crate::types::{NodeId, Weight};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// Magic bytes of the binary serialized graph format.
const SG_MAGIC: &[u8; 4] = b"GSG1";

/// Parses a text edge list: one `src dst` pair per line, `#` comments and
/// blank lines ignored.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] with the offending line number on
/// malformed input and [`GraphError::Io`] on read failure.
pub(crate) fn read_edge_list<R: Read>(reader: R) -> Result<Vec<Edge>, GraphError> {
    let mut edges = Vec::new();
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let src = parse_field(it.next(), idx, "source")?;
        let dst = parse_field(it.next(), idx, "destination")?;
        if it.next().is_some() {
            return Err(GraphError::Parse {
                line: idx + 1,
                message: "unexpected trailing field (did you mean a .wel file?)".into(),
            });
        }
        edges.push(Edge::new(src, dst));
    }
    Ok(edges)
}

/// Parses a weighted text edge list: `src dst weight` per line.
///
/// # Errors
///
/// Same conditions as [`read_edge_list`].
pub(crate) fn read_weighted_edge_list<R: Read>(reader: R) -> Result<Vec<WEdge>, GraphError> {
    let mut edges = Vec::new();
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let src = parse_field(it.next(), idx, "source")?;
        let dst = parse_field(it.next(), idx, "destination")?;
        let weight: Weight = match it.next() {
            Some(tok) => tok.parse().map_err(|_| GraphError::Parse {
                line: idx + 1,
                message: format!("invalid weight {tok:?}"),
            })?,
            None => {
                return Err(GraphError::Parse {
                    line: idx + 1,
                    message: "missing weight field".into(),
                })
            }
        };
        edges.push(WEdge::new(src, dst, weight));
    }
    Ok(edges)
}

fn parse_field(tok: Option<&str>, idx: usize, what: &str) -> Result<NodeId, GraphError> {
    match tok {
        Some(tok) => tok.parse().map_err(|_| GraphError::Parse {
            line: idx + 1,
            message: format!("invalid {what} {tok:?}"),
        }),
        None => Err(GraphError::Parse {
            line: idx + 1,
            message: format!("missing {what} field"),
        }),
    }
}

/// Writes a graph's arcs as a text edge list.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    for (u, v) in g.out_csr().iter_edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Serializes a graph to the compact binary `.sg` format.
///
/// Layout: magic, directed flag, vertex count, arc count, offsets as `u64`,
/// targets as `u32`, all little-endian. Directed graphs store both
/// directions; undirected graphs store the symmetric adjacency once.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_binary<W: Write>(g: &Graph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    w.write_all(SG_MAGIC)?;
    w.write_all(&[u8::from(g.is_directed())])?;
    write_csr(&mut w, g.out_csr())?;
    if g.is_directed() {
        write_csr(&mut w, g.in_csr())?;
    }
    w.flush()?;
    Ok(())
}

fn write_csr<W: Write>(w: &mut W, csr: &crate::CsrGraph) -> Result<(), GraphError> {
    w.write_all(&(csr.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(csr.num_edges() as u64).to_le_bytes())?;
    for &o in csr.offsets_raw() {
        w.write_all(&u64::from(o).to_le_bytes())?;
    }
    for &t in csr.targets_raw() {
        w.write_all(&t.to_le_bytes())?;
    }
    Ok(())
}

/// Deserializes a graph written by [`write_binary`].
///
/// # Errors
///
/// Returns [`GraphError::Parse`] if the header is malformed or an offset
/// exceeds the `u32` row-offset limit, and [`GraphError::Io`] on
/// truncated input.
pub fn read_binary<R: Read>(reader: R) -> Result<Graph, GraphError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != SG_MAGIC {
        return Err(GraphError::Parse {
            line: 0,
            message: format!("bad magic {magic:?}, expected {SG_MAGIC:?}"),
        });
    }
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag)?;
    let directed = flag[0] != 0;
    let out = read_csr(&mut r)?;
    if directed {
        let incoming = read_csr(&mut r)?;
        Ok(Graph::directed(out, incoming))
    } else {
        Ok(Graph::undirected(out))
    }
}

/// Reads one on-disk CSR (offsets are `u64` in the format), narrows the
/// offsets to `u32` and rebuilds it through the fully validated boundary
/// constructor.
fn read_csr<R: Read>(r: &mut R) -> Result<crate::CsrGraph, GraphError> {
    let n = read_u64(r)? as usize;
    let m = read_u64(r)? as usize;
    let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        let o = read_u64(r)?;
        let Ok(o) = u32::try_from(o) else {
            return Err(GraphError::Parse {
                line: 0,
                message: format!(
                    "offset {o} exceeds the u32 row-offset limit of {} arcs",
                    u32::MAX
                ),
            });
        };
        offsets.push(o);
    }
    let mut targets = Vec::with_capacity(m);
    let mut buf = [0u8; 4];
    for _ in 0..m {
        r.read_exact(&mut buf)?;
        targets.push(NodeId::from_le_bytes(buf));
    }
    Ok(crate::CsrGraph::from_parts(offsets, targets))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, GraphError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Magic bytes of the weighted binary format (`.wsg`).
const WSG_MAGIC: &[u8; 4] = b"GSW1";

/// Serializes a weighted graph to the compact binary `.wsg` format:
/// the unweighted layout of [`write_binary`] plus a parallel `i32` weight
/// array per stored direction.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_binary_weighted<W: Write>(g: &WGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    w.write_all(WSG_MAGIC)?;
    w.write_all(&[u8::from(g.is_directed())])?;
    write_wcsr(&mut w, g.out_wcsr())?;
    if g.is_directed() {
        write_wcsr(&mut w, g.in_wcsr())?;
    }
    w.flush()?;
    Ok(())
}

fn write_wcsr<W: Write>(w: &mut W, csr: &crate::WCsrGraph) -> Result<(), GraphError> {
    write_csr(w, csr.unweighted())?;
    for &weight in csr.weights_raw() {
        w.write_all(&weight.to_le_bytes())?;
    }
    Ok(())
}

/// Deserializes a weighted graph written by [`write_binary_weighted`].
///
/// # Errors
///
/// Returns [`GraphError::Parse`] on a malformed header and
/// [`GraphError::Io`] on truncated input.
pub fn read_binary_weighted<R: Read>(reader: R) -> Result<WGraph, GraphError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != WSG_MAGIC {
        return Err(GraphError::Parse {
            line: 0,
            message: format!("bad magic {magic:?}, expected {WSG_MAGIC:?}"),
        });
    }
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag)?;
    let directed = flag[0] != 0;
    let out = read_wcsr(&mut r)?;
    if directed {
        let incoming = read_wcsr(&mut r)?;
        Ok(WGraph::directed(out, incoming))
    } else {
        Ok(WGraph::undirected(out))
    }
}

fn read_wcsr<R: Read>(r: &mut R) -> Result<crate::WCsrGraph, GraphError> {
    let csr = read_csr(r)?;
    let mut weights = Vec::with_capacity(csr.num_edges());
    let mut buf = [0u8; 4];
    for _ in 0..csr.num_edges() {
        r.read_exact(&mut buf)?;
        weights.push(Weight::from_le_bytes(buf));
    }
    Ok(crate::WCsrGraph::from_parts(csr, weights))
}

/// Reads an edge-list file and builds a graph, symmetrizing when
/// `symmetrize` is set (GAP symmetrizes `.el` inputs flagged undirected).
///
/// # Errors
///
/// Propagates parse, I/O, and build failures.
pub fn graph_from_el<R: Read>(reader: R, symmetrize: bool) -> Result<Graph, GraphError> {
    let edges = read_edge_list(reader)?;
    Ok(Builder::new().symmetrize(symmetrize).build(edges)?)
}

/// Reads a weighted edge-list file and builds a weighted graph.
///
/// # Errors
///
/// Propagates parse, I/O, and build failures.
pub fn wgraph_from_wel<R: Read>(reader: R, symmetrize: bool) -> Result<WGraph, GraphError> {
    let edges = read_weighted_edge_list(reader)?;
    Ok(Builder::new()
        .symmetrize(symmetrize)
        .build_weighted(edges)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn parse_edge_list_with_comments() {
        let text = "# a comment\n0 1\n\n1 2\n";
        let edges = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(edges, vec![Edge::new(0, 1), Edge::new(1, 2)]);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = read_edge_list("0 1\nx y\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn trailing_field_suggests_wel() {
        let err = read_edge_list("0 1 5\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("wel"));
    }

    #[test]
    fn weighted_parse_roundtrip() {
        let text = "0 1 10\n1 2 20\n";
        let edges = read_weighted_edge_list(text.as_bytes()).unwrap();
        assert_eq!(edges[1], WEdge::new(1, 2, 20));
    }

    #[test]
    fn missing_weight_is_an_error() {
        assert!(read_weighted_edge_list("0 1\n".as_bytes()).is_err());
    }

    #[test]
    fn text_roundtrip_preserves_graph() {
        let g = gen::kron(7, 8, 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = graph_from_el(&buf[..], false).unwrap();
        // Round-trips as a directed graph over the same arcs. The text
        // format carries no vertex count, so isolated vertices above the
        // highest mentioned id are dropped on read.
        assert_eq!(g.num_arcs(), g2.num_arcs());
        assert!(g2.num_vertices() <= g.num_vertices());
        for u in g2.vertices() {
            assert_eq!(g.out_neighbors(u), g2.out_neighbors(u));
        }
        for u in g2.num_vertices() as u32..g.num_vertices() as u32 {
            assert_eq!(g.out_degree(u), 0, "dropped vertex {u} was not isolated");
        }
    }

    #[test]
    fn binary_roundtrip_directed_and_undirected() {
        for g in [
            gen::road(&gen::RoadConfig::gap_like(12), 1), // directed
            gen::urand(8, 8, 1),                          // undirected
        ] {
            let mut buf = Vec::new();
            write_binary(&g, &mut buf).unwrap();
            let g2 = read_binary(&buf[..]).unwrap();
            assert_eq!(g, g2);
        }
    }

    #[test]
    fn binary_offset_past_u32_is_a_parse_error_before_targets() {
        // One undirected vertex whose row claims u32::MAX + 1 arcs. The
        // file ends after the offsets, so reaching the targets would be
        // an Io error; the offset check must fire first.
        let arcs = u64::from(u32::MAX) + 1;
        let mut buf = SG_MAGIC.to_vec();
        buf.push(0);
        for word in [1, arcs, 0, arcs] {
            buf.extend_from_slice(&u64::to_le_bytes(word));
        }
        match read_binary(&buf[..]) {
            Err(GraphError::Parse { message, .. }) => {
                assert!(message.contains("u32"), "{message}")
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOPE...."[..]).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn weighted_binary_roundtrip() {
        let edges = gen::kron_edges(6, 6, 2);
        for (sym, directed) in [(true, false), (false, true)] {
            let wg = gen::weighted_companion(64, &edges, sym, 2);
            assert_eq!(wg.is_directed(), directed);
            let mut buf = Vec::new();
            write_binary_weighted(&wg, &mut buf).unwrap();
            let wg2 = read_binary_weighted(&buf[..]).unwrap();
            assert_eq!(wg, wg2);
        }
    }

    #[test]
    fn weighted_binary_rejects_unweighted_magic() {
        let g = gen::urand(6, 6, 1);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert!(read_binary_weighted(&buf[..]).is_err());
    }

    #[test]
    fn truncated_weighted_input_is_an_io_error() {
        let edges = gen::kron_edges(6, 6, 3);
        let wg = gen::weighted_companion(64, &edges, true, 3);
        let mut buf = Vec::new();
        write_binary_weighted(&wg, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_binary_weighted(&buf[..]).is_err());
    }
}
