//! Graph I/O: GAP-compatible text edge lists (`.el` / `.wel`). The binary
//! serialized form is the checksummed `.gsnap` snapshot
//! ([`crate::snapshot`]).

use crate::builder::Builder;
use crate::edgelist::{Edge, WEdge};
use crate::error::GraphError;
use crate::graph::{Graph, WGraph};
use crate::types::{NodeId, Weight};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

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
}
