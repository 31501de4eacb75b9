//! Plain-text edge-list serialization.
//!
//! Format: one `a b` pair of vertex indices per line, `#`-prefixed comment
//! lines and blank lines ignored. A leading comment `# nodes: N` pins the
//! vertex count so isolated trailing vertices survive a round trip. This is
//! the format common crawls (including the Facebook dataset the paper used)
//! are distributed in, so externally obtained graphs can be dropped in.

use crate::error::GraphError;
use crate::graph::Graph;
use std::io::{self, BufRead, BufReader, Read, Write};

/// Writes `graph` as an edge list.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_edge_list<W: Write>(graph: &Graph, mut writer: W) -> io::Result<()> {
    writeln!(writer, "# nodes: {}", graph.node_count())?;
    writeln!(writer, "# edges: {}", graph.edge_count())?;
    for (a, b) in graph.edges() {
        writeln!(writer, "{a} {b}")?;
    }
    Ok(())
}

/// Reads a graph from an edge list.
///
/// The vertex count is `max(declared "# nodes:" header, 1 + max index)`.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] for malformed lines, self-loops or
/// out-of-range indices wrapped in `io::Error` for stream failures.
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, EdgeListError> {
    let reader = BufReader::new(reader);
    let mut declared_nodes: Option<usize> = None;
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut max_index = 0usize;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(EdgeListError::Io)?;
        let line = line.trim();
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(n) = rest.trim().strip_prefix("nodes:") {
                declared_nodes = Some(n.trim().parse::<usize>().map_err(|e| {
                    EdgeListError::Graph(GraphError::Parse {
                        line: lineno,
                        reason: format!("bad node count: {e}"),
                    })
                })?);
            }
            continue;
        }
        let mut fields = line.split_whitespace();
        let (Some(a), Some(b)) = (fields.next(), fields.next()) else {
            return Err(EdgeListError::Graph(GraphError::Parse {
                line: lineno,
                reason: "expected two vertex indices".into(),
            }));
        };
        if fields.next().is_some() {
            return Err(EdgeListError::Graph(GraphError::Parse {
                line: lineno,
                reason: "expected exactly two vertex indices".into(),
            }));
        }
        let parse = |s: &str| -> Result<usize, EdgeListError> {
            s.parse::<usize>().map_err(|e| {
                EdgeListError::Graph(GraphError::Parse {
                    line: lineno,
                    reason: format!("bad vertex index {s:?}: {e}"),
                })
            })
        };
        let (a, b) = (parse(a)?, parse(b)?);
        max_index = max_index.max(a).max(b);
        edges.push((a, b));
    }
    let n = declared_nodes
        .unwrap_or(0)
        .max(if edges.is_empty() { 0 } else { max_index + 1 });
    let mut g = Graph::new(n);
    for (a, b) in edges {
        g.add_edge(a, b).map_err(EdgeListError::Graph)?;
    }
    Ok(g)
}

/// Error reading an edge list: either the stream failed or the contents
/// were not a valid simple graph.
#[derive(Debug)]
pub enum EdgeListError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural or syntactic problem in the data.
    Graph(GraphError),
}

impl std::fmt::Display for EdgeListError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeListError::Io(e) => write!(f, "edge list i/o error: {e}"),
            EdgeListError::Graph(e) => write!(f, "edge list format error: {e}"),
        }
    }
}

impl std::error::Error for EdgeListError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EdgeListError::Io(e) => Some(e),
            EdgeListError::Graph(e) => Some(e),
        }
    }
}

impl From<GraphError> for EdgeListError {
    fn from(e: GraphError) -> Self {
        EdgeListError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn round_trip_preserves_graph() {
        let g = generators::two_cliques_bridge(5, 4);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn round_trip_preserves_isolated_vertices() {
        let g = Graph::new(7); // no edges at all
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(back.node_count(), 7);
        assert_eq!(back.edge_count(), 0);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# a comment\n\n0 1\n# another\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let text = "0 1\n1 0\n0 1\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn reports_malformed_line_number() {
        let text = "0 1\nnot an edge\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        match err {
            EdgeListError::Graph(GraphError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_self_loop() {
        let err = read_edge_list("3 3\n".as_bytes()).unwrap_err();
        assert!(matches!(
            err,
            EdgeListError::Graph(GraphError::SelfLoop { node: 3 })
        ));
    }

    #[test]
    fn rejects_three_fields() {
        assert!(read_edge_list("0 1 2\n".as_bytes()).is_err());
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }
}
