//! Compact undirected simple graph.

use crate::error::GraphError;
use serde::{Deserialize, Serialize};

/// Identifier of a vertex, an index in `0..graph.node_count()`.
///
/// A newtype keeps vertex indices from being confused with the many other
/// integer quantities in the simulator (slot counts, degrees, times).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as a `usize`, for slice indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Undirected simple graph with sorted adjacency lists.
///
/// Vertices are `0..node_count()`. Parallel edges and self-loops are
/// rejected; `add_edge` on an existing edge is a no-op returning `false`.
///
/// # Examples
///
/// ```
/// use veil_graph::Graph;
///
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1).unwrap();
/// g.add_edge(1, 2).unwrap();
/// assert_eq!(g.edge_count(), 2);
/// assert!(g.has_edge(1, 0));
/// assert_eq!(g.degree(1), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    adjacency: Vec<Vec<u32>>,
    edges: usize,
}

impl Graph {
    /// Creates a graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Self {
            adjacency: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// Builds a graph from an edge iterator.
    ///
    /// Duplicate edges are ignored.
    ///
    /// # Errors
    ///
    /// Returns an error if any endpoint is `>= n` or an edge is a self-loop.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut g = Self::new(n);
        for (a, b) in edges {
            g.add_edge(a, b)?;
        }
        Ok(g)
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    fn check_node(&self, v: usize) -> Result<(), GraphError> {
        if v >= self.adjacency.len() {
            Err(GraphError::NodeOutOfRange {
                node: v,
                len: self.adjacency.len(),
            })
        } else {
            Ok(())
        }
    }

    /// Adds the undirected edge `(a, b)`.
    ///
    /// Returns `true` if the edge was new, `false` if it already existed.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range or `a == b`.
    pub fn add_edge(&mut self, a: usize, b: usize) -> Result<bool, GraphError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(GraphError::SelfLoop { node: a });
        }
        let pos = match self.adjacency[a].binary_search(&(b as u32)) {
            Ok(_) => return Ok(false),
            Err(pos) => pos,
        };
        self.adjacency[a].insert(pos, b as u32);
        let pos_b = self.adjacency[b]
            .binary_search(&(a as u32))
            .expect_err("adjacency lists out of sync");
        self.adjacency[b].insert(pos_b, a as u32);
        self.edges += 1;
        Ok(true)
    }

    /// Removes the undirected edge `(a, b)`.
    ///
    /// Returns `true` if the edge existed.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range.
    pub fn remove_edge(&mut self, a: usize, b: usize) -> Result<bool, GraphError> {
        self.check_node(a)?;
        self.check_node(b)?;
        let Ok(pos) = self.adjacency[a].binary_search(&(b as u32)) else {
            return Ok(false);
        };
        self.adjacency[a].remove(pos);
        let pos_b = self.adjacency[b]
            .binary_search(&(a as u32))
            .expect("adjacency lists out of sync");
        self.adjacency[b].remove(pos_b);
        self.edges -= 1;
        Ok(true)
    }

    /// Whether the edge `(a, b)` exists. Out-of-range endpoints yield `false`.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adjacency
            .get(a)
            .is_some_and(|adj| adj.binary_search(&(b as u32)).is_ok())
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency[v].len()
    }

    /// Neighbours of `v` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adjacency[v]
    }

    /// Iterates over all edges as `(a, b)` pairs with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(a, adj)| {
            adj.iter()
                .copied()
                .map(move |b| (a, b as usize))
                .filter(|&(a, b)| a < b)
        })
    }

    /// Degree of every vertex, indexed by vertex.
    pub fn degrees(&self) -> Vec<usize> {
        self.adjacency.iter().map(Vec::len).collect()
    }

    /// Average degree `2m / n`; `0.0` for the empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.adjacency.is_empty() {
            0.0
        } else {
            2.0 * self.edges as f64 / self.adjacency.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = Graph::new(4);
        assert!(g.add_edge(0, 1).unwrap());
        assert!(g.add_edge(2, 1).unwrap());
        assert!(!g.add_edge(1, 0).unwrap(), "duplicate edge ignored");
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn rejects_self_loop_and_out_of_range() {
        let mut g = Graph::new(2);
        assert_eq!(g.add_edge(0, 0), Err(GraphError::SelfLoop { node: 0 }));
        assert_eq!(
            g.add_edge(0, 5),
            Err(GraphError::NodeOutOfRange { node: 5, len: 2 })
        );
    }

    #[test]
    fn remove_edge() {
        let mut g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert!(g.remove_edge(1, 0).unwrap());
        assert!(!g.remove_edge(0, 1).unwrap());
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        for &(a, b) in &edges {
            assert!(a < b);
        }
    }

    #[test]
    fn average_degree() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn node_id_conversions() {
        let id = NodeId::from(7u32);
        assert_eq!(id.index(), 7);
        assert_eq!(u32::from(id), 7);
        assert_eq!(id.to_string(), "n7");
    }
}
