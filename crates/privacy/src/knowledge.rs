//! Baseline knowledge audit of internal observers (Sections III-E1/E2).
//!
//! The protocol's design invariant is that node identities never propagate:
//! gossip messages carry pseudonyms only, so what an internal observer
//! knows about the participant set `U` is exactly what it was *configured*
//! with — its own identity and its trusted neighbours — plus whatever a
//! colluding set pools together. This module computes that knowledge and
//! expresses it as a fraction of the network, which is the quantity the
//! "celebrity attack" discussion cares about: compromising a hub should not
//! expose a disproportionate share of the graph.

use serde::{Deserialize, Serialize};
use veil_graph::Graph;

/// A set of colluding internal observers, identified by node index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObserverSet {
    members: Vec<usize>,
}

impl ObserverSet {
    /// Creates an observer set; duplicates are removed.
    pub fn new<I: IntoIterator<Item = usize>>(members: I) -> Self {
        let mut members: Vec<usize> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        Self { members }
    }

    /// The observer node indices, sorted ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Number of colluding observers.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `v` is an observer.
    pub fn contains(&self, v: usize) -> bool {
        self.members.binary_search(&v).is_ok()
    }
}

impl FromIterator<usize> for ObserverSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        Self::new(iter)
    }
}

/// What a colluding observer set knows about the network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KnowledgeReport {
    /// Participants whose identity the set knows: the observers themselves
    /// plus their trust-graph neighbours.
    pub known_nodes: Vec<usize>,
    /// Trust edges the set knows: exactly the edges incident to a member
    /// ("`n` does not have enough information to discover any nonincident
    /// edge in the trust graph").
    pub known_edges: Vec<(usize, usize)>,
    /// `known_nodes` as a fraction of all participants.
    pub node_fraction: f64,
    /// `known_edges` as a fraction of all trust edges.
    pub edge_fraction: f64,
    /// Whether the set is a vertex cut of the trust graph (enables the
    /// stronger Section III-E3 attack).
    pub is_vertex_cut: bool,
}

/// Audits what `observers` learn about `trust` by pooling their configured
/// knowledge.
///
/// # Panics
///
/// Panics if any observer index is out of range.
pub fn audit(trust: &Graph, observers: &ObserverSet) -> KnowledgeReport {
    let n = trust.node_count();
    let mut known = vec![false; n];
    let mut known_edges = Vec::new();
    for &o in observers.members() {
        assert!(o < n, "observer {o} out of range");
        known[o] = true;
        for &w in trust.neighbors(o) {
            let w = w as usize;
            known[w] = true;
            let (a, b) = (o.min(w), o.max(w));
            known_edges.push((a, b));
        }
    }
    known_edges.sort_unstable();
    known_edges.dedup();
    let known_nodes: Vec<usize> = (0..n).filter(|&v| known[v]).collect();
    let node_fraction = if n == 0 {
        0.0
    } else {
        known_nodes.len() as f64 / n as f64
    };
    let edge_fraction = if trust.edge_count() == 0 {
        0.0
    } else {
        known_edges.len() as f64 / trust.edge_count() as f64
    };
    let is_vertex_cut = crate::vertex_cut::is_vertex_cut(trust, observers);
    KnowledgeReport {
        known_nodes,
        known_edges,
        node_fraction,
        edge_fraction,
        is_vertex_cut,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veil_graph::generators;

    #[test]
    fn observer_set_dedups_and_sorts() {
        let s = ObserverSet::new([3, 1, 3, 2]);
        assert_eq!(s.members(), &[1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(2));
        assert!(!s.contains(0));
    }

    #[test]
    fn single_observer_knows_only_neighbourhood() {
        let g = generators::star(10); // hub 0
        let leaf = ObserverSet::new([5]);
        let report = audit(&g, &leaf);
        assert_eq!(report.known_nodes, vec![0, 5]);
        assert_eq!(report.known_edges, vec![(0, 5)]);
        assert!((report.node_fraction - 0.2).abs() < 1e-12);
    }

    #[test]
    fn hub_observer_knows_everything_in_a_star() {
        // The celebrity attack: in a star the hub sees all — which is why
        // degree-aware slot budgets matter on real social graphs.
        let g = generators::star(10);
        let hub = ObserverSet::new([0]);
        let report = audit(&g, &hub);
        assert_eq!(report.known_nodes.len(), 10);
        assert_eq!(report.edge_fraction, 1.0);
    }

    #[test]
    fn collusion_pools_knowledge() {
        let g = generators::path(6);
        let lone = audit(&g, &ObserverSet::new([1]));
        let pair = audit(&g, &ObserverSet::new([1, 4]));
        assert!(pair.known_nodes.len() > lone.known_nodes.len());
        assert_eq!(pair.known_nodes, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn hub_knowledge_is_bounded_on_social_graphs() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let g = generators::social_graph(500, 3, &mut rng).unwrap();
        let hub = (0..500).max_by_key(|&v| g.degree(v)).unwrap();
        let report = audit(&g, &ObserverSet::new([hub]));
        assert!(
            report.node_fraction < 0.5,
            "even the biggest hub knows {} of the graph",
            report.node_fraction
        );
    }

    #[test]
    fn empty_observer_set_knows_nothing() {
        let g = generators::cycle(5);
        let report = audit(&g, &ObserverSet::new([]));
        assert!(report.known_nodes.is_empty());
        assert_eq!(report.node_fraction, 0.0);
        assert_eq!(report.edge_fraction, 0.0);
    }
}
