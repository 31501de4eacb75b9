//! Data dissemination over the overlay.
//!
//! The overlay exists so that "reliable and privacy-preserving message
//! broadcast" can be built on top "by using controlled flooding, epidemic
//! dissemination, or an additional routing layer" (Section I). This module
//! provides the simplest such layer, flooding, so the figures and tests can
//! exercise the overlay end to end and measure what robustness buys.

use crate::simulation::Simulation;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use veil_graph::Graph;

/// Outcome of one broadcast attempt.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BroadcastReport {
    /// The originating node.
    pub source: usize,
    /// Online nodes at the time of the broadcast.
    pub online_nodes: usize,
    /// Online nodes that received the message (including the source).
    pub reached: usize,
    /// Greatest hop count over reached nodes.
    pub max_hops: usize,
    /// Mean hop count over reached nodes other than the source.
    pub mean_hops: f64,
    /// Total point-to-point messages sent.
    pub messages: usize,
}

impl BroadcastReport {
    /// Fraction of online nodes reached.
    pub fn coverage(&self) -> f64 {
        if self.online_nodes == 0 {
            0.0
        } else {
            self.reached as f64 / self.online_nodes as f64
        }
    }
}

/// Floods a message from `source` over `graph`, traversing only edges whose
/// both endpoints are online. Every node forwards once to all neighbours.
///
/// # Panics
///
/// Panics if `source` is out of range, offline, or the mask length differs
/// from the graph order.
pub fn flood(graph: &Graph, online: &[bool], source: usize) -> BroadcastReport {
    assert_eq!(online.len(), graph.node_count(), "mask length mismatch");
    assert!(online[source], "broadcast source must be online");
    let mut hops = vec![usize::MAX; graph.node_count()];
    hops[source] = 0;
    let mut queue = VecDeque::from([source]);
    let mut messages = 0usize;
    while let Some(v) = queue.pop_front() {
        for &w in graph.neighbors(v) {
            let w = w as usize;
            if !online[w] {
                continue;
            }
            messages += 1;
            if hops[w] == usize::MAX {
                hops[w] = hops[v] + 1;
                queue.push_back(w);
            }
        }
    }
    summarize(online, source, &hops, messages)
}

fn summarize(online: &[bool], source: usize, hops: &[usize], messages: usize) -> BroadcastReport {
    let online_nodes = online.iter().filter(|&&b| b).count();
    let reached_hops: Vec<usize> = hops.iter().copied().filter(|&h| h != usize::MAX).collect();
    let reached = reached_hops.len();
    let max_hops = reached_hops.iter().copied().max().unwrap_or(0);
    let non_source: Vec<usize> = reached_hops.iter().copied().filter(|&h| h > 0).collect();
    let mean_hops = if non_source.is_empty() {
        0.0
    } else {
        non_source.iter().sum::<usize>() as f64 / non_source.len() as f64
    };
    BroadcastReport {
        source,
        online_nodes,
        reached,
        max_hops,
        mean_hops,
        messages,
    }
}

/// Floods from `source` over the *current* overlay of a simulation.
///
/// # Panics
///
/// Panics if `source` is offline.
pub fn flood_current_overlay(sim: &Simulation, source: usize) -> BroadcastReport {
    flood(&sim.overlay_graph(), &sim.online_mask(), source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use veil_graph::generators;

    #[test]
    fn flood_covers_connected_graph() {
        let g = generators::cycle(10);
        let online = vec![true; 10];
        let r = flood(&g, &online, 0);
        assert_eq!(r.reached, 10);
        assert_eq!(r.coverage(), 1.0);
        assert_eq!(r.max_hops, 5);
        assert_eq!(r.messages, 20, "every node forwards on both edges");
    }

    #[test]
    fn flood_stops_at_offline_nodes() {
        let g = generators::path(5);
        let online = vec![true, true, false, true, true];
        let r = flood(&g, &online, 0);
        assert_eq!(r.reached, 2, "offline node 2 partitions the path");
        assert!(r.coverage() < 1.0);
    }

    #[test]
    #[should_panic(expected = "online")]
    fn flood_rejects_offline_source() {
        let g = generators::path(3);
        flood(&g, &[false, true, true], 0);
    }

    #[test]
    fn flood_hop_counts_are_bfs_distances() {
        let g = generators::path(4);
        let r = flood(&g, &[true; 4], 0);
        assert_eq!(r.max_hops, 3);
        assert!((r.mean_hops - 2.0).abs() < 1e-12); // hops 1,2,3
    }

    #[test]
    fn singleton_broadcast() {
        let g = Graph::new(1);
        let r = flood(&g, &[true], 0);
        assert_eq!(r.reached, 1);
        assert_eq!(r.mean_hops, 0.0);
        assert_eq!(r.messages, 0);
        assert_eq!(r.coverage(), 1.0);
    }

    #[test]
    fn coverage_of_empty_online_set_is_zero() {
        let r = BroadcastReport {
            source: 0,
            online_nodes: 0,
            reached: 0,
            max_hops: 0,
            mean_hops: 0.0,
            messages: 0,
        };
        assert_eq!(r.coverage(), 0.0);
    }
}
