//! The shared scenario description: every veil-net process and the
//! simulator oracle build their world from the same [`NetScenario`], so a
//! fleet run and its reference simulation agree on the trust graph, the
//! overlay configuration, the fault model, and — via
//! [`veil_core::simulation::shuffle_phases`] — the exact per-node shuffle
//! timer phases.

use veil_core::config::{LinkLayerConfig, OverlayConfig};
use veil_graph::Graph;
use veil_sim::churn::ChurnConfig;
use veil_sim::fault::FaultConfig;

/// One multi-process deployment: `nodes` single-node processes on
/// localhost, all derived from one master seed.
#[derive(Debug, Clone)]
pub struct NetScenario {
    /// Number of overlay nodes (= processes).
    pub nodes: usize,
    /// Master seed shared by every process and the oracle.
    pub seed: u64,
    /// Run length in shuffle periods; events at `t >= horizon` are not
    /// recorded, mirroring the simulator's `run_until(horizon)`.
    pub horizon: f64,
    /// Wall-clock milliseconds per shuffle period.
    pub period_ms: u64,
    /// Sender-side message-drop probability injected by each process
    /// (`0.0` = lossless).
    pub loss: f64,
    /// Listener port of each node, indexed by node id.
    pub ports: Vec<u16>,
    /// Unix-epoch milliseconds of logical `t = 0`; every process waits for
    /// this barrier so the fleet's clocks agree.
    pub start_at_ms: u64,
}

impl NetScenario {
    /// The overlay configuration the processes and the oracle share:
    /// paper defaults, with the link layer carrying the scenario's loss.
    /// A lossy oracle derives message fates statelessly via
    /// [`veil_core::transport::MessageLink`] — the scheme the real
    /// processes use — so fleet and oracle draw *identical* drop fates.
    pub fn overlay(&self) -> OverlayConfig {
        OverlayConfig {
            link: match self.fault() {
                Some(fc) => LinkLayerConfig::Faulty(fc),
                None => LinkLayerConfig::Ideal,
            },
            ..OverlayConfig::default()
        }
    }

    /// The fault model injected at each sender, `None` when lossless.
    pub fn fault(&self) -> Option<FaultConfig> {
        (self.loss > 0.0).then(|| FaultConfig::with_loss(self.loss))
    }

    /// The oracle's churn model: permanently online nodes (availability 1),
    /// matching real processes that never leave.
    pub fn churn(&self) -> ChurnConfig {
        ChurnConfig::from_availability(1.0, 30.0)
    }

    /// The deterministic trust topology of net scenarios: a ring
    /// `v — (v+1) mod n`. Connected at every `n ≥ 2`, degree 2 everywhere,
    /// and — unlike the random social-graph generators — reproducible from
    /// the node count alone, so processes need not exchange a graph.
    pub fn trust_graph(&self) -> Graph {
        let mut g = Graph::new(self.nodes);
        for v in 0..self.nodes {
            let w = (v + 1) % self.nodes;
            if v != w {
                // `n = 2` visits the edge {0, 1} twice; `add_edge` dedups.
                g.add_edge(v, w).expect("ring edge in range");
            }
        }
        g
    }

    /// Checks the scenario is runnable.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes < 2 {
            return Err(format!("need at least 2 nodes, got {}", self.nodes));
        }
        if self.ports.len() != self.nodes {
            return Err(format!(
                "got {} ports for {} nodes",
                self.ports.len(),
                self.nodes
            ));
        }
        if !(self.horizon.is_finite() && self.horizon > 0.0) {
            return Err(format!("horizon must be positive, got {}", self.horizon));
        }
        if self.period_ms == 0 {
            return Err("period must be at least 1 ms".to_string());
        }
        if !(self.loss.is_finite() && (0.0..1.0).contains(&self.loss)) {
            return Err(format!("loss must be in [0, 1), got {}", self.loss));
        }
        self.overlay().validate().map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(nodes: usize) -> NetScenario {
        NetScenario {
            nodes,
            seed: 42,
            horizon: 6.0,
            period_ms: 120,
            loss: 0.0,
            ports: (0..nodes as u16).map(|i| 20000 + i).collect(),
            start_at_ms: 0,
        }
    }

    #[test]
    fn ring_is_connected_and_degree_two() {
        let g = scenario(8).trust_graph();
        assert_eq!(g.node_count(), 8);
        for v in 0..8 {
            assert_eq!(g.neighbors(v).len(), 2, "node {v}");
        }
        // Two nodes share the single edge.
        let g2 = scenario(2).trust_graph();
        assert_eq!(g2.neighbors(0), &[1]);
        assert_eq!(g2.neighbors(1), &[0]);
    }

    #[test]
    fn lossless_scenario_uses_the_ideal_link() {
        let sc = scenario(4);
        assert!(sc.fault().is_none());
        assert_eq!(sc.overlay().link, LinkLayerConfig::Ideal);
        let lossy = NetScenario {
            loss: 0.2,
            ..scenario(4)
        };
        assert!(lossy.fault().is_some());
        assert!(matches!(lossy.overlay().link, LinkLayerConfig::Faulty(_)));
        // The link regime alone picks the oracle's executor.
        assert_eq!(sc.overlay().shards, None);
        assert_eq!(lossy.overlay().shards, None);
    }

    #[test]
    fn validation_rejects_degenerate_scenarios() {
        assert!(scenario(1).validate().is_err());
        assert!(scenario(4).validate().is_ok());
        let bad_ports = NetScenario {
            ports: vec![1],
            ..scenario(4)
        };
        assert!(bad_ports.validate().is_err());
        let bad_loss = NetScenario {
            loss: 1.0,
            ..scenario(4)
        };
        assert!(bad_loss.validate().is_err());
        let bad_horizon = NetScenario {
            horizon: 0.0,
            ..scenario(4)
        };
        assert!(bad_horizon.validate().is_err());
    }
}
