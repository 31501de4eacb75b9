//! External-observer traffic analysis (Sections II-A, III-C and III-E5).
//!
//! An external observer (an ISP) sees encrypted messages on communication
//! channels: endpoints and timing, never content. The paper argues that
//! *ephemeral pseudonyms* raise the cost of such an observer: "an observer
//! who can monitor traffic corresponding to a single pseudonym link will
//! gather only a limited amount of data for traffic analysis. In order to
//! gather data corresponding to a specific node for a long time, the
//! observer will need to be able to monitor many more communication
//! channels."
//!
//! This module quantifies that claim from the simulator's message log: the
//! *rotation exposure* is the ratio between the distinct counterparties a
//! node's traffic touches over an observation window and its concurrent
//! link count — the multiplication factor on the observer's monitoring
//! burden. Non-expiring pseudonyms pin the ratio near 1; short lifetimes
//! drive it up.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use veil_core::simulation::{MessageKind, Simulation};

/// Aggregate rotation-exposure measurement over all nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RotationExposure {
    /// Mean distinct counterparties per node over the window.
    pub mean_distinct_counterparties: f64,
    /// Mean concurrent overlay out-degree at the end of the window.
    pub mean_concurrent_degree: f64,
    /// `mean_distinct_counterparties / mean_concurrent_degree` — how many
    /// times more channels an observer must tap, relative to a static
    /// overlay, to keep a node under full surveillance.
    pub rotation_factor: f64,
    /// Window length in shuffle periods.
    pub window: f64,
}

/// Runs the simulation forward `window` periods with message logging and
/// measures the rotation exposure.
///
/// # Panics
///
/// Panics if `window` is not positive.
pub fn rotation_exposure(sim: &mut Simulation, window: f64) -> RotationExposure {
    assert!(window > 0.0, "window must be positive");
    sim.enable_message_log();
    let start = sim.now().as_f64();
    sim.run_until(start + window);
    let log = sim.take_message_log();
    sim.disable_message_log();

    let n = sim.node_count();
    let mut distinct = vec![BTreeSet::<u32>::new(); n];
    for m in &log {
        if m.kind == MessageKind::Dropped {
            continue;
        }
        distinct[m.from as usize].insert(m.to);
        distinct[m.to as usize].insert(m.from);
    }
    let mean_distinct = distinct.iter().map(|s| s.len() as f64).sum::<f64>() / n as f64;
    let now = sim.now();
    let mean_degree = (0..n)
        .map(|v| sim.node(v).out_degree(sim.arena_of(v), now) as f64)
        .sum::<f64>()
        / n as f64;
    RotationExposure {
        mean_distinct_counterparties: mean_distinct,
        mean_concurrent_degree: mean_degree,
        rotation_factor: if mean_degree > 0.0 {
            mean_distinct / mean_degree
        } else {
            0.0
        },
        window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veil_core::config::OverlayConfig;
    use veil_graph::generators;
    use veil_sim::churn::ChurnConfig;
    use veil_sim::rng::{derive_rng, Stream};

    fn sim(seed: u64, lifetime: Option<f64>) -> Simulation {
        let mut rng = derive_rng(seed, Stream::Topology);
        let trust = generators::social_graph(60, 3, &mut rng).unwrap();
        let cfg = OverlayConfig {
            cache_size: 60,
            shuffle_length: 8,
            target_links: 12,
            pseudonym_lifetime: lifetime,
            ..OverlayConfig::default()
        };
        let churn = ChurnConfig::from_availability(1.0, 30.0);
        Simulation::new(trust, cfg, churn, seed).unwrap()
    }

    #[test]
    fn rotation_factor_rises_with_shorter_lifetimes() {
        let mut stable = sim(2, None);
        stable.run_until(50.0); // converge first
        let stable_exposure = rotation_exposure(&mut stable, 60.0);

        let mut rotating = sim(2, Some(10.0));
        rotating.run_until(50.0);
        let rotating_exposure = rotation_exposure(&mut rotating, 60.0);

        assert!(
            rotating_exposure.rotation_factor > stable_exposure.rotation_factor,
            "short lifetimes should raise the monitoring burden: {} vs {}",
            rotating_exposure.rotation_factor,
            stable_exposure.rotation_factor
        );
    }

    #[test]
    fn exposure_fields_are_consistent() {
        let mut s = sim(3, Some(20.0));
        s.run_until(20.0);
        let e = rotation_exposure(&mut s, 30.0);
        assert!(e.mean_distinct_counterparties > 0.0);
        assert!(e.mean_concurrent_degree > 0.0);
        assert!(
            (e.rotation_factor - e.mean_distinct_counterparties / e.mean_concurrent_degree).abs()
                < 1e-12
        );
        assert_eq!(e.window, 30.0);
        // Logging was turned off again.
        assert!(s.message_log().is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_window() {
        let mut s = sim(4, None);
        rotation_exposure(&mut s, 0.0);
    }
}
