//! End-to-end integration: trust-graph sampling → overlay maintenance →
//! data dissemination, across all workspace crates.

use veil_core::config::OverlayConfig;
use veil_core::dissemination;
use veil_core::experiment::{build_simulation, build_trust_graph, ExperimentParams};
use veil_core::simulation::Simulation;
use veil_graph::metrics as gm;
use veil_sim::churn::ChurnConfig;

fn tiny_params(seed: u64) -> ExperimentParams {
    ExperimentParams {
        seed,
        ..ExperimentParams::default()
    }
    .scaled_down(10)
}

#[test]
fn full_pipeline_produces_robust_overlay() {
    let params = tiny_params(1);
    let trust = build_trust_graph(&params).unwrap();
    let mut sim = build_simulation(trust.clone(), &params, 0.5).unwrap();
    sim.run_until(params.warmup);

    let online = sim.online_mask();
    let overlay = sim.overlay_graph();
    // The overlay strictly extends the trust graph.
    assert!(overlay.edge_count() > trust.edge_count());
    for (a, b) in trust.edges() {
        assert!(overlay.has_edge(a, b));
    }
    // And it is more connected under churn.
    let overlay_frac = gm::fraction_disconnected(&overlay, &online);
    let trust_frac = gm::fraction_disconnected(&trust, &online);
    assert!(
        overlay_frac <= trust_frac,
        "overlay {overlay_frac} vs trust {trust_frac}"
    );
}

#[test]
fn broadcast_over_overlay_beats_trust_graph() {
    let params = tiny_params(2);
    let trust = build_trust_graph(&params).unwrap();
    let mut sim = build_simulation(trust.clone(), &params, 0.4).unwrap();
    sim.run_until(params.warmup);
    let online = sim.online_mask();
    let source = (0..sim.node_count())
        .find(|&v| online[v])
        .expect("someone online");
    let over_overlay = dissemination::flood_current_overlay(&sim, source);
    let over_trust = dissemination::flood(&trust, &online, source);
    assert!(
        over_overlay.coverage() >= over_trust.coverage(),
        "overlay coverage {} vs trust coverage {}",
        over_overlay.coverage(),
        over_trust.coverage()
    );
    assert!(over_overlay.coverage() > 0.8);
}

#[test]
fn state_survives_offline_periods() {
    // A node that goes offline keeps its sampled links and reuses them on
    // rejoin (Section II-D), modulo expiry.
    let params = tiny_params(4);
    let trust = build_trust_graph(&params).unwrap();
    let cfg = OverlayConfig {
        pseudonym_lifetime: None, // isolate the state-retention behaviour
        ..params.overlay.clone()
    };
    let churn = ChurnConfig::from_availability(0.5, 10.0);
    let mut sim = Simulation::new(trust, cfg, churn, params.seed).unwrap();
    sim.run_until(60.0);
    // Find a currently offline node; its sampler should still hold links
    // gathered while it was online.
    let offline_with_links = (0..sim.node_count())
        .filter(|&v| !sim.is_online(v))
        .map(|v| sim.node(v).sampler.link_count())
        .max()
        .expect("some node is offline");
    assert!(
        offline_with_links > 0,
        "offline nodes should retain their sampled links"
    );
}

#[test]
fn expiry_eventually_clears_links_of_departed_nodes() {
    // "Ephemeral pseudonyms can also improve the quality of the overlay in
    // the case when a node goes offline permanently": all links to it decay
    // within one lifetime.
    let params = tiny_params(5);
    let trust = build_trust_graph(&params).unwrap();
    let lifetime = 10.0;
    let cfg = OverlayConfig {
        pseudonym_lifetime: Some(lifetime),
        ..params.overlay.clone()
    };
    // No churn: everyone stays online, so the only link removals are
    // expiry- or sampling-driven.
    let churn = ChurnConfig::from_availability(1.0, 10.0);
    let mut sim = Simulation::new(trust, cfg, churn, params.seed).unwrap();
    sim.run_until(40.0);
    let now = sim.now();
    // Every link currently held must reference a still-valid pseudonym.
    for v in 0..sim.node_count() {
        for p in sim.node(v).sampler.links_iter(sim.arena_of(v)) {
            assert!(
                p.is_valid(now),
                "node {v} holds a link to an expired pseudonym"
            );
        }
    }
}

#[test]
fn message_rate_matches_paper_accounting() {
    // One request per online period plus the matching response: mean 2.
    let params = tiny_params(6);
    let trust = build_trust_graph(&params).unwrap();
    let mut sim = build_simulation(trust, &params, 0.5).unwrap();
    sim.run_until(100.0);
    let mean: f64 = (0..sim.node_count())
        .map(|v| sim.node_stats(v).messages_per_period())
        .sum::<f64>()
        / sim.node_count() as f64;
    // ~2 in the paper's accounting; at this reduced scale low-degree nodes
    // occasionally find no online peer during the cold start, so the mean
    // lands slightly below 2.
    assert!((1.5..2.3).contains(&mean), "mean message rate {mean}");
    // With deliverability-aware peer selection, requests are never lost.
    let lost: u64 = (0..sim.node_count())
        .map(|v| sim.node_stats(v).dropped_requests)
        .sum();
    assert_eq!(lost, 0);
}

#[test]
fn dropped_requests_are_counted_under_faults() {
    use veil_core::config::LinkLayerConfig;
    use veil_sim::fault::FaultConfig;
    let mut params = tiny_params(9);
    params.overlay.link = LinkLayerConfig::Faulty(FaultConfig::with_loss(0.25));
    let trust = build_trust_graph(&params).unwrap();
    let mut sim = build_simulation(trust, &params, 0.8).unwrap();
    sim.run_until(60.0);
    let sum = |f: fn(&veil_core::node::NodeStats) -> u64| -> u64 {
        (0..sim.node_count()).map(|v| f(&sim.node(v).stats)).sum()
    };
    let requests = sum(|s| s.requests_sent);
    let dropped = sum(|s| s.dropped_requests);
    assert!(dropped > 0, "25% loss must drop some messages");
    assert!(
        dropped < requests,
        "not every message is lost: {dropped} of {requests}"
    );
    // The same counter surfaces on overlay snapshots.
    let snap = veil_core::metrics::snapshot(&sim);
    assert_eq!(snap.dropped_requests, dropped);
}

#[test]
fn overlay_degree_concentrates_near_target() {
    let params = tiny_params(7);
    let target = params.overlay.target_links;
    let trust = build_trust_graph(&params).unwrap();
    let mut sim = build_simulation(trust, &params, 1.0).unwrap();
    sim.run_until(params.warmup);
    let overlay = sim.overlay_graph();
    let mean_degree = overlay.average_degree();
    // Each node aims at `target` out-links; undirected degree roughly
    // doubles that minus overlap, so the mean must land well above target
    // yet stay bounded.
    assert!(
        mean_degree > 0.8 * target as f64,
        "mean overlay degree {mean_degree} vs target {target}"
    );
    assert!(
        mean_degree < 3.0 * target as f64,
        "mean overlay degree {mean_degree} runaway"
    );
}
