//! Ideal-link simulation tests (moved from `simulation.rs`).

use super::two_mut;
use crate::config::{LinkLayerConfig, OverlayConfig};
use crate::error::CoreError;
use crate::simulation::{MessageKind, Simulation};
use veil_graph::metrics as gm;
use veil_graph::{generators, Graph};
use veil_sim::churn::ChurnConfig;
use veil_sim::fault::{FaultConfig, LatencyDist};
use veil_sim::rng::{derive_rng, Stream};

fn trust_graph(n: usize, seed: u64) -> Graph {
    let mut rng = derive_rng(seed, Stream::Topology);
    generators::social_graph(n, 3, &mut rng).unwrap()
}

fn small_sim(alpha: f64, seed: u64) -> Simulation {
    let trust = trust_graph(60, seed);
    let cfg = OverlayConfig {
        cache_size: 50,
        shuffle_length: 8,
        target_links: 12,
        ..OverlayConfig::default()
    };
    let churn = ChurnConfig::from_availability(alpha, 10.0);
    Simulation::new(trust, cfg, churn, seed).unwrap()
}

#[test]
fn rejects_empty_trust_graph() {
    let churn = ChurnConfig::from_availability(1.0, 30.0);
    let err = Simulation::new(Graph::new(0), OverlayConfig::default(), churn, 1).unwrap_err();
    assert!(matches!(err, CoreError::InvalidTrustGraph { .. }));
}

#[test]
fn rejects_invalid_config() {
    let churn = ChurnConfig::from_availability(1.0, 30.0);
    let cfg = OverlayConfig {
        cache_size: 0,
        ..OverlayConfig::default()
    };
    assert!(Simulation::new(Graph::new(5), cfg, churn, 1).is_err());
}

#[test]
fn all_online_without_churn() {
    let mut sim = small_sim(1.0, 1);
    assert_eq!(sim.online_count(), 60);
    sim.run_until(5.0);
    assert_eq!(sim.online_count(), 60, "no churn at availability 1");
}

#[test]
fn overlay_contains_trust_edges() {
    let mut sim = small_sim(1.0, 2);
    sim.run_until(3.0);
    let overlay = sim.overlay_graph();
    for (a, b) in sim.trust_graph().edges() {
        assert!(overlay.has_edge(a, b));
    }
}

#[test]
fn overlay_grows_pseudonym_links() {
    let mut sim = small_sim(1.0, 3);
    let trust_edges = sim.trust_graph().edge_count();
    sim.run_until(30.0);
    let overlay = sim.overlay_graph();
    assert!(
        overlay.edge_count() > trust_edges + 60,
        "overlay should gain many pseudonym links: {} vs {}",
        overlay.edge_count(),
        trust_edges
    );
}

#[test]
fn overlay_approaches_target_degree() {
    let mut sim = small_sim(1.0, 4);
    sim.run_until(50.0);
    // Average pseudonym link count should approach the slot budgets.
    let mean_links: f64 = (0..sim.node_count())
        .map(|v| sim.node(v).sampler.link_count() as f64)
        .sum::<f64>()
        / sim.node_count() as f64;
    let mean_slots: f64 = (0..sim.node_count())
        .map(|v| sim.node(v).sampler.slot_count() as f64)
        .sum::<f64>()
        / sim.node_count() as f64;
    assert!(
        mean_links > 0.5 * mean_slots.min(59.0),
        "links {mean_links:.1} vs slots {mean_slots:.1}"
    );
}

#[test]
fn churn_changes_online_set() {
    let mut sim = small_sim(0.5, 5);
    sim.run_until(50.0);
    let online = sim.online_count();
    assert!(online > 10 && online < 50, "online {online} of 60");
}

#[test]
fn online_time_accounting_sums_to_about_alpha() {
    let mut sim = small_sim(0.5, 6);
    sim.run_until(200.0);
    let total_online: f64 = (0..sim.node_count())
        .map(|v| sim.node_stats(v).online_time)
        .sum();
    let expected = 0.5 * 200.0 * sim.node_count() as f64;
    assert!(
        (total_online - expected).abs() < 0.15 * expected,
        "online time {total_online} vs expected {expected}"
    );
}

#[test]
fn messages_average_about_two_per_period() {
    // Paper: "the average number of messages sent per shuffle period
    // per node across the whole overlay is 2" (no churn case).
    let mut sim = small_sim(1.0, 7);
    sim.run_until(60.0);
    let mean_rate: f64 = (0..sim.node_count())
        .map(|v| sim.node_stats(v).messages_per_period())
        .sum::<f64>()
        / sim.node_count() as f64;
    assert!(
        (mean_rate - 2.0).abs() < 0.25,
        "mean message rate {mean_rate}"
    );
}

#[test]
fn deterministic_given_seed() {
    let mut a = small_sim(0.5, 8);
    let mut b = small_sim(0.5, 8);
    a.run_until(40.0);
    b.run_until(40.0);
    assert_eq!(a.online_mask(), b.online_mask());
    assert_eq!(a.overlay_graph(), b.overlay_graph());
    assert_eq!(a.pseudonyms_minted(), b.pseudonyms_minted());
}

#[test]
fn different_seeds_differ() {
    let mut a = small_sim(0.5, 9);
    let mut b = small_sim(0.5, 10);
    a.run_until(40.0);
    b.run_until(40.0);
    assert_ne!(a.overlay_graph(), b.overlay_graph());
}

#[test]
fn expiry_drives_renewal() {
    let trust = trust_graph(30, 11);
    let cfg = OverlayConfig {
        cache_size: 50,
        shuffle_length: 8,
        target_links: 10,
        pseudonym_lifetime: Some(5.0),
        ..OverlayConfig::default()
    };
    let churn = ChurnConfig::from_availability(1.0, 10.0);
    let mut sim = Simulation::new(trust, cfg, churn, 11).unwrap();
    sim.run_until(26.0);
    // Lifetime 5sp over 26sp: every node should have minted ~5 times.
    assert!(
        sim.pseudonyms_minted() >= 4 * 30,
        "minted {}",
        sim.pseudonyms_minted()
    );
    assert!(sim.total_link_removals() > 0, "expiry must remove links");
}

#[test]
fn no_expiry_no_removals_after_convergence() {
    let trust = trust_graph(30, 12);
    let cfg = OverlayConfig {
        cache_size: 50,
        shuffle_length: 8,
        target_links: 10,
        pseudonym_lifetime: None,
        ..OverlayConfig::default()
    };
    let churn = ChurnConfig::from_availability(1.0, 10.0);
    let mut sim = Simulation::new(trust, cfg, churn, 12).unwrap();
    sim.run_until(150.0);
    let at_150 = sim.total_link_removals();
    sim.run_until(200.0);
    let at_200 = sim.total_link_removals();
    // Convergence: the min-wise process settles; replacements dry up.
    assert!(
        at_200 - at_150 < 30,
        "replacements kept happening: {at_150} -> {at_200}"
    );
}

#[test]
fn overlay_beats_trust_graph_under_churn() {
    let mut sim = small_sim(0.4, 13);
    sim.run_until(120.0);
    let online = sim.online_mask();
    let overlay = sim.overlay_graph();
    let frac_overlay = gm::fraction_disconnected(&overlay, &online);
    let frac_trust = gm::fraction_disconnected(sim.trust_graph(), &online);
    assert!(
        frac_overlay < frac_trust,
        "overlay {frac_overlay} should beat trust {frac_trust}"
    );
}

#[test]
fn two_mut_returns_both_orders() {
    let mut v = vec![1, 2, 3];
    {
        let (a, b) = two_mut(&mut v, 0, 2);
        assert_eq!((*a, *b), (1, 3));
    }
    let (a, b) = two_mut(&mut v, 2, 0);
    assert_eq!((*a, *b), (3, 1));
}

#[test]
#[should_panic(expected = "differ")]
fn two_mut_rejects_same_index() {
    let mut v = vec![1, 2];
    two_mut(&mut v, 1, 1);
}

#[test]
#[should_panic(expected = "backwards")]
fn run_until_rejects_past() {
    let mut sim = small_sim(1.0, 14);
    sim.run_until(5.0);
    sim.run_until(4.0);
}

#[test]
fn adaptive_stop_suppresses_shuffles_after_convergence() {
    let trust = trust_graph(40, 15);
    let cfg = OverlayConfig {
        cache_size: 50,
        shuffle_length: 8,
        target_links: 10,
        pseudonym_lifetime: None, // stable regime: links converge
        stop_after_stable_periods: Some(5),
        ..OverlayConfig::default()
    };
    let churn = ChurnConfig::from_availability(1.0, 10.0);
    let mut sim = Simulation::new(trust.clone(), cfg, churn, 15).unwrap();
    sim.run_until(300.0);
    let suppressed: u64 = (0..sim.node_count())
        .map(|v| sim.node_stats(v).shuffles_suppressed)
        .sum();
    assert!(suppressed > 0, "stability detector never fired");
    // And the overlay is still healthy.
    let frac = veil_graph::metrics::fraction_disconnected(&sim.overlay_graph(), &sim.online_mask());
    assert_eq!(frac, 0.0);
    // Late-window message traffic collapses relative to the always-on
    // configuration.
    let always_cfg = OverlayConfig {
        cache_size: 50,
        shuffle_length: 8,
        target_links: 10,
        pseudonym_lifetime: None,
        ..OverlayConfig::default()
    };
    let churn = ChurnConfig::from_availability(1.0, 10.0);
    let mut always = Simulation::new(trust, always_cfg, churn, 15).unwrap();
    always.run_until(300.0);
    let requests = |sim: &Simulation| -> u64 {
        (0..sim.node_count())
            .map(|v| sim.node_stats(v).requests_sent)
            .sum()
    };
    assert!(
        requests(&sim) < requests(&always) / 2,
        "suppression should at least halve request traffic: {} vs {}",
        requests(&sim),
        requests(&always)
    );
}

#[test]
fn adaptive_lifetime_tracks_offline_durations() {
    use crate::config::LifetimePolicy;
    let trust = trust_graph(40, 16);
    let cfg = OverlayConfig {
        cache_size: 50,
        shuffle_length: 8,
        target_links: 10,
        pseudonym_lifetime: Some(90.0),
        lifetime_policy: LifetimePolicy::Adaptive {
            multiplier: 3.0,
            floor: 5.0,
        },
        ..OverlayConfig::default()
    };
    // Mean offline time 10sp: adaptive lifetimes should settle near
    // 3 x 10 = 30sp, well below the 90sp global fallback.
    let churn = ChurnConfig::from_availability(0.5, 10.0);
    let mut sim = Simulation::new(trust, cfg, churn, 16).unwrap();
    sim.run_until(400.0);
    // Inspect the actual lifetimes of current pseudonyms.
    let now = sim.now();
    let mut lifetimes = Vec::new();
    for v in 0..sim.node_count() {
        if let Some(p) = sim.node(v).own_pseudonym(now) {
            if let Some(expiry) = p.expires() {
                // Upper bound on the minted lifetime.
                lifetimes.push(expiry - now);
            }
        }
    }
    assert!(!lifetimes.is_empty());
    let mean_remaining: f64 = lifetimes.iter().sum::<f64>() / lifetimes.len() as f64;
    // Remaining lifetime of an adaptive (~30sp) pseudonym is well below
    // the global 90sp value.
    assert!(
        mean_remaining < 60.0,
        "adaptive lifetimes look global: mean remaining {mean_remaining}"
    );
}

#[test]
fn message_log_records_request_response_pairs() {
    let mut sim = small_sim(1.0, 17);
    sim.enable_message_log();
    sim.run_until(5.0);
    let log = sim.message_log().unwrap();
    assert!(!log.is_empty());
    let requests = log
        .iter()
        .filter(|m| m.kind == MessageKind::Request)
        .count();
    let responses = log
        .iter()
        .filter(|m| m.kind == MessageKind::Response)
        .count();
    assert_eq!(requests, responses, "every request gets a response");
    for m in log {
        assert_ne!(m.from, m.to);
    }
    // Draining works and keeps logging active.
    let drained = sim.take_message_log();
    assert_eq!(drained.len(), requests + responses);
    sim.run_until(6.0);
    assert!(!sim.message_log().unwrap().is_empty());
    sim.disable_message_log();
    assert!(sim.message_log().is_none());
}

/// A slow link that never drops: constant one-way latency, nothing else.
pub(super) fn slow_link(value: f64) -> LinkLayerConfig {
    LinkLayerConfig::Faulty(FaultConfig {
        latency: LatencyDist::Constant { value },
        ..FaultConfig::none()
    })
}

#[test]
fn latency_one_round_trip_still_exchanges() {
    let trust = trust_graph(30, 19);
    let cfg = OverlayConfig {
        cache_size: 40,
        shuffle_length: 6,
        target_links: 8,
        link: slow_link(0.2),
        ..OverlayConfig::default()
    };
    let churn = ChurnConfig::from_availability(1.0, 10.0);
    let mut sim = Simulation::new(trust, cfg, churn, 19).unwrap();
    sim.run_until(30.0);
    // Gossip still works: pseudonym links accumulate.
    let total_links: usize = (0..sim.node_count())
        .map(|v| sim.node(v).sampler.link_count())
        .sum();
    assert!(total_links > 30, "links {total_links}");
    // Request/response accounting still pairs up (no churn => no loss).
    let req: u64 = (0..sim.node_count())
        .map(|v| sim.node_stats(v).requests_sent)
        .sum();
    let resp: u64 = (0..sim.node_count())
        .map(|v| sim.node_stats(v).responses_sent)
        .sum();
    assert!(req > 0);
    // In-flight messages at the horizon make resp lag req slightly.
    assert!(resp <= req && req - resp <= sim.node_count() as u64);
}

#[test]
fn latency_with_churn_loses_in_transit_messages() {
    let trust = trust_graph(40, 20);
    let cfg = OverlayConfig {
        cache_size: 40,
        shuffle_length: 6,
        target_links: 8,
        link: slow_link(0.5),
        ..OverlayConfig::default()
    };
    // Short sessions: transit losses become likely.
    let churn = ChurnConfig::from_availability(0.5, 2.0);
    let mut sim = Simulation::new(trust, cfg, churn, 20).unwrap();
    sim.run_until(100.0);
    let lost: u64 = (0..sim.node_count())
        .map(|v| sim.node_stats(v).dropped_requests)
        .sum();
    assert!(lost > 0, "in-transit churn must lose some requests");
}

#[test]
fn moderate_latency_preserves_robustness() {
    // The paper's §III-E5 claim: slow mixes do not break maintenance.
    let trust = trust_graph(50, 21);
    let make = |latency: f64| {
        let cfg = OverlayConfig {
            cache_size: 50,
            shuffle_length: 8,
            target_links: 12,
            link: slow_link(latency),
            ..OverlayConfig::default()
        };
        let churn = ChurnConfig::from_availability(0.5, 10.0);
        let mut sim = Simulation::new(trust.clone(), cfg, churn, 21).unwrap();
        sim.run_until(120.0);
        veil_graph::metrics::fraction_disconnected(&sim.overlay_graph(), &sim.online_mask())
    };
    let instant = make(0.0);
    let slow = make(1.0);
    assert!(
        slow <= instant + 0.15,
        "one-period latency should barely hurt: {slow} vs {instant}"
    );
}

#[test]
fn blackout_forces_nodes_offline_and_back() {
    let mut sim = small_sim(1.0, 22);
    sim.run_until(10.0);
    assert_eq!(sim.online_count(), 60);
    let victims: Vec<usize> = (0..30).collect();
    sim.inject_blackout(&victims, 5.0);
    sim.run_until(12.0);
    assert_eq!(sim.online_count(), 30, "half the network is dark");
    for &v in &victims {
        assert!(!sim.is_online(v));
    }
    sim.run_until(16.0);
    assert_eq!(sim.online_count(), 60, "blackout over, everyone back");
    // Permanently-online nodes stay online afterwards (no spurious
    // churn events).
    sim.run_until(60.0);
    assert_eq!(sim.online_count(), 60);
}

#[test]
fn blackout_during_churn_is_superseded_cleanly() {
    let mut sim = small_sim(0.5, 23);
    sim.run_until(20.0);
    let victims: Vec<usize> = (0..sim.node_count()).collect();
    sim.inject_blackout(&victims, 3.0);
    sim.run_until(21.0);
    assert_eq!(sim.online_count(), 0, "total blackout");
    sim.run_until(23.5);
    // Everyone reconnected at t = 23; natural churn has had half a
    // period to pull a few nodes back offline.
    assert!(
        sim.online_count() > sim.node_count() * 9 / 10,
        "reconnect flash crowd: {} online",
        sim.online_count()
    );
    // Natural churn resumes: some nodes drift offline again.
    sim.run_until(60.0);
    let online = sim.online_count();
    assert!(
        online < sim.node_count(),
        "churn must resume, online={online}"
    );
    assert!(online > 0);
}

#[test]
fn overlay_survives_blackout_better_than_trust_graph() {
    let mut sim = small_sim(1.0, 24);
    sim.run_until(40.0); // converge
                         // Blackout a random-ish half: every even node.
    let victims: Vec<usize> = (0..sim.node_count()).filter(|v| v % 2 == 0).collect();
    sim.inject_blackout(&victims, 10.0);
    sim.run_until(41.0);
    let online = sim.online_mask();
    let overlay_frac = veil_graph::metrics::fraction_disconnected(&sim.overlay_graph(), &online);
    let trust_frac = veil_graph::metrics::fraction_disconnected(sim.trust_graph(), &online);
    assert!(
        overlay_frac <= trust_frac,
        "overlay {overlay_frac} vs trust {trust_frac} during blackout"
    );
}

#[test]
fn blackout_is_deterministic() {
    let run = || {
        let mut sim = small_sim(0.5, 25);
        sim.run_until(15.0);
        sim.inject_blackout(&[0, 1, 2, 3, 4], 4.0);
        sim.run_until(40.0);
        (sim.online_mask(), sim.overlay_graph())
    };
    assert_eq!(run(), run());
}

#[test]
#[should_panic(expected = "positive")]
fn blackout_rejects_zero_duration() {
    let mut sim = small_sim(1.0, 26);
    sim.inject_blackout(&[0], 0.0);
}

#[test]
fn message_log_off_by_default() {
    let mut sim = small_sim(1.0, 18);
    sim.run_until(5.0);
    assert!(sim.message_log().is_none());
    assert!(sim.take_message_log().is_empty());
}
