//! Integration tests pinning the paper's headline experimental claims at
//! reduced scale: the orderings and crossovers of Figures 3, 4, 7 and 8
//! and the slow-mix argument of Section III-E5 must hold (absolute values
//! are checked loosely; the full-scale numbers are regenerated by the
//! `figures` binary of `veil-bench`).

use veil_core::config::LinkLayerConfig;
use veil_core::experiment::{
    availability_point, build_trust_graph, collector_series, sweep, ExperimentParams, SweepPoint,
};
use veil_graph::Graph;
use veil_sim::fault::{FaultConfig, LatencyDist};

fn params(seed: u64) -> ExperimentParams {
    ExperimentParams {
        nodes: 150,
        warmup: 150.0,
        seed,
        source_multiplier: 20,
        ..ExperimentParams::default()
    }
}

/// One connectivity-only availability point per α.
fn availability_sweep(trust: &Graph, p: &ExperimentParams, alphas: &[f64]) -> Vec<SweepPoint> {
    sweep(alphas, p.overlay.parallelism, |&alpha| {
        availability_point(trust, p, alpha, false)
    })
    .unwrap()
}

#[test]
fn figure3_overlay_beats_trust_graph_under_churn() {
    let p = params(1);
    let trust = build_trust_graph(&p).unwrap();
    let points = availability_sweep(&trust, &p, &[0.25, 0.5, 1.0]);
    for point in &points {
        assert!(
            point.overlay_disconnected <= point.trust_disconnected + 1e-9,
            "alpha {}: overlay {} vs trust {}",
            point.alpha,
            point.overlay_disconnected,
            point.trust_disconnected
        );
    }
    // At moderate churn the trust graph fragments badly, the overlay barely.
    // A single snapshot of a 150-node system is noisy, so compare tail
    // averages of the time series instead of one instant.
    let series = collector_series(&trust, &p, 0.25, 250.0, 5.0).unwrap();
    let trust_tail = series.connectivity_trust().tail_mean(10).unwrap();
    let overlay_tail = series.connectivity().tail_mean(10).unwrap();
    assert!(
        trust_tail > 0.2,
        "trust graph unexpectedly robust at alpha 0.25: {trust_tail}"
    );
    assert!(
        overlay_tail < 0.2,
        "overlay unexpectedly fragile at alpha 0.25: {overlay_tail}"
    );
    // At full availability everything is connected.
    let full = &points[2];
    assert_eq!(full.trust_disconnected, 0.0);
    assert_eq!(full.overlay_disconnected, 0.0);
}

#[test]
fn figure4_overlay_path_length_tracks_random_graph() {
    let p = params(2);
    let trust = build_trust_graph(&p).unwrap();
    let points = sweep(&[0.5, 1.0], p.overlay.parallelism, |&alpha| {
        availability_point(&trust, &p, alpha, true)
    })
    .unwrap();
    for point in &points {
        assert!(
            point.overlay_npl < point.trust_npl,
            "alpha {}: overlay npl {} vs trust npl {}",
            point.alpha,
            point.overlay_npl,
            point.trust_npl
        );
        // "closely matches a reference random Erdős-Rényi graph".
        let ratio = point.overlay_npl / point.random_npl;
        assert!(
            (0.5..2.0).contains(&ratio),
            "alpha {}: overlay/random npl ratio {ratio}",
            point.alpha
        );
    }
}

#[test]
fn figure7_longer_lifetimes_are_more_robust() {
    let p = params(3);
    let trust = build_trust_graph(&p).unwrap();
    let ratios = [Some(1.0), Some(3.0), None];
    let runs = ratios.map(|lifetime_ratio| ExperimentParams {
        lifetime_ratio,
        ..p.clone()
    });
    let disc: Vec<f64> = sweep(&runs, p.overlay.parallelism, |q| {
        availability_point(&trust, q, 0.25, false)
    })
    .unwrap()
    .iter()
    .map(|point| point.overlay_disconnected)
    .collect();
    // r = 1 must be the worst; r = ∞ must be (weakly) the best.
    assert!(
        disc[0] >= disc[2],
        "r=1 ({}) should be worse than r=inf ({})",
        disc[0],
        disc[2]
    );
    assert!(
        disc[1] <= disc[0] + 1e-9,
        "r=3 ({}) should not be worse than r=1 ({})",
        disc[1],
        disc[0]
    );
    // r = 1 resembles the trust graph: substantial disconnection.
    assert!(
        disc[0] > 0.05,
        "r=1 should degrade materially at alpha 0.25, got {}",
        disc[0]
    );
}

#[test]
fn figure8_overlay_converges_while_trust_graph_stays_broken() {
    let p = params(4);
    let trust = build_trust_graph(&p).unwrap();
    let ratios = [Some(3.0), Some(9.0)];
    let runs = ratios.map(|lifetime_ratio| ExperimentParams {
        lifetime_ratio,
        ..p.clone()
    });
    let series = sweep(&runs, p.overlay.parallelism, |q| {
        collector_series(&trust, q, 0.25, 300.0, 10.0)
    })
    .unwrap();
    // The trust graph hovers at heavy disconnection throughout.
    let trust_tail = series[0].connectivity_trust().tail_mean(5).unwrap();
    assert!(
        trust_tail > 0.4,
        "trust graph should stay heavily partitioned, got {trust_tail}"
    );
    // Each overlay settles far below the trust baseline. (The starting
    // instant is not a usable reference: with 150 nodes the stationary
    // churn draw at t = 0 sometimes leaves the trust hubs online, making
    // the very first snapshot nearly connected by luck.)
    for (ratio, collector) in ratios.iter().zip(&series) {
        let tail = collector.connectivity().tail_mean(5).unwrap();
        assert!(
            tail < trust_tail / 2.0,
            "overlay r={ratio:?} did not converge: tail {tail} vs trust {trust_tail}"
        );
        assert!(
            tail < 0.2,
            "overlay r={ratio:?} should approach full connectivity, got {tail}"
        );
    }
}

#[test]
fn availability_one_needs_no_churn_machinery() {
    let p = params(5);
    let trust = build_trust_graph(&p).unwrap();
    let points = availability_sweep(&trust, &p, &[1.0]);
    assert_eq!(points[0].overlay_disconnected, 0.0);
    assert_eq!(points[0].random_disconnected, 0.0);
}

#[test]
fn section3e5_slow_mixes_do_not_break_maintenance() {
    // "For a pseudonym lifetime of a few hours, pseudonym propagation times
    // in the order of minutes are more than acceptable": a link that takes
    // a whole shuffle period each way, and tells the sender nothing about
    // the far end, barely costs connectivity at the availability the
    // `sensitivity` latency row runs at.
    let p = params(6);
    let trust = build_trust_graph(&p).unwrap();
    let disconnected = |latency: f64, shards: Option<usize>| {
        let mut p = p.clone();
        p.overlay.link = LinkLayerConfig::Faulty(FaultConfig {
            latency: LatencyDist::Constant { value: latency },
            ..FaultConfig::none()
        });
        p.overlay.shards = shards;
        availability_sweep(&trust, &p, &[0.25])[0].overlay_disconnected
    };
    let instant = disconnected(0.0, None);
    let slow = disconnected(1.0, None);
    assert!(
        slow <= instant + 0.15,
        "one-period latency should barely hurt: {slow} vs {instant}"
    );
    // The claim is about the protocol, not the thread layout.
    assert_eq!(disconnected(1.0, Some(2)), slow);
}
