//! Layout and stepping invariance tests for the windowed executor.
//!
//! The contract under test: every link regime runs the one window loop,
//! and neither `cfg.shards` — unset, one, or many — nor how the caller
//! steps `run_until` changes the result. `S = 1` is the reference.

use super::tests::slow_link;
use crate::config::{HealthConfig, LinkLayerConfig, OverlayConfig, RemedyConfig};
use crate::node::NodeStats;
use crate::simulation::{MessageRecord, Simulation};
use veil_graph::{generators, Graph};
use veil_obs::{EventKind as Obs, Recorder};
use veil_sim::churn::ChurnConfig;
use veil_sim::fault::{EpisodeEffect, FaultConfig, FaultEpisode, LatencyDist};
use veil_sim::rng::{derive_rng, Stream};

fn trust_graph(n: usize, seed: u64) -> Graph {
    let mut rng = derive_rng(seed, Stream::Topology);
    generators::social_graph(n, 3, &mut rng).unwrap()
}

fn base_cfg() -> OverlayConfig {
    OverlayConfig {
        cache_size: 50,
        shuffle_length: 8,
        target_links: 12,
        ..OverlayConfig::default()
    }
}

fn constant_latency(value: f64) -> OverlayConfig {
    OverlayConfig {
        link: slow_link(value),
        ..base_cfg()
    }
}

fn healing(cfg: OverlayConfig) -> OverlayConfig {
    OverlayConfig {
        health: HealthConfig {
            enabled: true,
            ..HealthConfig::default()
        },
        remedy: RemedyConfig { enabled: true },
        ..cfg
    }
}

/// Everything observable about a finished run, for exact comparison; the
/// last field is the health-alert and remediation timeline.
type Snapshot = (
    Vec<bool>,
    Graph,
    u64,
    u64,
    Vec<NodeStats>,
    Vec<MessageRecord>,
    Vec<(f64, Option<u32>, Obs)>,
);

fn snapshot(sim: &mut Simulation) -> Snapshot {
    let alerts = sim.recorder().events().into_iter();
    (
        sim.online_mask(),
        sim.overlay_graph(),
        sim.pseudonyms_minted(),
        sim.total_link_removals(),
        (0..sim.node_count()).map(|v| sim.node_stats(v)).collect(),
        sim.take_message_log(),
        alerts
            .filter(|e| matches!(e.kind, Obs::HealthAlert { .. } | Obs::RemedyAction { .. }))
            .map(|e| (e.t, e.node, e.kind))
            .collect(),
    )
}

/// Runs `cfg` on `shards` shards, stepping `run_until` through `steps`.
fn run_sharded(
    cfg: &OverlayConfig,
    alpha: f64,
    seed: u64,
    shards: Option<usize>,
    steps: &[f64],
) -> Snapshot {
    let trust = trust_graph(60, seed);
    let cfg = OverlayConfig {
        shards,
        ..cfg.clone()
    };
    let in_flight = cfg.link != LinkLayerConfig::Ideal;
    let churn = ChurnConfig::from_availability(alpha, 10.0);
    let mut sim = Simulation::new(trust, cfg, churn, seed).unwrap();
    assert_eq!(sim.is_sharded(), in_flight);
    sim.set_recorder(Recorder::full());
    sim.enable_message_log();
    for &t in steps {
        sim.run_until(t);
    }
    snapshot(&mut sim)
}

fn assert_shard_invariant(cfg: &OverlayConfig, alpha: f64, seed: u64, t: f64) {
    let reference = run_sharded(cfg, alpha, seed, Some(1), &[t]);
    for shards in [None, Some(2), Some(8)] {
        let got = run_sharded(cfg, alpha, seed, shards, &[t]);
        assert_eq!(
            got, reference,
            "shards={shards:?} diverged from shards=1 (seed {seed})"
        );
    }
}

#[test]
fn faulty_link_is_shard_invariant() {
    let cfg = OverlayConfig {
        link: LinkLayerConfig::Faulty(FaultConfig {
            drop_probability: 0.15,
            latency: LatencyDist::Exponential { mean: 0.3 },
            ..FaultConfig::none()
        }),
        ..base_cfg()
    };
    for seed in [41, 42] {
        assert_shard_invariant(&cfg, 0.6, seed, 30.0);
    }
}

#[test]
fn ideal_latency_is_shard_invariant() {
    for seed in [43, 44] {
        assert_shard_invariant(&constant_latency(0.3), 0.6, seed, 30.0);
    }
}

#[test]
fn ideal_latency_with_skip_offline_is_shard_invariant() {
    // A link with messages in flight reports no deliverability, so the
    // flag must change nothing there — under churn, at every shard count.
    let on = constant_latency(0.5);
    assert!(on.skip_offline_peers);
    assert_shard_invariant(&on, 0.5, 45, 30.0);
    let off = OverlayConfig {
        skip_offline_peers: false,
        ..on.clone()
    };
    assert_eq!(
        run_sharded(&off, 0.5, 45, Some(2), &[30.0]),
        run_sharded(&on, 0.5, 45, Some(2), &[30.0])
    );
}

#[test]
fn latency_shape_does_not_pick_the_protocol() {
    // Two loss-free slow links of equal mean run the same tracked exchange:
    // the same event kinds, timeouts among them, and a real exchange id on
    // everything that carries one.
    let kinds = |cfg: &OverlayConfig| {
        let churn = ChurnConfig::from_availability(0.6, 10.0);
        let mut sim = Simulation::new(trust_graph(60, 43), cfg.clone(), churn, 43).unwrap();
        sim.set_recorder(Recorder::full());
        sim.run_until(30.0);
        let mut names = std::collections::BTreeSet::new();
        for e in sim.recorder().events() {
            if let Obs::ShuffleComplete { exchange } | Obs::MessageDropped { exchange, .. } = e.kind
            {
                assert_ne!(exchange, 0, "{:?}", cfg.link);
            }
            names.insert(e.kind.name());
        }
        names
    };
    let constant = kinds(&constant_latency(0.3));
    assert_eq!(constant, kinds(&exponential_link(0.0)));
    assert!(constant.contains("ShuffleTimeout"), "{constant:?}");
}

#[test]
fn blackout_episode_is_shard_invariant() {
    let cfg = OverlayConfig {
        link: LinkLayerConfig::Faulty(FaultConfig {
            drop_probability: 0.1,
            latency: LatencyDist::Exponential { mean: 0.2 },
            episodes: vec![FaultEpisode {
                start: 8.0,
                end: 14.0,
                effect: EpisodeEffect::Blackout {
                    first: 10,
                    count: 25,
                },
            }],
        }),
        ..base_cfg()
    };
    assert_shard_invariant(&cfg, 0.8, 46, 25.0);
}

#[test]
fn self_healing_blackout_is_shard_invariant() {
    // The remediation engine decides and applies reactions at barrier
    // boundaries against barrier-time state, so a healing run — monitor
    // on, every reaction armed, with a blackout to provoke rebootstraps —
    // must be byte-identical at every shard count, not just a passive one.
    let cfg = healing(OverlayConfig {
        link: LinkLayerConfig::Faulty(FaultConfig {
            drop_probability: 0.1,
            latency: LatencyDist::Exponential { mean: 0.2 },
            episodes: vec![FaultEpisode {
                start: 8.0,
                end: 14.0,
                effect: EpisodeEffect::Blackout {
                    first: 10,
                    count: 25,
                },
            }],
        }),
        ..base_cfg()
    });
    for seed in [54, 55] {
        assert_shard_invariant(&cfg, 0.8, seed, 25.0);
        // The run must actually exercise the engine, or the invariance
        // claim is vacuous.
        let trust = trust_graph(60, seed);
        let sharded = OverlayConfig {
            shards: Some(2),
            ..cfg.clone()
        };
        let churn = ChurnConfig::from_availability(0.8, 10.0);
        let mut sim = Simulation::new(trust, sharded, churn, seed).unwrap();
        sim.run_until(25.0);
        let counts = sim.remedy_counts().expect("self-healing is on");
        assert!(counts.total() > 0, "no reactions fired (seed {seed})");
    }
}

#[test]
fn total_loss_is_shard_invariant() {
    // Exhausted retries, evictions and timeout bookkeeping, all windowed.
    let cfg = OverlayConfig {
        link: LinkLayerConfig::Faulty(FaultConfig::with_loss(1.0)),
        ..base_cfg()
    };
    assert_shard_invariant(&cfg, 1.0, 47, 20.0);
}

#[test]
fn sharded_run_is_deterministic() {
    let cfg = OverlayConfig {
        link: LinkLayerConfig::Faulty(FaultConfig {
            drop_probability: 0.2,
            latency: LatencyDist::Exponential { mean: 0.4 },
            ..FaultConfig::none()
        }),
        ..base_cfg()
    };
    let run = || run_sharded(&cfg, 0.5, 48, Some(3), &[25.0]);
    assert_eq!(run(), run());
}

/// Stopping `run_until` off the window grid and resuming must equal one
/// straight run in every observable, on `S ∈ {1, 4}` shards. Thirty seeds
/// per configuration: before partial windows kept their outboxes, a third
/// to two thirds of the seeds diverged on every link with messages in
/// flight, and a single seed could pass by luck. Returns the
/// straight runs' snapshots.
fn assert_stepping_invariant(cfg: &OverlayConfig, seeds: std::ops::Range<u64>) -> Vec<Snapshot> {
    let mut straight_runs = Vec::new();
    for seed in seeds {
        for shards in [Some(1), Some(4)] {
            let straight = run_sharded(cfg, 0.7, seed, shards, &[20.0]);
            for stops in [&[7.3, 12.75, 20.0][..], &[12.75, 20.0]] {
                let split = run_sharded(cfg, 0.7, seed, shards, stops);
                assert!(
                    split == straight,
                    "stops {stops:?} diverged from a straight run (seed {seed}, shards {shards:?}, \
                     link {:?})",
                    cfg.link
                );
            }
            straight_runs.push(straight);
        }
    }
    straight_runs
}

fn exponential_link(drop_probability: f64) -> OverlayConfig {
    OverlayConfig {
        link: LinkLayerConfig::Faulty(FaultConfig {
            drop_probability,
            latency: LatencyDist::Exponential { mean: 0.3 },
            ..FaultConfig::none()
        }),
        ..base_cfg()
    }
}

#[test]
fn split_horizons_match_single_run() {
    assert_stepping_invariant(&constant_latency(0.3), 100..130);
    assert_stepping_invariant(&exponential_link(0.0), 130..160);
    assert_stepping_invariant(&exponential_link(0.1), 160..190);
}

#[test]
fn ideal_link_is_shard_invariant() {
    // The zero-latency link exchanges synchronously across two cells, so
    // it runs on one shard whatever `shards` asks for — health monitor,
    // remediation and message log included.
    let cfg = healing(base_cfg());
    assert_shard_invariant(&cfg, 0.5, 50, 30.0);
    // The ideal link's defining property: it reports deliverability, so
    // with `skip_offline_peers` (the default) every request is answered —
    // the paper's "exactly two messages per period".
    assert!(cfg.skip_offline_peers);
    let (.., stats, log, alerts) = run_sharded(&cfg, 0.5, 50, Some(8), &[30.0]);
    let sent: u64 = stats.iter().map(|s| s.requests_sent).sum();
    let answered: u64 = stats.iter().map(|s| s.responses_sent).sum();
    assert!(sent > 0 && sent == answered, "{sent} != {answered}");
    assert_eq!(stats.iter().map(|s| s.dropped_requests).sum::<u64>(), 0);
    assert!(log
        .iter()
        .all(|m| m.kind != crate::simulation::MessageKind::Dropped));
    assert!(
        !alerts.is_empty(),
        "the alert comparison must not be vacuous"
    );
}

#[test]
fn stepping_is_invisible_with_health_and_remedy_on() {
    // Message log, alerts and reactions included. The ideal link has
    // nothing in flight, so a few seeds do; the lossy link gets the matrix.
    for (cfg, seeds) in [(base_cfg(), 56..59), (exponential_link(0.1), 200..230)] {
        let straight = assert_stepping_invariant(&healing(cfg.clone()), seeds);
        let alerts: usize = straight.iter().map(|s| s.6.len()).sum();
        assert!(alerts > 0, "no alert fired ({:?})", cfg.link);
    }
}

#[test]
fn off_grid_health_window_is_rejected() {
    // A rotation reads the cells at the barrier that finds it due, and
    // `run_until` may end on a partial window — so a health window off the
    // 0.5-period execution grid would make alerts depend on how the caller
    // steps. Validation refuses it.
    let validate = |window: f64| {
        let health = HealthConfig {
            window,
            ..HealthConfig::default()
        };
        OverlayConfig {
            health,
            ..base_cfg()
        }
        .validate()
    };
    for window in [0.5, 2.5, 5.0] {
        assert_eq!(validate(window), Ok(()));
    }
    assert!(matches!(
        validate(3.3),
        Err(crate::error::CoreError::InvalidConfig {
            field: "health.window",
            ..
        })
    ));
}

#[test]
fn marker_pseudonym_comes_from_its_owners_mint_sequence() {
    // `mint_pseudonym` (the timing attack's traceable marker) draws the
    // owner's next keyed id like any natural mint, on every link regime.
    let lossy = OverlayConfig {
        link: LinkLayerConfig::Faulty(FaultConfig::with_loss(0.1)),
        shards: Some(4),
        ..base_cfg()
    };
    for cfg in [base_cfg(), lossy] {
        let cfg = OverlayConfig {
            pseudonym_lifetime: Some(5.0),
            ..cfg
        };
        let churn = ChurnConfig::from_availability(1.0, 10.0);
        let mut sim = Simulation::new(trust_graph(60, 57), cfg, churn, 57).unwrap();
        sim.run_until(3.0);
        // No churn and no expiry yet: every node minted exactly once.
        let (owner, before) = (41u32, sim.pseudonyms_minted());
        assert_eq!(before, 60);
        let marker = sim.mint_pseudonym(owner);
        assert_eq!(marker.id().0, (u64::from(owner) + 1) << 32 | 1);
        assert_eq!(sim.pseudonyms_minted(), before + 1, "counted once");
        // The owner's next natural mint takes the following sequence number.
        sim.run_until(7.0);
        let own = sim.node(owner as usize).own_pseudonym(sim.now()).unwrap();
        assert_eq!(own.id().0, (u64::from(owner) + 1) << 32 | 2);
    }
}

#[test]
fn shard_count_above_node_count_is_clamped() {
    let trust = trust_graph(10, 51);
    let cfg = OverlayConfig {
        shards: Some(64),
        ..constant_latency(0.2)
    };
    let churn = ChurnConfig::from_availability(1.0, 10.0);
    let mut sim = Simulation::new(trust, cfg, churn, 51).unwrap();
    assert!(sim.is_sharded());
    sim.run_until(10.0);
    assert_eq!(sim.online_count(), 10);
}

#[test]
fn manual_blackout_is_shard_invariant() {
    let trust = trust_graph(60, 53);
    let run = |shards: usize| {
        let cfg = OverlayConfig {
            shards: Some(shards),
            ..constant_latency(0.4)
        };
        let churn = ChurnConfig::from_availability(0.8, 10.0);
        let mut sim = Simulation::new(trust.clone(), cfg, churn, 53).unwrap();
        sim.run_until(10.0);
        sim.inject_blackout(&(0..30).collect::<Vec<_>>(), 5.0);
        sim.run_until(25.0);
        (
            sim.online_mask(),
            sim.overlay_graph(),
            sim.pseudonyms_minted(),
        )
    };
    let reference = run(1);
    for shards in [2, 4] {
        assert_eq!(run(shards), reference, "shards={shards}");
    }
}

#[test]
fn shard_starts_partition_is_contiguous_and_balanced() {
    use super::state::{owner_of, shard_starts};
    for (n, s) in [(10, 1), (10, 3), (64, 8), (7, 7)] {
        let starts = shard_starts(n, s);
        assert_eq!(starts.len(), s + 1);
        assert_eq!(starts[0], 0);
        assert_eq!(starts[s], n);
        let sizes: Vec<usize> = starts.windows(2).map(|w| w[1] - w[0]).collect();
        let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
        assert!(max - min <= 1, "unbalanced partition {sizes:?}");
        let owner = owner_of(n, &starts);
        for (v, &o) in owner.iter().enumerate() {
            let o = o as usize;
            assert!(starts[o] <= v && v < starts[o + 1]);
        }
    }
}
