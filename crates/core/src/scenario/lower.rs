//! Lowering: deterministic translation of a validated [`Scenario`] onto
//! the machinery that already exists — [`ExperimentParams`] carrying an
//! [`OverlayConfig`] whose link layer holds
//! the [`FaultEpisode`] script derived from the phases.
//!
//! Lowering adds nothing the hand-built path cannot express: a scenario
//! run is *byte-identical* to a run built by writing the same structs by
//! hand (the conformance suite pins this). The rules:
//!
//! | phase          | lowers to                                              |
//! |----------------|--------------------------------------------------------|
//! | flash-crowd    | one `Blackout` over `[0, at)` (offline until the join) |
//! | blackout       | one `Blackout` over `[start, start + duration)`        |
//! | partition      | one `Partition` at `round(fraction·n)`                 |
//! | crash          | one `Crash` over `[start, start + duration)`           |
//! | churn-waves    | `waves` Blackouts, one per period, `duty·period` long  |
//! | creeping-loss  | `steps` Crashes over equal sub-intervals, region grows |
//! | eclipse        | one `Partition` at `round(victims·n)`                  |
//!
//! Node regions are `[round(from·n), round(from·n) + round(fraction·n))`,
//! clamped to the population. Episodes appear in phase declaration order,
//! which is why validation insists phases be declared in start order —
//! the hand-built equivalent must only mirror the declaration to get the
//! same bytes.

use super::schema::{GraphModel, LatencyKind, Phase, Scenario};
use super::ScenarioError;
use crate::config::{HealthConfig, LinkLayerConfig, OverlayConfig, RemedyConfig};
use crate::experiment::{ExperimentParams, SourceModel};
use veil_sim::fault::{EpisodeEffect, FaultConfig, FaultEpisode, LatencyDist};

/// A scenario lowered onto the existing experiment machinery. Feed
/// `params` to [`build_trust_graph`](crate::experiment::build_trust_graph)
/// and [`build_simulation`](crate::experiment::build_simulation) with
/// `alpha`, then run to `horizon` — exactly what a hand-written
/// experiment does.
#[derive(Debug, Clone, PartialEq)]
pub struct Lowered {
    /// Graph + overlay + seed parameterization.
    pub params: ExperimentParams,
    /// Node availability for the churn model.
    pub alpha: f64,
    /// Run length in shuffle periods.
    pub horizon: f64,
}

/// Node region `[first, first + count)` for a `(from, fraction)` pair.
fn region(from: f64, fraction: f64, nodes: usize) -> (u32, u32) {
    let n = nodes as f64;
    let first = (from * n).round().min(n) as u32;
    let count = (fraction * n).round() as u32;
    let count = count.min(nodes as u32 - first);
    (first, count)
}

/// Boundary index splitting off the first `fraction` of nodes.
fn boundary(fraction: f64, nodes: usize) -> u32 {
    ((fraction * nodes as f64).round() as u32).min(nodes as u32)
}

/// The fault episodes a single phase lowers to, in schedule order. Pure
/// and total for validated phases; validation calls it too (to detect
/// overlapping blackout regions), so it must not assume validity beyond
/// finite numbers.
pub fn phase_episodes(phase: &Phase, nodes: usize) -> Vec<FaultEpisode> {
    match *phase {
        Phase::FlashCrowd { at, fraction, from } => {
            let (first, count) = region(from, fraction, nodes);
            vec![FaultEpisode {
                start: 0.0,
                end: at,
                effect: EpisodeEffect::Blackout { first, count },
            }]
        }
        Phase::Blackout {
            start,
            duration,
            fraction,
            from,
        } => {
            let (first, count) = region(from, fraction, nodes);
            vec![FaultEpisode {
                start,
                end: start + duration,
                effect: EpisodeEffect::Blackout { first, count },
            }]
        }
        Phase::Partition {
            start,
            duration,
            fraction,
        } => vec![FaultEpisode {
            start,
            end: start + duration,
            effect: EpisodeEffect::Partition {
                boundary: boundary(fraction, nodes),
            },
        }],
        Phase::Crash {
            start,
            duration,
            fraction,
            from,
        } => {
            let (first, count) = region(from, fraction, nodes);
            vec![FaultEpisode {
                start,
                end: start + duration,
                effect: EpisodeEffect::Crash { first, count },
            }]
        }
        Phase::ChurnWaves {
            start,
            period,
            duty,
            fraction,
            waves,
        } => {
            let (first, count) = region(0.0, fraction, nodes);
            (0..waves)
                .map(|k| {
                    let wave_start = start + k as f64 * period;
                    FaultEpisode {
                        start: wave_start,
                        end: wave_start + duty * period,
                        effect: EpisodeEffect::Blackout { first, count },
                    }
                })
                .collect()
        }
        Phase::CreepingLoss {
            start,
            end,
            steps,
            max_fraction,
        } => {
            let dt = (end - start) / steps as f64;
            (0..steps)
                .map(|i| {
                    let fraction = max_fraction * (i + 1) as f64 / steps as f64;
                    let (first, count) = region(0.0, fraction, nodes);
                    FaultEpisode {
                        start: start + i as f64 * dt,
                        end: start + (i + 1) as f64 * dt,
                        effect: EpisodeEffect::Crash { first, count },
                    }
                })
                .collect()
        }
        Phase::Eclipse {
            start,
            duration,
            victims,
        } => vec![FaultEpisode {
            start,
            end: start + duration,
            effect: EpisodeEffect::Partition {
                boundary: boundary(victims, nodes),
            },
        }],
    }
}

/// The `(first start, last end)` envelope of the scenario's
/// blackout-effect episodes that begin after t = 0, or `None` when there
/// are none. This is the outage the `recovery_time_at_most` assertion
/// measures against: a baseline is sampled before the first start, and
/// recovery probing begins at the last end. Flash crowds (blackouts from
/// t = 0) are excluded — no pre-outage baseline exists for them.
pub fn recovery_interval(s: &Scenario) -> Option<(f64, f64)> {
    let mut envelope: Option<(f64, f64)> = None;
    for phase in &s.phases {
        for ep in phase_episodes(phase, s.nodes) {
            if let EpisodeEffect::Blackout { .. } = ep.effect {
                if ep.start > 0.0 {
                    envelope = Some(match envelope {
                        None => (ep.start, ep.end),
                        Some((a, b)) => (a.min(ep.start), b.max(ep.end)),
                    });
                }
            }
        }
    }
    envelope
}

/// Lowers the link spec + phases into a link-layer config. Only the model
/// that injects nothing at all — no loss, no latency, no episodes — is the
/// ideal link; a constant latency alone is a fault model that never drops.
fn lower_link(s: &Scenario) -> LinkLayerConfig {
    let latency = if s.link.latency.mean <= 0.0 {
        LatencyDist::Constant { value: 0.0 }
    } else {
        match s.link.latency.dist {
            LatencyKind::Constant => LatencyDist::Constant {
                value: s.link.latency.mean,
            },
            LatencyKind::Exponential => LatencyDist::Exponential {
                mean: s.link.latency.mean,
            },
            LatencyKind::Pareto => LatencyDist::Pareto {
                shape: s.link.latency.shape,
                mean: s.link.latency.mean,
            },
        }
    };
    let fault = FaultConfig {
        drop_probability: s.link.loss,
        latency,
        episodes: s
            .phases
            .iter()
            .flat_map(|p| phase_episodes(p, s.nodes))
            .collect(),
    };
    if fault.is_trivial() {
        LinkLayerConfig::Ideal
    } else {
        LinkLayerConfig::Faulty(fault)
    }
}

/// Lowers a validated scenario. Call [`validate`](fn@super::validate) first;
/// lowering re-checks nothing and a malformed scenario may produce a
/// config that `OverlayConfig::validate` rejects.
///
/// The frozen benchmark package compiles against this signature and the
/// `params`, `alpha` and `horizon` fields of [`Lowered`].
///
/// # Errors
///
/// Currently infallible for validated input; the `Result` keeps room for
/// lowering rules that can fail (and mirrors the rest of the pipeline).
pub fn lower(s: &Scenario) -> Result<Lowered, ScenarioError> {
    let overlay = OverlayConfig {
        cache_size: s.overlay.cache_size,
        shuffle_length: s.overlay.shuffle_length,
        target_links: s.overlay.target_links,
        shuffle_timeout: s.overlay.shuffle_timeout,
        shuffle_retry_budget: s.overlay.shuffle_retries,
        link: lower_link(s),
        health: HealthConfig {
            enabled: s.health.enabled,
            window: s.health.window,
            ..HealthConfig::default()
        },
        remedy: RemedyConfig {
            enabled: s.remediation.enabled,
        },
        ..OverlayConfig::default()
    };
    let source = match s.graph.model {
        GraphModel::HolmeKim { attach, triad } => SourceModel::HolmeKim { attach, triad },
        GraphModel::DegreeMatched { avg_degree, triad } => {
            SourceModel::DegreeMatched { avg_degree, triad }
        }
    };
    let params = ExperimentParams {
        nodes: s.nodes,
        trust_f: s.graph.trust_f,
        mean_offline: s.mean_offline,
        lifetime_ratio: s.overlay.lifetime_ratio,
        warmup: s.horizon,
        seed: s.seed,
        overlay,
        source_multiplier: s.graph.source_multiplier,
        source,
    };
    Ok(Lowered {
        params,
        alpha: s.availability,
        horizon: s.horizon,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Scenario {
        Scenario {
            nodes: 200,
            horizon: 50.0,
            ..Scenario::default()
        }
    }

    #[test]
    fn ideal_scenario_lowers_to_ideal_link() {
        let lowered = lower(&base()).unwrap();
        assert_eq!(lowered.params.overlay.link, LinkLayerConfig::Ideal);
        assert_eq!(lowered.params.warmup, 50.0);
        assert_eq!(lowered.alpha, 0.9);
        lowered.params.overlay.validate().unwrap();
    }

    #[test]
    fn constant_latency_survives_lowering() {
        let mut s = base();
        s.link.latency.mean = 0.5;
        let lowered = lower(&s).unwrap();
        assert_eq!(
            lowered.params.overlay.link,
            LinkLayerConfig::Faulty(FaultConfig {
                latency: LatencyDist::Constant { value: 0.5 },
                ..FaultConfig::none()
            })
        );
        lowered.params.overlay.validate().unwrap();
    }

    #[test]
    fn blackout_phase_lowers_to_one_episode() {
        let mut s = base();
        s.phases.push(Phase::Blackout {
            start: 20.0,
            duration: 10.0,
            fraction: 0.5,
            from: 0.25,
        });
        let lowered = lower(&s).unwrap();
        let LinkLayerConfig::Faulty(fault) = &lowered.params.overlay.link else {
            panic!("expected faulty link");
        };
        assert_eq!(
            fault.episodes,
            vec![FaultEpisode {
                start: 20.0,
                end: 30.0,
                effect: EpisodeEffect::Blackout {
                    first: 50,
                    count: 100
                },
            }]
        );
    }

    #[test]
    fn flash_crowd_is_offline_from_zero() {
        let eps = phase_episodes(
            &Phase::FlashCrowd {
                at: 15.0,
                fraction: 0.25,
                from: 0.0,
            },
            200,
        );
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].start, 0.0);
        assert_eq!(eps[0].end, 15.0);
        assert_eq!(
            eps[0].effect,
            EpisodeEffect::Blackout {
                first: 0,
                count: 50
            }
        );
    }

    #[test]
    fn churn_waves_repeat_the_same_region() {
        let eps = phase_episodes(
            &Phase::ChurnWaves {
                start: 10.0,
                period: 8.0,
                duty: 0.5,
                fraction: 0.3,
                waves: 3,
            },
            100,
        );
        assert_eq!(eps.len(), 3);
        assert_eq!(eps[0].start, 10.0);
        assert_eq!(eps[0].end, 14.0);
        assert_eq!(eps[2].start, 26.0);
        for ep in &eps {
            assert_eq!(
                ep.effect,
                EpisodeEffect::Blackout {
                    first: 0,
                    count: 30
                }
            );
        }
    }

    #[test]
    fn creeping_loss_grows_the_region() {
        let eps = phase_episodes(
            &Phase::CreepingLoss {
                start: 10.0,
                end: 30.0,
                steps: 4,
                max_fraction: 0.4,
            },
            100,
        );
        assert_eq!(eps.len(), 4);
        let counts: Vec<u32> = eps
            .iter()
            .map(|ep| match ep.effect {
                EpisodeEffect::Crash { count, .. } => count,
                _ => panic!("expected crash"),
            })
            .collect();
        assert_eq!(counts, vec![10, 20, 30, 40]);
        assert_eq!(eps[0].start, 10.0);
        assert_eq!(eps[3].end, 30.0);
    }

    #[test]
    fn eclipse_lowers_to_partition() {
        let eps = phase_episodes(
            &Phase::Eclipse {
                start: 5.0,
                duration: 10.0,
                victims: 0.1,
            },
            200,
        );
        assert_eq!(eps[0].effect, EpisodeEffect::Partition { boundary: 20 });
    }

    #[test]
    fn remediation_lowers_onto_remedy_config() {
        let mut s = base();
        s.health.enabled = true;
        s.remediation.enabled = true;
        let lowered = lower(&s).unwrap();
        assert!(lowered.params.overlay.remedy.enabled);
        lowered.params.overlay.validate().unwrap();

        // Defaults lower to the default config — off stays byte-identical.
        let lowered = lower(&base()).unwrap();
        assert!(lowered.params.overlay.remedy.is_default());
    }

    #[test]
    fn recovery_interval_spans_blackout_envelope() {
        let mut s = base();
        assert_eq!(recovery_interval(&s), None);
        // A flash crowd alone gives no envelope (its blackout starts at 0).
        s.phases.push(Phase::FlashCrowd {
            at: 10.0,
            fraction: 0.2,
            from: 0.5,
        });
        assert_eq!(recovery_interval(&s), None);
        s.phases.push(Phase::ChurnWaves {
            start: 15.0,
            period: 10.0,
            duty: 0.5,
            fraction: 0.3,
            waves: 2,
        });
        assert_eq!(recovery_interval(&s), Some((15.0, 30.0)));
    }

    #[test]
    fn lowered_config_passes_validation_with_phases() {
        let mut s = base();
        s.link.loss = 0.05;
        s.phases.push(Phase::Crash {
            start: 10.0,
            duration: 5.0,
            fraction: 0.2,
            from: 0.0,
        });
        let lowered = lower(&s).unwrap();
        lowered.params.overlay.validate().unwrap();
    }
}
