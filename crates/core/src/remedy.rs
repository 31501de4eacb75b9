//! Self-healing remediation: deterministic reactions to health alerts.
//!
//! The [`crate::health::HealthMonitor`] detects degradation; the
//! [`RemedyEngine`] closes the loop. Each window rotation hands the engine
//! the fired [`WindowAlert`]s, and the engine maps them — purely, with no
//! randomness of its own — onto three reactions, all of which run when
//! [`RemedyConfig::enabled`] is set:
//!
//! * **eviction storm ⇒ shuffle backoff** — every online node skips its
//!   next `BACKOFF_SHUFFLES` shuffle initiations, letting in-flight
//!   exchanges drain instead of compounding the storm (the counter decays
//!   by one per skipped shuffle, so the reaction is self-limiting);
//! * **starvation / isolation ⇒ targeted re-bootstrap** — an implicated
//!   node's sampler and cache are re-seeded with the current pseudonyms of
//!   its *online trusted neighbors* (the one set of peers it can always
//!   re-contact without deanonymizing anyone), rate-limited per node by
//!   `REBOOTSTRAP_COOLDOWN`;
//! * **degree skew ⇒ contribution throttle** — a node the `indegree_skew`
//!   detector flags (a trust-graph hub: the detector reads trust degree
//!   plus the node's own sampler links, see [`crate::health`]) withholds
//!   its own pseudonym from outgoing shuffle offers for
//!   `THROTTLE_PERIODS`, which caps how many caches learn it — its
//!   pseudonym *in*-degree, a quantity the detector never reads.
//!
//! # Shard-layout invariance
//!
//! Decisions are a pure function of the window alerts and the online mask,
//! both of which the executor derives from the barrier-replayed,
//! time-sorted health observations — so every shard count sees the same
//! alert sequence and produces the same reactions at the same barrier
//! instant. Reactions
//! mutate only per-node state (backoff counters, throttle deadlines,
//! sampler offers along trust edges in neighbor order) and draw no
//! randomness, keeping the downstream event stream invariant too.
//!
//! # Off means off
//!
//! With [`RemedyConfig::enabled`] false the engine is never constructed,
//! no `RemedyAction` events exist, and the simulation is byte-identical to
//! a monitoring-only build — pinned by the equivalence suites.

use crate::config::RemedyConfig;
use crate::health::{WindowAlert, DETECTOR_NAMES};
use crate::sim_exec::shard::Shard;
use crate::sim_exec::state::NodeCell;
use veil_graph::Graph;
use veil_obs::{EventKind as Obs, Recorder};
use veil_sim::SimTime;

/// Names of the reactions, as the `reaction` field of `RemedyAction`
/// trace events spells them.
pub const REACTION_NAMES: [&str; 3] = ["backoff", "rebootstrap", "throttle"];

/// Shuffle initiations a node skips after an eviction-storm backoff.
const BACKOFF_SHUFFLES: u32 = 2;
/// Most trusted-neighbor pseudonyms offered per re-bootstrap.
const REBOOTSTRAP_MAX_OFFERS: usize = 8;
/// Least spacing, in shuffle periods, between two re-bootstraps of one
/// node (a persistently isolated node is not thrashed).
const REBOOTSTRAP_COOLDOWN: f64 = 10.0;
/// Shuffle periods a throttled node withholds its own pseudonym.
const THROTTLE_PERIODS: f64 = 10.0;

/// One reaction the engine decided to take, before application.
///
/// Decisions are split from application so the decision logic stays a pure,
/// unit-testable function of alerts + online mask, while application owns
/// the `&mut` access to node state.
#[derive(Debug, Clone, PartialEq)]
pub enum RemedyDecision {
    /// Suppress the next shuffle initiations of every listed node.
    Backoff {
        /// Window boundary the triggering alert was stamped at.
        t: f64,
        /// Triggering detector name.
        detector: &'static str,
        /// Nodes to back off (the online population at the boundary).
        nodes: Vec<u32>,
    },
    /// Re-seed one node's sampler from its online trusted neighbors.
    Rebootstrap {
        /// Window boundary the triggering alert was stamped at.
        t: f64,
        /// Triggering detector name.
        detector: &'static str,
        /// The starved / isolated node.
        node: u32,
    },
    /// Throttle one node's own-pseudonym contribution.
    Throttle {
        /// Window boundary the triggering alert was stamped at.
        t: f64,
        /// Triggering detector name.
        detector: &'static str,
        /// The over-represented hub.
        node: u32,
    },
}

/// Per-reaction application totals, surfaced as `remedy.*` gauges and by
/// [`crate::simulation::Simulation::remedy_counts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemedyCounts {
    /// Eviction-storm backoffs applied (one per triggering alert).
    pub backoffs: u64,
    /// Targeted re-bootstraps applied (one per implicated node).
    pub rebootstraps: u64,
    /// Contribution throttles applied (one per implicated hub).
    pub throttles: u64,
}

impl RemedyCounts {
    /// Total reactions applied.
    pub fn total(&self) -> u64 {
        self.backoffs + self.rebootstraps + self.throttles
    }
}

/// The remediation engine: alert consumer and reaction dispatcher.
#[derive(Debug)]
pub struct RemedyEngine {
    /// Per node: boundary time of the last re-bootstrap (`-inf` = never).
    last_rebootstrap: Vec<f64>,
    counts: RemedyCounts,
}

impl RemedyEngine {
    /// Builds an engine when `cfg.enabled`; `None` otherwise (the caller
    /// additionally requires a health monitor — no alerts, no reactions).
    pub fn maybe_new(cfg: &RemedyConfig, nodes: usize) -> Option<Self> {
        if !cfg.enabled {
            return None;
        }
        Some(Self {
            last_rebootstrap: vec![f64::NEG_INFINITY; nodes],
            counts: RemedyCounts::default(),
        })
    }

    /// Reactions applied so far, per kind.
    pub fn counts(&self) -> RemedyCounts {
        self.counts
    }

    /// Maps one window's alerts onto reaction decisions.
    ///
    /// Pure except for the per-node re-bootstrap cooldown stamps: a node
    /// implicated by both `starved_nodes` and `isolated_nodes` in the same
    /// window is re-bootstrapped once, and not again until
    /// `REBOOTSTRAP_COOLDOWN` periods have passed.
    pub fn decide(&mut self, alerts: &[WindowAlert], online: &[bool]) -> Vec<RemedyDecision> {
        let [_, storm, _, starved, isolated, skew] = DETECTOR_NAMES;
        let mut out = Vec::new();
        for a in alerts {
            match a.detector {
                d if d == storm => {
                    let nodes: Vec<u32> = online
                        .iter()
                        .enumerate()
                        .filter(|(_, on)| **on)
                        .map(|(v, _)| v as u32)
                        .collect();
                    if !nodes.is_empty() {
                        out.push(RemedyDecision::Backoff {
                            t: a.t,
                            detector: a.detector,
                            nodes,
                        });
                    }
                }
                d if d == starved || d == isolated => {
                    for &v in &a.nodes {
                        let slot = match self.last_rebootstrap.get_mut(v as usize) {
                            Some(slot) => slot,
                            None => continue,
                        };
                        if a.t - *slot < REBOOTSTRAP_COOLDOWN {
                            continue;
                        }
                        *slot = a.t;
                        out.push(RemedyDecision::Rebootstrap {
                            t: a.t,
                            detector: a.detector,
                            node: v,
                        });
                    }
                }
                d if d == skew => {
                    for &v in &a.nodes {
                        out.push(RemedyDecision::Throttle {
                            t: a.t,
                            detector: a.detector,
                            node: v,
                        });
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Applies the decided reactions to the node cells and emits one
    /// `RemedyAction` event per decision (a no-op on a disabled recorder).
    ///
    /// Called at the window barrier after the merged health observations
    /// were replayed — the same state snapshot for every shard layout.
    /// `owner[v]` is the shard whose arena node `v`'s state interns into.
    pub(crate) fn apply(
        &mut self,
        decisions: &[RemedyDecision],
        cells: &mut [NodeCell],
        shards: &mut [Shard],
        owner: &[u32],
        trust: &Graph,
        recorder: &Recorder,
    ) {
        let [backoff, rebootstrap, throttle] = REACTION_NAMES;
        for d in decisions {
            match d {
                RemedyDecision::Backoff { t, detector, nodes } => {
                    for &v in nodes {
                        let cell = &mut cells[v as usize];
                        cell.shuffle_backoff = cell.shuffle_backoff.max(BACKOFF_SHUFFLES);
                    }
                    self.counts.backoffs += 1;
                    let affected = nodes.len() as u64;
                    recorder.event(*t, None, || Obs::RemedyAction {
                        reaction: backoff.to_string(),
                        detector: (*detector).to_string(),
                        affected,
                    });
                }
                RemedyDecision::Rebootstrap { t, detector, node } => {
                    let now = SimTime::new(*t);
                    let v = *node as usize;
                    // Collect the online trusted neighbors' current
                    // pseudonyms first (immutable pass), then feed them to
                    // the starved node (mutable pass).
                    let mut offers = Vec::new();
                    for &u in trust.neighbors(v) {
                        if offers.len() >= REBOOTSTRAP_MAX_OFFERS {
                            break;
                        }
                        let peer = &cells[u as usize];
                        if !peer.churn.is_online() {
                            continue;
                        }
                        if let Some(p) = peer.node.own_pseudonym(now) {
                            offers.push(p);
                        }
                    }
                    let arena = &mut shards[owner[v] as usize].arena;
                    let cell = &mut cells[v];
                    let mut accepted = 0u64;
                    for p in offers {
                        cell.node.cache.insert(arena, p, now);
                        if cell.node.sampler.offer(arena, p, now) {
                            accepted += 1;
                        }
                    }
                    // Fresh links are a state change: re-arm suppressed
                    // shuffling so the node gossips its way back.
                    if accepted > 0 {
                        cell.stable_ticks = 0;
                    }
                    self.counts.rebootstraps += 1;
                    recorder.event(*t, Some(*node), || Obs::RemedyAction {
                        reaction: rebootstrap.to_string(),
                        detector: (*detector).to_string(),
                        affected: accepted,
                    });
                }
                RemedyDecision::Throttle { t, detector, node } => {
                    let until = SimTime::new(*t + THROTTLE_PERIODS);
                    cells[*node as usize].node.throttle_contribution(until);
                    self.counts.throttles += 1;
                    recorder.event(*t, Some(*node), || Obs::RemedyAction {
                        reaction: throttle.to_string(),
                        detector: (*detector).to_string(),
                        affected: 1,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RemedyConfig {
        RemedyConfig { enabled: true }
    }

    fn alert(detector: &'static str, t: f64, nodes: Vec<u32>) -> WindowAlert {
        WindowAlert {
            t,
            detector,
            critical: false,
            value: 1.0,
            threshold: 0.5,
            nodes,
        }
    }

    #[test]
    fn disabled_config_yields_no_engine() {
        assert!(RemedyEngine::maybe_new(&RemedyConfig::default(), 4).is_none());
        assert!(RemedyEngine::maybe_new(&cfg(), 4).is_some());
    }

    #[test]
    fn eviction_storm_backs_off_online_nodes() {
        let mut eng = RemedyEngine::maybe_new(&cfg(), 4).unwrap();
        let out = eng.decide(
            &[alert("eviction_storm", 5.0, vec![])],
            &[true, false, true, true],
        );
        assert_eq!(
            out,
            vec![RemedyDecision::Backoff {
                t: 5.0,
                detector: "eviction_storm",
                nodes: vec![0, 2, 3],
            }]
        );
    }

    #[test]
    fn rebootstrap_respects_cooldown_and_dedups() {
        let mut eng = RemedyEngine::maybe_new(&cfg(), 4).unwrap();
        // Starved and isolated implicate node 1 in the same window: one
        // re-bootstrap, not two.
        let out = eng.decide(
            &[
                alert("starved_nodes", 5.0, vec![1, 2]),
                alert("isolated_nodes", 5.0, vec![1]),
            ],
            &[true; 4],
        );
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out
            .iter()
            .all(|d| matches!(d, RemedyDecision::Rebootstrap { node: 1 | 2, .. })));
        // Within the cooldown nothing fires; after it, it does.
        assert!(eng
            .decide(&[alert("starved_nodes", 10.0, vec![1])], &[true; 4])
            .is_empty());
        assert_eq!(
            eng.decide(&[alert("starved_nodes", 15.0, vec![1])], &[true; 4])
                .len(),
            1
        );
    }

    #[test]
    fn skew_throttles_each_hub() {
        let mut eng = RemedyEngine::maybe_new(&cfg(), 4).unwrap();
        let out = eng.decide(&[alert("indegree_skew", 5.0, vec![0, 3])], &[true; 4]);
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0], RemedyDecision::Throttle { node: 0, .. }));
        assert!(matches!(out[1], RemedyDecision::Throttle { node: 3, .. }));
    }

    #[test]
    fn unknown_detectors_are_ignored() {
        let mut eng = RemedyEngine::maybe_new(&cfg(), 4).unwrap();
        assert!(eng
            .decide(
                &[
                    alert("shuffle_failure_burst", 5.0, vec![]),
                    alert("pseudonym_expiry_stampede", 5.0, vec![]),
                ],
                &[true; 4]
            )
            .is_empty());
    }
}
