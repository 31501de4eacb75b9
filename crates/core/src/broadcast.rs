//! Reliable epidemic broadcast over a live, churning overlay.
//!
//! The overlay exists so that "high-level social applications such as
//! micro-news, mailing lists and group chat can be built" on top
//! (Section II) via "reliable and privacy-preserving message broadcast by
//! using controlled flooding, epidemic dissemination, or an additional
//! routing layer" (Section I). [`crate::dissemination`] measures one-shot
//! broadcasts on a static snapshot; this module runs a *session*: messages
//! published over time, pushed epidemically across the changing overlay,
//! with anti-entropy pulls so nodes that were offline catch up when they
//! rejoin.
//!
//! The driver advances the underlying [`Simulation`] in fixed increments
//! and performs application rounds between increments, so protocol
//! maintenance and dissemination interleave realistically.
//!
//! Pushes and pulls travel over the paper's ideal service: every
//! transmission between two online nodes arrives. The session has no loss
//! model of its own; putting its messages on the simulation's link layer
//! ([`crate::config::LinkLayerConfig`]) is ROADMAP item 4.

use crate::node::LinkTarget;
use crate::simulation::Simulation;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use veil_obs::{EventKind as Obs, Recorder};
use veil_sim::rng::{derive_rng, Stream};

/// Identifier of a published message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MessageId(pub u64);

/// Configuration of the epidemic session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BroadcastConfig {
    /// Online peers each infected node pushes a fresh message to, per
    /// application round.
    pub push_fanout: usize,
    /// How many rounds a node keeps pushing a message after first
    /// receiving it ("infectious period").
    pub push_rounds: u32,
    /// Whether rejoining nodes anti-entropy-pull missed messages from one
    /// random online link.
    pub pull_on_rejoin: bool,
    /// Length of one application round in shuffle periods.
    pub round_length: f64,
}

impl Default for BroadcastConfig {
    fn default() -> Self {
        Self {
            push_fanout: 3,
            push_rounds: 3,
            pull_on_rejoin: true,
            round_length: 1.0,
        }
    }
}

/// Delivery record for one (node, message) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Delivery {
    /// When the node first received the message (shuffle periods).
    pub time: f64,
    /// Hop count from the publisher (0 for the publisher itself).
    pub hops: u32,
}

/// Per-node application state.
#[derive(Debug, Clone, Default)]
struct AppState {
    /// Messages received, with delivery metadata.
    inbox: HashMap<MessageId, Delivery>,
    /// Messages still being actively pushed, with remaining rounds.
    active: HashMap<MessageId, u32>,
    /// Whether the node was online at the end of the previous round (to
    /// detect rejoins for anti-entropy pulls).
    was_online: bool,
}

/// An epidemic broadcast session running over a [`Simulation`].
///
/// # Examples
///
/// ```
/// use veil_core::broadcast::{BroadcastConfig, EpidemicSession};
/// use veil_core::config::OverlayConfig;
/// use veil_core::simulation::Simulation;
/// use veil_graph::generators;
/// use veil_sim::churn::ChurnConfig;
/// use veil_sim::rng::{derive_rng, Stream};
///
/// # fn main() -> Result<(), veil_core::error::CoreError> {
/// let mut rng = derive_rng(1, Stream::Topology);
/// let trust = generators::social_graph(60, 3, &mut rng).unwrap();
/// let churn = ChurnConfig::from_availability(1.0, 30.0);
/// let mut sim = Simulation::new(trust, OverlayConfig::default(), churn, 1)?;
/// sim.run_until(20.0);
///
/// let mut session = EpidemicSession::new(BroadcastConfig::default(), 1);
/// let msg = session.publish(&sim, 0).unwrap();
/// session.advance(&mut sim, 35.0);
/// assert!(session.delivery_ratio(msg) > 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EpidemicSession {
    cfg: BroadcastConfig,
    nodes: Vec<AppState>,
    next_message_id: u64,
    rng: StdRng,
    messages_sent: u64,
}

impl EpidemicSession {
    /// Creates an idle session.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero fanout, rounds or
    /// round length).
    pub fn new(cfg: BroadcastConfig, seed: u64) -> Self {
        assert!(cfg.push_fanout > 0, "fanout must be positive");
        assert!(cfg.push_rounds > 0, "push rounds must be positive");
        assert!(cfg.round_length > 0.0, "round length must be positive");
        Self {
            cfg,
            nodes: Vec::new(),
            next_message_id: 0,
            rng: derive_rng(seed, Stream::Workload(0xB0)),
            messages_sent: 0,
        }
    }

    fn ensure_sized(&mut self, sim: &Simulation) {
        if self.nodes.len() != sim.node_count() {
            self.nodes = (0..sim.node_count())
                .map(|v| AppState {
                    was_online: sim.is_online(v),
                    ..AppState::default()
                })
                .collect();
        }
    }

    /// Publishes a new message at `publisher`. Returns `None` if the
    /// publisher is offline (nothing to say into the void).
    pub fn publish(&mut self, sim: &Simulation, publisher: usize) -> Option<MessageId> {
        self.ensure_sized(sim);
        if !sim.is_online(publisher) {
            return None;
        }
        let id = MessageId(self.next_message_id);
        self.next_message_id += 1;
        let now = sim.now().as_f64();
        let state = &mut self.nodes[publisher];
        state.inbox.insert(id, Delivery { time: now, hops: 0 });
        state.active.insert(id, self.cfg.push_rounds);
        sim.recorder()
            .event(now, Some(publisher as u32), || Obs::BroadcastPublish {
                message: id.0,
            });
        Some(id)
    }

    /// Advances the simulation to `until`, running one application round
    /// every `round_length` periods. A horizon at or before the current
    /// simulation time is a no-op (no rounds run).
    pub fn advance(&mut self, sim: &mut Simulation, until: f64) {
        self.ensure_sized(sim);
        let _span = sim
            .recorder()
            .span_with("broadcast.advance", || format!("until={until}"));
        let mut t = sim.now().as_f64();
        while t < until {
            t = (t + self.cfg.round_length).min(until);
            sim.run_until(t);
            self.round(sim);
        }
    }

    /// One application round: epidemic pushes, then anti-entropy pulls for
    /// nodes that came back online since the previous round.
    fn round(&mut self, sim: &Simulation) {
        let _span = sim.recorder().span("broadcast.round");
        let now = sim.now();
        let n = sim.node_count();
        // Pushes: collect transfers first so state mutations don't alias.
        let mut transfers: Vec<(usize, MessageId, Delivery)> = Vec::new();
        for v in 0..n {
            if !sim.is_online(v) || self.nodes[v].active.is_empty() {
                continue;
            }
            let online_links: Vec<usize> = sim
                .node(v)
                .links(sim.arena_of(v), now)
                .into_iter()
                .map(|l| l.resolve() as usize)
                .filter(|&w| sim.is_online(w))
                .collect();
            if online_links.is_empty() {
                continue;
            }
            let actives: Vec<MessageId> = self.nodes[v].active.keys().copied().collect();
            for id in actives {
                let delivery = self.nodes[v].inbox[&id];
                for _ in 0..self.cfg.push_fanout {
                    let &target = online_links
                        .choose(&mut self.rng)
                        .expect("non-empty link list");
                    self.messages_sent += 1;
                    transfers.push((
                        target,
                        id,
                        Delivery {
                            time: now.as_f64(),
                            hops: delivery.hops + 1,
                        },
                    ));
                }
                let rounds = self.nodes[v]
                    .active
                    .get_mut(&id)
                    .expect("active entry exists");
                *rounds -= 1;
                if *rounds == 0 {
                    self.nodes[v].active.remove(&id);
                }
            }
        }
        for (target, id, delivery) in transfers {
            self.deliver(sim.recorder(), target, id, delivery);
        }
        // Anti-entropy pulls by rejoining nodes.
        if self.cfg.pull_on_rejoin {
            for v in 0..n {
                let online = sim.is_online(v);
                let rejoined = online && !self.nodes[v].was_online;
                self.nodes[v].was_online = online;
                if !rejoined {
                    continue;
                }
                let peers: Vec<usize> = sim
                    .node(v)
                    .links(sim.arena_of(v), now)
                    .into_iter()
                    .map(|l: LinkTarget| l.resolve() as usize)
                    .filter(|&w| sim.is_online(w))
                    .collect();
                let Some(&peer) = peers.choose(&mut self.rng) else {
                    continue;
                };
                // Pull everything the peer has that we lack.
                let missing: Vec<(MessageId, Delivery)> = self.nodes[peer]
                    .inbox
                    .iter()
                    .filter(|(id, _)| !self.nodes[v].inbox.contains_key(id))
                    .map(|(&id, d)| {
                        (
                            id,
                            Delivery {
                                time: now.as_f64(),
                                hops: d.hops + 1,
                            },
                        )
                    })
                    .collect();
                self.messages_sent += missing.len() as u64;
                for (id, d) in missing {
                    self.deliver(sim.recorder(), v, id, d);
                }
            }
        } else {
            for v in 0..n {
                self.nodes[v].was_online = sim.is_online(v);
            }
        }
    }

    fn deliver(&mut self, recorder: &Recorder, v: usize, id: MessageId, delivery: Delivery) {
        let state = &mut self.nodes[v];
        if state.inbox.contains_key(&id) {
            return;
        }
        state.inbox.insert(id, delivery);
        state.active.insert(id, self.cfg.push_rounds);
        recorder.event(delivery.time, Some(v as u32), || Obs::BroadcastDeliver {
            message: id.0,
            hops: u64::from(delivery.hops),
        });
        recorder.observe("broadcast.hops", delivery.hops as usize);
    }

    /// Fraction of all nodes (online or not) that have received `id`.
    pub fn delivery_ratio(&self, id: MessageId) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let got = self
            .nodes
            .iter()
            .filter(|s| s.inbox.contains_key(&id))
            .count();
        got as f64 / self.nodes.len() as f64
    }

    /// Total application messages sent so far (pushes + pulled copies).
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Number of messages published so far.
    pub fn published(&self) -> usize {
        self.next_message_id as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OverlayConfig;
    use veil_graph::generators;
    use veil_sim::churn::ChurnConfig;

    fn sim(alpha: f64, seed: u64) -> Simulation {
        let mut rng = derive_rng(seed, Stream::Topology);
        let trust = generators::social_graph(60, 3, &mut rng).unwrap();
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
    fn broadcast_reaches_everyone_without_churn() {
        let mut s = sim(1.0, 1);
        s.run_until(20.0);
        let mut session = EpidemicSession::new(BroadcastConfig::default(), 1);
        let msg = session.publish(&s, 0).unwrap();
        session.advance(&mut s, 40.0);
        assert_eq!(session.delivery_ratio(msg), 1.0);
        let published_at = session.nodes[0].inbox[&msg].time;
        assert!(session
            .nodes
            .iter()
            .all(|s| s.inbox[&msg].time >= published_at));
    }

    #[test]
    fn offline_publisher_cannot_publish() {
        let mut s = sim(0.3, 2);
        s.run_until(20.0);
        let offline = (0..s.node_count()).find(|&v| !s.is_online(v)).unwrap();
        let mut session = EpidemicSession::new(BroadcastConfig::default(), 2);
        assert!(session.publish(&s, offline).is_none());
        assert_eq!(session.published(), 0);
    }

    #[test]
    fn rejoining_nodes_catch_up_via_pull() {
        let mut s = sim(0.5, 3);
        s.run_until(30.0);
        let mut session = EpidemicSession::new(BroadcastConfig::default(), 3);
        let publisher = (0..s.node_count()).find(|&v| s.is_online(v)).unwrap();
        let msg = session.publish(&s, publisher).unwrap();
        // Long horizon: every node cycles online at least once (mean
        // offline time 10sp) and pulls what it missed.
        session.advance(&mut s, 130.0);
        assert!(
            session.delivery_ratio(msg) > 0.95,
            "store-and-forward should reach ~everyone eventually: {}",
            session.delivery_ratio(msg)
        );
    }

    #[test]
    fn pull_disabled_leaves_stragglers() {
        let run = |pull: bool, seed: u64| {
            let mut s = sim(0.4, seed);
            s.run_until(30.0);
            let cfg = BroadcastConfig {
                pull_on_rejoin: pull,
                ..BroadcastConfig::default()
            };
            let mut session = EpidemicSession::new(cfg, seed);
            let publisher = (0..s.node_count()).find(|&v| s.is_online(v)).unwrap();
            let msg = session.publish(&s, publisher).unwrap();
            session.advance(&mut s, 80.0);
            session.delivery_ratio(msg)
        };
        // Averaged over a few seeds to avoid single-run noise.
        let with_pull: f64 = (0..3).map(|i| run(true, 10 + i)).sum::<f64>() / 3.0;
        let without: f64 = (0..3).map(|i| run(false, 10 + i)).sum::<f64>() / 3.0;
        assert!(
            with_pull >= without,
            "anti-entropy must not hurt: {with_pull} vs {without}"
        );
    }

    #[test]
    fn multiple_messages_are_tracked_independently() {
        let mut s = sim(1.0, 4);
        s.run_until(20.0);
        // Generous fanout/rounds: with no churn there are no catch-up
        // pulls, so full coverage must come from the push phase alone.
        let cfg = BroadcastConfig {
            push_fanout: 4,
            push_rounds: 6,
            ..BroadcastConfig::default()
        };
        let mut session = EpidemicSession::new(cfg, 4);
        let a = session.publish(&s, 0).unwrap();
        session.advance(&mut s, 30.0);
        let b = session.publish(&s, 1).unwrap();
        assert_ne!(a, b);
        assert_eq!(session.delivery_ratio(a), 1.0);
        assert!(session.delivery_ratio(b) < 1.0, "b was just published");
        session.advance(&mut s, 45.0);
        assert_eq!(session.delivery_ratio(b), 1.0);
        assert_eq!(session.published(), 2);
    }

    #[test]
    fn message_cost_is_bounded_by_fanout_and_rounds() {
        let mut s = sim(1.0, 5);
        s.run_until(20.0);
        let cfg = BroadcastConfig {
            push_fanout: 2,
            push_rounds: 2,
            ..BroadcastConfig::default()
        };
        let mut session = EpidemicSession::new(cfg, 5);
        session.publish(&s, 0).unwrap();
        session.advance(&mut s, 60.0);
        // Each node pushes each message at most fanout * rounds times.
        let bound = (s.node_count() as u64) * 2 * 2;
        assert!(
            session.messages_sent() <= bound,
            "cost {} exceeds bound {bound}",
            session.messages_sent()
        );
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn rejects_zero_fanout() {
        EpidemicSession::new(
            BroadcastConfig {
                push_fanout: 0,
                ..BroadcastConfig::default()
            },
            1,
        );
    }

    #[test]
    fn delivery_ratio_of_unknown_message_is_zero() {
        let session = EpidemicSession::new(BroadcastConfig::default(), 6);
        assert_eq!(session.delivery_ratio(MessageId(999)), 0.0);
    }
}
