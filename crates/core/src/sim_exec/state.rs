//! Per-node state cells, the node lifecycle, and shard partitioning.
//!
//! All per-node simulation state lives in one [`NodeCell`] so the executor
//! can hand each shard a contiguous `&mut [NodeCell]` slice with a single
//! `split_at_mut` chain.
//!
//! Every lifecycle transition — shuffle-tick preamble, churn flip, rejoin,
//! depart, blackout begin and end — is a [`NodeCell`] method that mutates
//! only the cell and *returns* what happened (events in emission order,
//! the delay to the next churn transition); the shard adds a few lines of
//! glue that emit and schedule through its own sink and engine.

use crate::config::{LifetimePolicy, OverlayConfig};
use crate::health::{HealthMonitor, WindowAlert};
use crate::node::Node;
use crate::pseudonym::PseudonymService;
use rand::rngs::StdRng;
use veil_obs::{EventKind as Obs, Recorder};
use veil_sim::churn::{ChurnProcess, NodeState};
use veil_sim::SimTime;

/// What a churn flip or a blackout's end did to a node.
pub(crate) struct Transition {
    /// Delay until the node's next natural churn transition, if any.
    pub next_churn: Option<f64>,
    /// Observability events, in emission order.
    pub events: [Option<Obs>; 4],
}

/// What a shuffle timer tick did before any exchange starts.
pub(crate) struct Tick {
    /// Observability events, in emission order.
    pub events: [Option<Obs>; 2],
    /// Whether the node goes on to initiate a shuffle this round.
    pub initiate: bool,
}

/// Everything the simulation tracks about one node, grouped so a shard can
/// own a contiguous slice of nodes exclusively.
pub(crate) struct NodeCell {
    /// Protocol state (cache, sampler, own pseudonyms, stats).
    pub node: Node,
    /// The node's churn process.
    pub churn: ChurnProcess,
    /// Start of the current online session, if online.
    pub online_since: Option<SimTime>,
    /// Start of the current offline period, if offline.
    pub offline_since: Option<SimTime>,
    /// Generation stamp invalidating superseded churn/blackout events.
    pub churn_generation: u32,
    /// EWMA of observed offline durations (adaptive lifetime policy).
    pub ewma_offline: Option<f64>,
    /// Consecutive shuffle ticks without sampler activity.
    pub stable_ticks: u32,
    /// Sampler activity counter at the last shuffle tick.
    pub last_sampler_activity: u64,
    /// Protocol randomness (offer building, link picking).
    pub proto_rng: StdRng,
    /// Churn residence-time randomness.
    pub churn_rng: StdRng,
    /// Until when the node is held dark by an injected blackout.
    pub blackout_until: Option<SimTime>,
    /// Remaining shuffle initiations to skip (the remediation engine's
    /// eviction-storm backoff); decays by one per skipped shuffle.
    pub shuffle_backoff: u32,
    /// Per-source sequence number of outbox messages; part of the canonical
    /// `(deliver_at, src, seq)` merge key.
    pub outbox_seq: u64,
}

impl NodeCell {
    /// A fresh cell for a node whose churn process starts in `churn`'s
    /// initial state at time zero.
    pub(crate) fn new(
        node: Node,
        churn: ChurnProcess,
        proto_rng: StdRng,
        churn_rng: StdRng,
    ) -> Self {
        let online = churn.is_online();
        Self {
            node,
            churn,
            online_since: online.then_some(SimTime::ZERO),
            offline_since: (!online).then_some(SimTime::ZERO),
            churn_generation: 0,
            ewma_offline: None,
            stable_ticks: 0,
            last_sampler_activity: 0,
            proto_rng,
            churn_rng,
            blackout_until: None,
            shuffle_backoff: 0,
            outbox_seq: 0,
        }
    }

    /// The preamble of a shuffle timer tick: an offline node skips the
    /// round; an online one lazily renews its expired pseudonym, purges
    /// expired state, then sits the round out if its link set has been
    /// stable for `stop_after_stable_periods` ticks (it still responds,
    /// and any change re-arms it) or remediation put it in backoff.
    pub(crate) fn shuffle_tick(
        &mut self,
        cfg: &OverlayConfig,
        minter: &mut PseudonymService,
        now: SimTime,
    ) -> Tick {
        let mut tick = Tick {
            events: [None, None],
            initiate: false,
        };
        if !self.churn.is_online() {
            return tick;
        }
        tick.events[0] = self.renew_if_needed(cfg, minter, now);
        tick.events[1] = self.purge(now);
        let activity = self.node.sampler.additions() + self.node.sampler.removals();
        if activity == self.last_sampler_activity {
            self.stable_ticks = self.stable_ticks.saturating_add(1);
        } else {
            self.stable_ticks = 0;
        }
        self.last_sampler_activity = activity;
        let stable = cfg
            .stop_after_stable_periods
            .is_some_and(|k| self.stable_ticks >= k);
        if stable {
            self.node.stats.shuffles_suppressed += 1;
        } else if self.shuffle_backoff > 0 {
            // Remediation backoff decays by one per round sat out.
            self.shuffle_backoff -= 1;
            self.node.stats.shuffles_suppressed += 1;
        } else {
            tick.initiate = true;
        }
        tick
    }

    /// A natural churn transition fires. `None` when `generation` was
    /// superseded by a blackout.
    pub(crate) fn churn_flip(
        &mut self,
        cfg: &OverlayConfig,
        minter: &mut PseudonymService,
        now: SimTime,
        generation: u32,
    ) -> Option<Transition> {
        if generation != self.churn_generation {
            return None;
        }
        let next_churn = self.churn.transition(&mut self.churn_rng);
        let events = if self.churn.is_online() {
            self.rejoin(cfg, minter, now, None)
        } else {
            [Some(self.depart(now)), None, None, None]
        };
        Some(Transition { next_churn, events })
    }

    /// Forces the node dark until `until`; the caller schedules the wake
    /// under the bumped `churn_generation` (which also cancels any pending
    /// natural transition). `None` when the node is already dark at least
    /// that long: the pending wake stands.
    pub(crate) fn begin_blackout(
        &mut self,
        now: SimTime,
        until: SimTime,
    ) -> Option<[Option<Obs>; 2]> {
        if self
            .blackout_until
            .is_some_and(|existing| existing >= until)
        {
            return None;
        }
        self.blackout_until = Some(until);
        self.churn_generation = self.churn_generation.wrapping_add(1);
        let departed = self.churn.is_online().then(|| self.depart(now));
        // The residence sample is discarded: the blackout's end is forced.
        let _ = self
            .churn
            .force_state(NodeState::Offline, &mut self.churn_rng);
        Some([
            Some(Obs::BlackoutStart {
                until: until.as_f64(),
            }),
            departed,
        ])
    }

    /// The blackout stamped `generation` ends and the node reconnects.
    /// `None` when a newer blackout superseded it.
    pub(crate) fn end_blackout(
        &mut self,
        cfg: &OverlayConfig,
        minter: &mut PseudonymService,
        now: SimTime,
        generation: u32,
    ) -> Option<Transition> {
        if generation != self.churn_generation {
            return None;
        }
        self.blackout_until = None;
        let next_churn = self
            .churn
            .force_state(NodeState::Online, &mut self.churn_rng);
        let events = self.rejoin(cfg, minter, now, Some(Obs::BlackoutEnd));
        Some(Transition { next_churn, events })
    }

    /// Bookkeeping for coming online: session tracking, the adaptive
    /// lifetime policy's offline-duration observation (EWMA, weight 0.2 on
    /// the new one), re-armed shuffling, expired-state purge and pseudonym
    /// renewal. `cause` (a blackout's end) is emitted first.
    fn rejoin(
        &mut self,
        cfg: &OverlayConfig,
        minter: &mut PseudonymService,
        now: SimTime,
        cause: Option<Obs>,
    ) -> [Option<Obs>; 4] {
        self.online_since = Some(now);
        if let Some(since) = self.offline_since.take() {
            let duration = now.since(since);
            self.ewma_offline = Some(match self.ewma_offline {
                Some(prev) => 0.8 * prev + 0.2 * duration,
                None => duration,
            });
        }
        self.stable_ticks = 0;
        let expired = self.purge(now);
        let minted = self.renew_if_needed(cfg, minter, now);
        [cause, Some(Obs::NodeOnline), expired, minted]
    }

    /// Bookkeeping for going offline: closes the online session.
    fn depart(&mut self, now: SimTime) -> Obs {
        self.offline_since = Some(now);
        if let Some(since) = self.online_since.take() {
            self.node.stats.online_time += now.since(since);
        }
        Obs::NodeOffline
    }

    fn purge(&mut self, now: SimTime) -> Option<Obs> {
        let purged = self.node.purge_expired(now);
        (purged > 0).then_some(Obs::PseudonymsExpired {
            count: purged as u64,
        })
    }

    fn renew_if_needed(
        &mut self,
        cfg: &OverlayConfig,
        minter: &mut PseudonymService,
        now: SimTime,
    ) -> Option<Obs> {
        if !self.node.needs_pseudonym(now) {
            return None;
        }
        let lifetime = lifetime_for(cfg, self);
        self.node.renew_pseudonym(minter, now, lifetime);
        Some(Obs::PseudonymMinted { lifetime })
    }
}

/// The topology view a health rotation (and the remediation engine) reads:
/// per node, the online flag, the pseudonym-link count and the total
/// overlay degree. Reusable scratch — `fill` overwrites it in place.
#[derive(Default)]
pub(crate) struct HealthView {
    pub online: Vec<bool>,
    pseudonym_degrees: Vec<usize>,
    degrees: Vec<usize>,
}

impl HealthView {
    pub(crate) fn fill(&mut self, cells: &[NodeCell], trust: &veil_graph::Graph) {
        self.online.clear();
        self.online
            .extend(cells.iter().map(|c| c.churn.is_online()));
        self.pseudonym_degrees.clear();
        self.pseudonym_degrees
            .extend(cells.iter().map(|c| c.node.sampler.link_count()));
        self.degrees.clear();
        self.degrees.extend(
            self.pseudonym_degrees
                .iter()
                .enumerate()
                .map(|(v, p)| trust.neighbors(v).len() + p),
        );
    }

    /// Closes the monitor's elapsed window(s) against this view, recording
    /// into `recorder`.
    pub(crate) fn rotate(
        &self,
        h: &mut HealthMonitor,
        recorder: &Recorder,
        t: f64,
    ) -> Vec<WindowAlert> {
        h.rotate(
            recorder,
            t,
            &self.online,
            &self.degrees,
            &self.pseudonym_degrees,
        )
    }

    pub(crate) fn capacity_bytes(&self) -> usize {
        self.online.capacity()
            + (self.pseudonym_degrees.capacity() + self.degrees.capacity())
                * std::mem::size_of::<usize>()
    }
}

/// Boundaries of `s` contiguous, balanced node ranges over `n` nodes:
/// shard `i` owns `[starts[i], starts[i + 1])`. The returned vector has
/// `s + 1` entries with `starts[0] == 0` and `starts[s] == n`.
pub(crate) fn shard_starts(n: usize, s: usize) -> Vec<usize> {
    assert!(s >= 1 && s <= n, "shard count must be in 1..=n");
    (0..=s).map(|i| i * n / s).collect()
}

/// Owner shard of every node under [`shard_starts`] partitioning.
pub(crate) fn owner_of(n: usize, starts: &[usize]) -> Vec<u32> {
    let mut owner = vec![0u32; n];
    for (i, w) in starts.windows(2).enumerate() {
        for o in &mut owner[w[0]..w[1]] {
            *o = i as u32;
        }
    }
    owner
}

/// The lifetime node `cell` would give a pseudonym minted right now, per
/// the configured [`LifetimePolicy`].
fn lifetime_for(cfg: &OverlayConfig, cell: &NodeCell) -> Option<f64> {
    match cfg.lifetime_policy {
        LifetimePolicy::Global => cfg.pseudonym_lifetime,
        LifetimePolicy::Adaptive { multiplier, floor } => match cell.ewma_offline {
            Some(mean) => Some((multiplier * mean).max(floor)),
            None => cfg.pseudonym_lifetime,
        },
    }
}
