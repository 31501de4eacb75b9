//! The discrete-event execution core behind [`crate::simulation`].
//!
//! [`crate::simulation::Simulation`] is a thin facade; the machinery lives
//! here:
//!
//! - [`state`] — the per-node state cell ([`state::NodeCell`]) with the
//!   node lifecycle (shuffle-tick preamble, churn, rejoin/depart,
//!   blackouts) as effect-returning methods, plus the contiguous
//!   node-range partitioning.
//! - [`mailbox`] — the cross-shard mail primitives: the window grid, the
//!   canonical `(deliver_at, src, seq)` merge order and the message-log
//!   order.
//! - [`shard`] — one shard of the executor: a per-shard
//!   [`veil_sim::engine::Engine`] over a contiguous slice of node cells,
//!   the one event dispatch, and the two link regimes' shuffle initiation
//!   (ideal, in flight), the second driving the exchange core of
//!   [`crate::protocol`].
//! - [`executor`] — the windowed runtime: partitions nodes over S shards,
//!   runs them in bounded time windows (on `veil-par` worker threads when
//!   S > 1), and merges cross-shard traffic, trace events and remediation
//!   at a deterministic barrier.
//!
//! There is one executor; the link regime only picks the initiation
//! handler. A fault model — loss, any latency, episodes — puts messages in
//! flight, on `shards.unwrap_or(1)` shards, with a delivery schedule
//! (`deliver_at = max(send + latency, next 0.5-period boundary)`)
//! invariant in the shard count. The paper's ideal zero-latency link
//! exchanges synchronously across two cells, so it runs the same window
//! loop on one shard.

pub(crate) mod executor;
pub(crate) mod mailbox;
pub(crate) mod shard;
pub(crate) mod shard_lifecycle;
pub(crate) mod state;
#[cfg(test)]
mod tests;
#[cfg(test)]
mod tests_faults;
#[cfg(test)]
mod tests_shard;

use crate::health::HealthMonitor;
use serde::{Deserialize, Serialize};
use veil_obs::{EventKind as Obs, Recorder};
use veil_sim::SimTime;

/// Events driving the overlay simulation. The ideal zero-latency link only
/// ever schedules the first three; the rest need messages in flight.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Event {
    /// A node's shuffle timer fired.
    Shuffle(u32),
    /// A node's churn process transitions (online ↔ offline). Stale
    /// generations (superseded by failure injection) are ignored.
    Churn {
        /// The transitioning node.
        node: u32,
        /// Generation stamp; must match the node's current generation.
        generation: u32,
    },
    /// An injected blackout ends and the node reconnects.
    BlackoutEnd {
        /// The recovering node.
        node: u32,
        /// Generation stamp of the blackout.
        generation: u32,
    },
    /// A shuffle request arrives after its link latency.
    DeliverRequest(Box<Delivery>),
    /// A shuffle response arrives after its link latency.
    DeliverResponse(Box<Delivery>),
    /// A tracked exchange hit its timeout without a response.
    ShuffleTimeout {
        /// The exchange the timeout guards.
        exchange: u64,
    },
    /// A scripted fault episode with a simulation-side effect begins.
    EpisodeStart(u32),
}

impl Event {
    /// Heap bytes a queued event owns: a delivery's box and its offer.
    pub(crate) fn delivery_heap_bytes(&self) -> usize {
        match self {
            Event::DeliverRequest(d) | Event::DeliverResponse(d) => {
                std::mem::size_of::<Delivery>()
                    + d.offer.capacity() * std::mem::size_of::<crate::pseudonym::Pseudonym>()
            }
            _ => 0,
        }
    }
}

/// An in-flight shuffle message of the windowed executor.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Delivery {
    pub(crate) from: u32,
    pub(crate) to: u32,
    pub(crate) offer: Vec<crate::pseudonym::Pseudonym>,
    pub(crate) trusted_link: bool,
    /// The tracked exchange this message belongs to.
    pub(crate) exchange: u64,
    /// Which transmission attempt carried this message; keys the
    /// responder's per-message RNG so duplicate answers to retransmitted
    /// requests draw independent, layout-invariant randomness.
    pub(crate) attempt: u32,
}

/// Classification of a logged protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MessageKind {
    /// A shuffle request from the initiator.
    Request,
    /// The matching shuffle response.
    Response,
    /// A message that was never delivered: the peer was offline (only
    /// occurs with `skip_offline_peers = false`), or the fault-injecting
    /// link layer dropped it.
    Dropped,
}

impl MessageKind {
    /// Stable rank used by the sharded executor's canonical log order.
    pub(crate) fn rank(self) -> u8 {
        match self {
            MessageKind::Request => 0,
            MessageKind::Response => 1,
            MessageKind::Dropped => 2,
        }
    }
}

/// One protocol message, as an external observer positioned on the
/// communication infrastructure would record it (endpoints and timing; the
/// payload is encrypted). Used by the traffic-analysis experiments in
/// `veil-privacy`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MessageRecord {
    /// Send instant.
    pub time: SimTime,
    /// Sending node.
    pub from: u32,
    /// Receiving node (the pseudonym service's resolution; an observer sees
    /// only the anonymity-service entry point, but ground truth is logged
    /// for evaluating inference attacks).
    pub to: u32,
    /// Request or response.
    pub kind: MessageKind,
    /// Whether the message travelled over a trusted link.
    pub trusted_link: bool,
}

/// The one emission funnel: builds the payload once, feeds the health
/// monitor, then records. The barrier sends every in-window event through
/// it (shards buffer them with `Shard::emit`), and so do the coordinator's
/// own events between windows — the t = 0 start-up mints and manual
/// blackouts. The monitor observes even when recording is off — untraced
/// runs must monitor (and heal) exactly like traced ones; with neither
/// consumer present this stays a single branch.
pub(crate) fn record(
    recorder: &Recorder,
    health: &mut Option<HealthMonitor>,
    t: f64,
    node: Option<u32>,
    kind: impl FnOnce() -> Obs,
) {
    if health.is_none() && !recorder.is_enabled() {
        return;
    }
    let kind = kind();
    if let Some(h) = health {
        h.observe(t, node, &kind);
    }
    recorder.event(t, node, move || kind);
}

/// Mutable references to two distinct slice elements.
pub(crate) fn two_mut<T>(v: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    assert_ne!(a, b, "indices must differ");
    if a < b {
        let (left, right) = v.split_at_mut(b);
        (&mut left[a], &mut right[0])
    } else {
        let (left, right) = v.split_at_mut(a);
        (&mut right[0], &mut left[b])
    }
}
