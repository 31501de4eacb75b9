//! The link-layer seam shared by the simulator and real transports.
//!
//! Every protocol message a node hands to the link layer has exactly one
//! of two fates: it is lost, or it arrives after some latency. The
//! [`Transport`] trait owns that decision, and nothing else — stats,
//! events and scheduling stay with the caller, so an implementation can
//! be swapped without touching protocol semantics.
//!
//! Two implementations exist:
//!
//! * [`MessageLink`] ([`MessageLink::for_message`]) — the windowed
//!   executor's link layer: the drop decision, then (for survivors) the
//!   latency sample, drawn from a per-message RNG keyed by `(seed,
//!   exchange, attempt, direction)`, so any shard count derives identical
//!   fates and no RNG state is shared between messages.
//! * `veil-net`'s socket layer — reuses [`MessageLink`] sender-side for
//!   drop injection over real sockets (latency there is supplied by the
//!   network itself, not the sample): a real process and the simulator
//!   oracle derive identical drops.
//!
//! The paper's ideal link needs neither: it never drops, draws no
//! randomness and delivers instantly, so nothing is ever submitted. Every
//! other link — a slow one that never drops included — is a
//! [`FaultConfig`] behind a [`MessageLink`].

use rand::rngs::StdRng;
use veil_sim::fault::FaultConfig;
use veil_sim::rng::derive_message_rng;

/// Fate of one protocol message submitted to a link layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SendOutcome {
    /// Lost on the wire; no delivery event will ever fire.
    Dropped,
    /// Arrives after `latency` shuffle periods (one-way).
    Delivered {
        /// One-way delivery latency in shuffle periods.
        latency: f64,
    },
}

impl SendOutcome {
    /// The latency when delivered, `None` when dropped.
    pub fn delivered(self) -> Option<f64> {
        match self {
            SendOutcome::Dropped => None,
            SendOutcome::Delivered { latency } => Some(latency),
        }
    }
}

/// A link layer: decides the fate of one message from `from` to `to`
/// submitted at time `now` (in shuffle periods).
///
/// Implementations may consume randomness; callers must therefore submit
/// messages in a deterministic order when reproducibility matters.
pub trait Transport {
    /// Submits one message and reports its fate.
    fn send(&mut self, from: u32, to: u32, now: f64) -> SendOutcome;
}

/// The windowed executor's stateless link layer: one owned RNG per
/// transmission, derived from `(master_seed, exchange, attempt,
/// response)` so every shard — and every shard count — computes the
/// identical fate for the identical message.
pub struct MessageLink<'a> {
    fault: &'a FaultConfig,
    rng: StdRng,
}

impl<'a> MessageLink<'a> {
    /// Builds the link layer for one transmission of one exchange.
    pub fn for_message(
        fault: &'a FaultConfig,
        master_seed: u64,
        exchange: u64,
        attempt: u32,
        response: bool,
    ) -> Self {
        Self {
            fault,
            rng: derive_message_rng(master_seed, exchange, attempt, response),
        }
    }
}

impl Transport for MessageLink<'_> {
    fn send(&mut self, from: u32, to: u32, now: f64) -> SendOutcome {
        if self.fault.is_dropped(from, to, now, &mut self.rng) {
            SendOutcome::Dropped
        } else {
            SendOutcome::Delivered {
                latency: self.fault.sample_latency(&mut self.rng),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veil_sim::fault::FaultConfig;

    #[test]
    fn message_link_is_stateless_per_transmission() {
        let fault = FaultConfig::with_loss(0.3);
        let a = MessageLink::for_message(&fault, 42, 9, 0, false).send(1, 2, 5.0);
        let b = MessageLink::for_message(&fault, 42, 9, 0, false).send(1, 2, 5.0);
        assert_eq!(a, b);
    }

    #[test]
    fn total_loss_always_drops() {
        let fault = FaultConfig::with_loss(1.0);
        for i in 0..20 {
            let mut link = MessageLink::for_message(&fault, 3, u64::from(i), 0, false);
            assert_eq!(link.send(i, i + 1, 0.5), SendOutcome::Dropped);
        }
    }
}
