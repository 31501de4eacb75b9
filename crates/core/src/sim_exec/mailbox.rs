//! Cross-shard mail: the window grid and canonical merge orders.
//!
//! The sharded executor advances all shards through bounded time windows
//! `[k·W, (k+1)·W)` on a global grid. Within a window a shard only pops its
//! own events; anything one node sends to another — even a same-shard
//! neighbour — is buffered as an [`OutMsg`] and injected at the window
//! barrier. Quantizing every delivery to *at least* the next grid boundary
//! is what gives the windows their lookahead: nothing sent inside window
//! `k` can need processing before window `k + 1` begins, so shards never
//! have to peek at each other mid-window.
//!
//! Determinism across shard counts hangs on two facts:
//!
//! 1. The merge order `(deliver_at, src, seq)` is a pure function of the
//!    sending node's history — `seq` counts the node's own sends — so it
//!    does not depend on which shard ran the sender.
//! 2. [`veil_sim::engine::Engine`] pops equal-time events in insertion
//!    (FIFO) order, so injecting the sorted batch fixes the intra-window
//!    interleaving identically for every layout.

use veil_sim::SimTime;

use super::{Event, MessageRecord};

/// Width of the execution window in shuffle periods. `0.5` is exact in
/// binary floating point, divides the shuffle period (1.0) and the default
/// health window (5.0), and keeps the quantization latency it adds to
/// cross-node messages below half a period.
pub(crate) const WINDOW: f64 = 0.5;

/// The first grid boundary strictly after `t`.
pub(crate) fn next_boundary(t: SimTime) -> SimTime {
    let k = (t.as_f64() / WINDOW).floor();
    let mut b = (k + 1.0) * WINDOW;
    if b <= t.as_f64() {
        // Guard against floor() landing on the boundary itself for values
        // like t = k·W exactly.
        b = (k + 2.0) * WINDOW;
    }
    SimTime::new(b)
}

/// One cross-node message buffered during a window, delivered at the next
/// barrier into the destination shard's engine.
#[derive(Debug)]
pub(crate) struct OutMsg {
    /// Delivery instant: `max(send_time + latency, next_boundary(send))`.
    pub deliver_at: SimTime,
    /// Sending node (part of the canonical merge key).
    pub src: u32,
    /// The sender's own send counter (part of the canonical merge key).
    pub seq: u64,
    /// Destination node; the barrier routes to its owner shard.
    pub dest: u32,
    /// The event to schedule at `deliver_at`.
    pub event: Event,
}

/// Sorts a barrier batch into the canonical `(deliver_at, src, seq)`
/// injection order.
pub(crate) fn sort_canonical(msgs: &mut [OutMsg]) {
    msgs.sort_by(|a, b| {
        a.deliver_at
            .cmp(&b.deliver_at)
            .then_with(|| a.src.cmp(&b.src))
            .then_with(|| a.seq.cmp(&b.seq))
    });
}

/// Sorts one window's worth of message-log records into a canonical order
/// (send time, then endpoints, then kind) so the merged log is invariant
/// in the shard layout.
pub(crate) fn sort_records(records: &mut [MessageRecord]) {
    records.sort_by(|a, b| {
        a.time
            .cmp(&b.time)
            .then_with(|| a.from.cmp(&b.from))
            .then_with(|| a.to.cmp(&b.to))
            .then_with(|| a.kind.rank().cmp(&b.kind.rank()))
            .then_with(|| a.trusted_link.cmp(&b.trusted_link))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_boundary_is_strictly_ahead_and_on_grid() {
        for &t in &[0.0, 0.1, 0.25, 0.4999, 0.5, 0.75, 1.0, 17.5, 1e6] {
            let b = next_boundary(SimTime::new(t)).as_f64();
            assert!(b > t, "boundary {b} not after {t}");
            assert_eq!(
                b / WINDOW,
                (b / WINDOW).floor(),
                "boundary {b} off the grid"
            );
            assert!(
                b - t <= WINDOW + 1e-12,
                "boundary {b} skips a window from {t}"
            );
        }
    }

    #[test]
    fn canonical_sort_orders_by_time_then_sender_then_seq() {
        let msg = |t: f64, src: u32, seq: u64| OutMsg {
            deliver_at: SimTime::new(t),
            src,
            seq,
            dest: 0,
            event: Event::Shuffle(0),
        };
        let mut batch = vec![
            msg(1.0, 2, 0),
            msg(0.5, 9, 3),
            msg(1.0, 1, 5),
            msg(1.0, 1, 2),
        ];
        sort_canonical(&mut batch);
        let keys: Vec<_> = batch
            .iter()
            .map(|m| (m.deliver_at.as_f64(), m.src, m.seq))
            .collect();
        assert_eq!(
            keys,
            vec![(0.5, 9, 3), (1.0, 1, 2), (1.0, 1, 5), (1.0, 2, 0)]
        );
    }
}
