//! One shard of the windowed executor.
//!
//! A shard owns a contiguous range of node cells and its own
//! [`veil_sim::engine::Engine`]. During a window it pops only its own
//! events; every cross-node message — request, response, even to a
//! same-shard neighbour — goes through the outbox and is injected at the
//! barrier, so a node's behaviour cannot depend on which shard runs it.
//!
//! The link regime picks one of two initiation handlers for a shuffle
//! tick; everything else — event dispatch, lifecycle glue, emission, the
//! message log — exists once:
//!
//! - **ideal** ([`Shard::begin_ideal`]): the paper's zero-latency link.
//!   Nothing is in flight, so the exchange runs to completion inside the
//!   tick, across two cells of the one shard such a run is forced onto.
//! - **in flight** ([`Shard::begin_exchange`]): a fault model — loss, any
//!   latency, episodes; tracked exchanges with timeout, retry and
//!   eviction. A slow link that never drops is the same exchange whose
//!   fate is always "delivered".
//!
//! A shard is a *driver* of the exchange core in [`crate::protocol`]: the
//! core decides what an exchange does next; the handlers here decide each
//! message's fate, schedule deliveries and timers, and keep the stats,
//! trace and message log. A link with messages in flight reports nothing
//! about its far end — a sender learns by silence — so a handler never
//! reads another node's churn state, and everything it does consult is
//! layout-invariant:
//!
//! - **Fault randomness** comes from a stateless per-message RNG
//!   ([`veil_sim::rng::derive_message_rng`]) keyed by `(exchange, attempt,
//!   direction)`.
//! - **Pseudonym ids** are a pure function of `(owner, per-owner count)`
//!   ([`PseudonymService`]).
//! - **Exchange ids** are a pure function of the initiator's own history
//!   ([`protocol::exchange_id`]).
//! - **Foreign stat credit** (the initiator's `dropped_requests` bump when
//!   a responder is found offline) is deferred to the barrier, and so is
//!   the `MessageDropped` traced under the initiator: every event a shard
//!   buffers belongs to a node it owns.

use crate::config::OverlayConfig;
use crate::protocol::{self, Exchanges, Request, ResponseOutcome, ShuffleScratch, TimeoutOutcome};
use crate::pseudonym::{PseudonymArena, PseudonymService};
use crate::transport::{MessageLink, Transport};
use veil_obs::{EventKind as Obs, TraceEvent};
use veil_sim::engine::Engine;
use veil_sim::fault::FaultConfig;
use veil_sim::SimTime;

use super::mailbox::{next_boundary, OutMsg};
use super::state::NodeCell;
use super::{two_mut, Delivery, Event, MessageKind, MessageRecord};

/// Read-only context shared by every shard during one window.
pub(crate) struct WindowCtx<'a> {
    pub cfg: &'a OverlayConfig,
    /// The fault model deciding each message's fate; `None` is the ideal
    /// link, which has nothing in flight.
    pub fault: Option<&'a FaultConfig>,
    pub master_seed: u64,
    /// Events strictly before `cap` run in this window.
    pub cap: SimTime,
    /// Whether protocol messages are logged this run.
    pub log_on: bool,
    /// Whether to buffer events for the barrier: a health monitor or a
    /// recorder is attached.
    pub buffer_events: bool,
}

/// A contiguous slice of the simulation: engine, pending exchanges and
/// pseudonym minter for the nodes `start..start + len`.
pub(crate) struct Shard {
    /// First node index this shard owns.
    pub start: usize,
    pub engine: Engine<Event>,
    /// In-flight exchanges initiated by this shard's nodes.
    pub exchanges: Exchanges,
    /// Pseudonym minter (ids are pure functions of the owner's mint count,
    /// so per-shard services agree with any other layout).
    pub minter: PseudonymService,
    /// Canonical pseudonym copies referenced by this shard's caches and
    /// samplers. An ideal exchange stays inside it, so its offers are
    /// handles; an in-flight message carries full
    /// [`crate::pseudonym::Pseudonym`] values, interned here on receipt, so
    /// no cross-shard synchronization ever touches the arena.
    pub arena: PseudonymArena,
    /// The ideal exchange's buffers, reused from one exchange to the next.
    /// A few kilobytes per shard, whatever its node count, so
    /// [`Shard::approx_heap_bytes`] leaves them out.
    scratch: ShuffleScratch,
    /// Cross-node messages buffered for the barrier merge.
    pub outbox: Vec<OutMsg>,
    /// Protocol messages logged this window (merged canonically at the
    /// barrier).
    pub log_buf: Vec<MessageRecord>,
    /// Events emitted this window, handed to the coordinator's monitor
    /// and recorder at the barrier.
    pub event_buf: Vec<TraceEvent>,
    /// Responder-side request drops, `(t, initiator, exchange)`: the
    /// barrier debits the (possibly foreign) initiator one
    /// `dropped_requests` and traces the drop under it.
    pub credits: Vec<(SimTime, u32, u64)>,
}

impl Shard {
    pub(crate) fn new(start: usize, len: usize, master_seed: u64) -> Self {
        Self {
            start,
            engine: Engine::new(),
            exchanges: Exchanges::default(),
            minter: PseudonymService::new_keyed_for_range(master_seed, start as u32, len),
            arena: PseudonymArena::new(),
            scratch: ShuffleScratch::default(),
            outbox: Vec::new(),
            log_buf: Vec::new(),
            event_buf: Vec::new(),
            credits: Vec::new(),
        }
    }

    /// Approximate heap footprint of this shard's runtime state in bytes:
    /// the event queue and the deliveries queued in it or in the outbox,
    /// pending exchanges, the pseudonym arena and the barrier buffers.
    /// Per-node protocol state is accounted by the cells.
    pub(crate) fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let queued = self
            .engine
            .events()
            .chain(self.outbox.iter().map(|m| &m.event));
        self.engine.approx_heap_bytes()
            + queued.map(Event::delivery_heap_bytes).sum::<usize>()
            + self.exchanges.approx_heap_bytes()
            + self.arena.approx_heap_bytes()
            + self.outbox.capacity() * size_of::<OutMsg>()
            + self.log_buf.capacity() * size_of::<MessageRecord>()
            + self.event_buf.capacity() * size_of::<TraceEvent>()
            + self.credits.capacity() * size_of::<(SimTime, u32, u64)>()
    }

    /// Drains this shard's events strictly before `ctx.cap`.
    pub(crate) fn run_window(&mut self, cells: &mut [NodeCell], ctx: &WindowCtx<'_>) {
        while let Some((now, event)) = self.engine.pop_before(ctx.cap) {
            self.handle(now, event, cells, ctx);
        }
    }

    fn handle(&mut self, now: SimTime, event: Event, cells: &mut [NodeCell], ctx: &WindowCtx<'_>) {
        match event {
            Event::Shuffle(v) => self.handle_shuffle(now, v as usize, cells, ctx),
            Event::Churn { node, generation } => {
                let cell = &mut cells[node as usize - self.start];
                let t = cell.churn_flip(ctx.cfg, &mut self.minter, now, generation);
                self.apply_transition(ctx, now, node, generation, t);
            }
            Event::BlackoutEnd { node, generation } => {
                let cell = &mut cells[node as usize - self.start];
                let t = cell.end_blackout(ctx.cfg, &mut self.minter, now, generation);
                self.apply_transition(ctx, now, node, generation, t);
            }
            Event::DeliverRequest(d) => self.handle_request_delivery(now, *d, cells, ctx),
            Event::DeliverResponse(d) => self.handle_response_delivery(now, *d, cells, ctx),
            Event::ShuffleTimeout { exchange } => {
                self.handle_shuffle_timeout(now, exchange, cells, ctx)
            }
            Event::EpisodeStart(idx) => self.handle_episode_start(now, idx as usize, cells, ctx),
        }
    }

    /// Buffers an observability event for the barrier, which feeds it to
    /// the health monitor and the recorder. The buffer fills whenever
    /// either is attached — untraced runs must monitor (and heal) exactly
    /// like traced ones. The capture metadata (`tid`, `seq`) is the
    /// recorder's to assign.
    pub(super) fn emit(
        &mut self,
        ctx: &WindowCtx<'_>,
        now: SimTime,
        node: Option<u32>,
        kind: impl FnOnce() -> Obs,
    ) {
        if ctx.buffer_events {
            self.event_buf.push(TraceEvent {
                t: now.as_f64(),
                tid: 0,
                seq: 0,
                node,
                kind: kind(),
            });
        }
    }

    /// Logs one protocol message sent at `now`, as `kind` if the link layer
    /// delivers it and as dropped otherwise.
    fn log(
        &mut self,
        ctx: &WindowCtx<'_>,
        now: SimTime,
        (from, to): (u32, u32),
        kind: MessageKind,
        delivered: bool,
        trusted_link: bool,
    ) {
        if ctx.log_on {
            self.log_buf.push(MessageRecord {
                time: now,
                from,
                to,
                kind: if delivered {
                    kind
                } else {
                    MessageKind::Dropped
                },
                trusted_link,
            });
        }
    }

    /// Buffers a cross-node message: delivery is quantized to at least the
    /// next window boundary so the receiving shard sees it only after the
    /// barrier, whatever the layout.
    fn send(
        &mut self,
        cell: &mut NodeCell,
        src: u32,
        now: SimTime,
        latency: f64,
        dest: u32,
        event: Event,
    ) {
        let deliver_at = (now + latency).max(next_boundary(now));
        let seq = cell.outbox_seq;
        cell.outbox_seq += 1;
        self.outbox.push(OutMsg {
            deliver_at,
            src,
            seq,
            dest,
            event,
        });
    }

    fn handle_shuffle(
        &mut self,
        now: SimTime,
        v: usize,
        cells: &mut [NodeCell],
        ctx: &WindowCtx<'_>,
    ) {
        // The timer always re-arms; offline nodes simply skip the round.
        self.engine.schedule_at(now + 1.0, Event::Shuffle(v as u32));
        let cell = &mut cells[v - self.start];
        let tick = cell.shuffle_tick(ctx.cfg, &mut self.minter, now);
        for kind in tick.events.into_iter().flatten() {
            self.emit(ctx, now, Some(v as u32), || kind);
        }
        if !tick.initiate {
            return;
        }
        match ctx.fault {
            Some(fault) => self.begin_exchange(now, v as u32, fault, cell, ctx),
            None => self.begin_ideal(now, v, cells, ctx),
        }
    }

    /// Runs a whole shuffle over the ideal zero-latency link, synchronously.
    /// The ideal link layer reports deliverability as of *now*, so the pick
    /// and the destination check read the peers' live churn state — which
    /// is why such a run owns every cell in one shard. By default
    /// (`skip_offline_peers`) the node shuffles with a uniformly random
    /// *online* link — this is what makes the paper's request/response
    /// count come out at exactly two messages per period.
    fn begin_ideal(&mut self, now: SimTime, v: usize, cells: &mut [NodeCell], ctx: &WindowCtx<'_>) {
        let mut rng = cells[v].proto_rng.clone();
        let accept = |u: u32| !ctx.cfg.skip_offline_peers || cells[u as usize].churn.is_online();
        let target = cells[v]
            .node
            .pick_link_where(&self.arena, now, &mut rng, accept);
        cells[v].proto_rng = rng;
        let Some(target) = target else {
            return;
        };
        let dest = target.resolve() as usize;
        debug_assert_ne!(dest, v, "nodes never link to themselves");
        let trusted_link = target.is_trusted();
        let ends = (v as u32, dest as u32);
        self.emit(ctx, now, Some(ends.0), || Obs::ShuffleStart {
            target: dest as u64,
            trusted: trusted_link,
        });
        let (initiator, responder) = two_mut(cells, v, dest);
        if !responder.churn.is_online() {
            // Request sent into the anonymity service but never delivered.
            initiator.node.stats.requests_sent += 1;
            initiator.node.stats.dropped_requests += 1;
            self.emit(ctx, now, Some(ends.0), || Obs::MessageDropped {
                exchange: 0,
                response: false,
            });
            self.log(ctx, now, ends, MessageKind::Request, false, trusted_link);
            return;
        }
        protocol::execute_shuffle(
            &mut initiator.node,
            &mut responder.node,
            &mut self.arena,
            ctx.cfg.shuffle_length,
            now,
            &mut initiator.proto_rng,
            &mut self.scratch,
        );
        self.emit(ctx, now, Some(ends.0), || Obs::ShuffleComplete {
            exchange: 0,
        });
        self.log(ctx, now, ends, MessageKind::Request, true, trusted_link);
        let back = (ends.1, ends.0);
        self.log(ctx, now, back, MessageKind::Response, true, trusted_link);
    }

    /// Initiates a shuffle over a link with messages in flight: a uniform
    /// pick over *all* links (such a link cannot report deliverability, so
    /// there is no `skip_offline_peers` shortcut), then a tracked exchange
    /// whose request is guarded by a timeout.
    fn begin_exchange(
        &mut self,
        now: SimTime,
        v: u32,
        fault: &FaultConfig,
        cell: &mut NodeCell,
        ctx: &WindowCtx<'_>,
    ) {
        if fault.crashed(v, now.as_f64()) {
            return; // a silently crashed node initiates nothing
        }
        let Some(target) = cell.node.pick_link(&self.arena, now, &mut cell.proto_rng) else {
            return;
        };
        debug_assert_ne!(target.resolve(), v, "nodes never link to themselves");
        let request = self.exchanges.begin(
            &mut cell.node,
            &self.arena,
            target,
            ctx.cfg.shuffle_length,
            now,
            &mut cell.proto_rng,
        );
        self.emit(ctx, now, Some(v), || Obs::ShuffleStart {
            target: u64::from(request.dest),
            trusted: request.trusted_link,
        });
        self.transmit(now, v, request, fault, cell, ctx);
    }

    /// Submits one transmission of a tracked exchange's request to the
    /// link layer and arms its timeout.
    fn transmit(
        &mut self,
        now: SimTime,
        v: u32,
        request: Request,
        fault: &FaultConfig,
        cell: &mut NodeCell,
        ctx: &WindowCtx<'_>,
    ) {
        let (exchange, attempt, dest) = (request.exchange, request.attempt, request.dest);
        // One stateless link layer per transmission: drop decision, then
        // latency, from the per-message RNG (shard-count-invariant).
        let fate = MessageLink::for_message(fault, ctx.master_seed, exchange, attempt, false)
            .send(v, dest, now.as_f64())
            .delivered();
        cell.node.stats.requests_sent += 1;
        if fate.is_none() {
            cell.node.stats.dropped_requests += 1;
            self.emit(ctx, now, Some(v), || Obs::MessageDropped {
                exchange,
                response: false,
            });
        }
        let trusted_link = request.trusted_link;
        self.log(
            ctx,
            now,
            (v, dest),
            MessageKind::Request,
            fate.is_some(),
            trusted_link,
        );
        if let Some(latency) = fate {
            let event = Event::DeliverRequest(Box::new(Delivery {
                from: v,
                to: dest,
                offer: request.offer,
                trusted_link,
                exchange,
                attempt,
            }));
            self.send(cell, v, now, latency, dest, event);
        }
        self.engine.schedule_in(
            protocol::retry_backoff(ctx.cfg.shuffle_timeout, attempt),
            Event::ShuffleTimeout { exchange },
        );
    }

    fn handle_shuffle_timeout(
        &mut self,
        now: SimTime,
        exchange: u64,
        cells: &mut [NodeCell],
        ctx: &WindowCtx<'_>,
    ) {
        let Some(fault) = ctx.fault else {
            return; // only `transmit` arms timeouts, under a fault model
        };
        let v = protocol::exchange_initiator(exchange);
        let cell = &mut cells[v as usize - self.start];
        if !cell.churn.is_online() || fault.crashed(v, now.as_f64()) {
            // The initiator itself is gone; nobody is waiting any more.
            self.exchanges.abandon(exchange);
            return;
        }
        let budget = ctx.cfg.shuffle_retry_budget;
        match self
            .exchanges
            .on_timeout(exchange, &mut cell.node, &self.arena, budget)
        {
            TimeoutOutcome::Stale => {} // the response arrived in time
            TimeoutOutcome::Retry { request } => {
                let attempt = u64::from(request.attempt);
                self.emit(ctx, now, Some(v), || Obs::ShuffleTimeout {
                    exchange,
                    attempt: attempt - 1,
                });
                cell.node.stats.shuffle_retries += 1;
                self.emit(ctx, now, Some(v), || Obs::ShuffleRetry {
                    exchange,
                    attempt,
                });
                self.transmit(now, v, request, fault, cell, ctx);
            }
            TimeoutOutcome::Failed { attempt, evict } => {
                self.emit(ctx, now, Some(v), || Obs::ShuffleTimeout {
                    exchange,
                    attempt: u64::from(attempt),
                });
                cell.node.stats.shuffle_failures += 1;
                self.emit(ctx, now, Some(v), || Obs::ShuffleFailure { exchange });
                if let Some(id) = evict {
                    self.emit(ctx, now, Some(v), || Obs::PeerEvicted { pseudonym: id.0 });
                }
            }
        }
    }

    fn handle_request_delivery(
        &mut self,
        now: SimTime,
        delivery: Delivery,
        cells: &mut [NodeCell],
        ctx: &WindowCtx<'_>,
    ) {
        let Some(fault) = ctx.fault else {
            return; // only `transmit` puts requests in flight
        };
        let (initiator, responder, exchange) = (delivery.from, delivery.to, delivery.exchange);
        let (attempt, trusted_link) = (delivery.attempt, delivery.trusted_link);
        let cell = &mut cells[responder as usize - self.start];
        if !cell.churn.is_online() || fault.crashed(responder, now.as_f64()) {
            // Lost in transit. The initiator may live on another shard, so
            // its `dropped_requests` bump and drop event come at the barrier.
            self.credits.push((now, initiator, exchange));
            return;
        }
        let response = protocol::respond(
            &mut cell.node,
            &mut self.arena,
            &delivery.offer,
            ctx.cfg.shuffle_length,
            now,
            &mut cell.proto_rng,
        );
        cell.node.stats.responses_sent += 1;
        // Responses answering a retransmission (`attempt > 0`) draw their
        // own stream, so duplicate answers stay independent.
        let fate = MessageLink::for_message(fault, ctx.master_seed, exchange, attempt, true)
            .send(responder, initiator, now.as_f64())
            .delivered();
        let ends = (responder, initiator);
        self.log(
            ctx,
            now,
            ends,
            MessageKind::Response,
            fate.is_some(),
            trusted_link,
        );
        let Some(latency) = fate else {
            cell.node.stats.dropped_requests += 1;
            self.emit(ctx, now, Some(responder), || Obs::MessageDropped {
                exchange,
                response: true,
            });
            return;
        };
        let event = Event::DeliverResponse(Box::new(Delivery {
            from: responder,
            to: initiator,
            offer: response,
            trusted_link,
            exchange,
            attempt,
        }));
        self.send(cell, responder, now, latency, initiator, event);
    }

    fn handle_response_delivery(
        &mut self,
        now: SimTime,
        delivery: Delivery,
        cells: &mut [NodeCell],
        ctx: &WindowCtx<'_>,
    ) {
        let (v, exchange) = (delivery.to, delivery.exchange);
        let cell = &mut cells[v as usize - self.start];
        let crashed = ctx.fault.is_some_and(|f| f.crashed(v, now.as_f64()));
        if !cell.churn.is_online() || crashed {
            // Response lost: its initiator is gone, and so is the exchange.
            self.exchanges.abandon(exchange);
            return;
        }
        let (node, rng) = (&mut cell.node, &mut cell.proto_rng);
        let outcome =
            self.exchanges
                .on_response(exchange, node, &mut self.arena, &delivery.offer, now, rng);
        // A duplicate answer to a retransmitted request whose exchange
        // already completed or failed is stale; ignore it.
        if outcome == ResponseOutcome::Completed {
            self.emit(ctx, now, Some(v), || Obs::ShuffleComplete { exchange });
        }
    }
}
