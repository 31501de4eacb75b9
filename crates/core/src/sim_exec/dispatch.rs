//! Sequential event dispatch: the paper's synchronous special case.
//!
//! One global [`veil_sim::engine::Engine`] orders every event and the
//! handlers take `&mut Simulation`. This executor runs exactly one link
//! regime — the ideal zero-latency link of the paper's Section IV — where
//! a shuffle is a single synchronous [`protocol::execute_shuffle`] between
//! two online nodes: nothing is ever in flight, so there is no lookahead
//! to window and nothing to time out. Every run with a fault model or a
//! positive latency takes the windowed executor
//! ([`super::shard`]/[`super::executor`]) instead, whatever `shards` says.

use crate::protocol;
use crate::simulation::Simulation;
use veil_obs::EventKind as Obs;
use veil_sim::SimTime;

use super::state::{HealthView, Transition};
use super::{two_mut, Event, MessageKind, MessageRecord};

impl Simulation {
    /// Emits an observability event: feeds the health monitor's window
    /// counters, then records the event. One branch when recording is off;
    /// the payload closure is only built when it is on.
    pub(crate) fn emit(&mut self, now: SimTime, node: Option<u32>, kind: impl FnOnce() -> Obs) {
        super::record(&self.recorder, &mut self.health, now.as_f64(), node, kind);
    }

    /// Closes elapsed health-monitor windows before an event at `now` is
    /// processed. Alerts are stamped at the window-grid boundary, so the
    /// timeline is independent of which event happened to cross it. When
    /// remediation is enabled, the window's alerts are handed straight to
    /// the engine and applied before the event runs.
    pub(crate) fn health_tick(&mut self, now: SimTime) {
        let Some(h) = self.health.as_mut().filter(|h| h.due(now.as_f64())) else {
            return;
        };
        let mut view = HealthView::default();
        view.fill(&self.cells, &self.trust);
        let alerts = view.rotate(h, now.as_f64());
        if let Some(rm) = self.remedy.as_mut() {
            let decisions = rm.decide(&alerts, &view.online);
            let mut arenas = crate::pseudonym::DomainArenas::Single(&mut self.arena);
            rm.apply(
                &decisions,
                &mut self.cells,
                &mut arenas,
                &self.trust,
                &self.recorder,
            );
        }
    }

    fn log_message(
        &mut self,
        time: SimTime,
        from: usize,
        to: usize,
        kind: MessageKind,
        trusted_link: bool,
    ) {
        if let Some(log) = &mut self.message_log {
            log.push(MessageRecord {
                time,
                from: from as u32,
                to: to as u32,
                kind,
                trusted_link,
            });
        }
    }

    pub(crate) fn handle(&mut self, now: SimTime, event: Event) {
        if self.health.is_some() {
            self.health_tick(now);
        }
        match event {
            Event::Shuffle(v) => self.handle_shuffle(now, v as usize),
            Event::Churn { node, generation } => {
                let t =
                    self.cells[node as usize].churn_flip(&self.cfg, &mut self.svc, now, generation);
                self.apply_transition(now, node, generation, t);
            }
            Event::BlackoutEnd { node, generation } => {
                let t = self.cells[node as usize].end_blackout(
                    &self.cfg,
                    &mut self.svc,
                    now,
                    generation,
                );
                self.apply_transition(now, node, generation, t);
            }
            // In-flight messages, exchange timeouts and fault episodes
            // exist only where messages take time or get lost, and all of
            // that runs on the windowed executor.
            Event::DeliverRequest(_)
            | Event::DeliverResponse(_)
            | Event::ShuffleTimeout { .. }
            | Event::EpisodeStart(_) => {
                unreachable!("{event:?} scheduled on the zero-latency sequential executor")
            }
        }
    }

    /// Schedules and emits what a lifecycle transition returned.
    fn apply_transition(
        &mut self,
        now: SimTime,
        node: u32,
        generation: u32,
        t: Option<Transition>,
    ) {
        let Some(t) = t else {
            return; // superseded by a (newer) blackout
        };
        if let Some(delay) = t.next_churn {
            self.engine
                .schedule_at(now + delay, Event::Churn { node, generation });
        }
        for kind in t.events.into_iter().flatten() {
            self.emit(now, Some(node), || kind);
        }
    }

    fn handle_shuffle(&mut self, now: SimTime, v: usize) {
        // The timer always re-arms; offline nodes simply skip the round.
        self.engine.schedule_at(now + 1.0, Event::Shuffle(v as u32));
        let tick = self.cells[v].shuffle_tick(&self.cfg, &mut self.svc, now);
        for kind in tick.events.into_iter().flatten() {
            self.emit(now, Some(v as u32), || kind);
        }
        if !tick.initiate {
            return;
        }
        // The ideal link layer reports deliverability, so by default
        // (`skip_offline_peers`) the node shuffles with a uniformly random
        // *online* link — this is what makes the paper's request/response
        // count come out at exactly two messages per period.
        let mut rng = self.cells[v].proto_rng.clone();
        let target = self.cells[v]
            .node
            .pick_link_where(&self.arena, now, &mut rng, |u| {
                !self.cfg.skip_offline_peers || self.cells[u as usize].churn.is_online()
            });
        self.cells[v].proto_rng = rng;
        let Some(target) = target else {
            return;
        };
        let dest = target.resolve() as usize;
        debug_assert_ne!(dest, v, "nodes never link to themselves");
        let trusted_link = target.is_trusted();
        self.emit(now, Some(v as u32), || Obs::ShuffleStart {
            target: dest as u64,
            trusted: trusted_link,
        });
        if !self.cells[dest].churn.is_online() {
            // Request sent into the anonymity service but never delivered.
            self.cells[v].node.stats.requests_sent += 1;
            self.cells[v].node.stats.dropped_requests += 1;
            self.emit(now, Some(v as u32), || Obs::MessageDropped {
                exchange: 0,
                response: false,
            });
            self.log_message(now, v, dest, MessageKind::Dropped, trusted_link);
            return;
        }
        // Zero latency: run the exchange over the ideal link synchronously.
        let mut rng = self.cells[v].proto_rng.clone();
        let (initiator, responder) = two_mut(&mut self.cells, v, dest);
        protocol::execute_shuffle(
            &mut initiator.node,
            &mut responder.node,
            &mut self.arena,
            self.cfg.shuffle_length,
            now,
            &mut rng,
        );
        self.cells[v].proto_rng = rng;
        self.emit(now, Some(v as u32), || Obs::ShuffleComplete { exchange: 0 });
        self.log_message(now, v, dest, MessageKind::Request, trusted_link);
        self.log_message(now, dest, v, MessageKind::Response, trusted_link);
    }
}
