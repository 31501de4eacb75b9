//! The veil-node runtime: one overlay node per process, driving the
//! sans-IO exchange core of `veil_core::protocol` over real TCP from an
//! event-driven loop.
//!
//! The runtime is the second driver of that core (the windowed simulator's
//! shards are the first): the core decides what an exchange does next —
//! build the offer, answer before absorbing, retry with doubled timeout,
//! give up and evict — and this module only moves bytes, keeps deadlines on
//! the wall clock, and counts. A merged fleet trace can therefore be
//! diffed against a simulated run of the same scenario (the oracle) with
//! only latency-induced drift to tolerate:
//!
//! - **Timer phases** come from [`veil_core::simulation::shuffle_phases`],
//!   the exact `Stream::Scheduler` draws the simulator makes, so node `v`
//!   fires its shuffles at the same logical instants in both worlds.
//! - **Logical time** is wall time since the fleet's start barrier divided
//!   by the period; timer-driven events are stamped at their *scheduled*
//!   logical time, reactive events at the current one. Events at
//!   `t >= horizon` are not recorded, mirroring `run_until(horizon)`.
//! - **Drop injection** goes through the same [`veil_core::transport`]
//!   seam as the simulator's link layer: the stateless [`MessageLink`],
//!   whose per-message RNG is keyed by `(seed, exchange, attempt,
//!   direction)`. Exchange ids come from the shared core (pure in the
//!   initiator's own history), so the fleet computes *the identical drop
//!   fate* for the identical message as a simulation of the scenario —
//!   the lossy oracle comparison is tight, not merely statistical.
//! - **Pseudonyms** are minted by a keyed [`PseudonymService`], making ids
//!   and bits a pure function of `(seed, owner, per-owner seq)` — no
//!   cross-process mint counter needed.
//!
//! Each shuffle exchange is one short-lived TCP connection: the initiator
//! dials, pipelines `Hello` + `ShuffleRequest`, and waits for `HelloAck` +
//! `ShuffleResponse`; a retransmission dials afresh.
//!
//! **The loop.** All protocol state lives on the one node thread, and that
//! thread blocks in exactly one place: `recv_timeout` on the node's
//! [`Wake`] channel, until the earliest of its next shuffle timer, the
//! earliest flight deadline, the earliest silent-connection reap,
//! telemetry's once-per-period sample and the end of the linger. Bytes
//! wake it early: the helper threads of [`crate::sock`] (one acceptor,
//! one reader per live connection, the metrics endpoint's acceptor) sit
//! in the blocking socket calls and post to that channel. An idle node
//! therefore wakes a few times per period, and a round trip costs what
//! loopback, four thread hand-offs, framing and JSON cost — on localhost
//! a few hundred microseconds at most, so exchanges complete "instantly"
//! on the logical clock, like the oracle's. The node thread itself touches
//! a socket only to connect (bounded by the attempt's own timeout) and to
//! write (bounded by the connection's write wait).

use crate::control::ControlServer;
use crate::scenario::NetScenario;
use crate::sock::{bind_listener, dial_within, Acceptor, Conn, Wake};
use crate::telemetry::NodeTelemetry;
use crate::wire::{hello, validate_hello, WireMsg};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use veil_core::node::Node;
use veil_core::protocol::{self, Exchanges, Request, ResponseOutcome, TimeoutOutcome};
use veil_core::pseudonym::{Pseudonym, PseudonymArena, PseudonymService};
use veil_core::simulation::shuffle_phases;
use veil_core::transport::{MessageLink, SendOutcome, Transport};
use veil_obs::{EventKind as Obs, Recorder};
use veil_sim::fault::FaultConfig;
use veil_sim::rng::{derive_rng, Stream};
use veil_sim::SimTime;

/// How long a process keeps serving peers' requests past the horizon, in
/// shuffle periods. Nothing is recorded in this window; it only lets
/// near-boundary exchanges of *other* nodes complete.
const LINGER_PERIODS: f64 = 1.0;

/// End-of-run counters of one veil-node process, printed as one JSON line
/// on stdout for the fleet runner.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSummary {
    /// This process's node id.
    pub node: u32,
    /// Successful handshakes, both directions (valid `Hello` received, or
    /// `HelloAck` received after dialing).
    pub handshakes_ok: u64,
    /// Inbound connections rejected by [`validate_hello`].
    pub handshake_failures: u64,
    /// Message-level decode errors (complete frame, malformed payload;
    /// recoverable — the frame is skipped) across all connections.
    pub decode_errors: u64,
    /// Frame-level violations (oversize length prefix; fatal — the
    /// connection is closed) across all connections. `serde(default)` so
    /// summaries from builds predating the split still parse.
    #[serde(default)]
    pub frame_errors: u64,
    /// Outbound dials that failed at the socket level (peer not yet
    /// listening, connection refused, no answer within the attempt's
    /// timeout); recovered by the shuffle timeout.
    pub dial_failures: u64,
    /// Shuffle rounds initiated.
    pub shuffles_started: u64,
    /// Exchanges whose response arrived and was merged.
    pub shuffles_completed: u64,
    /// Timeouts fired (includes ones that led to a retry).
    pub shuffle_timeouts: u64,
    /// Timed-out requests that were retransmitted.
    pub shuffle_retries: u64,
    /// Exchanges abandoned after the retry budget.
    pub shuffle_failures: u64,
    /// Requests transmitted (including injected drops and retries).
    pub requests_sent: u64,
    /// Responses built and transmitted (or drop-injected).
    pub responses_sent: u64,
    /// Messages lost to injected drops, both legs.
    pub dropped_requests: u64,
    /// Unresponsive pseudonyms evicted after failed exchanges.
    pub evictions: u64,
}

/// The transport's view of an exchange's current transmission.
struct Flight {
    /// Logical time at which the transmission times out.
    deadline: f64,
    /// The connection carrying the request and the wall-clock instant it
    /// went out (for the telemetry RTT histogram). `None` when it never
    /// hit the wire (injected drop or dial failure).
    wire: Option<(u64, Instant)>,
}

/// A live connection in the node's table.
struct Link {
    conn: Conn,
    /// For an accepted connection that has not yet produced a complete
    /// request: the logical time at which it is given up.
    reap_at: Option<f64>,
}

fn unix_now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Optional observability facilities of one node process. The default is
/// everything off: no telemetry recorder, no metrics endpoint, and a
/// protocol trace byte-identical to a build without telemetry.
#[derive(Debug, Clone, Default)]
pub struct NodeOptions {
    /// Enable transport telemetry (the second recorder plus the metrics
    /// registry). Implied by `metrics_port`.
    pub telemetry: bool,
    /// Serve `/metrics` + `/metrics.json` on this localhost port.
    pub metrics_port: Option<u16>,
}

impl NodeOptions {
    fn enabled(&self) -> bool {
        self.telemetry || self.metrics_port.is_some()
    }
}

/// Everything one finished node produced.
pub struct NodeOutput {
    /// End-of-run counters (the stdout contract with the fleet runner).
    pub summary: NodeSummary,
    /// The protocol trace (JSONL) — what the fleet merges and diffs
    /// against the oracle.
    pub trace: String,
    /// The transport-telemetry trace (JSONL), when telemetry was on.
    pub telemetry_trace: Option<String>,
    /// Final metrics snapshot, when telemetry was on.
    pub metrics: Option<veil_obs::MetricsSnapshot>,
}

/// Runs one overlay node to completion: returns its summary and the
/// JSONL trace it recorded. Telemetry stays off; see [`run_node_with`].
pub fn run_node(sc: &NetScenario, id: u32) -> Result<(NodeSummary, String), String> {
    let out = run_node_with(sc, id, &NodeOptions::default())?;
    Ok((out.summary, out.trace))
}

/// Runs one overlay node with explicit observability options.
pub fn run_node_with(sc: &NetScenario, id: u32, opts: &NodeOptions) -> Result<NodeOutput, String> {
    sc.validate()?;
    let mut rt = NodeRuntime::new(sc, id)?;
    if opts.enabled() {
        let control = match opts.metrics_port {
            Some(port) => Some(ControlServer::bind(port, rt.wake_tx.clone())?),
            None => None,
        };
        rt.tel = Some(NodeTelemetry::new(id, control));
    }
    rt.run();
    Ok(rt.finish())
}

struct NodeRuntime {
    id: u32,
    seed: u64,
    horizon: f64,
    period_ms: u64,
    start_at_ms: u64,
    shuffle_length: usize,
    pseudonym_lifetime: Option<f64>,
    shuffle_timeout: f64,
    retry_budget: u32,
    peers: Vec<SocketAddr>,
    node: Node,
    svc: PseudonymService,
    arena: PseudonymArena,
    proto_rng: rand::rngs::StdRng,
    fault: Option<FaultConfig>,
    phase: f64,
    rec: Recorder,
    /// The channel the loop blocks on. The node keeps a sender of its own
    /// (cloned into every connection it opens), so the channel never
    /// reads as hung up.
    wakes: Receiver<Wake>,
    wake_tx: Sender<Wake>,
    /// Held for its drop, which closes the listener.
    _acceptor: Acceptor,
    /// Live connections, both directions, by the number their reader
    /// threads wake the loop with (ordered, so that nothing telemetry
    /// records depends on a hash).
    conns: BTreeMap<u64, Link>,
    next_conn: u64,
    /// The exchange core's pending state of this node's own exchanges…
    exchanges: Exchanges,
    /// …and the deadline of each one's current transmission.
    flights: HashMap<u64, Flight>,
    summary: NodeSummary,
    /// Transport telemetry, when enabled. `None` costs one branch per
    /// hook; the protocol recorder above is never touched by it.
    tel: Option<NodeTelemetry>,
}

impl NodeRuntime {
    fn new(sc: &NetScenario, id: u32) -> Result<Self, String> {
        let cfg = sc.overlay();
        let trust = sc.trust_graph();
        let trusted = trust.neighbors(id as usize).to_vec();
        let mut proto_rng = derive_rng(sc.seed, Stream::Protocol(id));
        let mut node = Node::new(id, trusted, &cfg, &mut proto_rng);
        let mut svc = PseudonymService::new(sc.seed);
        let rec = Recorder::full();
        let phases = shuffle_phases(sc.seed, sc.nodes);
        let peers: Vec<SocketAddr> = sc
            .ports
            .iter()
            .map(|&p| SocketAddr::from(([127, 0, 0, 1], p)))
            .collect();
        let (wake_tx, wakes) = mpsc::channel();
        let accepted = wake_tx.clone();
        let acceptor = bind_listener(peers[id as usize])
            .and_then(|listener| {
                Acceptor::spawn(listener, move |stream| {
                    let _ = accepted.send(Wake::Accepted(stream));
                })
            })
            .map_err(|e| format!("node {id}: bind {}: {e}", peers[id as usize]))?;
        // Start-up condition: every node mints its pseudonym at t = 0,
        // exactly like the simulator's construction-time mint.
        node.renew_pseudonym(&mut svc, SimTime::ZERO, cfg.pseudonym_lifetime);
        rec.event(0.0, Some(id), || Obs::PseudonymMinted {
            lifetime: cfg.pseudonym_lifetime,
        });
        Ok(Self {
            id,
            seed: sc.seed,
            horizon: sc.horizon,
            period_ms: sc.period_ms,
            start_at_ms: sc.start_at_ms,
            shuffle_length: cfg.shuffle_length,
            pseudonym_lifetime: cfg.pseudonym_lifetime,
            shuffle_timeout: cfg.shuffle_timeout,
            retry_budget: cfg.shuffle_retry_budget,
            peers,
            node,
            svc,
            arena: PseudonymArena::new(),
            proto_rng,
            fault: sc.fault(),
            phase: phases[id as usize],
            rec,
            wakes,
            wake_tx,
            _acceptor: acceptor,
            conns: BTreeMap::new(),
            next_conn: 0,
            exchanges: Exchanges::default(),
            flights: HashMap::new(),
            summary: NodeSummary {
                node: id,
                ..NodeSummary::default()
            },
            tel: None,
        })
    }

    /// Wall time since the start barrier, in shuffle periods. Read at the
    /// clock's own resolution: the loop waits for a logical instant and
    /// must find it reached when it wakes.
    fn logical_now(&self) -> f64 {
        let since_start = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .saturating_sub(Duration::from_millis(self.start_at_ms));
        since_start.as_secs_f64() * 1e3 / self.period_ms as f64
    }

    /// `periods` of logical time as wall time (zero if negative).
    fn wall(&self, periods: f64) -> Duration {
        Duration::from_secs_f64(periods.max(0.0) * self.period_ms as f64 / 1e3)
    }

    /// Records an event unless it falls at or past the horizon (the
    /// simulator's `run_until(horizon)` processes events strictly before
    /// it).
    fn emit(&self, t: f64, kind: impl FnOnce() -> Obs) {
        if t < self.horizon {
            self.rec.event(t, Some(self.id), kind);
        }
    }

    /// The drop decision for one transmission, through the same transport
    /// seam the simulator's link layer implements: the stateless
    /// per-message RNG, keyed by `(seed, exchange, attempt,
    /// direction)`. Both ends of an exchange — and the oracle — derive
    /// the identical fate. The latency of a delivered message comes from
    /// the real network, so only the drop/deliver verdict is used.
    fn drop_injected(
        &self,
        exchange: u64,
        attempt: u32,
        response: bool,
        from: u32,
        to: u32,
        t: f64,
    ) -> bool {
        let Some(fault) = self.fault.as_ref() else {
            return false;
        };
        let outcome = MessageLink::for_message(fault, self.seed, exchange, attempt, response)
            .send(from, to, t);
        outcome == SendOutcome::Dropped
    }

    fn run(&mut self) {
        // Barrier: logical t = 0 is the same wall instant on every node.
        loop {
            let now = unix_now_ms();
            if now >= self.start_at_ms {
                break;
            }
            std::thread::sleep(Duration::from_millis((self.start_at_ms - now).min(20)));
        }
        let mut next_fire = self.phase;
        let end = self.horizon + LINGER_PERIODS;
        loop {
            let now = self.logical_now();
            if now >= end {
                break;
            }
            while next_fire <= now && next_fire < self.horizon {
                self.do_shuffle(next_fire);
                next_fire += 1.0;
            }
            self.check_timeouts(now);
            self.reap_silent(now);
            if let Some(tel) = self.tel.as_mut() {
                let queued = self.conns.values().map(|l| l.conn.pending_output_bytes());
                tel.sample(now, queued.sum(), self.flights.len());
                tel.count("net.loop_wakeups", 1);
            }
            // The one place the node thread blocks: until the next thing
            // it has scheduled is due, or a helper thread has something.
            let due = self.next_due(next_fire).min(end);
            let wait = self.wall(due - self.logical_now());
            if let Ok(wake) = self.wakes.recv_timeout(wait) {
                let now = self.logical_now();
                self.on_wake(wake, now);
                while let Ok(wake) = self.wakes.try_recv() {
                    self.on_wake(wake, now);
                }
            }
        }
    }

    /// The earliest logical time at which the loop has something to do
    /// unprompted (infinite if nothing is scheduled).
    fn next_due(&self, next_fire: f64) -> f64 {
        // Past the horizon neither timers nor deadlines fire.
        let timers = std::iter::once(next_fire)
            .chain(self.flights.values().map(|f| f.deadline))
            .filter(|&t| t < self.horizon);
        let reaps = self.conns.values().filter_map(|l| l.reap_at);
        let sample = self.tel.as_ref().map(NodeTelemetry::next_sample);
        timers
            .chain(reaps)
            .chain(sample)
            .fold(f64::INFINITY, f64::min)
    }

    fn on_wake(&mut self, wake: Wake, now: f64) {
        match wake {
            Wake::Accepted(stream) => self.on_accepted(stream, now),
            Wake::Readable(id) => self.on_readable(id, now),
            Wake::Scrape(request) => {
                if let Some(tel) = self.tel.as_mut() {
                    tel.answer(request);
                }
            }
        }
    }

    /// One shuffle round at scheduled logical time `s`: the simulator's
    /// tick preamble for a permanently online node (lazy renewal, purge),
    /// a uniform link pick, then a tracked exchange.
    fn do_shuffle(&mut self, s: f64) {
        let now = SimTime::new(s);
        if self.node.needs_pseudonym(now) {
            let lifetime = self.pseudonym_lifetime;
            self.node.renew_pseudonym(&mut self.svc, now, lifetime);
            self.emit(s, || Obs::PseudonymMinted { lifetime });
        }
        let purged = self.node.purge_expired(now);
        if purged > 0 {
            self.emit(s, || Obs::PseudonymsExpired {
                count: purged as u64,
            });
        }
        let Some(target) = self.node.pick_link(&self.arena, now, &mut self.proto_rng) else {
            return;
        };
        let request = self.exchanges.begin(
            &mut self.node,
            &self.arena,
            target,
            self.shuffle_length,
            now,
            &mut self.proto_rng,
        );
        self.summary.shuffles_started += 1;
        self.emit(s, || Obs::ShuffleStart {
            target: u64::from(request.dest),
            trusted: request.trusted_link,
        });
        self.transmit(request, s);
    }

    /// Sends one transmission of a request at logical time `t` and arms
    /// its deadline: drop injection first, then a fresh connection with
    /// `Hello` + request pipelined.
    fn transmit(&mut self, request: Request, t: f64) {
        let (exchange, attempt, dest) = (request.exchange, request.attempt, request.dest);
        self.summary.requests_sent += 1;
        if let Some(tel) = self.tel.as_mut() {
            tel.count("net.requests_sent", 1);
            if attempt > 0 {
                tel.count("net.reconnects", 1);
            }
        }
        // The deadline recovers whatever happens below; it runs from the
        // scheduled instant, like the simulator's `schedule_in`.
        let timeout = protocol::retry_backoff(self.shuffle_timeout, attempt);
        let mut wire = None;
        if self.drop_injected(exchange, attempt, false, self.id, dest, t) {
            self.summary.dropped_requests += 1;
            self.emit(t, || Obs::MessageDropped {
                exchange,
                response: false,
            });
        } else {
            // A peer that has not answered the dial by the time the
            // attempt times out has failed it.
            let id = self.next_conn;
            self.next_conn += 1;
            let waker = Some((id, self.wake_tx.clone()));
            match dial_within(self.peers[dest as usize], dest, self.wall(timeout), waker) {
                Ok(mut conn) => {
                    conn.queue(&hello(self.seed, self.id));
                    conn.queue(&WireMsg::ShuffleRequest {
                        exchange,
                        from: self.id,
                        offer: request.offer,
                        trusted_link: request.trusted_link,
                        attempt,
                    });
                    conn.flush();
                    wire = Some((id, Instant::now()));
                    let reap_at = None; // only accepted connections are reaped
                    self.conns.insert(id, Link { conn, reap_at });
                    self.settle(id, t);
                }
                Err(_) => {
                    // Indistinguishable from a lost message; the timeout
                    // retries. Not an injected drop, so no trace event.
                    self.summary.dial_failures += 1;
                    if let Some(tel) = self.tel.as_mut() {
                        tel.count("net.dial_failures", 1);
                    }
                }
            }
        }
        let deadline = t + timeout;
        self.flights.insert(exchange, Flight { deadline, wire });
    }

    /// Fires due deadlines and lets the exchange core decide: retry, or
    /// fail and evict. Only deadlines before the horizon fire, like events
    /// popped by `run_until`.
    fn check_timeouts(&mut self, now: f64) {
        let mut due: Vec<(u64, f64)> = self
            .flights
            .iter()
            .filter(|(_, f)| f.deadline <= now && f.deadline < self.horizon)
            .map(|(&e, f)| (e, f.deadline))
            .collect();
        // Deterministic firing order: by deadline, exchange id breaking
        // ties (the map's iteration order must not leak into the trace).
        due.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        for (exchange, deadline) in due {
            // The stale connection (if any) serves a dead attempt.
            if let Some((id, _)) = self.flights.remove(&exchange).and_then(|f| f.wire) {
                self.close(id, now);
            }
            let budget = self.retry_budget;
            match self
                .exchanges
                .on_timeout(exchange, &mut self.node, &self.arena, budget)
            {
                TimeoutOutcome::Stale => {}
                TimeoutOutcome::Retry { request } => {
                    self.note_timeout(exchange, request.attempt - 1, deadline);
                    self.summary.shuffle_retries += 1;
                    self.emit(deadline, || Obs::ShuffleRetry {
                        exchange,
                        attempt: u64::from(request.attempt),
                    });
                    self.transmit(request, deadline);
                }
                TimeoutOutcome::Failed { attempt, evict } => {
                    self.note_timeout(exchange, attempt, deadline);
                    self.summary.shuffle_failures += 1;
                    self.emit(deadline, || Obs::ShuffleFailure { exchange });
                    if let Some(pid) = evict {
                        self.summary.evictions += 1;
                        self.emit(deadline, || Obs::PeerEvicted { pseudonym: pid.0 });
                    }
                }
            }
        }
    }

    fn note_timeout(&mut self, exchange: u64, attempt: u32, deadline: f64) {
        self.summary.shuffle_timeouts += 1;
        self.emit(deadline, || Obs::ShuffleTimeout {
            exchange,
            attempt: u64::from(attempt),
        });
    }

    /// Closes accepted connections whose peer has sent no complete request
    /// within one shuffle timeout: nobody waits that long to speak, and a
    /// silent connection would otherwise hold its slot and its reader
    /// thread for as long as the peer liked.
    fn reap_silent(&mut self, now: f64) {
        let silent: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, l)| l.reap_at.is_some_and(|at| at <= now))
            .map(|(&id, _)| id)
            .collect();
        for id in silent {
            if let Some(tel) = self.tel.as_mut() {
                tel.count("net.conns_reaped", 1);
            }
            self.close(id, now);
        }
    }

    fn on_accepted(&mut self, stream: TcpStream, now: f64) {
        let id = self.next_conn;
        self.next_conn += 1;
        // Out of threads or descriptors: the peer sees a reset and its
        // timeout recovers.
        if let Ok(conn) = Conn::new(stream, None, Some((id, self.wake_tx.clone()))) {
            let reap_at = Some(now + self.shuffle_timeout);
            self.conns.insert(id, Link { conn, reap_at });
        }
    }

    /// Connection `id` has bytes: an accepted one shakes hands and then
    /// serves shuffle requests, a dialed one collects its ack and its
    /// response. A wake for a connection already closed is stale.
    fn on_readable(&mut self, id: u64, now: f64) {
        let Some(link) = self.conns.get_mut(&id) else {
            return;
        };
        let inbound = link.conn.inbound;
        for msg in link.conn.poll_read() {
            match msg {
                msg if inbound => self.handle_inbound(id, msg, now),
                WireMsg::HelloAck { .. } => {
                    self.summary.handshakes_ok += 1;
                    if let Some(tel) = self.tel.as_mut() {
                        tel.count("net.handshakes_ok", 1);
                    }
                }
                WireMsg::ShuffleResponse {
                    exchange, offer, ..
                } => {
                    self.complete_exchange(exchange, &offer, now);
                    // One connection, one exchange.
                    self.close(id, now);
                }
                _ => {}
            }
        }
        self.settle(id, now);
    }

    /// Sends what connection `id` has queued, reports its I/O to
    /// telemetry, and closes it if that finished it. Nothing to do for a
    /// connection already closed.
    fn settle(&mut self, id: u64, now: f64) {
        let Some(link) = self.conns.get_mut(&id) else {
            return;
        };
        link.conn.flush();
        if link.conn.closed {
            self.close(id, now);
        } else if let Some(tel) = self.tel.as_mut() {
            tel.on_io(now, link.conn.take_io_deltas());
        }
    }

    /// Drops connection `id`, which ends and joins its reader thread, and
    /// banks its counters: frame errors poison a connection, message-level
    /// decode errors were survivable but still sum into the end-of-run
    /// summary.
    fn close(&mut self, id: u64, now: f64) {
        let Some(Link { mut conn, .. }) = self.conns.remove(&id) else {
            return;
        };
        self.summary.decode_errors += conn.decode_errors;
        self.summary.frame_errors += conn.frame_errors;
        if let Some(tel) = self.tel.as_mut() {
            tel.on_io(now, conn.take_io_deltas());
            tel.on_conn_close(now, &conn);
        }
    }

    fn handle_inbound(&mut self, id: u64, msg: WireMsg, now: f64) {
        // Gone if an earlier message of the same read failed the handshake.
        let Some(link) = self.conns.get_mut(&id) else {
            return;
        };
        if link.conn.peer.is_none() {
            match validate_hello(&msg, self.seed) {
                Ok(peer) => {
                    link.conn.peer = Some(peer);
                    link.conn.queue(&WireMsg::HelloAck { node: self.id });
                    self.summary.handshakes_ok += 1;
                    if let Some(tel) = self.tel.as_mut() {
                        tel.count("net.handshakes_ok", 1);
                    }
                }
                Err(e) => {
                    eprintln!("node {}: handshake rejected: {e}", self.id);
                    self.summary.handshake_failures += 1;
                    if let Some(tel) = self.tel.as_mut() {
                        tel.on_handshake_fail(now, &e.to_string());
                    }
                    self.close(id, now);
                }
            }
            return;
        }
        let WireMsg::ShuffleRequest {
            exchange,
            from,
            offer,
            attempt,
            ..
        } = msg
        else {
            return; // ignore protocol misuse after the handshake
        };
        link.reap_at = None;
        let response = protocol::respond(
            &mut self.node,
            &mut self.arena,
            &offer,
            self.shuffle_length,
            SimTime::new(now),
            &mut self.proto_rng,
        );
        self.summary.responses_sent += 1;
        if let Some(tel) = self.tel.as_mut() {
            tel.count("net.responses_sent", 1);
        }
        // The response leg is subject to the same injected loss, keyed by
        // the attempt it answers (a duplicate answer to a retransmission
        // draws its own stream, like the simulator's).
        if self.drop_injected(exchange, attempt, true, self.id, from, now) {
            self.summary.dropped_requests += 1;
            self.emit(now, || Obs::MessageDropped {
                exchange,
                response: true,
            });
            return; // initiator's timeout recovers
        }
        let response = WireMsg::ShuffleResponse {
            exchange,
            from: self.id,
            offer: response,
        };
        if let Some(link) = self.conns.get_mut(&id) {
            link.conn.queue(&response);
        }
    }

    /// The response arrived: the core merges it and completes the exchange
    /// (a duplicate answer to an already-resolved exchange is stale).
    fn complete_exchange(&mut self, exchange: u64, offer: &[Pseudonym], now: f64) {
        let outcome = self.exchanges.on_response(
            exchange,
            &mut self.node,
            &mut self.arena,
            offer,
            SimTime::new(now),
            &mut self.proto_rng,
        );
        if outcome == ResponseOutcome::Stale {
            return;
        }
        let flight = self.flights.remove(&exchange);
        self.summary.shuffles_completed += 1;
        self.emit(now, || Obs::ShuffleComplete { exchange });
        if let (Some(tel), Some((_, sent))) = (self.tel.as_mut(), flight.and_then(|f| f.wire)) {
            tel.observe_rtt(sent.elapsed().as_micros() as u64);
        }
    }

    /// Closes what is still open (so lifetime byte totals are complete)
    /// and hands over what the run produced. Every helper thread has been
    /// joined and both listeners are closed when this returns: the
    /// connections go here, the acceptors when `self` is dropped.
    fn finish(mut self) -> NodeOutput {
        let now = self.logical_now();
        while let Some((&id, _)) = self.conns.first_key_value() {
            self.close(id, now);
        }
        let (telemetry_trace, metrics) = match self.tel.take() {
            Some(tel) => {
                let (trace, snap) = tel.finish();
                (Some(trace), Some(snap))
            }
            None => (None, None),
        };
        NodeOutput {
            trace: self.rec.events_jsonl(),
            summary: self.summary,
            telemetry_trace,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::NetScenario;
    use std::net::TcpListener;

    fn free_ports(n: usize) -> Vec<u16> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
            .collect();
        listeners
            .iter()
            .map(|l| l.local_addr().unwrap().port())
            .collect()
    }

    /// Two runtimes on in-process threads complete a short scenario:
    /// handshakes succeed, no decode errors, and every shuffle a node
    /// starts within the horizon completes.
    #[test]
    fn two_nodes_shuffle_over_loopback() {
        let ports = free_ports(2);
        let sc = NetScenario {
            nodes: 2,
            seed: 1,
            horizon: 3.0,
            period_ms: 60,
            loss: 0.0,
            ports,
            start_at_ms: unix_now_ms() + 300,
        };
        let handles: Vec<_> = (0..2u32)
            .map(|id| {
                let sc = sc.clone();
                std::thread::spawn(move || run_node(&sc, id).expect("node runs"))
            })
            .collect();
        let results: Vec<(NodeSummary, String)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (summary, trace) in &results {
            assert!(summary.handshakes_ok > 0, "{summary:?}");
            assert_eq!(summary.handshake_failures, 0, "{summary:?}");
            assert_eq!(summary.decode_errors, 0, "{summary:?}");
            assert_eq!(summary.dial_failures, 0, "{summary:?}");
            // Lossless loopback: every started shuffle completes.
            assert_eq!(
                summary.shuffles_completed, summary.shuffles_started,
                "{summary:?}"
            );
            assert_eq!(summary.shuffles_started, 3, "3 periods → 3 shuffles");
            veil_obs::validate_events_jsonl(trace).expect("trace validates");
        }
    }

    #[test]
    fn mismatched_seed_fails_the_handshake() {
        let ports = free_ports(2);
        let sc = NetScenario {
            nodes: 2,
            seed: 1,
            horizon: 1.0,
            period_ms: 50,
            loss: 0.0,
            ports,
            start_at_ms: unix_now_ms() + 200,
        };
        let wrong_seed = NetScenario {
            seed: 2,
            ..sc.clone()
        };
        let a = {
            let sc = sc.clone();
            std::thread::spawn(move || run_node(&sc, 0).expect("node 0 runs"))
        };
        let b = std::thread::spawn(move || run_node(&wrong_seed, 1).expect("node 1 runs"));
        let (sa, _) = a.join().unwrap();
        let (sb, _) = b.join().unwrap();
        // Each side dials the other once per period; every cross-seed
        // handshake is rejected by the listener.
        assert!(
            sa.handshake_failures + sb.handshake_failures > 0,
            "{sa:?} {sb:?}"
        );
        assert_eq!(sa.shuffles_completed, 0, "{sa:?}");
        assert_eq!(sb.shuffles_completed, 0, "{sb:?}");
    }
}
