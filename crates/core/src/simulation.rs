//! Event-driven simulation of the overlay-maintenance protocol.
//!
//! Binds the per-node protocol state ([`crate::node`]) to the discrete-event
//! engine and churn model of `veil-sim`, reproducing the paper's custom
//! event-based simulator (Section IV): time is measured in shuffle periods,
//! but events occur at arbitrary instants — every node's shuffle timer runs
//! at a random phase offset, and churn transitions are exponential.
//!
//! The anonymity and pseudonym services are *ideal* by default, as in the
//! paper's setup: a message over an overlay link is delivered instantly iff
//! both endpoints are online. Configuring
//! [`LinkLayerConfig::Faulty`](crate::config::LinkLayerConfig) instead
//! routes every shuffle through a fault-injecting link layer: messages are
//! dropped with a configured probability, delayed by a sampled latency, and
//! subject to scripted episodes (regional blackouts, partitions, silent
//! crashes). Under that layer shuffles become asynchronous request/response
//! exchanges guarded by a timeout: a timed-out initiator retries with
//! exponential backoff up to [`OverlayConfig::shuffle_retry_budget`], then
//! gives up, counts a `shuffle_failure`, and applies Cyclon-style recovery
//! by evicting the unresponsive pseudonym from its cache and sampler.
//!
//! This module is the public facade; the execution machinery lives in
//! the private `sim_exec` module. Every run advances through the one
//! windowed executor (`sim_exec::executor`); the link regime — never a
//! user knob — only picks how a shuffle is initiated
//! (`sim_exec::shard`):
//!
//! - a fault model — loss, any latency, episodes — puts messages in
//!   flight: nodes are partitioned over [`OverlayConfig::shards`] shards
//!   (one when unset), with identical results for every shard count;
//! - the paper's ideal zero-latency link exchanges synchronously across
//!   two nodes, so it runs on one shard and `shards` is ignored there.

use crate::config::{LinkLayerConfig, OverlayConfig};
use crate::error::CoreError;
use crate::health::HealthMonitor;
use crate::node::{LinkTarget, Node, NodeStats};
use crate::pseudonym::PseudonymArena;
use crate::remedy::{RemedyCounts, RemedyEngine};
use crate::sim_exec::executor::ShardedRuntime;
use crate::sim_exec::state::NodeCell;
use crate::sim_exec::{record, Event};
use rand::Rng;
use veil_graph::Graph;
use veil_obs::{EventKind as Obs, Recorder};
use veil_sim::churn::{ChurnConfig, ChurnProcess};
use veil_sim::fault::{EpisodeEffect, FaultConfig};
use veil_sim::rng::{derive_rng, Stream};
use veil_sim::SimTime;

pub use crate::sim_exec::{MessageKind, MessageRecord};

/// The per-node shuffle-timer phases in `[0, 1)` shuffle periods, drawn
/// sequentially from `Stream::Scheduler` — a pure function of the master
/// seed and the node count.
///
/// Exposed so out-of-process runtimes (veil-net's one-node-per-process
/// fleet) can desynchronise their timers exactly like the simulator they
/// are compared against: node `v` of an `n`-node deployment fires its
/// first shuffle at `phases[v]` and every period thereafter.
pub fn shuffle_phases(master_seed: u64, n: usize) -> Vec<f64> {
    let mut rng = derive_rng(master_seed, Stream::Scheduler);
    (0..n).map(|_| rng.gen_range(0.0..1.0)).collect()
}

/// A running overlay simulation over a fixed trust graph.
///
/// # Examples
///
/// ```
/// use veil_core::config::OverlayConfig;
/// use veil_core::simulation::Simulation;
/// use veil_graph::generators;
/// use veil_sim::churn::ChurnConfig;
/// use veil_sim::rng::{derive_rng, Stream};
///
/// # fn main() -> Result<(), veil_core::error::CoreError> {
/// let mut rng = derive_rng(1, Stream::Topology);
/// let trust = generators::social_graph(50, 3, &mut rng).unwrap();
/// let churn = ChurnConfig::from_availability(1.0, 30.0);
/// let mut sim = Simulation::new(trust, OverlayConfig::default(), churn, 1)?;
/// sim.run_until(10.0);
/// assert_eq!(sim.online_count(), 50);
/// # Ok(())
/// # }
/// ```
pub struct Simulation {
    pub(crate) trust: Graph,
    pub(crate) cfg: OverlayConfig,
    pub(crate) churn_cfg: ChurnConfig,
    /// All per-node state, one contiguous cell per trust-graph vertex.
    pub(crate) cells: Vec<NodeCell>,
    pub(crate) current_time: SimTime,
    pub(crate) message_log: Option<Vec<MessageRecord>>,
    /// The fault model when the link has messages in flight; `None` is
    /// the ideal link.
    pub(crate) fault: Option<FaultConfig>,
    /// The master seed, kept for the stateless per-message RNG derivation.
    pub(crate) master_seed: u64,
    /// The windowed runtime: the shards with their engines, minters and
    /// arenas, plus the barrier scratch.
    pub(crate) rt: ShardedRuntime,
    /// Observability sink; disabled until [`Simulation::set_recorder`]
    /// (a single branch per hook) and never a source of randomness, so
    /// enabling it cannot perturb the simulation.
    pub(crate) recorder: Recorder,
    /// Whether the t = 0 start-up mints are still to be recorded; see
    /// [`Simulation::record_startup_mints`].
    startup_pending: bool,
    /// Rolling-window degradation detectors over the event stream; present
    /// only when [`OverlayConfig::health`] is enabled. The monitor itself is
    /// read-only — its outputs are window-boundary alert records (plus
    /// `HealthAlert` events and `health.*` gauges when a recorder is
    /// attached); only the remediation engine ever turns them into state
    /// changes.
    pub(crate) health: Option<HealthMonitor>,
    /// The self-healing reaction engine; present only when
    /// [`OverlayConfig::remedy`] is enabled (which validation ties to the
    /// health monitor being on). `None` means alerts stay purely
    /// observational — the byte-identical default.
    pub(crate) remedy: Option<RemedyEngine>,
}

impl Simulation {
    /// Builds a simulation: one protocol node per trust-graph vertex, churn
    /// processes initialized per `churn_cfg`, and — for nodes online at
    /// time zero — pseudonyms created simultaneously at the start (the
    /// paper's start-up condition).
    ///
    /// Records nothing: the recorder is disabled until
    /// [`Simulation::set_recorder`], and the start-up mints reach whichever
    /// recorder is attached when the run first advances.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration fails validation or the trust
    /// graph is empty.
    pub fn new(
        trust: Graph,
        cfg: OverlayConfig,
        churn_cfg: ChurnConfig,
        master_seed: u64,
    ) -> Result<Self, CoreError> {
        cfg.validate()?;
        let n = trust.node_count();
        if n == 0 {
            return Err(CoreError::InvalidTrustGraph {
                reason: "trust graph has no nodes".into(),
            });
        }
        // The faulty link layer only takes over when it actually injects
        // something; a model that injects nothing is the ideal link, which
        // keeps zero-fault runs byte-identical to the paper setup.
        let fault = match &cfg.link {
            LinkLayerConfig::Faulty(fc) if !fc.is_trivial() => Some(fc.clone()),
            _ => None,
        };
        // One shard unless told otherwise. The ideal link exchanges
        // synchronously across two cells, so it gets one shard whatever
        // `shards` says.
        let shards = if fault.is_some() {
            cfg.shards.unwrap_or(1).min(n)
        } else {
            1
        };
        let mut rt = ShardedRuntime::new(n, shards, master_seed);
        let mut cells = Vec::with_capacity(n);
        let phases = shuffle_phases(master_seed, n);
        let health = HealthMonitor::maybe_new(&cfg.health, n);
        let remedy = RemedyEngine::maybe_new(&cfg.remedy, n);

        for (v, &phase) in phases.iter().enumerate() {
            let trusted: Vec<u32> = trust.neighbors(v).to_vec();
            let mut proto_rng = derive_rng(master_seed, Stream::Protocol(v as u32));
            let mut churn_rng = derive_rng(master_seed, Stream::Churn(v as u32));
            let mut node = Node::new(v as u32, trusted, &cfg, &mut proto_rng);
            let (process, first_transition) = ChurnProcess::new(&churn_cfg, &mut churn_rng);
            let shard = rt.shard_of_mut(v);
            if process.is_online() {
                // All initially online nodes mint pseudonyms at t = 0,
                // which produces the synchronized-expiry transient the
                // paper observes in Figure 9. (The adaptive lifetime policy
                // has no availability observations yet and falls back to
                // the global lifetime here.)
                node.renew_pseudonym(&mut shard.minter, SimTime::ZERO, cfg.pseudonym_lifetime);
            }
            if let Some(delay) = first_transition {
                let ev = Event::Churn {
                    node: v as u32,
                    generation: 0,
                };
                shard.engine.schedule_at(SimTime::new(delay), ev);
            }
            // Shuffle timers are desynchronised with a random phase in
            // [0, 1) shuffle periods; they keep firing while the node is
            // offline (the handler no-ops), matching the "rejoining node
            // resumes where it left off" semantics.
            shard
                .engine
                .schedule_at(SimTime::new(phase), Event::Shuffle(v as u32));
            cells.push(NodeCell::new(node, process, proto_rng, churn_rng));
        }

        if let Some(fault) = &fault {
            // Partition and crash episodes are pure message-time filters;
            // only blackouts need a simulation-side trigger. Every shard
            // gets the trigger and handles its own victims.
            for (i, ep) in fault.episodes.iter().enumerate() {
                if matches!(ep.effect, EpisodeEffect::Blackout { .. }) {
                    for shard in rt.shards.iter_mut() {
                        shard
                            .engine
                            .schedule_at(SimTime::new(ep.start), Event::EpisodeStart(i as u32));
                    }
                }
            }
        }

        Ok(Self {
            trust,
            cfg,
            churn_cfg,
            cells,
            current_time: SimTime::ZERO,
            message_log: None,
            fault,
            master_seed,
            rt,
            recorder: Recorder::disabled(),
            startup_pending: true,
            health,
            remedy,
        })
    }

    /// Replaces the observability sink (disabled after construction). Pass
    /// [`Recorder::disabled`] to switch recording off.
    ///
    /// This swaps the sink and nothing else: the health monitor, the
    /// remediation engine and the protocol carry on exactly as they would
    /// unrecorded, so attaching a recorder at any time changes no decision.
    /// The new sink sees every event from now on — a recorder attached
    /// before the first [`Simulation::run_until`] also receives the t = 0
    /// start-up mints.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The active observability sink.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Whether messages spend time in flight: `true` exactly when the link
    /// is a fault model that injects something (loss, any latency,
    /// episodes) — the runs [`OverlayConfig::shards`] partitions — and
    /// `false` for the ideal link, which exchanges synchronously on one
    /// shard.
    pub fn is_sharded(&self) -> bool {
        self.fault.is_some()
    }

    /// Publishes end-of-run engine and protocol aggregates into the
    /// recorder as gauges and histograms (no-op when recording is off).
    /// Call after the run, before exporting the recorder's metrics.
    ///
    /// Aggregates read from simulation state use a `sim.stats_` prefix
    /// (without a `_total` suffix): in the Prometheus exposition only
    /// counters carry `_total`, and a gauge named `sim.X_total` would
    /// collide with the family the event-derived counter `sim.X` exports.
    pub fn publish_metrics(&self) {
        let r = &self.recorder;
        if !r.is_enabled() {
            return;
        }
        let rt = &self.rt;
        r.gauge("engine.events_processed", rt.events_processed() as f64);
        r.gauge("engine.queue_high_water", rt.queue_high_water() as f64);
        r.gauge("engine.pending_events", rt.pending_events() as f64);
        r.gauge("sim.nodes", self.cells.len() as f64);
        r.gauge("sim.online_nodes", self.online_count() as f64);
        r.gauge(
            "sim.stats_pseudonyms_minted",
            self.pseudonyms_minted() as f64,
        );
        r.gauge(
            "sim.stats_churn_transitions",
            self.cells
                .iter()
                .map(|c| c.churn.transitions())
                .sum::<u64>() as f64,
        );
        r.gauge("sim.stats_link_removals", self.total_link_removals() as f64);
        let mut agg = NodeStats::default();
        for v in 0..self.cells.len() {
            let s = self.node_stats(v);
            agg.requests_sent += s.requests_sent;
            agg.responses_sent += s.responses_sent;
            agg.dropped_requests += s.dropped_requests;
            agg.shuffle_retries += s.shuffle_retries;
            agg.shuffle_failures += s.shuffle_failures;
            agg.shuffles_suppressed += s.shuffles_suppressed;
            agg.online_time += s.online_time;
            r.observe("sim.node_links", self.cells[v].node.sampler.link_count());
        }
        r.gauge("sim.stats_requests_sent", agg.requests_sent as f64);
        r.gauge("sim.stats_responses_sent", agg.responses_sent as f64);
        r.gauge("sim.stats_dropped_requests", agg.dropped_requests as f64);
        r.gauge("sim.stats_shuffle_retries", agg.shuffle_retries as f64);
        r.gauge("sim.stats_shuffle_failures", agg.shuffle_failures as f64);
        r.gauge(
            "sim.stats_shuffles_suppressed",
            agg.shuffles_suppressed as f64,
        );
        r.gauge("sim.stats_online_time", agg.online_time);
        r.gauge(
            "health.monitor_enabled",
            if self.health.is_some() { 1.0 } else { 0.0 },
        );
        if let Some(h) = &self.health {
            r.gauge("health.alerts_emitted", h.alerts_emitted() as f64);
        }
        if let Some(rm) = &self.remedy {
            let c = rm.counts();
            r.gauge("remedy.backoffs", c.backoffs as f64);
            r.gauge("remedy.rebootstraps", c.rebootstraps as f64);
            r.gauge("remedy.throttles", c.throttles as f64);
        }
    }

    /// Starts recording every protocol message into an in-memory log
    /// (cleared of any previous contents). Used by the traffic-analysis
    /// experiments; off by default because long runs generate millions of
    /// messages.
    pub fn enable_message_log(&mut self) {
        self.message_log = Some(Vec::new());
    }

    /// Stops recording and discards the log.
    pub fn disable_message_log(&mut self) {
        self.message_log = None;
    }

    /// The recorded messages, if logging is enabled.
    pub fn message_log(&self) -> Option<&[MessageRecord]> {
        self.message_log.as_deref()
    }

    /// Drains the recorded messages, keeping logging enabled.
    pub fn take_message_log(&mut self) -> Vec<MessageRecord> {
        match &mut self.message_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// The trust graph the overlay was bootstrapped from.
    pub fn trust_graph(&self) -> &Graph {
        &self.trust
    }

    /// The overlay configuration.
    pub fn config(&self) -> &OverlayConfig {
        &self.cfg
    }

    /// The churn configuration.
    pub fn churn_config(&self) -> &ChurnConfig {
        &self.churn_cfg
    }

    /// Number of participants.
    pub fn node_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of `HealthAlert` events emitted so far, or `None` when the
    /// health monitor is off (disabled in config).
    pub fn health_alerts(&self) -> Option<u64> {
        self.health.as_ref().map(|h| h.alerts_emitted())
    }

    /// Per-reaction counts of remediation actions applied so far, or `None`
    /// when self-healing is off.
    pub fn remedy_counts(&self) -> Option<RemedyCounts> {
        self.remedy.as_ref().map(|rm| rm.counts())
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.current_time
    }

    /// Whether node `v` is currently online.
    pub fn is_online(&self, v: usize) -> bool {
        self.cells[v].churn.is_online()
    }

    /// Number of currently online nodes.
    pub fn online_count(&self) -> usize {
        self.cells.iter().filter(|c| c.churn.is_online()).count()
    }

    /// Online mask indexed by node.
    pub fn online_mask(&self) -> Vec<bool> {
        self.cells.iter().map(|c| c.churn.is_online()).collect()
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, v: usize) -> &Node {
        &self.cells[v].node
    }

    /// Mutable access to a node's protocol state.
    ///
    /// This is an instrumentation hook for the attack experiments in
    /// `veil-privacy` (e.g. an internal observer seeding a marked pseudonym
    /// into its own cache); it is not part of the protocol surface.
    pub fn node_mut(&mut self, v: usize) -> &mut Node {
        &mut self.cells[v].node
    }

    /// The pseudonym arena of the shard that owns node `v`. Needed to
    /// resolve the [`crate::pseudonym::PseudonymHandle`]s stored in the
    /// node's cache and sampler back to pseudonym values.
    pub fn arena_of(&self, v: usize) -> &PseudonymArena {
        &self.rt.shards[self.rt.owner[v] as usize].arena
    }

    /// Mutable access to a node together with its shard's arena — the
    /// borrow-splitting companion of [`Simulation::node_mut`] for
    /// instrumentation that inserts pseudonyms into per-node structures
    /// (which interns them into the arena).
    pub fn node_and_arena_mut(&mut self, v: usize) -> (&mut Node, &mut PseudonymArena) {
        (&mut self.cells[v].node, &mut self.rt.shard_of_mut(v).arena)
    }

    /// Mints a pseudonym owned by `owner` at the current time with the
    /// configured lifetime, from the owner's own mint sequence — used by
    /// attack experiments where an internal observer crafts a traceable
    /// pseudonym.
    pub fn mint_pseudonym(&mut self, owner: u32) -> crate::pseudonym::Pseudonym {
        let (now, lifetime) = (self.current_time, self.cfg.pseudonym_lifetime);
        self.rt
            .shard_of_mut(owner as usize)
            .minter
            .mint(owner, now, lifetime)
    }

    /// Message/activity statistics of node `v`, with online time accounted
    /// up to the current instant.
    pub fn node_stats(&self, v: usize) -> NodeStats {
        let mut stats = self.cells[v].node.stats;
        if let Some(since) = self.cells[v].online_since {
            stats.online_time += self.current_time.since(since);
        }
        stats
    }

    /// Total pseudonyms minted so far.
    pub fn pseudonyms_minted(&self) -> u64 {
        self.rt.pseudonyms_minted()
    }

    /// Total events processed so far, summed across the shard engines.
    pub fn events_processed(&self) -> u64 {
        self.rt.events_processed()
    }

    /// Approximate heap footprint of the live overlay state in bytes:
    /// per-node protocol state (caches, samplers, scratch), the pseudonym
    /// arenas, the event queues and the runtime's barrier buffers.
    /// Undercounts only the executor's transient
    /// per-call stack allocations, so `approx_heap_bytes() / node_count()`
    /// is a faithful bytes-per-node figure for capacity planning.
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let cells = self.cells.capacity() * size_of::<NodeCell>()
            + self
                .cells
                .iter()
                .map(|c| c.node.approx_heap_bytes())
                .sum::<usize>();
        cells + self.rt.approx_heap_bytes()
    }

    /// Cumulative pseudonym-link removals summed over all nodes — the raw
    /// counter behind the link-replacement metric of Figure 9.
    pub fn total_link_removals(&self) -> u64 {
        self.cells.iter().map(|c| c.node.sampler.removals()).sum()
    }

    /// Records the t = 0 start-up mints — one `PseudonymMinted` per node
    /// online at construction — into the attached sink, the first time the
    /// run advances or injects a blackout, and never again. Until then no
    /// event has changed who is online, so the cells still say who minted.
    fn record_startup_mints(&mut self) {
        if !std::mem::take(&mut self.startup_pending) {
            return;
        }
        let lifetime = self.cfg.pseudonym_lifetime;
        for (v, cell) in self.cells.iter().enumerate() {
            if cell.churn.is_online() {
                record(
                    &self.recorder,
                    &mut self.health,
                    0.0,
                    Some(v as u32),
                    || Obs::PseudonymMinted { lifetime },
                );
            }
        }
    }

    /// Advances the simulation until simulated time `t` (in shuffle
    /// periods).
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the current time.
    pub fn run_until(&mut self, t: f64) {
        let horizon = SimTime::new(t);
        assert!(
            horizon >= self.current_time,
            "cannot run backwards: {horizon} < {}",
            self.current_time
        );
        self.record_startup_mints();
        let _span = self
            .recorder
            .span_with("sim.run_until", || format!("until={t}"));
        self.run_windows(horizon);
        self.current_time = horizon;
    }

    /// Injects a correlated failure: every node in `nodes` goes offline now
    /// and returns online exactly `duration` shuffle periods later
    /// (a regional blackout followed by a reconnect flash crowd). Natural
    /// churn resumes after the forced reconnect.
    ///
    /// Nodes already offline stay offline for (at least) the blackout; any
    /// pending natural transition is cancelled via a generation bump. A
    /// node already under a blackout that ends at or after the new one is
    /// left untouched — overlapping blackouts never schedule a duplicate
    /// wake event, and a shorter second blackout never truncates a longer
    /// outage already in force.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not positive or a node index is out of
    /// range.
    pub fn inject_blackout(&mut self, nodes: &[usize], duration: f64) {
        assert!(duration > 0.0, "blackout duration must be positive");
        self.record_startup_mints();
        let now = self.current_time;
        let until = now + duration;
        for &v in nodes {
            assert!(v < self.cells.len(), "node {v} out of range");
            let Some(events) = self.cells[v].begin_blackout(now, until) else {
                continue;
            };
            for kind in events.into_iter().flatten() {
                record(
                    &self.recorder,
                    &mut self.health,
                    now.as_f64(),
                    Some(v as u32),
                    || kind,
                );
            }
            let wake = Event::BlackoutEnd {
                node: v as u32,
                generation: self.cells[v].churn_generation,
            };
            self.rt.shard_of_mut(v).engine.schedule_at(until, wake);
        }
    }

    /// Materializes the current overlay as an undirected graph: the union
    /// of all trusted links and all valid pseudonym links (an edge `{a,b}`
    /// exists if either side holds a link to the other).
    ///
    /// Offline nodes keep their links — connectivity metrics mask them out
    /// separately ("overlay links to nodes that go offline are not
    /// removed"; they become operational again on rejoin).
    pub fn overlay_graph(&self) -> Graph {
        let mut g = Graph::new(self.cells.len());
        for (a, b) in self.trust.edges() {
            g.add_edge(a, b).expect("trust edge in range");
        }
        self.add_pseudonym_edges(&mut g);
        g
    }

    /// The overlay restricted to *pseudonym* links only — the anonymous
    /// indirection layer the paper's privacy argument rests on, without the
    /// trusted-link substrate. This is the graph a correlated outage
    /// actually damages: trusted links are node-addressed and never expire,
    /// so [`Simulation::overlay_graph`] heals the moment power returns,
    /// while pseudonym edges must be re-gossiped (or re-bootstrapped by the
    /// remediation engine) before a node is reachable anonymously again.
    pub fn pseudonym_graph(&self) -> Graph {
        let mut g = Graph::new(self.cells.len());
        self.add_pseudonym_edges(&mut g);
        g
    }

    /// Adds an edge `{v, owner}` for every valid pseudonym link `v` holds.
    fn add_pseudonym_edges(&self, g: &mut Graph) {
        let now = self.current_time;
        for (v, cell) in self.cells.iter().enumerate() {
            for link in cell.node.links_iter(self.arena_of(v), now) {
                if let LinkTarget::Pseudonym(p) = link {
                    let owner = p.owner() as usize;
                    if owner != v {
                        let _ = g.add_edge(v, owner).expect("pseudonym edge in range");
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("nodes", &self.cells.len())
            .field("now", &self.current_time)
            .field("online", &self.online_count())
            .finish()
    }
}
