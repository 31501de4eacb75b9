//! The windowed runtime: window loop, fork/join dispatch and the barrier.
//! Every run executes here — on `S = shards.unwrap_or(1)` shards when
//! messages spend time in flight (a fault model), on one shard for the
//! ideal zero-latency link.
//!
//! Nodes are partitioned into `S` contiguous ranges; each [`Shard`] owns
//! its range's cells, engine, pending exchanges and pseudonym minter.
//! Execution advances in bounded windows on the global grid
//! (`mailbox::WINDOW`): every shard drains its own events strictly before
//! the window cap (on a `veil-par` worker when there is more than one),
//! then the coordinator runs the barrier single-threaded:
//!
//! 1. merge all outboxes in the canonical `(deliver_at, src, seq)` order
//!    and inject each message into its destination's owner shard,
//! 2. apply deferred cross-shard stat credits in `(t, initiator,
//!    exchange)` order, buffering the drop event each one traces,
//! 3. merge the per-shard message logs in canonical record order,
//! 4. feed the window's buffered events, sorted stably by `(t, node)`
//!    (a total key), to the coordinator-owned health monitor and recorder,
//! 5. rotate the monitor if a health window closed, and hand the alerts
//!    that fired to the remediation engine.
//!
//! Every barrier step is a pure function of set-of-shard-outputs, so the
//! post-barrier state — and therefore the whole run — is invariant in the
//! shard count.
//!
//! # Partial windows
//!
//! `run_until` may stop off the grid. The window it stops in stays open:
//! shards have drained their events up to the stop, and a *partial*
//! barrier runs steps 2–5 on what they produced (each is a merge by time
//! or a commutative sum, so splitting it at the stop changes nothing). One
//! thing belongs to the grid window, not to the call, and is left alone
//! until the window closes on its boundary: the **outboxes** keep their
//! messages (every one is due at or after the closing boundary, so nobody
//! can need it earlier) and step 1 injects them in one canonical batch —
//! two batches would let the engines' FIFO tie-break order equal-time
//! deliveries by batch.
//!
//! So between two calls the engines hold exactly what a straight run's
//! engines hold at that instant, [`ShardedRuntime::queue_high_water`] is
//! stepping-invariant, and the messages of the open window sit in the
//! outboxes, which [`ShardedRuntime::pending_events`] and
//! [`ShardedRuntime::approx_heap_bytes`] count.

use veil_obs::{EventKind as Obs, TraceEvent};
use veil_sim::SimTime;

use super::mailbox::{sort_canonical, sort_records, OutMsg, WINDOW};
use super::shard::{Shard, WindowCtx};
use super::state::{owner_of, shard_starts, HealthView, NodeCell};
use super::MessageRecord;
use crate::simulation::Simulation;

/// Runtime state of the windowed executor.
pub(crate) struct ShardedRuntime {
    pub(crate) shards: Vec<Shard>,
    /// `shards.len() + 1` range boundaries; shard `i` owns
    /// `starts[i]..starts[i + 1]`.
    pub(crate) starts: Vec<usize>,
    /// Owner shard of every node.
    pub(crate) owner: Vec<u32>,
    /// Index of the next *incomplete* window; the window covers
    /// `[window_index · W, (window_index + 1) · W)`.
    pub(crate) window_index: u64,
    /// Reused barrier scratch for the canonical cross-shard message merge.
    batch: Vec<OutMsg>,
    /// Reused barrier scratch for the message-log merge.
    records: Vec<MessageRecord>,
    /// Reused barrier scratch for the deferred stat credits.
    credits: Vec<(SimTime, u32, u64)>,
    /// Reused barrier scratch for the window's buffered events.
    events: Vec<TraceEvent>,
    /// Reused barrier scratch for a health rotation's topology view.
    view: HealthView,
}

impl ShardedRuntime {
    pub(crate) fn new(n: usize, s: usize, master_seed: u64) -> Self {
        let starts = shard_starts(n, s);
        let owner = owner_of(n, &starts);
        let shards = starts
            .windows(2)
            .map(|w| Shard::new(w[0], w[1] - w[0], master_seed))
            .collect();
        Self {
            shards,
            starts,
            owner,
            window_index: 0,
            batch: Vec::new(),
            records: Vec::new(),
            credits: Vec::new(),
            events: Vec::new(),
            view: HealthView::default(),
        }
    }

    /// The shard owning node `v`.
    pub(crate) fn shard_of_mut(&mut self, v: usize) -> &mut Shard {
        let i = self.owner[v] as usize;
        &mut self.shards[i]
    }

    /// Total pseudonyms minted across all shard-local minters.
    pub(crate) fn pseudonyms_minted(&self) -> u64 {
        self.shards.iter().map(|s| s.minter.minted()).sum()
    }

    /// Sum of engine event counters across shards (for metrics).
    pub(crate) fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.processed()).sum()
    }

    pub(crate) fn queue_high_water(&self) -> usize {
        self.shards.iter().map(|s| s.engine.high_water_mark()).sum()
    }

    /// Events not yet processed: queued ones plus, while a window is open,
    /// the deliveries waiting in the outboxes for its closing barrier.
    pub(crate) fn pending_events(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.engine.pending() + s.outbox.len())
            .sum()
    }

    /// Approximate heap footprint of the runtime across all shards plus
    /// the coordinator's reusable barrier scratch.
    pub(crate) fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.shards
            .iter()
            .map(super::shard::Shard::approx_heap_bytes)
            .sum::<usize>()
            + self.starts.capacity() * size_of::<usize>()
            + self.owner.capacity() * size_of::<u32>()
            + self.batch.capacity() * size_of::<OutMsg>()
            + self.records.capacity() * size_of::<MessageRecord>()
            + self.credits.capacity() * size_of::<(SimTime, u32, u64)>()
            + self.events.capacity() * size_of::<TraceEvent>()
            + self.view.capacity_bytes()
    }
}

/// One shard's slice of work for a window: the shard plus the cells it
/// owns, bundled so `veil-par` can hand each worker exclusive `&mut`s.
struct WorkItem<'a> {
    shard: &'a mut Shard,
    cells: &'a mut [NodeCell],
}

impl Simulation {
    /// Advances every shard to `horizon` window by window.
    pub(crate) fn run_windows(&mut self, horizon: SimTime) {
        loop {
            let boundary = SimTime::new((self.rt.window_index + 1) as f64 * WINDOW);
            let cap = boundary.min(horizon);
            let closes = cap == boundary;
            self.run_one_window(cap, closes);
            if closes {
                self.rt.window_index += 1;
            }
            if boundary >= horizon {
                break;
            }
        }
    }

    /// Runs one window, or the part of it before `cap`: fork shards, join,
    /// barrier. `closes` says `cap` is the window's far grid boundary (see
    /// "Partial windows" in the module docs).
    fn run_one_window(&mut self, cap: SimTime, closes: bool) {
        let log_on = self.message_log.is_some();
        let buffer_events = self.health.is_some() || self.recorder.is_enabled();
        let Simulation {
            cfg,
            trust,
            cells,
            rt,
            fault,
            master_seed,
            recorder,
            message_log,
            health,
            remedy,
            ..
        } = self;
        let ShardedRuntime {
            shards,
            starts,
            owner,
            batch,
            records,
            credits,
            events,
            view,
            ..
        } = rt;
        let ctx = WindowCtx {
            cfg,
            fault: fault.as_ref(),
            master_seed: *master_seed,
            cap,
            log_on,
            buffer_events,
        };

        if let [shard] = shards.as_mut_slice() {
            // One shard owns every cell: nothing to fork.
            shard.run_window(cells, &ctx);
        } else {
            // Fork: hand every shard exclusive &muts to its own cells.
            let mut items: Vec<WorkItem<'_>> = Vec::with_capacity(shards.len());
            let mut rest: &mut [NodeCell] = cells;
            for (i, shard) in shards.iter_mut().enumerate() {
                let len = starts[i + 1] - starts[i];
                let (head, tail) = rest.split_at_mut(len);
                rest = tail;
                items.push(WorkItem { shard, cells: head });
            }
            let s = items.len();
            veil_par::fork_join_indexed(&mut items, Some(s), |_, item| {
                item.shard.run_window(item.cells, &ctx);
            });
        }

        // Barrier step 1: canonical cross-shard message merge. The sort
        // key (deliver_at, src, seq) depends only on each sender's own
        // history, and the engines pop equal-time events FIFO, so the
        // injection order — hence everything downstream — is invariant in
        // the shard layout. One amortized drain per window: outboxes are
        // appended (emptying them in place), sorted once, and re-injected.
        if closes {
            for shard in shards.iter_mut() {
                batch.append(&mut shard.outbox);
            }
            sort_canonical(batch);
            for msg in batch.drain(..) {
                let owner = owner[msg.dest as usize] as usize;
                shards[owner].engine.schedule_at(msg.deliver_at, msg.event);
            }
        }

        // Barrier step 2: deferred foreign stat credits. A responder-side
        // request drop debits the initiator, who may live on another
        // shard, so the debit and the `MessageDropped` traced under the
        // initiator happen here, in `(t, initiator, exchange)` order; at
        // step 4 they precede the initiator's own events at their `t`.
        for shard in shards.iter_mut() {
            credits.append(&mut shard.credits);
        }
        credits.sort_unstable();
        for (t, v, exchange) in credits.drain(..) {
            cells[v as usize].node.stats.dropped_requests += 1;
            if buffer_events {
                events.push(TraceEvent {
                    t: t.as_f64(),
                    tid: 0,
                    seq: 0,
                    node: Some(v),
                    kind: Obs::MessageDropped {
                        exchange,
                        response: false,
                    },
                });
            }
        }

        // Barrier step 3: merge the window's message logs canonically.
        if let Some(log) = message_log {
            for shard in shards.iter_mut() {
                records.append(&mut shard.log_buf);
            }
            sort_records(records);
            log.append(records);
        } else {
            for shard in shards.iter_mut() {
                shard.log_buf.clear();
            }
        }

        // Barrier step 4: the window's events, taken in shard order and
        // sorted stably by `(t, node)`, go through the coordinator's
        // funnel — health monitor, then recorder. A node's events all come
        // from its owner shard (or step 2) in an order node state fixes,
        // and node-less ones only from shard 0, so the order is canonical:
        // the same for every shard count.
        for shard in shards.iter_mut() {
            events.append(&mut shard.event_buf);
        }
        events.sort_by(|a, b| a.t.total_cmp(&b.t).then(a.node.cmp(&b.node)));
        for e in events.drain(..) {
            super::record(recorder, health, e.t, e.node, || e.kind);
        }

        // Barrier step 5: a health window is a multiple of the execution
        // window, so it can only close on a barrier's cap. Rotate against
        // the barrier-time cells and (when self-healing is on) feed every
        // alert into the remediation engine, which applies its reactions
        // to the same cells. Alerts, view and cells are all pure functions
        // of set-of-shard-outputs, so the reactions — like everything else
        // here — are invariant in the shard count.
        let t = cap.as_f64();
        if let Some(h) = health.as_mut().filter(|h| h.due(t)) {
            view.fill(cells, trust);
            let alerts = view.rotate(h, recorder, t);
            if let Some(rm) = remedy.as_mut().filter(|_| !alerts.is_empty()) {
                let decisions = rm.decide(&alerts, &view.online);
                rm.apply(&decisions, cells, shards, owner, trust, recorder);
            }
        }
    }
}
