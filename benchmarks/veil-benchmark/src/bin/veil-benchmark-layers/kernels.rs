//! Kernels: one layer of veil at a time, on state harvested from the
//! finished workload — a seeded sample of warmed nodes with their real
//! caches and samplers, the arena at its real length, the event queue at
//! the workload's population. Each reports the median over batches of
//! nanoseconds per call.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use veil_benchmark::report::Outcome;
use veil_benchmark::sim::fault_config;
use veil_benchmark::stats;
use veil_core::dissemination::flood_current_overlay;
use veil_core::metrics::snapshot;
use veil_core::node::LinkTarget;
use veil_core::protocol::{build_offer, receive_offer, Offer};
use veil_core::simulation::Simulation;
use veil_core::transport::{MessageLink, Transport};
use veil_obs::{EventKind, Recorder};
use veil_sim::churn::{ChurnConfig, ChurnProcess};
use veil_sim::engine::Engine;
use veil_sim::rng::{derive_message_rng, derive_rng, Stream};
use veil_sim::SimTime;

/// Warmed nodes a kernel visits per batch: at ~14 KB of state each, far
/// more than the last-level cache holds, as in the run itself.
pub const SAMPLE: usize = 2_000;
/// Batches per kernel; the reported time is their median.
pub const BATCHES: usize = 5;

/// Median over [`BATCHES`] of ns per operation. `batch(b)` runs one
/// pass and returns how many operations it did and how long they took;
/// what it does before starting its own clock is not counted.
fn median_ns_self_timed(mut batch: impl FnMut(usize) -> (u64, f64)) -> f64 {
    let per_op: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let (ops, secs) = batch(b);
            secs * 1e9 / ops.max(1) as f64
        })
        .collect();
    stats::median(&per_op)
}

/// [`median_ns_self_timed`] for a batch that is timed as a whole.
pub fn median_ns(mut batch: impl FnMut(usize) -> u64) -> f64 {
    median_ns_self_timed(|b| {
        let start = Instant::now();
        let ops = batch(b);
        (ops, start.elapsed().as_secs_f64())
    })
}

/// Per-call nanoseconds of the protocol layers on one simulation's
/// state: what the share estimate multiplies by operation counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProtocolNs {
    pub build_offer: f64,
    pub select_offer: f64,
    pub receive_offer: f64,
    pub absorb: f64,
    pub sampler_offer: f64,
    pub lookup: f64,
    pub pick_link: f64,
    pub links: f64,
    /// Mean entries per offer the sampled nodes built.
    pub offer_len: f64,
}

/// The protocol kernels. Mutates the sampled nodes the way shuffles
/// would (offers absorbed, slots replaced), so the state stays that of a
/// running overlay from the first batch to the last.
pub fn protocol(sim: &mut Simulation, seed: u64, out: &mut Outcome) -> ProtocolNs {
    let now = sim.now();
    let ell = sim.config().shuffle_length;
    let online = sim.online_mask();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b65_726e_656c);
    let mut sample: Vec<usize> = (0..sim.node_count()).filter(|&v| online[v]).collect();
    sample.shuffle(&mut rng);
    sample.truncate(SAMPLE);
    let k = sample.len();

    let build_all = |sim: &mut Simulation, rng: &mut StdRng| -> Vec<Offer> {
        sample
            .iter()
            .map(|&v| {
                let (node, arena) = sim.node_and_arena_mut(v);
                build_offer(node, arena, ell, now, rng)
            })
            .collect()
    };

    let build_offer = median_ns(|_| {
        black_box(build_all(sim, &mut rng));
        k as u64
    });
    let select_offer = median_ns(|_| {
        for &v in &sample {
            let (node, arena) = sim.node_and_arena_mut(v);
            black_box(node.cache.select_offer(arena, ell - 1, &mut rng));
        }
        k as u64
    });

    let offers = build_all(sim, &mut rng);
    let offer_len = offers.iter().map(|o| o.entries.len()).sum::<usize>() as f64 / k as f64;
    let cache_len = sample
        .iter()
        .map(|&v| sim.node(v).cache.len())
        .sum::<usize>() as f64
        / k as f64;

    // Read-only kernels first, on the offers as built.
    let lookup = median_ns(|b| {
        let mut ops = 0;
        for (i, &v) in sample.iter().enumerate() {
            // The partner's ids, as a receiver sees them: mostly already
            // interned in its domain, some not.
            let arena = sim.arena_of(v);
            for p in &offers[(i + b + 1) % k].entries {
                black_box(arena.lookup(p.id()));
                ops += 1;
            }
        }
        ops
    });
    let intern = median_ns(|_| {
        let mut ops = 0;
        for (i, &v) in sample.iter().enumerate() {
            // The node's own offer: every entry is interned already, the
            // common case on the receive path.
            let (_, arena) = sim.node_and_arena_mut(v);
            for &p in &offers[i].entries {
                black_box(arena.intern(p));
                ops += 1;
            }
        }
        ops
    });
    let pick_link = median_ns(|_| {
        for &v in &sample {
            let (node, arena) = sim.node_and_arena_mut(v);
            black_box(node.pick_link(arena, now, &mut rng));
        }
        k as u64
    });
    let links = median_ns(|_| {
        for &v in &sample {
            // The sequential executor's `skip_offline_peers` path: an
            // allocated link list, filtered into a second one. (The
            // executor reads each peer's churn state from its cell; this
            // reads a packed mask, so it is a lower bound.)
            let links = sim.node(v).links(sim.arena_of(v), now);
            let up: Vec<LinkTarget> = links
                .into_iter()
                .filter(|l| online[l.resolve() as usize])
                .collect();
            if !up.is_empty() {
                black_box(up[rng.gen_range(0..up.len())]);
            }
        }
        k as u64
    });

    // Mutating kernels: fresh offers before each batch, a different
    // partner each batch, so the received entries are new to the node.
    let sampler_offer = median_ns_self_timed(|b| {
        let offers = build_all(sim, &mut rng);
        let start = Instant::now();
        let mut ops = 0;
        for (i, &v) in sample.iter().enumerate() {
            let (node, arena) = sim.node_and_arena_mut(v);
            for &p in &offers[(i + b + 1) % k].entries {
                if p.owner() != node.id {
                    black_box(node.sampler.offer(arena, p, now));
                    ops += 1;
                }
            }
        }
        (ops, start.elapsed().as_secs_f64())
    });
    let absorb = median_ns_self_timed(|b| {
        let offers = build_all(sim, &mut rng);
        let start = Instant::now();
        for (i, &v) in sample.iter().enumerate() {
            let (node, arena) = sim.node_and_arena_mut(v);
            let own = node.own_pseudonym(now).map(|p| p.id());
            black_box(node.cache.absorb(
                arena,
                &offers[(i + b + 1) % k].entries,
                &offers[i].sent_from_cache,
                own,
                now,
                &mut rng,
            ));
        }
        (k as u64, start.elapsed().as_secs_f64())
    });
    let receive_offer = median_ns_self_timed(|b| {
        let offers = build_all(sim, &mut rng);
        let start = Instant::now();
        for (i, &v) in sample.iter().enumerate() {
            let (node, arena) = sim.node_and_arena_mut(v);
            black_box(receive_offer(
                node,
                arena,
                &offers[(i + b + 1) % k].entries,
                &offers[i].sent_from_cache,
                now,
                &mut rng,
            ));
        }
        (k as u64, start.elapsed().as_secs_f64())
    });

    // One arena per executor domain; a domain is a contiguous node range.
    let mut seen: Vec<*const veil_core::pseudonym::PseudonymArena> = Vec::new();
    let mut arena_len = 0;
    for v in 0..sim.node_count() {
        let arena = sim.arena_of(v);
        if !seen.contains(&std::ptr::from_ref(arena)) {
            seen.push(std::ptr::from_ref(arena));
            arena_len += arena.len();
        }
    }

    out.metric("core.protocol.build_offer_ns", build_offer);
    out.metric("core.cache.select_offer_ns", select_offer);
    out.metric("core.protocol.receive_offer_ns", receive_offer);
    out.metric("core.cache.absorb_ns", absorb);
    out.metric("core.sampler.offer_ns", sampler_offer);
    out.metric("core.pseudonym.lookup_ns", lookup);
    out.metric("core.pseudonym.intern_ns", intern);
    out.metric("core.node.pick_link_ns", pick_link);
    out.metric("core.node.links_ns", links);
    out.metric("count.offer_len", offer_len);
    out.metric("count.cache_len", cache_len);
    out.metric("count.arena_len", arena_len as f64);
    out.metric("count.sampled_nodes", k as f64);
    ProtocolNs {
        build_offer,
        select_offer,
        receive_offer,
        absorb,
        sampler_offer,
        lookup,
        pick_link,
        links,
        offer_len,
    }
}

/// Per-call nanoseconds of the executor's own layers.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecutorNs {
    pub hold: f64,
    pub hold_exp: f64,
    pub derive_message_rng: f64,
    pub message_link_send: f64,
    pub fork_join: f64,
}

/// What the executor kernels need to know about the finished run.
pub struct ExecutorRun<'a> {
    pub master_seed: u64,
    pub churn: &'a ChurnConfig,
    /// `None` on the sequential executor, where no per-message RNG, link
    /// layer or fork/join runs.
    pub shards: Option<usize>,
    /// The simulated-time span the shares are estimated over.
    pub region: (f64, f64),
}

/// Events queued right now, over all executor domains.
fn pending_events(sim: &mut Simulation) -> usize {
    // The engines are private; their gauges are published on request.
    let recorder = Recorder::full();
    sim.set_recorder(recorder.clone());
    sim.publish_metrics();
    sim.set_recorder(Recorder::disabled());
    recorder
        .metrics()
        .gauge_value("engine.pending_events")
        .map_or(0, |v| v as usize)
}

/// A queue shaped like one executor domain's: `nodes` shuffle timers
/// spread over one period, one churn transition per node far ahead, and
/// what else is `queued` (deliveries, timeouts) within the exchange
/// timeout.
///
/// `anchored` builds it the way `Simulation::new` does — a churn
/// transition of the domain's first node is scheduled before anything
/// else, and the calendar anchors there, so until the clock reaches that
/// instant every event is a sorted insert into one bucket. Without it the
/// calendar anchors at the first timer and spreads events over buckets.
fn queue(nodes: usize, queued: usize, anchored: bool) -> Engine<u32> {
    let mut rng = StdRng::seed_from_u64(queued as u64);
    let mut engine: Engine<u32> = Engine::new();
    let mut times: Vec<f64> = (0..queued.max(nodes))
        .map(|i| match i / nodes.max(1) {
            0 => rng.gen_range(0.0..1.0),
            1 => rng.gen_range(50.0..150.0),
            _ => rng.gen_range(0.0..3.0),
        })
        .collect();
    // Latest first: in the anchored queue each event then lands at the
    // pop end of the one sorted bucket, and building it stays linear.
    times.sort_by(|a, b| b.total_cmp(a));
    // The calendar anchors at whatever is scheduled first.
    let first = if anchored {
        1e3
    } else {
        times.pop().expect("a queue has events")
    };
    engine.schedule_at(SimTime::new(first), 0);
    for (i, t) in times.into_iter().enumerate() {
        engine.schedule_at(SimTime::new(t), i as u32);
    }
    engine
}

/// Nanoseconds per hold: pop the earliest event, schedule one `delay()`
/// later.
fn hold_ns(mut engine: Engine<u32>, mut delay: impl FnMut() -> f64) -> f64 {
    let ops = (engine.pending() / 4).clamp(500, 2_000) as u64;
    median_ns(|_| {
        for _ in 0..ops {
            let (t, e) = engine.pop().expect("the queue never drains");
            engine.schedule_at(t + delay(), e);
        }
        ops
    })
}

/// The engine, RNG-derivation, link and fork/join kernels.
pub fn executor(sim: &mut Simulation, run: &ExecutorRun<'_>, out: &mut Outcome) -> ExecutorNs {
    let n = sim.node_count();
    let domains = run.shards.unwrap_or(1);
    let (nodes, queued) = (n / domains, pending_events(sim) / domains);

    // How much of the region each domain spent with its calendar anchored
    // ahead of the clock: up to its first node's first churn transition.
    let (t0, t1) = run.region;
    let anchored_share = (0..domains)
        .map(|d| {
            let first = (d * n / domains) as u32;
            let mut rng = derive_rng(run.master_seed, Stream::Churn(first));
            match ChurnProcess::new(run.churn, &mut rng).1 {
                Some(until) => ((until - t0) / (t1 - t0).max(f64::MIN_POSITIVE)).clamp(0.0, 1.0),
                None => 0.0,
            }
        })
        .sum::<f64>()
        / domains as f64;
    let mix = |anchored: f64, flat: f64| anchored_share * anchored + (1.0 - anchored_share) * flat;

    // A re-armed shuffle timer: one period ahead.
    let flat = hold_ns(queue(nodes, queued, false), || 1.0);
    let anchored = hold_ns(queue(nodes, queued, true), || 1.0);
    let mut ns = ExecutorNs {
        hold: mix(anchored, flat),
        ..ExecutorNs::default()
    };
    out.metric("sim.engine.hold_flat_ns", flat);
    out.metric("sim.engine.hold_anchored_ns", anchored);
    out.metric("sim.engine.hold_ns", ns.hold);
    out.metric("sim.engine.anchored_share", anchored_share);
    out.metric("count.queue_len", queued as f64);
    out.metric(
        "sim.rng.derive_rng_ns",
        median_ns(|_| {
            for v in 0..10_000u32 {
                black_box(derive_rng(run.master_seed, Stream::Protocol(v)));
            }
            10_000
        }),
    );
    let Some(shards) = run.shards else {
        return ns;
    };

    // A message delivery: Exponential(0.3) ahead.
    let mut rng = StdRng::seed_from_u64(run.master_seed);
    let mut exp = || -0.3 * (1.0 - rng.gen_range(0.0..1.0f64)).ln();
    ns.hold_exp = mix(
        hold_ns(queue(nodes, queued, true), &mut exp),
        hold_ns(queue(nodes, queued, false), &mut exp),
    );
    ns.derive_message_rng = median_ns(|_| {
        for exchange in 0..10_000u64 {
            black_box(derive_message_rng(run.master_seed, exchange, 0, false));
        }
        10_000
    });
    let fault = fault_config();
    ns.message_link_send = median_ns(|_| {
        for exchange in 0..10_000u64 {
            let mut link = MessageLink::for_message(&fault, run.master_seed, exchange, 0, false);
            black_box(link.send(1, 2, 5.0));
        }
        10_000
    });
    // What the executor does once per window: S items on S threads, here
    // with nothing to do in them.
    ns.fork_join = median_ns(|_| {
        let mut items = vec![0u64; shards];
        for _ in 0..200 {
            veil_par::fork_join_indexed(&mut items, Some(shards), |_, x| *x += 1);
        }
        black_box(&items);
        200
    });
    out.metric("sim.engine.hold_exp_ns", ns.hold_exp);
    out.metric("sim.rng.derive_message_rng_ns", ns.derive_message_rng);
    out.metric("core.transport.message_link_send_ns", ns.message_link_send);
    out.metric("par.fork_join_ns", ns.fork_join);
    ns
}

/// The read-only probes a scenario run takes of a finished overlay.
pub fn probes(sim: &Simulation, out: &mut Outcome) {
    let timed = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    out.metric(
        "core.metrics.snapshot_s",
        timed(&mut || {
            black_box(snapshot(sim));
        }),
    );
    let online = sim.online_mask();
    let overlay = sim.overlay_graph();
    out.metric(
        "graph.metrics.fraction_disconnected_s",
        timed(&mut || {
            black_box(veil_graph::metrics::fraction_disconnected(
                &overlay, &online,
            ));
        }),
    );
    let source = (0..sim.node_count())
        .filter(|&v| online[v])
        .max_by_key(|&v| sim.trust_graph().degree(v));
    if let Some(source) = source {
        let mut coverage = 0.0;
        out.metric(
            "core.dissemination.flood_s",
            timed(&mut || coverage = flood_current_overlay(sim, source).coverage()),
        );
        out.metric("model.flood_coverage", coverage);
    }
}

/// Nanoseconds per `Recorder::event` on a full recorder.
pub fn recorder_event_ns() -> f64 {
    median_ns(|b| {
        let rec = Recorder::full();
        for i in 0..20_000u32 {
            rec.event(b as f64 + f64::from(i) * 1e-5, Some(i), || {
                EventKind::ShuffleStart {
                    target: u64::from(i) + 1,
                    trusted: i % 2 == 0,
                }
            });
        }
        black_box(rec.events_seen());
        20_000
    })
}
