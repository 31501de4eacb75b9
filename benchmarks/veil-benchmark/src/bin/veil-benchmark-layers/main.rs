//! The layer pass: runs one workload exactly as the gate binary does, but
//! with spans recorded around every call into veil, then times single
//! layers on the state the finished workload left behind and estimates
//! each layer's share of the timed region.
//!
//! Everything here may break when a module's signature changes; the gate
//! binary (`veil-benchmark`) does not depend on any of it.

mod kernels;
mod netk;

use kernels::{ExecutorNs, ExecutorRun, ProtocolNs};
use std::process::ExitCode;
use veil_benchmark::cli::{Flags, RunArgs};
use veil_benchmark::report::Outcome;
use veil_benchmark::sim::{Counts, Interval};
use veil_benchmark::spans::Tracer;
use veil_benchmark::spec::{HealSpec, Kind, NetSpec, SimSpec, PER_LAYER, STEP};
use veil_benchmark::{heal, net, sim, stats};
use veil_core::experiment::{build_simulation, build_trust_graph};
use veil_core::scenario::{canonical_trace_jsonl, lower, with_global_recorder};
use veil_obs::{analyze_trace, Recorder};

/// Operation counts of the region the shares are estimated over.
#[derive(Debug, Clone, Copy, Default)]
struct Ops {
    events: u64,
    /// Exchanges initiated (first transmissions).
    shuffles: u64,
    /// Exchanges whose response was merged by the initiator.
    exchanges: u64,
    /// Responses built by a responder.
    responses: u64,
    /// Transmissions through the faulty link layer (requests with their
    /// retries, and responses); 0 on the ideal link.
    messages: u64,
    /// Fork/join windows; 0 on the sequential executor.
    windows: u64,
    /// Events written to a full recorder; 0 when tracing is off.
    trace_events: u64,
}

impl Ops {
    fn between(from: &Counts, to: &Counts, faulty: bool, windows: u64) -> Self {
        let requests = to.shuffles - from.shuffles;
        let responses = to.responses - from.responses;
        let shuffles = requests - (to.retries - from.retries);
        Ops {
            events: to.events - from.events,
            shuffles,
            // The ideal link completes every answered exchange at once; a
            // faulty one completes what it neither abandoned nor still
            // has in flight (the latter a handful, not counted).
            exchanges: if faulty {
                shuffles.saturating_sub(to.failures - from.failures)
            } else {
                responses
            },
            responses,
            messages: if faulty { requests + responses } else { 0 },
            windows,
            trace_events: 0,
        }
    }

    fn report(&self, out: &mut Outcome) {
        out.metric("ops.events", self.events as f64);
        out.metric("ops.shuffles", self.shuffles as f64);
        out.metric("ops.exchanges", self.exchanges as f64);
        out.metric("ops.messages", self.messages as f64);
        out.metric("ops.windows", self.windows as f64);
    }
}

/// The stretch of a run the shares are estimated over.
#[derive(Debug, Clone, Copy)]
struct Region {
    /// Faulty link on the sharded executor, or ideal link on the
    /// sequential one.
    faulty: bool,
    /// Threads the shards run on side by side.
    threads: usize,
    /// Seconds spent recording, serializing and replaying the trace.
    obs_s: f64,
    wall_s: f64,
}

/// Kernel time × operation count as a share of the region's wall time. The protocol
/// layers nest — `receive_offer` calls `Cache::absorb` and, per entry,
/// `Sampler::offer`, which looks the id up in the arena — so each gets
/// its self time and the shares add up; `unattributed` is what is left
/// (dispatch, memory stalls, the barrier's merge steps, timers).
fn shares(ops: &Ops, p: &ProtocolNs, e: &ExecutorNs, region: &Region, out: &mut Outcome) {
    let Region {
        faulty,
        threads,
        obs_s,
        wall_s: region_s,
    } = *region;
    let secs = |calls: u64, ns: f64| calls as f64 * ns / 1e9;
    // Work the shards do side by side shortens the wall clock by the
    // thread count at best; the fork/join itself does not.
    let par = threads.max(1) as f64;

    let deliveries = ops.messages;
    let engine = secs(ops.events.saturating_sub(deliveries), e.hold) + secs(deliveries, e.hold_exp);
    let node = secs(ops.shuffles, if faulty { p.pick_link } else { p.links });
    let (builds, receives) = if faulty {
        (ops.shuffles + ops.responses, ops.responses + ops.exchanges)
    } else {
        (2 * ops.exchanges, 2 * ops.exchanges)
    };
    let protocol = secs(builds, p.build_offer) + secs(receives, p.receive_offer);
    let cache = secs(builds, p.select_offer) + secs(receives, p.absorb);
    let offered = (receives as f64 * p.offer_len) as u64;
    let sampler = secs(offered, p.sampler_offer);
    let pseudonym = secs(offered, p.lookup);
    let rng = secs(ops.messages, e.derive_message_rng);
    let transport = secs(ops.messages, e.message_link_send - e.derive_message_rng);
    let fork_join = secs(ops.windows, e.fork_join);

    let parts = [
        ("est_share.engine", engine / par),
        ("est_share.node", node / par),
        ("est_share.protocol", (protocol - cache - sampler) / par),
        ("est_share.cache", cache / par),
        ("est_share.sampler", (sampler - pseudonym) / par),
        ("est_share.pseudonym", pseudonym / par),
        ("est_share.rng", rng / par),
        ("est_share.transport", transport / par),
        ("est_share.par", fork_join),
        ("est_share.obs", obs_s),
    ];
    let mut rest = 1.0;
    for (name, s) in parts {
        out.metric(name, s / region_s);
        rest -= s / region_s;
    }
    out.metric("est_share.unattributed", rest);
}

fn phases(tr: &Tracer, out: &mut Outcome) {
    let own = tr.self_seconds();
    let under = |prefix: &str| -> f64 {
        own.iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, s)| s)
            .sum()
    };
    out.metric("phase.setup_s", under("setup"));
    out.metric("phase.ramp_s", under("ramp"));
    out.metric("phase.steady_s", under("steady"));
    out.metric("phase.check_s", under("check"));
    out.metric("phase.kernels_s", under("kernels"));
}

fn steady_stats(steady: &[Interval], wall_s: f64, events: u64, out: &mut Outcome) {
    let per_event: Vec<f64> = steady.iter().map(Interval::us_per_event).collect();
    out.metric("phase.us_per_event_p80", stats::quantile(&per_event, 0.8));
    out.metric("run.events_per_wall_s", events as f64 / wall_s.max(1e-9));
    out.metric("run.samples", steady.len() as f64);
}

/// Keeps the run's checks and exact values; of its end-to-end metrics
/// only the per-event median, under a per-layer name of its own.
fn layer_outcome(e2e: &Outcome) -> Outcome {
    let mut out = e2e.clone();
    out.metrics.clear();
    if let Some(&(_, v)) = e2e.metrics.iter().find(|(n, _)| *n == "us_per_event_p50") {
        out.metric("trace.us_per_event_p50", v);
    }
    out
}

fn sim_layers(spec: SimSpec, seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let mut run = sim::run(spec, seed, seconds, tr);
    let mut out = layer_outcome(&run.outcome);
    let faulty = spec.faulty_shards.is_some();
    let shards = spec.faulty_shards.unwrap_or(1);

    let windows = |intervals: &[Interval]| if faulty { intervals.len() as u64 } else { 0 };
    for (name, value) in run.at_warm.named() {
        out.metric(name, value as f64);
    }
    out.metric("count.windows", windows(&run.ramp) as f64);
    out.metric("count.links", run.warm_snapshot.pseudonym_links as f64);
    out.metric("count.online", run.warm_snapshot.online_nodes as f64);
    out.metric("mem.heap_bytes_per_node", run.heap_bytes_per_node);
    out.metric("graph.generators.degree_matched_s", run.graph_s);
    out.metric("core.simulation.new_s", run.sim_new_s);

    let ops = Ops::between(&run.at_warm, &run.at_end, faulty, windows(&run.steady));
    ops.report(&mut out);
    steady_stats(&run.steady, run.steady_wall_s, ops.events, &mut out);

    let ((p, e), _) = tr.scope("kernels", |_| {
        let p = kernels::protocol(&mut run.sim, seed, &mut out);
        let e = kernels::executor(
            &mut run.sim,
            &ExecutorRun {
                master_seed: sim::MASTER_SEED,
                churn: &sim::churn_config(),
                shards: spec.faulty_shards,
                region: (spec.warm, run.end_snapshot.time),
            },
            &mut out,
        );
        kernels::probes(&run.sim, &mut out);
        (p, e)
    });
    let region = Region {
        faulty,
        threads: shards,
        obs_s: 0.0,
        wall_s: run.steady_wall_s,
    };
    shares(&ops, &p, &e, &region, &mut out);
    phases(tr, &mut out);
    out
}

/// What `run_scenario_with` does, one step at a time: lower, build the
/// trust graph and the simulation, run stepped to the horizon with a full
/// recorder, serialize the canonical trace, replay it. (The recovery
/// probes and the final flood it also does are timed as kernels.)
fn heal_layers(spec: HealSpec, seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let sc = heal::scenario(&spec, seed);
    let recorder = Recorder::full();
    let ((mut sim, horizon, churn), build_s) = tr.scope("steady.build", |_| {
        let mut lowered = lower(&sc).expect("scenario lowers");
        lowered.params.overlay.shards = Some(spec.shards);
        let trust = build_trust_graph(&lowered.params).expect("trust graph builds");
        let mut sim = with_global_recorder(&recorder, || {
            build_simulation(trust, &lowered.params, lowered.alpha)
        })
        .expect("simulation builds");
        sim.set_recorder(recorder.clone());
        let churn = *sim.churn_config();
        (sim, lowered.horizon, churn)
    });
    let mut steps = Vec::new();
    let ((), sim_s) = tr.scope("steady.sim", |_| {
        let mut t = 0.0;
        while t < horizon {
            t = (t + STEP).min(horizon);
            let (before, start) = (sim.events_processed(), std::time::Instant::now());
            sim.run_until(t);
            steps.push(Interval {
                events: sim.events_processed() - before,
                wall_s: start.elapsed().as_secs_f64(),
            });
        }
    });
    let (trace, trace_s) = tr.scope("steady.trace", |_| canonical_trace_jsonl(&recorder));
    let (report, analyze_s) = tr.scope("steady.analyze", |_| {
        analyze_trace(&trace).expect("trace replays")
    });
    let region_s = build_s + sim_s + trace_s + analyze_s;

    // The same workload as the gate runs it, in what is left of --seconds.
    let run = heal::run(spec, seed, seconds, region_s, tr);
    let mut out = layer_outcome(&run.outcome);
    out.check(
        "stepped_trace_equals_scenario_trace",
        trace == run.last.trace_jsonl,
        format!(
            "{} bytes stepped, {} bytes from run_scenario_with",
            trace.len(),
            run.last.trace_jsonl.len()
        ),
    );

    let trace_events = (trace.lines().count() as u64).saturating_sub(1);
    let counts = Counts::of(&sim);
    for (name, value) in counts.named() {
        out.metric(name, value as f64);
    }
    out.metric("count.windows", steps.len() as f64);
    out.metric("count.trace_events", trace_events as f64);
    out.metric("count.alerts", report.alerts.len() as f64);
    out.metric(
        "count.remedy_actions",
        report.reaction_counts.values().sum::<u64>() as f64,
    );
    out.metric("count.online", sim.online_count() as f64);
    out.metric(
        "obs.trace_bytes_per_event",
        trace.len() as f64 / trace_events.max(1) as f64,
    );
    out.metric("phase.build_s", build_s);
    out.metric("phase.sim_s", sim_s);
    out.metric("phase.trace_s", trace_s);
    out.metric("phase.analyze_s", analyze_s);
    out.metric(
        "obs.recorder.jsonl_ns_per_event",
        trace_s * 1e9 / trace_events.max(1) as f64,
    );
    out.metric(
        "obs.replay.analyze_ns_per_event",
        analyze_s * 1e9 / trace_events.max(1) as f64,
    );

    let mut ops = Ops::between(&Counts::default(), &counts, true, steps.len() as u64);
    ops.trace_events = trace_events;
    ops.report(&mut out);
    steady_stats(&steps, sim_s, ops.events, &mut out);

    let ((p, e, event_ns), _) = tr.scope("kernels", |_| {
        let p = kernels::protocol(&mut sim, seed, &mut out);
        let e = kernels::executor(
            &mut sim,
            &ExecutorRun {
                master_seed: sc.seed,
                churn: &churn,
                shards: Some(spec.shards),
                region: (0.0, horizon),
            },
            &mut out,
        );
        kernels::probes(&sim, &mut out);
        (p, e, kernels::recorder_event_ns())
    });
    out.metric("obs.recorder.event_ns", event_ns);
    let obs_s = trace_events as f64 * event_ns / 1e9 / spec.shards as f64 + trace_s + analyze_s;
    let region = Region {
        faulty: true,
        threads: spec.shards,
        obs_s,
        wall_s: region_s,
    };
    shares(&ops, &p, &e, &region, &mut out);
    phases(tr, &mut out);
    out
}

fn net_layers(spec: NetSpec, seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let run = net::run(spec, seed, seconds, tr);
    let mut out = layer_outcome(&run.outcome);
    let started = run.total(|s| s.shuffles_started);
    let completed = run.total(|s| s.shuffles_completed);
    let messages = run.total(|s| s.requests_sent + s.responses_sent);

    out.metric("net.runtime.rtt_p50_us", run.rtt_us(|h| h.p50));
    out.metric("net.runtime.rtt_p90_us", run.rtt_us(|h| h.p90));
    out.metric("net.runtime.rtt_p99_us", run.rtt_us(|h| h.p99));
    out.metric(
        "net.runtime.cpu_us_per_exchange",
        run.cpu_s * 1e6 / completed.max(1) as f64,
    );
    out.metric(
        "net.runtime.started_share",
        started as f64 / (2.0 * run.scenario.horizon),
    );
    out.metric("count.shuffles", started as f64);
    out.metric("count.responses", run.total(|s| s.responses_sent) as f64);
    out.metric("count.retries", run.total(|s| s.shuffle_retries) as f64);
    out.metric("count.failures", run.total(|s| s.shuffle_failures) as f64);
    out.metric("count.dropped", run.total(|s| s.dropped_requests) as f64);
    out.metric("count.timeouts", run.total(|s| s.shuffle_timeouts) as f64);
    out.metric("count.dial_failures", run.total(|s| s.dial_failures) as f64);
    out.metric(
        "count.bytes_out",
        run.telemetry_total("net.bytes_out") as f64,
    );
    out.metric(
        "count.frames_out",
        run.telemetry_total("net.frames_out") as f64,
    );
    out.metric("count.offer_len", netk::PAIR_OFFER_LEN as f64);
    let trace_events: usize = run
        .nodes
        .iter()
        .map(|n| n.trace.lines().count().saturating_sub(1))
        .sum();
    out.metric("count.trace_events", trace_events as f64);
    out.metric("ops.shuffles", started as f64);
    out.metric("ops.exchanges", completed as f64);
    out.metric("ops.messages", messages as f64);
    out.metric("run.events_per_wall_s", completed as f64 / run.wall_s);
    out.metric("run.samples", completed as f64);

    let ell = run.scenario.overlay().shuffle_length;
    let ((encode, decode, frame), _) = tr.scope("kernels", |_| netk::run(seed, ell, &mut out));
    // The pair is paced, so its wall clock is the schedule's; what the
    // wire path can claim is a share of the CPU the process burned. Each
    // message is encoded once, framed once and decoded once.
    let wire = messages as f64 * (encode + decode + frame) / 1e9 / run.cpu_s.max(1e-9);
    out.metric("est_share.wire", wire);
    out.metric("est_share.unattributed", 1.0 - wire);
    phases(tr, &mut out);
    // The start barrier is inside `run_node_with`, so no span of ours
    // separates set-up from the paced run; the run itself knows.
    out.metric("phase.setup_s", run.setup_s);
    out.metric("phase.steady_s", run.wall_s - run.setup_s);
    out
}

fn main() -> ExitCode {
    let parsed = Flags::parse(std::env::args().skip(1)).and_then(|flags| {
        flags.only(&["workload", "seed", "seconds", "trace", "smoke", "spans-out"])?;
        Ok((RunArgs::from_flags(&flags)?, flags))
    });
    let (args, flags) = match parsed {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: veil-benchmark-layers --workload <name> [--seed N] \
                 [--seconds S] [--trace 1] [--smoke] [--spans-out FILE]"
            );
            return ExitCode::from(2);
        }
    };
    let mut tr = Tracer::new(true);
    let outcome = match args.workload.kind(args.smoke) {
        Kind::Sim(spec) => sim_layers(spec, args.seed, args.seconds, &mut tr),
        Kind::Heal(spec) => heal_layers(spec, args.seed, args.seconds, &mut tr),
        Kind::Net(spec) => net_layers(spec, args.seed, args.seconds, &mut tr),
    };
    // Spans were kept in memory; they are written once, now.
    let spans_path = flags.get("spans-out").map_or_else(
        || {
            std::env::current_exe()
                .expect("own path")
                .with_file_name(format!("spans-{}.json", args.workload.name))
        },
        std::path::PathBuf::from,
    );
    if let Err(e) = std::fs::write(&spans_path, tr.to_json()) {
        eprintln!(
            "warning: spans not written to {}: {e}",
            spans_path.display()
        );
    }
    outcome.print(&PER_LAYER)
}
