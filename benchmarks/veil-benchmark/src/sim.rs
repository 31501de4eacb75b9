//! The simulator workloads (`ideal_*`, `faulty_*`): set up several times,
//! warm up to a fixed simulated time, then measure stepped `run_until`
//! for `--seconds`.

use crate::report::{digest, Outcome};
use crate::spans::Tracer;
use crate::spec::{SimSpec, STEP};
use crate::{stats, sys};
use serde_json::Value;
use std::time::Instant;
use veil_core::config::{LinkLayerConfig, OverlayConfig};
use veil_core::metrics::{snapshot, OverlaySnapshot};
use veil_core::simulation::Simulation;
use veil_sim::churn::ChurnConfig;
use veil_sim::fault::{FaultConfig, LatencyDist};
use veil_sim::rng::{derive_rng, Stream};

/// Node availability α of every simulator workload.
pub const ALPHA: f64 = 0.7;
/// Mean offline time Toff in shuffle periods (pseudonym lifetime 3 × Toff).
pub const MEAN_OFFLINE: f64 = 30.0;
/// The trust graph: `degree_matched(n, 11.3, 0.6)`, the paper's f = 1.0
/// trust samples (11.3 links per node on average).
pub const AVG_DEGREE: f64 = 11.3;
pub const TRIAD: f64 = 0.6;
/// Master seed of every simulator workload's simulation. `--seed` draws
/// the trust graph; phases, churn, pseudonym bits and link faults come
/// from this one, because per-event cost is bimodal in it (README "What
/// the first baseline found"): the event queue anchors its calendar at
/// the first event scheduled, which is node 0's first churn transition,
/// and until simulated time reaches that instant every insert is a
/// sorted insert into one bucket holding the whole queue. Under this seed
/// that instant is t = 35.6 — past every horizon below, as it is past a
/// 20-period horizon for two seeds in three — so all runs measure the
/// same regime, the common one.
pub const MASTER_SEED: u64 = 42;
/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// Simulated time at which a sharded run is compared with a one-shard
/// run of the same seed, before the warm-up continues.
pub const REFERENCE_T: f64 = 2.0;

/// `bench_shard`'s link: loss 0.05, Exponential(mean 0.3) latency.
pub fn fault_config() -> FaultConfig {
    FaultConfig {
        drop_probability: 0.05,
        latency: LatencyDist::Exponential { mean: 0.3 },
        episodes: Vec::new(),
    }
}

/// The churn model of every simulator workload.
pub fn churn_config() -> ChurnConfig {
    ChurnConfig::from_availability(ALPHA, MEAN_OFFLINE)
}

/// Paper-default overlay (cache 400, ℓ = 40, lifetime 90 periods): on the
/// ideal link and the sequential executor for `None`, on the faulty link
/// and that many shards otherwise.
pub fn overlay_config(faulty_shards: Option<usize>) -> OverlayConfig {
    match faulty_shards {
        None => OverlayConfig::default(),
        Some(shards) => OverlayConfig {
            shards: Some(shards),
            parallelism: Some(shards),
            link: LinkLayerConfig::Faulty(fault_config()),
            ..OverlayConfig::default()
        },
    }
}

fn build(
    nodes: usize,
    faulty_shards: Option<usize>,
    seed: u64,
    tr: &mut Tracer,
) -> (Simulation, f64, f64) {
    let (trust, graph_s) = tr.scope("setup.graph", |_| {
        let mut rng = derive_rng(seed, Stream::Topology);
        veil_graph::generators::degree_matched(nodes, AVG_DEGREE, TRIAD, &mut rng)
            .expect("trust graph parameters are valid")
    });
    let (sim, new_s) = tr.scope("setup.sim_new", |_| {
        Simulation::new(
            trust,
            overlay_config(faulty_shards),
            churn_config(),
            MASTER_SEED,
        )
        .expect("overlay configuration is valid")
    });
    (sim, graph_s, new_s)
}

/// One `STEP` of simulated time.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub events: u64,
    pub wall_s: f64,
}

impl Interval {
    pub fn us_per_event(&self) -> f64 {
        self.wall_s * 1e6 / self.events.max(1) as f64
    }
}

/// Cumulative counters of a simulation; exact for `(seed, time)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub shuffles: u64,
    pub responses: u64,
    pub retries: u64,
    pub failures: u64,
    pub dropped: u64,
    pub minted: u64,
}

impl Counts {
    pub fn of(sim: &Simulation) -> Self {
        let mut c = Counts {
            events: sim.events_processed(),
            minted: sim.pseudonyms_minted(),
            ..Counts::default()
        };
        for v in 0..sim.node_count() {
            let s = sim.node_stats(v);
            c.shuffles += s.requests_sent;
            c.responses += s.responses_sent;
            c.retries += s.shuffle_retries;
            c.failures += s.shuffle_failures;
            c.dropped += s.dropped_requests;
        }
        c
    }

    pub fn named(&self) -> [(&'static str, u64); 7] {
        [
            ("count.events", self.events),
            ("count.shuffles", self.shuffles),
            ("count.responses", self.responses),
            ("count.retries", self.retries),
            ("count.failures", self.failures),
            ("count.dropped", self.dropped),
            ("count.minted", self.minted),
        ]
    }
}

/// A finished simulator workload: the metrics, and the warmed simulation
/// itself for the layer pass to harvest state from.
pub struct SimRun {
    pub sim: Simulation,
    /// Medians over [`SETUP_REPS`] set-ups.
    pub graph_s: f64,
    pub sim_new_s: f64,
    /// Warm-up intervals (`t ≤ warm`), outside the timed region.
    pub ramp: Vec<Interval>,
    /// The timed region.
    pub steady: Vec<Interval>,
    pub steady_wall_s: f64,
    pub at_warm: Counts,
    pub at_end: Counts,
    pub heap_bytes_per_node: f64,
    pub warm_snapshot: OverlaySnapshot,
    pub end_snapshot: OverlaySnapshot,
    pub outcome: Outcome,
}

fn step_to(sim: &mut Simulation, t: f64, tr: &mut Tracer, name: &str) -> Interval {
    let before = sim.events_processed();
    let ((), wall_s) = tr.scope(name, |_| sim.run_until(t));
    Interval {
        events: sim.events_processed() - before,
        wall_s,
    }
}

fn snapshot_json(snap: &OverlaySnapshot) -> String {
    serde_json::to_string(snap).expect("snapshot serializes")
}

/// Runs one simulator workload and fills in the end-to-end metrics.
pub fn run(spec: SimSpec, seed: u64, seconds: f64, tr: &mut Tracer) -> SimRun {
    let mut out = Outcome::default();

    // Set-up, several times; the last simulation built is the one that
    // runs. Each is dropped before the next is built so the peak RSS is
    // that of one simulation.
    let mut built = None;
    let (mut setup, mut graph, mut sim_new) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let ((sim, graph_s, new_s), secs) = tr.scope("setup", |tr| {
            build(spec.nodes, spec.faulty_shards, seed, tr)
        });
        setup.push(secs);
        graph.push(graph_s);
        sim_new.push(new_s);
        built = Some(sim);
    }
    let mut sim = built.expect("at least one set-up");
    out.check(
        "executor_as_named",
        sim.is_sharded() == spec.faulty_shards.is_some(),
        format!(
            "sharded executor active: {}, workload asks for shards {:?}",
            sim.is_sharded(),
            spec.faulty_shards
        ),
    );

    // Warm-up, stepped like the timed region.
    let mut ramp = Vec::new();
    let mut t = 0.0;
    let mut advance = |sim: &mut Simulation, t: &mut f64, until: f64, tr: &mut Tracer| {
        while *t < until {
            *t += STEP;
            ramp.push(step_to(sim, *t, tr, "ramp.run_until"));
        }
    };
    if let Some(shards) = spec.faulty_shards.filter(|&s| s > 1) {
        // Every shard count must compute the overlay one shard computes.
        let reference_t = REFERENCE_T.min(spec.warm);
        advance(&mut sim, &mut t, reference_t, tr);
        let (same, _) = tr.scope("check.one_shard_reference", |tr| {
            let (mut reference, _, _) = build(spec.nodes, Some(1), seed, tr);
            reference.run_until(t);
            snapshot_json(&snapshot(&reference)) == snapshot_json(&snapshot(&sim))
        });
        out.check(
            "snapshot_equals_one_shard",
            same,
            format!("{shards} shards against 1 shard at t = {t}"),
        );
    }
    advance(&mut sim, &mut t, spec.warm, tr);

    // Where the warm-up ends everything is a pure function of the seed.
    let at_warm = Counts::of(&sim);
    let heap_bytes_per_node = sim.approx_heap_bytes() as f64 / sim.node_count() as f64;
    let (warm_snapshot, _) = tr.scope("check.snapshot", |_| snapshot(&sim));

    // The timed region.
    let mut steady = Vec::new();
    let cpu0 = sys::cpu_seconds();
    let started = Instant::now();
    while t < spec.horizon && started.elapsed().as_secs_f64() < seconds {
        t += STEP;
        steady.push(step_to(&mut sim, t, tr, "steady.run_until"));
    }
    let steady_wall_s = started.elapsed().as_secs_f64();
    let steady_cpu_s = sys::cpu_seconds() - cpu0;

    let at_end = Counts::of(&sim);
    let (end_snapshot, _) = tr.scope("check.snapshot", |_| snapshot(&sim));
    let steady_events = at_end.events - at_warm.events;

    out.check(
        "clock_at_last_step",
        sim.now().as_f64() == t,
        format!("simulation clock {} after stepping to {t}", sim.now()),
    );
    let idle = ramp.iter().chain(&steady).filter(|i| i.events == 0).count();
    out.check(
        "every_step_processed_events",
        idle == 0 && !steady.is_empty(),
        format!("{idle} empty step(s), {} timed step(s)", steady.len()),
    );
    out.check(
        "responses_within_requests",
        at_end.responses <= at_end.shuffles,
        format!(
            "{} responses for {} requests",
            at_end.responses, at_end.shuffles
        ),
    );
    out.check(
        "snapshot_agrees_with_node_stats",
        (
            end_snapshot.shuffle_retries,
            end_snapshot.shuffle_failures,
            end_snapshot.dropped_requests,
        ) == (at_end.retries, at_end.failures, at_end.dropped),
        format!(
            "snapshot ({}, {}, {}) against {at_end:?}",
            end_snapshot.shuffle_retries,
            end_snapshot.shuffle_failures,
            end_snapshot.dropped_requests
        ),
    );
    if spec.faulty_shards.is_none() {
        out.check(
            "ideal_link_never_times_out",
            at_end.retries == 0 && at_end.failures == 0,
            format!("{} retries, {} failures", at_end.retries, at_end.failures),
        );
    }
    // The paper's claim at α = 0.7: the overlay stays connected. A faster
    // executor that tears it is not faster.
    out.check(
        "overlay_stays_connected",
        end_snapshot.fraction_disconnected <= 0.02,
        format!(
            "{} of online nodes outside the largest component",
            end_snapshot.fraction_disconnected
        ),
    );

    for (name, value) in at_warm.named() {
        out.exact(name, Value::U64(value));
    }
    if spec.faulty_shards.is_none() {
        // On the sharded executor the figure moves in its fourth digit
        // from run to run (hash-map and barrier-buffer capacities).
        out.exact("mem.heap_bytes_per_node", Value::F64(heap_bytes_per_node));
    }
    out.exact(
        "warm_snapshot_digest",
        Value::Str(digest(snapshot_json(&warm_snapshot).as_bytes())),
    );

    let per_event: Vec<f64> = steady.iter().map(Interval::us_per_event).collect();
    out.metric("setup_s", stats::median(&setup));
    out.metric("us_per_event_p50", stats::median(&per_event));
    out.metric(
        "events_per_cpu_s",
        steady_events as f64 / steady_cpu_s.max(1e-9),
    );
    out.metric("peak_rss_mb", sys::peak_rss_mib());
    out.metric(
        "overlay_connected",
        1.0 - end_snapshot.fraction_disconnected,
    );
    let ok_share = out.ok_share();
    out.metric("ok_share", ok_share);

    SimRun {
        sim,
        graph_s: stats::median(&graph),
        sim_new_s: stats::median(&sim_new),
        ramp,
        steady,
        steady_wall_s,
        at_warm,
        at_end,
        heap_bytes_per_node,
        warm_snapshot,
        end_snapshot,
        outcome: out,
    }
}
