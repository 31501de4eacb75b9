//! The `scenario_heal` workload: `run_scenario_with` on the benchmark's
//! own copy of the self-healing blackout scenario, repeated for
//! `--seconds`.

use crate::report::{digest, Outcome};
use crate::spans::Tracer;
use crate::spec::HealSpec;
use crate::{stats, sys};
use serde_json::Value;
use std::time::Instant;
use veil_core::experiment::{build_simulation, build_trust_graph};
use veil_core::scenario::{
    lower, parse_scenario_str, run_scenario_with, Format, Phase, RunOverrides, Scenario,
    ScenarioRun,
};
use veil_obs::analyze_trace;

/// The scenario text, compiled in so the binary needs no file at run time.
pub const SCENARIO_TOML: &str = include_str!("../scenarios/heal.toml");
/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Parses the scenario and applies the workload's size. `seed` picks
/// which half of the population the blackout takes — the region starts
/// at node `seed mod 50` percent of the way in. The scenario's own seed
/// (graph, churn, faults) stays the file's, for the reason
/// [`crate::sim::MASTER_SEED`] is pinned.
pub fn scenario(spec: &HealSpec, seed: u64) -> Scenario {
    let (mut sc, _) = parse_scenario_str(SCENARIO_TOML, Format::Toml, "scenario_heal")
        .expect("scenarios/heal.toml parses");
    sc.nodes = spec.nodes;
    for phase in &mut sc.phases {
        if let Phase::Blackout { from, .. } = phase {
            *from = (seed % 50) as f64 / 100.0;
        }
    }
    sc
}

/// Timing of one whole `run_scenario_with` call.
struct Rep {
    wall_s: f64,
    cpu_s: f64,
    /// Lines of the trace after its header.
    trace_events: u64,
}

pub struct HealRun {
    /// The last repetition, with its trace.
    pub last: ScenarioRun,
    pub outcome: Outcome,
}

fn one_rep(sc: &Scenario, spec: &HealSpec, tr: &mut Tracer) -> (Rep, ScenarioRun) {
    let overrides = RunOverrides {
        seed: None,
        shards: Some(spec.shards),
    };
    let cpu0 = sys::cpu_seconds();
    let (run, wall_s) = tr.scope("steady.run_scenario", |_| {
        run_scenario_with(sc, overrides, None).expect("scenario runs")
    });
    let rep = Rep {
        wall_s,
        cpu_s: sys::cpu_seconds() - cpu0,
        trace_events: (run.trace_jsonl.lines().count() as u64).saturating_sub(1),
    };
    (rep, run)
}

/// Runs the workload and fills in the end-to-end metrics. `reserve_s` is
/// time of `--seconds` the caller will spend itself (the layer pass's
/// phase re-run).
pub fn run(spec: HealSpec, seed: u64, seconds: f64, reserve_s: f64, tr: &mut Tracer) -> HealRun {
    let mut out = Outcome::default();

    // Set-up is what `run_scenario_with` does before its first event:
    // parse, validate, lower, build the trust graph and the simulation.
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        let ((), secs) = tr.scope("setup", |tr| {
            let sc = scenario(&spec, seed);
            sc.validate().expect("scenario is valid");
            let lowered = lower(&sc).expect("scenario lowers");
            let (trust, _) = tr.scope("setup.graph", |_| {
                build_trust_graph(&lowered.params).expect("trust graph builds")
            });
            let (sim, _) = tr.scope("setup.sim_new", |_| {
                build_simulation(trust, &lowered.params, lowered.alpha).expect("simulation builds")
            });
            drop(sim);
        });
        setup.push(secs);
    }
    let sc = scenario(&spec, seed);

    let mut reps: Vec<Rep> = Vec::new();
    let mut last: Option<ScenarioRun> = None;
    // What one scenario run needs. Later repetitions add tens of MB of
    // allocator fragmentation that differ from run to run.
    let mut peak_rss_mib = 0.0;
    let started = Instant::now();
    while reps.is_empty() || started.elapsed().as_secs_f64() + reserve_s < seconds {
        // Only the verdict of the repetition before outlives it: its trace
        // (tens of MB) must not sit under the next one's peak RSS.
        let before = last.take().map(|run| run.outcome);
        let (rep, run) = one_rep(&sc, &spec, tr);
        reps.push(rep);
        if reps.len() == 1 {
            peak_rss_mib = sys::peak_rss_mib();
        }
        if let Some(before) = before {
            // A scenario outcome is a pure function of (scenario, seed, shards).
            out.check(
                "outcome_repeats",
                before == run.outcome,
                format!("repetition {} against the one before", reps.len()),
            );
        }
        last = Some(run);
    }
    let last = last.expect("at least one repetition");

    for c in &last.outcome.checks {
        out.check(&format!("assert.{}", c.key), c.passed, c.detail.clone());
    }
    // Conservation: the totals the nodes counted equal the totals the
    // trace replays to.
    let (report, _) = tr.scope("check.analyze_trace", |_| {
        analyze_trace(&last.trace_jsonl).expect("trace replays")
    });
    let snap = &last.outcome.snapshot;
    let counted = (snap.shuffle_retries, snap.shuffle_failures);
    let replayed = (
        report.total("sim.shuffle_retries"),
        report.total("sim.shuffle_failures"),
    );
    out.check(
        "trace_totals_equal_node_stats",
        counted == replayed,
        format!("(retries, failures) counted {counted:?}, replayed {replayed:?}"),
    );

    out.exact("count.trace_events", Value::U64(reps[0].trace_events));
    out.exact("count.retries", Value::U64(snap.shuffle_retries));
    out.exact("count.failures", Value::U64(snap.shuffle_failures));
    out.exact("count.dropped", Value::U64(snap.dropped_requests));
    out.exact("count.alerts", Value::U64(last.outcome.alerts_total));
    out.exact(
        "trace_digest",
        Value::Str(digest(last.trace_jsonl.as_bytes())),
    );

    let per_event: Vec<f64> = reps
        .iter()
        .map(|r| r.wall_s * 1e6 / r.trace_events.max(1) as f64)
        .collect();
    let events: u64 = reps.iter().map(|r| r.trace_events).sum();
    let cpu_s: f64 = reps.iter().map(|r| r.cpu_s).sum();
    out.metric("setup_s", stats::median(&setup));
    out.metric("us_per_event_p50", stats::median(&per_event));
    out.metric("events_per_cpu_s", events as f64 / cpu_s.max(1e-9));
    out.metric("peak_rss_mb", peak_rss_mib);
    out.metric("overlay_connected", 1.0 - snap.fraction_disconnected);
    let ok_share = out.ok_share();
    out.metric("ok_share", ok_share);

    HealRun { last, outcome: out }
}
