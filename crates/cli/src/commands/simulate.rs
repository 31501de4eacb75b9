//! `veil simulate` — run the overlay-maintenance protocol under churn and
//! report connectivity over time.
//!
//! The world flags fill in a [`Scenario`] (see [`scenario`]), which goes
//! through the DSL's `validate` and `lower` exactly as a scenario file
//! does; only the run and report flags (`--parallelism`, `--shards`,
//! `--snapshot-every`, the obs outputs) are applied after lowering.

use super::CmdResult;
use crate::args::Args;
use serde::Serialize;
use std::fmt::Write as _;
use veil_core::experiment::{build_simulation, build_trust_graph, ExperimentParams};
use veil_core::metrics::{snapshot, Collector};
use veil_core::scenario::lower::phase_episodes;
use veil_core::scenario::schema::{LatencyKind, LatencySpec};
use veil_core::scenario::{lower, GraphModel, Phase, Scenario};
use veil_graph::metrics as gm;
use veil_sim::fault::EpisodeEffect;

/// The flags `veil simulate` accepts; its USAGE block lists exactly
/// these.
pub const FLAGS: &[&str] = &[
    "nodes",
    "alpha",
    "horizon",
    "seed",
    "lifetime-ratio",
    "snapshot-every",
    "blackout",
    "loss",
    "mean-latency",
    "latency-dist",
    "shuffle-timeout",
    "shuffle-retries",
    "parallelism",
    "shards",
    "graph",
    "avg-degree",
    "source-multiplier",
    "json",
    "trace-out",
    "metrics-out",
    "chrome-trace",
    "flight-recorder",
    "health",
    "self-heal",
];

#[derive(Serialize)]
struct JsonOutput {
    config: ExperimentParams,
    alpha: f64,
    series: Vec<(f64, f64, f64)>, // (time, overlay_disconnected, trust_disconnected)
    #[serde(rename = "final")]
    final_snapshot: veil_core::metrics::OverlaySnapshot,
    normalized_path_length: f64,
}

/// Parses `--blackout T,DURATION,FRACTION` into the DSL's blackout phase
/// over the first `FRACTION` of the nodes.
fn parse_blackout(raw: &str) -> Result<Phase, String> {
    let parts: Vec<&str> = raw.split(',').collect();
    let [start, duration, fraction] = parts[..] else {
        return Err(format!(
            "--blackout expects T,DURATION,FRACTION, got {raw:?}"
        ));
    };
    let parse = |s: &str, what: &str| -> Result<f64, String> {
        s.trim()
            .parse::<f64>()
            .map_err(|e| format!("--blackout {what}: {e}"))
    };
    Ok(Phase::Blackout {
        start: parse(start, "start time")?,
        duration: parse(duration, "duration")?,
        fraction: parse(fraction, "fraction")?,
        from: 0.0,
    })
}

/// Parses `--latency-dist constant|exponential|pareto[:SHAPE]` into the
/// `[link.latency]` keys `dist` and `shape`.
fn parse_latency(raw: &str, latency: &mut LatencySpec) -> Result<(), String> {
    latency.dist = match raw {
        "constant" => LatencyKind::Constant,
        "exponential" | "exp" => LatencyKind::Exponential,
        "pareto" => LatencyKind::Pareto,
        other => {
            let shape = other.strip_prefix("pareto:").ok_or_else(|| {
                format!(
                    "--latency-dist: expected constant, exponential or pareto[:SHAPE], got {other:?}"
                )
            })?;
            latency.shape = shape
                .parse()
                .map_err(|e| format!("--latency-dist pareto shape: {e}"))?;
            LatencyKind::Pareto
        }
    };
    Ok(())
}

/// The scenario `veil simulate`'s world flags describe: each flag sets
/// one DSL key of [`super::base_scenario`] (DESIGN §11 has the table).
/// Nothing is range-checked here — `Scenario::validate` does that.
pub fn scenario(args: &Args) -> Result<Scenario, Box<dyn std::error::Error>> {
    let mut s = super::base_scenario();
    s.nodes = args.require("nodes", "integer")?;
    s.availability = args.get_or("alpha", s.availability, "float in (0,1]")?;
    s.horizon = args.get_or("horizon", s.horizon, "float")?;
    s.seed = args.get_or("seed", s.seed, "integer")?;
    match args.flag("lifetime-ratio") {
        None => {}
        Some("inf") => s.overlay.lifetime_ratio = None,
        Some(v) => {
            let ratio = v.parse().map_err(|e| format!("--lifetime-ratio: {e}"))?;
            s.overlay.lifetime_ratio = Some(ratio);
        }
    }
    if let Some(raw) = args.flag("blackout") {
        s.phases.push(parse_blackout(raw)?);
    }
    s.link.loss = args.get_or("loss", s.link.loss, "float in [0,1]")?;
    let latency = &mut s.link.latency;
    latency.mean = args.get_or("mean-latency", latency.mean, "float >= 0")?;
    if let Some(raw) = args.flag("latency-dist") {
        parse_latency(raw, latency)?;
    }
    let overlay = &mut s.overlay;
    overlay.shuffle_timeout =
        args.get_or("shuffle-timeout", overlay.shuffle_timeout, "float > 0")?;
    overlay.shuffle_retries = args.get_or("shuffle-retries", overlay.shuffle_retries, "integer")?;
    // `--graph degree-matched` swaps the synthetic source model for the
    // degree-matched generator tuned to the paper's trust-sample densities
    // (11.3 links/node at f = 1.0; override with --avg-degree).
    let avg_degree: f64 = args.get_or("avg-degree", 11.3, "float >= 2")?;
    match args.flag("graph").unwrap_or("holme-kim") {
        "holme-kim" | "hk" => {}
        "degree-matched" | "dm" => {
            s.graph.model = GraphModel::DegreeMatched {
                avg_degree,
                triad: 0.6,
            }
        }
        other => {
            return Err(
                format!("--graph: expected holme-kim or degree-matched, got {other:?}").into(),
            )
        }
    }
    // Million-node capacity runs want `--source-multiplier 2`: at the
    // default 20, synthesizing the source graph would dominate the run.
    let graph = &mut s.graph;
    graph.source_multiplier =
        args.get_or("source-multiplier", graph.source_multiplier, "integer >= 1")?;
    // `--self-heal` switches the remediation engine on, and with it health
    // monitoring (there is nothing to react to without the detectors).
    // Without it the run is byte-identical to a build without the engine.
    s.remediation.enabled = args.has("self-heal");
    s.health.enabled = args.has("health") || s.remediation.enabled;
    Ok(s)
}

/// Most snapshots a run may take: each is a whole-overlay connectivity
/// pass, and at `--snapshot-every 1e-300` `t += interval` stops advancing.
const MAX_SNAPSHOTS: f64 = 1e6;

/// `veil simulate --nodes N [flag…]`; USAGE describes each flag.
pub fn run(args: &Args) -> CmdResult {
    args.check_known(FLAGS)?;
    let scenario = scenario(args)?;
    scenario.validate()?;
    let lowered = lower(&scenario)?;
    let (mut params, alpha, horizon) = (lowered.params, lowered.alpha, lowered.horizon);
    // Run flags, applied after lowering as `RunOverrides` does; neither
    // changes results, only wall-clock time. `--parallelism` is worker
    // threads (0/unset: VEIL_PARALLELISM, else all cores); `--shards S`
    // spreads the windowed executor over S shards whenever the link puts
    // messages in flight (0/unset: VEIL_SHARDS, else one).
    params.overlay.parallelism = match args.get_or::<usize>("parallelism", 0, "integer")? {
        0 => veil_par::env_parallelism(),
        k => Some(k),
    };
    params.overlay.shards = match args.get_or::<usize>("shards", 0, "integer")? {
        0 => veil_par::env_shards(),
        s => Some(s),
    };
    // A report flag, so the DSL does not hold it and the check stays here.
    let interval: f64 = args.get_or("snapshot-every", (horizon / 20.0).max(1.0), "float")?;
    if !(interval.is_finite() && interval > 0.0 && horizon / interval <= MAX_SNAPSHOTS) {
        return Err(format!(
            "--snapshot-every must be finite, positive and at least horizon / {MAX_SNAPSHOTS}, got {interval:?}"
        )
        .into());
    }
    // Observability: any of the obs flags switches on an in-process
    // recorder. Tracing never draws randomness, so the simulation output
    // is byte-identical with and without these flags.
    let trace_out = args.flag("trace-out").map(str::to_string);
    let metrics_out = args.flag("metrics-out").map(str::to_string);
    let chrome_trace = args.flag("chrome-trace").map(str::to_string);
    let flight_recorder: Option<usize> = args
        .flag("flight-recorder")
        .map(str::parse)
        .transpose()
        .map_err(|e| format!("--flight-recorder: {e}"))?;
    // --health (and --self-heal, which implies it) needs a live recorder:
    // the monitor reads the event stream and publishes its alerts back
    // into it.
    let obs_enabled = trace_out.is_some()
        || metrics_out.is_some()
        || chrome_trace.is_some()
        || flight_recorder.is_some()
        || scenario.health.enabled;
    let recorder = match flight_recorder {
        _ if !obs_enabled => veil_obs::Recorder::disabled(),
        Some(capacity) => veil_obs::Recorder::flight_recorder(capacity),
        None => veil_obs::Recorder::full(),
    };

    let trust = build_trust_graph(&params)?;
    let mut sim = build_simulation(trust, &params, alpha)?;
    sim.set_recorder(recorder.clone());
    let mut collector = Collector::new(interval);
    collector.run(&mut sim, horizon);

    let final_snapshot = snapshot(&sim);
    let npl = {
        let online = sim.online_mask();
        gm::normalized_avg_path_length(&sim.overlay_graph(), Some(&online))
    };

    let mut obs_note = String::new();
    if obs_enabled {
        sim.publish_metrics();
        if let Some(alerts) = sim.health_alerts() {
            writeln!(obs_note, "health monitor: {alerts} alert(s) emitted")?;
        }
        if let Some(counts) = sim.remedy_counts() {
            writeln!(
                obs_note,
                "self-healing: {} reaction(s) ({} backoff, {} rebootstrap, {} throttle)",
                counts.total(),
                counts.backoffs,
                counts.rebootstraps,
                counts.throttles
            )?;
        }
        if let Some(path) = &trace_out {
            std::fs::write(path, recorder.events_jsonl())
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
            writeln!(
                obs_note,
                "trace: {path} ({} events, {} dropped)",
                recorder.events_seen() - recorder.events_dropped(),
                recorder.events_dropped()
            )?;
        } else if flight_recorder.is_some() {
            writeln!(
                obs_note,
                "flight recorder retained {} of {} events (use --trace-out to save them)",
                recorder.events().len(),
                recorder.events_seen()
            )?;
        }
        if let Some(path) = &metrics_out {
            let text = if path.ends_with(".prom") {
                recorder.prometheus_text()
            } else {
                recorder.metrics_json()
            };
            std::fs::write(path, text).map_err(|e| format!("cannot write {path:?}: {e}"))?;
            writeln!(obs_note, "metrics: {path}")?;
        }
        if let Some(path) = &chrome_trace {
            std::fs::write(path, recorder.chrome_trace())
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
            writeln!(obs_note, "chrome trace: {path}")?;
        }
    }

    if args.has("json") {
        let series: Vec<(f64, f64, f64)> = collector
            .connectivity()
            .iter()
            .zip(collector.connectivity_trust().iter())
            .map(|((t, o), (_, tr))| (t, o, tr))
            .collect();
        let out = JsonOutput {
            config: params,
            alpha,
            series,
            final_snapshot,
            normalized_path_length: npl,
        };
        return Ok(serde_json::to_string_pretty(&out)?);
    }

    let mut out = String::new();
    writeln!(
        out,
        "overlay simulation: {} nodes, alpha = {alpha}, horizon = {horizon} sp, seed = {}",
        scenario.nodes, scenario.seed
    )?;
    // The lowered episode, so the count is the one the link applies.
    let episodes = scenario.phases.iter();
    for ep in episodes.flat_map(|phase| phase_episodes(phase, scenario.nodes)) {
        if let EpisodeEffect::Blackout { count, .. } = ep.effect {
            let (start, duration) = (ep.start, ep.end - ep.start);
            writeln!(
                out,
                "blackout: {count} nodes offline at t = {start} for {duration} periods"
            )?;
        }
    }
    out.push_str(&obs_note);
    writeln!(
        out,
        "\n{:>10}  {:>18}  {:>18}",
        "time (sp)", "overlay disconnected", "trust disconnected"
    )?;
    for ((t, o), (_, tr)) in collector
        .connectivity()
        .iter()
        .zip(collector.connectivity_trust().iter())
    {
        writeln!(out, "{t:>10.1}  {o:>18.3}  {tr:>18.3}")?;
    }
    let f = &final_snapshot;
    writeln!(
        out,
        "\nfinal online nodes:        {}\n\
         final overlay disconnected: {:.3}\n\
         final trust disconnected:   {:.3}\n\
         pseudonym links:           {}\n\
         normalized path length:    {npl:.3}",
        f.online_nodes, f.fraction_disconnected, f.fraction_disconnected_trust, f.pseudonym_links
    )?;
    if f.dropped_requests > 0 || f.shuffle_retries > 0 {
        writeln!(
            out,
            "dropped messages:          {}\n\
             shuffle retries:           {}\n\
             shuffle failures:          {}",
            f.dropped_requests, f.shuffle_retries, f.shuffle_failures
        )?;
    }
    Ok(out.trim_end().to_string())
}
