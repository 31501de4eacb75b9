//! `veil simulate` — run the overlay-maintenance protocol under churn and
//! report connectivity over time.

use super::CmdResult;
use crate::args::Args;
use serde::Serialize;
use std::fmt::Write as _;
use veil_core::config::LinkLayerConfig;
use veil_core::experiment::{build_simulation, build_trust_graph, ExperimentParams};
use veil_core::metrics::{snapshot, Collector};
use veil_graph::metrics as gm;
use veil_sim::fault::{FaultConfig, LatencyDist};

#[derive(Serialize)]
struct JsonOutput {
    config: ExperimentParams,
    alpha: f64,
    series: Vec<(f64, f64, f64)>, // (time, overlay_disconnected, trust_disconnected)
    #[serde(rename = "final")]
    final_snapshot: veil_core::metrics::OverlaySnapshot,
    normalized_path_length: f64,
}

/// Parses `--blackout T,DURATION,FRACTION`.
fn parse_blackout(raw: &str) -> Result<(f64, f64, f64), String> {
    let parts: Vec<&str> = raw.split(',').collect();
    if parts.len() != 3 {
        return Err(format!(
            "--blackout expects T,DURATION,FRACTION, got {raw:?}"
        ));
    }
    let parse = |s: &str, what: &str| -> Result<f64, String> {
        s.trim()
            .parse::<f64>()
            .map_err(|e| format!("--blackout {what}: {e}"))
    };
    let t = parse(parts[0], "start time")?;
    let duration = parse(parts[1], "duration")?;
    let fraction = parse(parts[2], "fraction")?;
    if !(0.0..=1.0).contains(&fraction) {
        return Err("blackout fraction must be in [0, 1]".into());
    }
    Ok((t, duration, fraction))
}

/// Parses `--latency-dist constant|exponential|pareto[:SHAPE]` together
/// with the `--mean-latency` value into a latency distribution.
fn parse_latency(dist: Option<&str>, mean: f64) -> Result<LatencyDist, String> {
    if !(mean.is_finite() && mean >= 0.0) {
        return Err(format!(
            "--mean-latency must be finite and >= 0, got {mean}"
        ));
    }
    if mean == 0.0 {
        return Ok(LatencyDist::Constant { value: 0.0 });
    }
    match dist.unwrap_or("exponential") {
        "constant" => Ok(LatencyDist::Constant { value: mean }),
        "exponential" | "exp" => Ok(LatencyDist::Exponential { mean }),
        other => match other.strip_prefix("pareto") {
            Some(rest) => {
                let shape = match rest.strip_prefix(':') {
                    None if rest.is_empty() => 2.5,
                    Some(s) => s
                        .parse::<f64>()
                        .map_err(|e| format!("--latency-dist pareto shape: {e}"))?,
                    None => return Err(format!("--latency-dist: unknown distribution {other:?}")),
                };
                Ok(LatencyDist::Pareto { shape, mean })
            }
            None => Err(format!(
                "--latency-dist: expected constant, exponential or pareto[:SHAPE], got {other:?}"
            )),
        },
    }
}

/// `veil simulate --nodes N [--alpha A] [--horizon T] [--seed S]
/// [--lifetime-ratio R|inf] [--snapshot-every X]
/// [--blackout T,DURATION,FRACTION] [--loss P] [--mean-latency M]
/// [--latency-dist D] [--shuffle-timeout T] [--shuffle-retries N]
/// [--parallelism K] [--shards S] [--graph M] [--avg-degree D]
/// [--source-multiplier M] [--json]`
pub fn run(args: &Args) -> CmdResult {
    args.check_known(&[
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
        "heal-backoff",
        "heal-rebootstrap",
        "heal-throttle",
    ])?;
    let nodes: usize = args.require("nodes", "integer")?;
    let alpha: f64 = args.get_or("alpha", 0.5, "float in (0,1]")?;
    let horizon: f64 = args.get_or("horizon", 200.0, "float")?;
    let seed: u64 = args.get_or("seed", 42, "integer")?;
    // `--parallelism 0` (or the VEIL_PARALLELISM env fallback) means "all
    // cores"; the knob never changes results, only wall-clock time.
    let parallelism = match args.get_or::<usize>("parallelism", 0, "integer")? {
        0 => veil_par::env_parallelism(),
        k => Some(k),
    };
    // `--shards S` (or VEIL_SHARDS) is, like `--parallelism`, a layout
    // knob that never changes results: it spreads the windowed executor
    // over S shards whenever a fault model (loss or any latency) puts
    // messages in flight; 0/unset means one.
    let shards = match args.get_or::<usize>("shards", 0, "integer")? {
        0 => veil_par::env_shards(),
        s => Some(s),
    };
    let interval: f64 = args.get_or("snapshot-every", (horizon / 20.0).max(1.0), "float")?;
    let lifetime_ratio = match args.flag("lifetime-ratio") {
        None => Some(3.0),
        Some("inf") => None,
        Some(v) => Some(
            v.parse::<f64>()
                .map_err(|e| format!("--lifetime-ratio: {e}"))?,
        ),
    };
    let blackout = args.flag("blackout").map(parse_blackout).transpose()?;
    let loss: f64 = args.get_or("loss", 0.0, "float in [0,1]")?;
    if !(0.0..=1.0).contains(&loss) {
        return Err(format!("--loss must be in [0, 1], got {loss}").into());
    }
    let mean_latency: f64 = args.get_or("mean-latency", 0.0, "float >= 0")?;
    let latency = parse_latency(args.flag("latency-dist"), mean_latency)?;
    let shuffle_timeout: f64 = args.get_or("shuffle-timeout", 3.0, "float > 0")?;
    let shuffle_retry_budget: u32 = args.get_or("shuffle-retries", 2, "integer")?;
    // Only a genuinely non-ideal configuration switches the link layer;
    // the all-defaults command line keeps the ideal layer (and its exact
    // historical outputs).
    let fault = FaultConfig {
        drop_probability: loss,
        latency,
        episodes: Vec::new(),
    };
    let link = if fault.is_trivial() {
        LinkLayerConfig::Ideal
    } else {
        LinkLayerConfig::Faulty(fault)
    };

    // `--graph degree-matched` swaps the synthetic source model for the
    // degree-matched generator tuned to the paper's trust-sample densities
    // (11.3 links/node at f = 1.0; override with --avg-degree).
    let avg_degree: f64 = args.get_or("avg-degree", 11.3, "float >= 2")?;
    let source = match args.flag("graph").unwrap_or("holme-kim") {
        "holme-kim" | "hk" => veil_core::experiment::SourceModel::default(),
        "degree-matched" | "dm" => veil_core::experiment::SourceModel::DegreeMatched {
            avg_degree,
            triad: 0.6,
        },
        other => {
            return Err(
                format!("--graph: expected holme-kim or degree-matched, got {other:?}").into(),
            )
        }
    };

    // Self-healing: `--self-heal` switches every reaction on; each
    // `--heal-*` flag enables just that reaction. Any of them implies the
    // engine's master switch and health monitoring (there is nothing to
    // react to without the detectors). With none given the remediation
    // config stays at its default and the run is byte-identical to a build
    // without the engine.
    let self_heal = args.has("self-heal");
    let heal_backoff = args.has("heal-backoff");
    let heal_rebootstrap = args.has("heal-rebootstrap");
    let heal_throttle = args.has("heal-throttle");
    let any_heal = self_heal || heal_backoff || heal_rebootstrap || heal_throttle;
    let remedy = if any_heal {
        veil_core::config::RemedyConfig {
            enabled: true,
            backoff_on_eviction_storm: self_heal || heal_backoff,
            rebootstrap_starved: self_heal || heal_rebootstrap,
            throttle_indegree_skew: self_heal || heal_throttle,
            ..veil_core::config::RemedyConfig::default()
        }
    } else {
        veil_core::config::RemedyConfig::default()
    };

    // `--source-multiplier M` sizes the synthetic source social graph at
    // `M × nodes` vertices before f-sampling (default 20). Large-scale
    // capacity runs want 2: at a million overlay nodes the default would
    // synthesize a 20-million-vertex source graph, and source synthesis —
    // not the overlay protocol — would dominate the run.
    let source_multiplier: usize = args.get_or("source-multiplier", 20, "integer >= 1")?;
    if source_multiplier < 1 {
        return Err("--source-multiplier must be >= 1".into());
    }

    let params = ExperimentParams {
        nodes,
        seed,
        lifetime_ratio,
        warmup: horizon,
        source_multiplier,
        source,
        overlay: veil_core::config::OverlayConfig {
            parallelism,
            shards,
            link,
            shuffle_timeout,
            shuffle_retry_budget,
            health: veil_core::config::HealthConfig {
                enabled: args.has("health") || any_heal,
                ..veil_core::config::HealthConfig::default()
            },
            remedy,
            ..veil_core::config::OverlayConfig::default()
        },
        ..ExperimentParams::default()
    };
    // Observability: any of the obs flags switches on an in-process
    // recorder. Tracing never draws randomness, so the simulation output
    // is byte-identical with and without these flags.
    let trace_out = args.flag("trace-out").map(str::to_string);
    let metrics_out = args.flag("metrics-out").map(str::to_string);
    let chrome_trace = args.flag("chrome-trace").map(str::to_string);
    let flight_recorder = args
        .flag("flight-recorder")
        .map(|v| {
            v.parse::<usize>()
                .map_err(|e| format!("--flight-recorder: {e}"))
        })
        .transpose()?;
    // --health needs a live recorder: the monitor reads the event stream
    // and publishes its alerts back into it.
    let obs_enabled = trace_out.is_some()
        || metrics_out.is_some()
        || chrome_trace.is_some()
        || flight_recorder.is_some()
        || args.has("health")
        || any_heal;
    let recorder = match flight_recorder {
        _ if !obs_enabled => veil_obs::Recorder::disabled(),
        Some(capacity) => veil_obs::Recorder::flight_recorder(capacity),
        None => veil_obs::Recorder::full(),
    };

    let trust = build_trust_graph(&params)?;
    let mut sim = build_simulation(trust, &params, alpha)?;
    sim.set_recorder(recorder.clone());
    let mut collector = Collector::new(interval);
    let mut blackout_note = String::new();
    if let Some((t, duration, fraction)) = blackout {
        let t = t.min(horizon);
        collector.run(&mut sim, t);
        let victims: Vec<usize> = (0..sim.node_count())
            .take((fraction * sim.node_count() as f64) as usize)
            .collect();
        sim.inject_blackout(&victims, duration);
        writeln!(
            blackout_note,
            "blackout: {} nodes offline at t = {t} for {duration} periods",
            victims.len()
        )?;
        collector.run(&mut sim, horizon);
    } else {
        collector.run(&mut sim, horizon);
    }

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
        "overlay simulation: {nodes} nodes, alpha = {alpha}, horizon = {horizon} sp, seed = {seed}"
    )?;
    out.push_str(&blackout_note);
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
    writeln!(out)?;
    writeln!(
        out,
        "final online nodes:        {}",
        final_snapshot.online_nodes
    )?;
    writeln!(
        out,
        "final overlay disconnected: {:.3}",
        final_snapshot.fraction_disconnected
    )?;
    writeln!(
        out,
        "final trust disconnected:   {:.3}",
        final_snapshot.fraction_disconnected_trust
    )?;
    writeln!(
        out,
        "pseudonym links:           {}",
        final_snapshot.pseudonym_links
    )?;
    writeln!(out, "normalized path length:    {npl:.3}")?;
    if final_snapshot.dropped_requests > 0 || final_snapshot.shuffle_retries > 0 {
        writeln!(
            out,
            "dropped messages:          {}",
            final_snapshot.dropped_requests
        )?;
        writeln!(
            out,
            "shuffle retries:           {}",
            final_snapshot.shuffle_retries
        )?;
        writeln!(
            out,
            "shuffle failures:          {}",
            final_snapshot.shuffle_failures
        )?;
    }
    Ok(out.trim_end().to_string())
}
