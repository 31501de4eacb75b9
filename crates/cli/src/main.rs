//! `veil` — command-line front end for the overlay simulator.
//!
//! ```text
//! veil graph generate --model social --nodes 1000 --seed 7 --out trust.txt
//! veil graph stats trust.txt
//! veil graph sample trust.txt --target 200 --f 0.5 --seed 7 --out sampled.txt
//! veil simulate --nodes 300 --alpha 0.5 --horizon 200 --seed 7
//! veil attack --nodes 200 --seed 7
//! ```

mod args;
mod commands;

use args::Args;
use std::process::ExitCode;

const USAGE: &str = "veil — robust privacy-preserving overlays over social graphs

USAGE:
    veil <command> [args]

COMMANDS:
    graph generate   generate a synthetic social graph
                     --model <ba|er|ws|hk|dm|social|community> --nodes N
                     [--seed S] [--degree D] [--avg-degree A] [--out FILE]
    graph stats      print structural metrics of an edge-list file
                     <FILE>
    graph sample     invitation-model f-sample of an edge-list file
                     <FILE> --target N [--f F] [--seed S] [--out FILE]
    simulate         run the overlay protocol under churn
                     --nodes N (at least 20) [--alpha A] [--horizon T]
                     [--seed S]
                     [--lifetime-ratio R|inf] [--snapshot-every X]
                     [--json]
                     [--blackout T,D,F]  the first fraction F of the nodes
                                         goes dark over [T, T + D): a
                                         scenario's blackout phase, on
                                         the fault-injecting link layer
                     [--loss P]          per-message drop probability;
                                         any loss or latency switches to
                                         the fault-injecting link layer
                     [--mean-latency M]  mean one-way latency in shuffle
                                         periods (0 = instant); any M > 0,
                                         constant included, puts messages
                                         in flight: tracked exchanges with
                                         timeout and retry
                     [--latency-dist D]  constant | exponential |
                                         pareto[:SHAPE] (default
                                         exponential, shape 2.5)
                     [--shuffle-timeout T] [--shuffle-retries N]
                                         exchange timeout (default 3) and
                                         retry budget (default 2) on the
                                         faulty layer
                     [--parallelism K]   worker threads for sweeps;
                                         0 = all cores (default, or
                                         VEIL_PARALLELISM); results are
                                         identical for every K
                     [--shards S]        shards (threads) of the windowed
                                         executor on every link with
                                         --loss or --mean-latency > 0
                                         (default 1); results are
                                         identical for every S
                     [--graph M]         source model: holme-kim (default)
                                         or degree-matched (paper trust-
                                         sample densities)
                     [--avg-degree D]    degree-matched target average
                                         degree (default 11.3)
                     [--source-multiplier M] source graph of M × nodes
                                         vertices (default 20)
                     [--trace-out FILE]  write the structured event trace
                                         as JSONL (never perturbs results)
                     [--metrics-out FILE] write the metrics registry; a
                                         .prom extension selects Prometheus
                                         text format, anything else JSON
                     [--chrome-trace FILE] write profiling spans as Chrome
                                         trace_event JSON (chrome://tracing)
                     [--flight-recorder N] keep only the last N events
                                         (flight recorder)
                     [--health]          enable the online overlay health
                                         monitor (rolling-window detectors
                                         emitting HealthAlert events);
                                         implies the full recorder
                     [--self-heal]       enable the remediation engine and
                                         its three reactions (implies
                                         --health); off is byte-identical
                                         to a build without the engine
    attack           run the Section III-E threat models
                     --nodes N [--seed S]
    obs validate     check a JSONL trace file against the event schema
                     <FILE>
    obs schema       print the trace-event schema
    obs analyze      replay a trace into per-round health analytics
                     <FILE> [--json] [--out REPORT.json]
    obs diff         compare two runs (traces or saved reports); exits
                     with code 2 on regression beyond tolerance
                     <BASELINE> <CANDIDATE> [--rel-tolerance F]
                     [--abs-tolerance F] [--rate-tolerance F] [--json]
    obs merge        merge per-process JSONL traces into one canonical
                     trace (sorted by t, renumbered thread ids)
                     <INPUT>... --out FILE
                     [--chrome-trace FILE] also write the cross-process
                                         exchange timeline as Chrome
                                         trace_event JSON (about:tracing
                                         or Perfetto)
    obs tail         follow a growing trace, printing health alerts live
                     <FILE> [--all] [--no-follow] [--poll-ms N]
                     [--timeout-s T]
    net run          run the overlay over real sockets: one process per
                     node on localhost, traces merged and diffed against
                     a simulated oracle of the same scenario; exits 2 if
                     the fleet diverges from the oracle beyond tolerance
                     --nodes N [--seed S] [--horizon T] [--period-ms M]
                     [--loss P] [--out DIR] [--json]
                     [--watch]           render a live per-node metrics
                                         table to stderr while running
                     [--scrape-ms N]     live-scrape interval (default 500)
                     [--no-telemetry]    disable transport telemetry: no
                                         metrics endpoints, no collector,
                                         no fleet_metrics.json
    net node         child entry point spawned by `net run` (one overlay
                     node over TCP; prints its summary as JSON)
                     [--metrics-port P]  serve GET /metrics (Prometheus)
                                         and /metrics.json on localhost:P
                     [--telemetry-out F] write the transport-telemetry
                                         trace (JSONL, separate from the
                                         protocol trace)
                     [--metrics-out F]   write the final metrics snapshot
    net top          attach to a running fleet and scrape every node's
                     metrics endpoint once
                     --dir DIR [--json]  DIR is `net run`'s --out directory
                                         (reads its fleet.json manifest)
    scenario validate  parse + validate a scenario file or directory
                     <FILE|DIR>          exits 3 with a caret diagnostic
                                         when any file is invalid
    scenario list    summarize a scenario library
                     [DIR]               default: scenarios
    scenario run     run one scenario and grade its assertions
                     <FILE> [--seed S] [--shards K] [--json]
                     [--trace-out FILE]  exits 3 if any assertion fails
    scenario campaign  sweep seeds (× shard counts) in parallel
                     <FILE> [--seeds N]  N seeds from the scenario's seed
                     [--seed-list A,B,C] explicit seeds instead
                     [--shard-list 0,1,8] shard counts; 0 = unset
                     [--parallelism K] [--report FILE.jsonl]
                                         exits 3 if any run fails
    help             show this message
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(output) => {
            println!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            // A regression from `obs diff` is a clean, expected outcome:
            // print the comparison (no usage banner) and exit with a
            // distinct code so scripts and CI can gate on it.
            if let Some(regression) = e.downcast_ref::<commands::Regression>() {
                println!("{regression}");
                return ExitCode::from(2);
            }
            // Likewise for scenario assertion failures and invalid
            // scenario files: the verdict/diagnostic is the output.
            if let Some(failure) = e.downcast_ref::<commands::ScenarioFailure>() {
                println!("{failure}");
                return ExitCode::from(3);
            }
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Dispatches a raw command line to the matching command; returns the text
/// to print. Extracted from `main` so tests can drive it directly.
fn run(raw: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    let args = Args::parse(raw.iter().cloned())?;
    // `obs diff` takes two file positionals after the two command words,
    // `obs merge` any number of input traces; everything else takes at
    // most one.
    let variadic = args.positional(0) == Some("obs") && args.positional(1) == Some("merge");
    let max_positionals = if args.positional(1) == Some("diff") {
        4
    } else {
        3
    };
    if !variadic && args.positionals().len() > max_positionals {
        return Err(format!("too many arguments: {:?}", args.positionals()).into());
    }
    match (args.positional(0), args.positional(1)) {
        (Some("graph"), Some("generate")) => commands::graph::generate(&args),
        (Some("graph"), Some("stats")) => commands::graph::stats(&args),
        (Some("graph"), Some("sample")) => commands::graph::sample(&args),
        (Some("simulate"), _) => commands::simulate::run(&args),
        (Some("attack"), _) => commands::attack::run(&args),
        (Some("obs"), Some("validate")) => commands::obs::validate(&args),
        (Some("obs"), Some("schema")) => commands::obs::schema(&args),
        (Some("obs"), Some("analyze")) => commands::obs::analyze(&args),
        (Some("obs"), Some("diff")) => commands::obs::diff(&args),
        (Some("obs"), Some("merge")) => commands::obs::merge(&args),
        (Some("obs"), Some("tail")) => commands::obs::tail(&args),
        (Some("obs"), other) => Err(format!(
            "obs: expected validate, schema, analyze, diff, merge or tail, got {other:?}"
        )
        .into()),
        (Some("net"), Some("run")) => commands::net::run(&args),
        (Some("net"), Some("node")) => commands::net::node(&args),
        (Some("net"), Some("top")) => commands::net::top(&args),
        (Some("net"), other) => {
            Err(format!("net: expected run, node or top, got {other:?}").into())
        }
        (Some("scenario"), Some("validate")) => commands::scenario::validate(&args),
        (Some("scenario"), Some("list")) => commands::scenario::list(&args),
        (Some("scenario"), Some("run")) => commands::scenario::run(&args),
        (Some("scenario"), Some("campaign")) => commands::scenario::campaign(&args),
        (Some("scenario"), other) => {
            Err(format!("scenario: expected validate, list, run or campaign, got {other:?}").into())
        }
        (Some("help"), _) | (None, _) => Ok(USAGE.to_string()),
        (Some(other), _) => Err(format!("unknown command {other:?}").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &[&str]) -> Result<String, String> {
        let raw: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        run(&raw).map_err(|e| e.to_string())
    }

    #[test]
    fn help_and_empty_print_usage() {
        assert!(run_line(&["help"]).unwrap().contains("USAGE"));
        assert!(run_line(&[]).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let err = run_line(&["frobnicate"]).unwrap_err();
        assert!(err.contains("frobnicate"));
    }

    #[test]
    fn generate_and_stats_round_trip() {
        let dir = std::env::temp_dir().join("veil-cli-test-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let path_str = path.to_str().unwrap();
        let out = run_line(&[
            "graph", "generate", "--model", "social", "--nodes", "120", "--seed", "3", "--out",
            path_str,
        ])
        .unwrap();
        assert!(out.contains("120"));
        let stats = run_line(&["graph", "stats", path_str]).unwrap();
        assert!(stats.contains("nodes"));
        assert!(stats.contains("120"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sample_requires_target() {
        let dir = std::env::temp_dir().join("veil-cli-test-sample");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let path_str = path.to_str().unwrap();
        run_line(&[
            "graph", "generate", "--model", "social", "--nodes", "150", "--out", path_str,
        ])
        .unwrap();
        let err = run_line(&["graph", "sample", path_str]).unwrap_err();
        assert!(err.contains("target"));
        let ok = run_line(&["graph", "sample", path_str, "--target", "50", "--f", "0.5"]).unwrap();
        assert!(ok.contains("50"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_smoke() {
        let out = run_line(&[
            "simulate",
            "--nodes",
            "60",
            "--alpha",
            "0.5",
            "--horizon",
            "30",
            "--seed",
            "5",
        ])
        .unwrap();
        assert!(out.contains("disconnected"));
        assert!(out.contains("overlay"));
    }

    #[test]
    fn simulate_json_output_parses() {
        let out = run_line(&["simulate", "--nodes", "50", "--horizon", "20", "--json"]).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        assert!(v.get("final").is_some());
    }

    #[test]
    fn simulate_with_blackout() {
        let out = run_line(&[
            "simulate",
            "--nodes",
            "60",
            "--alpha",
            "1.0",
            "--horizon",
            "40",
            "--blackout",
            "20,5,0.5",
        ])
        .unwrap();
        assert!(out.contains("blackout"));
    }

    #[test]
    fn simulate_with_faulty_link() {
        let out = run_line(&[
            "simulate",
            "--nodes",
            "60",
            "--alpha",
            "0.8",
            "--horizon",
            "40",
            "--seed",
            "5",
            "--loss",
            "0.2",
            "--mean-latency",
            "0.5",
            "--shuffle-timeout",
            "2",
            "--shuffle-retries",
            "3",
        ])
        .unwrap();
        assert!(
            out.contains("dropped messages"),
            "faulty run reports losses:\n{out}"
        );
        assert!(out.contains("shuffle retries"));
        // A latency alone, constant included, is a fault model too — and
        // none at all is the ideal link, byte for byte.
        let json = |extra: &[&str]| {
            let base = ["simulate", "--nodes", "60", "--horizon", "30", "--json"];
            run_line(&[&base[..], extra].concat()).unwrap()
        };
        let ideal = json(&[]);
        assert_eq!(json(&["--mean-latency", "0"]), ideal);
        let slow = json(&["--mean-latency", "0.4", "--latency-dist", "constant"]);
        let field = |raw: &str, path: &[&str]| {
            let v: serde_json::Value = serde_json::from_str(raw).expect("valid JSON");
            path.iter().try_fold(&v, |v, key| v.get(key)).cloned()
        };
        assert_ne!(field(&slow, &["final"]), field(&ideal, &["final"]));
        let link = ["config", "overlay", "link"];
        assert_eq!(field(&ideal, &link).unwrap().as_str(), Some("Ideal"));
        let value = [&link[..], &["Faulty", "latency", "Constant", "value"]].concat();
        assert_eq!(field(&slow, &value).unwrap().as_f64(), Some(0.4));
    }

    #[test]
    fn simulate_with_shards_is_shard_count_invariant() {
        let run = |shards: &str| {
            run_line(&[
                "simulate",
                "--nodes",
                "60",
                "--alpha",
                "0.6",
                "--horizon",
                "30",
                "--seed",
                "5",
                "--loss",
                "0.1",
                "--mean-latency",
                "0.4",
                "--shards",
                shards,
                "--json",
            ])
            .unwrap()
        };
        // The echoed config differs (it records the shard count), so
        // compare the measured outputs only.
        let results = |raw: &str| {
            let v: serde_json::Value = serde_json::from_str(raw).expect("valid JSON");
            let mut entries = v.as_map().unwrap().to_vec();
            entries.retain(|(k, _)| k != "config");
            entries
        };
        let one = results(&run("1"));
        assert_eq!(
            one,
            results(&run("2")),
            "shard count must not change results"
        );
        assert_eq!(
            one,
            results(&run("4")),
            "shard count must not change results"
        );
    }

    #[test]
    fn simulate_with_degree_matched_graph() {
        let out = run_line(&[
            "simulate",
            "--nodes",
            "60",
            "--horizon",
            "20",
            "--graph",
            "degree-matched",
            "--avg-degree",
            "8.5",
        ])
        .unwrap();
        assert!(out.contains("disconnected"));
        let err = run_line(&[
            "simulate",
            "--nodes",
            "50",
            "--horizon",
            "20",
            "--graph",
            "mesh",
        ])
        .unwrap_err();
        assert!(err.contains("degree-matched"), "{err}");
    }

    #[test]
    fn graph_generate_degree_matched() {
        let out = run_line(&[
            "graph",
            "generate",
            "--model",
            "dm",
            "--nodes",
            "400",
            "--avg-degree",
            "6.55",
            "--seed",
            "3",
        ])
        .unwrap();
        assert!(out.contains("generated dm graph"), "{out}");
    }

    #[test]
    fn simulate_rejects_bad_fault_flags() {
        let err = run_line(&[
            "simulate",
            "--nodes",
            "50",
            "--horizon",
            "20",
            "--loss",
            "1.5",
        ])
        .unwrap_err();
        assert!(err.contains("loss"));
        let err = run_line(&[
            "simulate",
            "--nodes",
            "50",
            "--horizon",
            "20",
            "--mean-latency",
            "1",
            "--latency-dist",
            "gaussian",
        ])
        .unwrap_err();
        assert!(err.contains("gaussian"));
    }

    /// The `--flags` USAGE lists under `command`: its line and the
    /// indented lines below it, up to the next command.
    fn usage_flags(command: &str) -> std::collections::BTreeSet<&'static str> {
        let mut lines = USAGE
            .lines()
            .skip_while(|l| !l.starts_with(&format!("    {command} ")));
        let first = lines.next().expect("command listed in USAGE");
        std::iter::once(first)
            .chain(lines.take_while(|l| l.starts_with("     ")))
            .flat_map(|l| l.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')))
            .filter_map(|word| word.strip_prefix("--"))
            .collect()
    }

    #[test]
    fn usage_lists_exactly_the_flags_each_command_accepts() {
        for (command, accepted) in [
            ("simulate", commands::simulate::FLAGS),
            ("attack", commands::attack::FLAGS),
        ] {
            let accepted = accepted.iter().copied().collect();
            assert_eq!(usage_flags(command), accepted, "USAGE block of {command}");
        }
    }

    /// Every out-of-range world flag is rejected by the scenario DSL's
    /// `validate` (the report flag `--snapshot-every` by the command)
    /// with an error naming the flag or its DSL key — none panics, and
    /// none runs a world the flags do not describe.
    #[test]
    fn bad_world_flags_are_typed_errors_naming_the_flag() {
        for (line, names) in [
            ("simulate --nodes 50 --horizon -5", "horizon"),
            ("simulate --nodes 50 --horizon 0", "horizon"),
            ("simulate --nodes 50 --horizon 40 --alpha 0", "availability"),
            ("simulate --nodes 50 --lifetime-ratio 0", "lifetime_ratio"),
            ("simulate --nodes 50 --blackout 5,-1,0.5", "blackout"),
            (
                "simulate --nodes 50 --blackout 50,5,0.5 --horizon 20",
                "blackout",
            ),
            ("simulate --nodes 50 --snapshot-every 0", "snapshot-every"),
            ("simulate --nodes 50 --snapshot-every NaN", "snapshot-every"),
            (
                "simulate --nodes 50 --snapshot-every 1e-300",
                "snapshot-every",
            ),
            (
                "simulate --nodes 50 --snapshot-every 1e-12",
                "snapshot-every",
            ),
            ("simulate --nodes 50 --loss 1.5", "link.loss"),
            (
                "simulate --nodes 50 --source-multiplier 0",
                "source_multiplier",
            ),
            ("simulate --nodes 50 --mean-latency -1", "latency"),
            ("simulate --nodes 5", "nodes"),
            ("attack --nodes 1", "nodes"),
        ] {
            let words: Vec<&str> = line.split_whitespace().collect();
            let err = run_line(&words).expect_err(line);
            assert!(err.contains(names), "{line}: {err}");
        }
    }

    /// A command line and the scenario file it writes are one
    /// description: `veil scenario run` of the file ends in the same
    /// overlay as the command.
    #[test]
    fn flags_and_scenario_file_are_one_description() {
        use veil_core::scenario::{parse_scenario_str, run_scenario, Format};
        for line in [
            "simulate --nodes 60 --alpha 0.6 --horizon 30 --seed 5",
            "simulate --nodes 60 --alpha 0.6 --horizon 30 --seed 5 --loss 0.1 --shards 2",
            "simulate --nodes 60 --alpha 0.6 --horizon 30 --seed 5 --blackout 10,8,0.5",
        ] {
            let words: Vec<&str> = line.split_whitespace().collect();
            let scenario = commands::simulate::scenario(&Args::parse(words.clone()).unwrap());
            let scenario = scenario.unwrap();
            let (file, _) = parse_scenario_str(&scenario.to_toml(), Format::Toml, "cli").unwrap();
            assert_eq!(file, scenario, "{line}");
            let outcome = run_scenario(&file).unwrap().outcome;
            let out = run_line(&[&words[..], &["--json"]].concat()).unwrap();
            let out: serde_json::Value = serde_json::from_str(&out).unwrap();
            let last = out.get("final").cloned().unwrap();
            let last: veil_core::metrics::OverlaySnapshot = serde_json::from_value(last).unwrap();
            assert_eq!(outcome.snapshot, last, "{line}");
        }
    }

    #[test]
    fn simulate_trace_export_round_trips_through_validate() {
        let dir = std::env::temp_dir().join("veil-cli-test-obs");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let metrics = dir.join("metrics.prom");
        let chrome = dir.join("spans.json");
        let out = run_line(&[
            "simulate",
            "--nodes",
            "60",
            "--alpha",
            "0.6",
            "--horizon",
            "30",
            "--seed",
            "5",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--chrome-trace",
            chrome.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("trace:"), "obs note present:\n{out}");
        let validated = run_line(&["obs", "validate", trace.to_str().unwrap()]).unwrap();
        assert!(validated.contains("all valid"));
        let prom = std::fs::read_to_string(&metrics).unwrap();
        assert!(prom.contains("veil_sim_shuffles_started_total"), "{prom}");
        let spans: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
        assert!(spans.get("traceEvents").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_flight_recorder_reports_retention() {
        let out = run_line(&[
            "simulate",
            "--nodes",
            "60",
            "--alpha",
            "0.6",
            "--horizon",
            "30",
            "--seed",
            "5",
            "--flight-recorder",
            "16",
        ])
        .unwrap();
        assert!(out.contains("flight recorder retained"), "{out}");
    }

    #[test]
    fn simulate_health_monitor_reports_alert_count() {
        let out = run_line(&[
            "simulate",
            "--nodes",
            "60",
            "--alpha",
            "0.6",
            "--horizon",
            "30",
            "--seed",
            "5",
            "--health",
        ])
        .unwrap();
        assert!(out.contains("health monitor:"), "{out}");
    }

    #[test]
    fn simulate_self_heal_reports_reactions() {
        let out = run_line(&[
            "simulate",
            "--nodes",
            "60",
            "--alpha",
            "0.6",
            "--horizon",
            "30",
            "--seed",
            "5",
            "--self-heal",
        ])
        .unwrap();
        assert!(out.contains("health monitor:"), "{out}");
        assert!(out.contains("self-healing:"), "{out}");
    }

    /// Self-healing is one switch: a per-reaction flag is an unknown
    /// flag, not a silent no-op.
    #[test]
    fn removed_heal_flags_are_unknown() {
        for flag in ["heal-backoff", "heal-rebootstrap", "heal-throttle"] {
            let removed = format!("--{flag}");
            let line = ["simulate", "--nodes", "60", "--self-heal", &removed];
            let err = Args::parse(line)
                .unwrap()
                .check_known(commands::simulate::FLAGS);
            assert_eq!(err, Err(args::ArgsError::UnknownFlag(flag.into())));
            let err = run_line(&line).unwrap_err();
            assert!(err.contains(&format!("unknown flag --{flag}")), "{err}");
        }
    }

    #[test]
    fn obs_analyze_reports_success_rate_and_writes_report() {
        let dir = std::env::temp_dir().join("veil-cli-test-analyze");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let report = dir.join("report.json");
        run_line(&[
            "simulate",
            "--nodes",
            "60",
            "--alpha",
            "0.6",
            "--horizon",
            "30",
            "--seed",
            "5",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_line(&[
            "obs",
            "analyze",
            trace.to_str().unwrap(),
            "--out",
            report.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("% success"), "{out}");
        let saved: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap();
        assert!(saved.get("totals").is_some());
        let json_out = run_line(&["obs", "analyze", trace.to_str().unwrap(), "--json"]).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json_out).expect("valid JSON");
        assert!(v.get("shuffle_success_rate").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn obs_diff_passes_identical_and_flags_faulty_run() {
        let dir = std::env::temp_dir().join("veil-cli-test-diff");
        std::fs::create_dir_all(&dir).unwrap();
        let clean = dir.join("clean.jsonl");
        let faulty = dir.join("faulty.jsonl");
        let base = &[
            "simulate",
            "--nodes",
            "60",
            "--alpha",
            "0.6",
            "--horizon",
            "30",
            "--seed",
            "5",
        ];
        let mut clean_cmd: Vec<&str> = base.to_vec();
        clean_cmd.extend(["--trace-out", clean.to_str().unwrap()]);
        run_line(&clean_cmd).unwrap();
        let mut faulty_cmd: Vec<&str> = base.to_vec();
        faulty_cmd.extend([
            "--trace-out",
            faulty.to_str().unwrap(),
            "--loss",
            "0.3",
            "--mean-latency",
            "0.5",
        ]);
        run_line(&faulty_cmd).unwrap();
        let same = run_line(&[
            "obs",
            "diff",
            clean.to_str().unwrap(),
            clean.to_str().unwrap(),
        ])
        .unwrap();
        assert!(same.contains("no regressions"), "{same}");
        let err = run_line(&[
            "obs",
            "diff",
            clean.to_str().unwrap(),
            faulty.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("REGRESSED"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn obs_tail_drains_existing_trace() {
        let dir = std::env::temp_dir().join("veil-cli-test-tail");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        run_line(&[
            "simulate",
            "--nodes",
            "60",
            "--alpha",
            "0.6",
            "--horizon",
            "30",
            "--seed",
            "5",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_line(&["obs", "tail", trace.to_str().unwrap(), "--no-follow"]).unwrap();
        assert!(out.starts_with("tail: printed"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn obs_schema_lists_event_kinds() {
        let out = run_line(&["obs", "schema"]).unwrap();
        assert!(out.contains("ShuffleStart"));
        assert!(out.contains("HealthAlert"));
        // The transport telemetry kinds are part of the same (additive)
        // schema version.
        assert!(out.contains("NetHandshakeFail"));
        assert!(out.contains("NetBytes"));
    }

    #[test]
    fn net_top_requires_a_manifest() {
        let err = run_line(&["net", "top", "--dir", "/nonexistent"]).unwrap_err();
        assert!(err.contains("fleet.json"), "{err}");
    }

    #[test]
    fn obs_validate_rejects_garbage() {
        let dir = std::env::temp_dir().join("veil-cli-test-obs-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        std::fs::write(&path, "{\"not\": \"an event\"}\n").unwrap();
        let err = run_line(&["obs", "validate", path.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every door that reads a trace refuses what `obs validate` refuses,
    /// with its error apart from the input or path prefix.
    #[test]
    fn every_trace_door_refuses_what_validate_refuses() {
        let header = veil_obs::trace_header();
        let event = |kind: &str| format!(r#"{{"t":1,"tid":0,"seq":0,"node":1,"kind":{kind}}}"#);
        let rows = [
            (
                event(r#"{"ShuffleFailure":{"exchange":3,"extra":1}}"#),
                "line 2",
                "\"extra\"",
            ),
            (
                event(
                    r#"{"HealthAlert":{"detector":"d","severity":"warning","value":1e400,"threshold":1}}"#,
                ),
                "line 2",
                "HealthAlert.value",
            ),
            (
                r#"{"t":-1,"tid":0,"seq":0,"node":null,"kind":"NodeOnline"}"#.to_string(),
                "line 2",
                "\"t\"",
            ),
            (
                event(r#"{"ShuffleStart":{"target":3}}"#),
                "line 2",
                "\"trusted\"",
            ),
            (header.clone(), "line 2", "\"veil_trace_version\""),
        ];
        let mut traces: Vec<(String, &str, &str)> = rows
            .into_iter()
            .map(|(line, at, field)| (format!("{header}\n{line}\n"), at, field))
            .collect();
        traces.push((
            "{\"veil_trace_version\":999}\n".to_string(),
            "line 1",
            "version 999",
        ));
        let dir = std::env::temp_dir().join("veil-cli-test-doors");
        std::fs::create_dir_all(&dir).unwrap();
        for (i, (text, at, field)) in traces.iter().enumerate() {
            let want = veil_obs::validate_events_jsonl(text).unwrap_err();
            assert!(want.starts_with(at) && want.contains(field), "{want}");
            let path = dir.join(format!("row{i}.jsonl"));
            std::fs::write(&path, text).unwrap();
            let path = path.to_str().unwrap();
            for (door, got) in [
                ("analyze", veil_obs::analyze_trace(text).map(drop)),
                ("merge", veil_obs::merge_traces(&[(path, text)]).map(drop)),
                ("chrome", veil_obs::exchange_chrome_trace(text).map(drop)),
                (
                    "tail",
                    run_line(&["obs", "tail", path, "--no-follow", "--all"]).map(drop),
                ),
            ] {
                let got = got.expect_err(door);
                assert!(got.ends_with(&want), "{door}: {got} (validate: {want})");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attack_smoke() {
        let out = run_line(&["attack", "--nodes", "80", "--seed", "2"]).unwrap();
        assert!(out.contains("observer"));
        assert!(out.contains("articulation"));
    }

    #[test]
    fn every_model_generates() {
        for model in ["ba", "er", "ws", "hk", "social", "community"] {
            let nodes = if model == "community" { "200" } else { "60" };
            let out = run_line(&[
                "graph", "generate", "--model", model, "--nodes", nodes, "--seed", "9",
            ])
            .unwrap_or_else(|e| panic!("model {model}: {e}"));
            assert!(out.contains(model), "output should echo the model name");
            assert!(out.contains("edges"));
        }
    }

    #[test]
    fn stats_reports_missing_file() {
        let err = run_line(&["graph", "stats", "/nonexistent/veil.txt"]).unwrap_err();
        assert!(err.contains("cannot open"));
    }

    #[test]
    fn too_many_positionals_rejected() {
        let err = run_line(&["graph", "stats", "a", "b", "c"]).unwrap_err();
        assert!(err.contains("too many"));
    }

    #[test]
    fn generate_rejects_unknown_model() {
        let err =
            run_line(&["graph", "generate", "--model", "mystery", "--nodes", "50"]).unwrap_err();
        assert!(err.contains("mystery"));
    }

    #[test]
    fn generate_rejects_unknown_flag() {
        let err = run_line(&[
            "graph", "generate", "--model", "er", "--nodes", "50", "--sede", "1",
        ])
        .unwrap_err();
        assert!(err.contains("sede"));
    }
}
