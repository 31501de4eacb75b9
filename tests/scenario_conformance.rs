//! Conformance suite for the committed scenario library (`scenarios/`).
//!
//! Every committed scenario must parse, validate, lower onto a config
//! that `OverlayConfig::validate` accepts, round-trip through canonical
//! TOML, and run *deterministically*: identical outcomes and traces on
//! repeat, identical results whatever the shard count (unset included), and
//! byte-identical campaign reports whether the sweep ran serially or in
//! parallel. For `blackout_recovery` — which mirrors a config that can be
//! written by hand — the lowered parameters and the whole run (snapshot,
//! trace, health alerts) are pinned byte-for-byte against the hand-built
//! equivalent at every shard count tested.

use std::path::{Path, PathBuf};
use veil_core::config::{HealthConfig, LinkLayerConfig, OverlayConfig};
use veil_core::experiment::{build_simulation, build_trust_graph, ExperimentParams, SourceModel};
use veil_core::scenario::{
    lower, parse_scenario_path, parse_scenario_str, run_campaign, run_scenario_with, validate,
    CampaignSpec, RunOverrides, Scenario,
};
use veil_obs::Recorder;
use veil_sim::fault::{EpisodeEffect, FaultConfig, FaultEpisode, LatencyDist};

fn library_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn library() -> Vec<(PathBuf, Scenario)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(library_dir())
        .expect("scenarios/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("toml"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 6,
        "the committed library should hold at least 6 scenarios, found {}",
        files.len()
    );
    files
        .into_iter()
        .map(|path| {
            let (s, _) =
                parse_scenario_path(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (path, s)
        })
        .collect()
}

#[test]
fn every_committed_scenario_parses_validates_and_lowers() {
    for (path, s) in library() {
        validate(&s).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let lowered = lower(&s).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        lowered
            .params
            .overlay
            .validate()
            .unwrap_or_else(|e| panic!("{}: lowered config invalid: {e}", path.display()));
    }
}

#[test]
fn every_committed_scenario_round_trips_through_canonical_toml() {
    for (path, s) in library() {
        let text = s.to_toml();
        let (back, _) = parse_scenario_str(&text, veil_core::scenario::Format::Toml, &s.name)
            .unwrap_or_else(|e| panic!("{}: canonical TOML rejected: {e}", path.display()));
        assert_eq!(
            back,
            s,
            "{}: TOML round-trip changed the scenario",
            path.display()
        );
    }
}

/// The attack evaluator committed scenarios with an `[attack]` section
/// need (the CLI injects the same function).
fn eval() -> Option<&'static veil_core::scenario::AttackEval> {
    Some(&veil_privacy::evaluate_attack)
}

#[test]
fn every_committed_scenario_runs_deterministically() {
    for (path, s) in library() {
        let a = run_scenario_with(&s, RunOverrides::default(), eval())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let b = run_scenario_with(&s, RunOverrides::default(), eval()).unwrap();
        assert_eq!(
            a.outcome,
            b.outcome,
            "{}: outcome not reproducible",
            path.display()
        );
        assert_eq!(
            a.trace_jsonl,
            b.trace_jsonl,
            "{}: trace not reproducible",
            path.display()
        );
    }
}

#[test]
fn sharded_runs_are_shard_count_invariant() {
    // `shards` is a layout knob: unset (the `-` column of a campaign
    // report), one or eight, every committed scenario — lossy, latent or
    // ideal — must produce the S = 1 run bit-for-bit.
    for (path, s) in library() {
        for seed in [s.seed, s.seed + 1] {
            let run = |shards: Option<usize>| {
                run_scenario_with(
                    &s,
                    RunOverrides {
                        seed: Some(seed),
                        shards,
                    },
                    eval(),
                )
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            };
            let one = run(Some(1));
            for shards in [None, Some(8)] {
                let got = run(shards);
                assert_eq!(
                    one.trace_jsonl,
                    got.trace_jsonl,
                    "{} seed {seed}: shards {shards:?} changed the trace",
                    path.display()
                );
                let mut outcome = got.outcome.clone();
                outcome.shards = one.outcome.shards; // the only allowed difference
                assert_eq!(
                    one.outcome,
                    outcome,
                    "{} seed {seed}: shards {shards:?} changed the outcome",
                    path.display()
                );
            }
        }
    }
}

#[test]
fn campaign_reports_are_identical_serial_and_parallel() {
    // One cheap scenario is enough: the property under test is the
    // sweep machinery, not the dynamics.
    let (path, s) = library()
        .into_iter()
        .find(|(p, _)| p.file_stem().and_then(|x| x.to_str()) == Some("baseline"))
        .expect("baseline scenario committed");
    let spec = |parallelism: usize| CampaignSpec {
        seeds: vec![s.seed, s.seed + 1],
        shard_counts: vec![None, Some(2)],
        parallelism: Some(parallelism),
    };
    let serial =
        run_campaign(&s, &spec(1), eval()).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let parallel = run_campaign(&s, &spec(4), eval()).unwrap();
    assert_eq!(serial.jsonl(), parallel.jsonl());
    assert!(serial.all_passed(), "baseline campaign must pass");
}

/// The hand-built equivalent of `scenarios/blackout_recovery.toml`:
/// exactly what an experimenter would have written before the scenario
/// subsystem existed.
fn hand_built_blackout_recovery() -> ExperimentParams {
    ExperimentParams {
        nodes: 200,
        trust_f: 0.5,
        mean_offline: 30.0,
        lifetime_ratio: Some(3.0),
        warmup: 80.0,
        seed: 31,
        overlay: OverlayConfig {
            cache_size: 100,
            shuffle_length: 12,
            target_links: 16,
            shuffle_timeout: 3.0,
            shuffle_retry_budget: 2,
            link: LinkLayerConfig::Faulty(FaultConfig {
                drop_probability: 0.0,
                latency: LatencyDist::Constant { value: 0.0 },
                episodes: vec![FaultEpisode {
                    start: 45.0,
                    end: 60.0,
                    effect: EpisodeEffect::Blackout {
                        first: 0,
                        count: 100,
                    },
                }],
            }),
            health: HealthConfig {
                enabled: true,
                window: 5.0,
                ..HealthConfig::default()
            },
            ..OverlayConfig::default()
        },
        source_multiplier: 5,
        source: SourceModel::HolmeKim {
            attach: 4,
            triad: 0.6,
        },
    }
}

#[test]
fn blackout_recovery_lowers_to_the_hand_built_config() {
    let path = library_dir().join("blackout_recovery.toml");
    let (s, _) = parse_scenario_path(&path).unwrap();
    let lowered = lower(&s).unwrap();
    assert_eq!(
        lowered.params,
        hand_built_blackout_recovery(),
        "lowering drifted from the hand-built equivalent"
    );
    assert_eq!(lowered.alpha, 0.9);
    assert_eq!(lowered.horizon, 80.0);
}

#[test]
fn blackout_recovery_run_is_byte_identical_to_hand_built_run() {
    let path = library_dir().join("blackout_recovery.toml");
    let (s, _) = parse_scenario_path(&path).unwrap();
    for shards in [None, Some(1), Some(8)] {
        // Hand-built path: what an experimenter writes by hand.
        let mut params = hand_built_blackout_recovery();
        params.overlay.shards = shards;
        let trust = build_trust_graph(&params).unwrap();
        let recorder = Recorder::full();
        let mut sim = build_simulation(trust, &params, 0.9).unwrap();
        sim.set_recorder(recorder.clone());
        sim.run_until(80.0);
        let hand_snapshot = veil_core::metrics::snapshot(&sim);
        // Canonical serialization is the byte-identity contract: raw
        // `events_jsonl` bytes depend on the executor's thread layout
        // (`tid`), so both paths serialize through the same canonical
        // form the scenario runner uses.
        let hand_trace = veil_core::scenario::canonical_trace_jsonl(&recorder);
        let hand_report = veil_obs::analyze_trace(&hand_trace).unwrap();

        // Scenario path.
        let run = run_scenario_with(&s, RunOverrides { seed: None, shards }, eval()).unwrap();

        assert_eq!(
            run.outcome.snapshot, hand_snapshot,
            "shards {shards:?}: snapshots differ"
        );
        assert_eq!(
            run.trace_jsonl, hand_trace,
            "shards {shards:?}: traces differ"
        );
        let scenario_report = veil_obs::analyze_trace(&run.trace_jsonl).unwrap();
        assert_eq!(
            scenario_report.alerts, hand_report.alerts,
            "shards {shards:?}: health alerts differ"
        );
    }
}

#[test]
fn the_trace_a_run_writes_replays_to_the_report_it_was_graded_from() {
    // A run grades from the events it holds (`analyze_events`) and never
    // reads its own trace back, so this is where the two doors of
    // `veil_obs::replay` are held to one report: over every committed
    // scenario and the benchmark's, the whole `TraceReport`, `==`.
    let heal = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../benchmarks/veil-benchmark/scenarios/heal.toml");
    let mut cases = library();
    let (s, _) = parse_scenario_path(&heal).unwrap_or_else(|e| panic!("{}: {e}", heal.display()));
    cases.push((heal, s));
    for (path, s) in cases {
        for shards in [None, Some(2)] {
            let at = format!("{} shards {shards:?}", path.display());
            let run = run_scenario_with(&s, RunOverrides { seed: None, shards }, eval())
                .unwrap_or_else(|e| panic!("{at}: {e}"));
            let from_text = veil_obs::analyze_trace(&run.trace_jsonl).unwrap();
            assert_eq!(
                veil_obs::validate_events_jsonl(&run.trace_jsonl),
                Ok(from_text.events as usize),
                "{at}"
            );
            // The canonical events, back from the lines they were written
            // to: position is `seq`, so file order is replay order.
            let events: Vec<veil_obs::TraceEvent> = run
                .trace_jsonl
                .lines()
                .skip(1)
                .map(|line| serde_json::from_str(line).unwrap())
                .collect();
            assert!(
                (events.iter().enumerate()).all(|(i, e)| (e.tid, e.seq) == (0, i as u64)),
                "{at}: trace is not in canonical form"
            );
            assert_eq!(veil_obs::analyze_events(events).unwrap(), from_text, "{at}");

            let o = &run.outcome;
            let critical = from_text.alerts.iter().filter(|a| a.severity == "critical");
            assert_eq!(o.alerts_total, from_text.alerts.len() as u64, "{at}");
            assert_eq!(o.critical_alerts, critical.count() as u64, "{at}");
            assert_eq!(o.shuffle_success_rate, from_text.shuffle_success_rate);
            assert_eq!(o.reaction_counts, from_text.reaction_counts, "{at}");
            for a in &from_text.alerts {
                assert!(o.detectors.contains(&a.detector), "{at}: {}", a.detector);
            }
        }
    }
}

#[test]
fn expected_fail_fixture_fails_its_assertions() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/scenario_expected_fail.toml");
    let (s, _) = parse_scenario_path(&path).unwrap();
    validate(&s).unwrap();
    let run = run_scenario_with(&s, RunOverrides::default(), eval()).unwrap();
    assert!(
        !run.outcome.passed,
        "the expected-fail fixture must keep failing (CI gates the non-zero exit path on it)"
    );
}
