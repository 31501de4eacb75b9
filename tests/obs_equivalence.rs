//! Observability-determinism harness: the recorder must be a pure
//! observer. Every simulation and sweep output must be byte-identical
//! whether tracing is off, on in full mode, or on as a bounded flight
//! recorder — at every parallelism level — because the recorder never
//! draws from any RNG stream and never reorders events.
//!
//! Attaching a recorder is `Simulation::set_recorder` and nothing else:
//! a recorder attached mid-run sees the rest of the same run, and one
//! attached before the run starts also gets the t = 0 start-up mints.
//!
//! Also exercises the export surface end to end: the JSONL trace
//! validates against the event schema, the Chrome trace parses, and the
//! flight-recorder ring honors its capacity.

use veil_core::config::{LinkLayerConfig, RemedyConfig};
use veil_core::experiment::{build_simulation, build_trust_graph, ExperimentParams};
use veil_core::metrics::snapshot;
use veil_obs::{EventKind, Recorder};
use veil_sim::fault::FaultConfig;

fn params(seed: u64, parallelism: Option<usize>) -> ExperimentParams {
    let mut p = ExperimentParams {
        nodes: 80,
        warmup: 60.0,
        seed,
        lifetime_ratio: Some(3.0),
        source_multiplier: 5,
        ..ExperimentParams::default()
    }
    .scaled_down(4);
    p.overlay.parallelism = parallelism;
    p
}

/// Runs one simulation under `recorder` and returns the serialized final
/// snapshot — the byte-identity witness.
fn witness(seed: u64, recorder: Recorder) -> String {
    witness_health(seed, recorder, false)
}

/// [`witness`] with the online health monitor optionally enabled.
fn witness_health(seed: u64, recorder: Recorder, health: bool) -> String {
    let mut p = params(seed, Some(1));
    p.overlay.health.enabled = health;
    let trust = build_trust_graph(&p).expect("trust graph");
    let mut sim = build_simulation(trust, &p, 0.5).expect("simulation");
    sim.set_recorder(recorder);
    sim.run_until(40.0);
    serde_json::to_string(&snapshot(&sim)).expect("snapshot serializes")
}

#[test]
fn tracing_never_changes_simulation_output() {
    for seed in [3, 19] {
        let off = witness(seed, Recorder::disabled());
        let full = witness(seed, Recorder::full());
        let ring = witness(seed, Recorder::flight_recorder(64));
        assert_eq!(off, full, "full tracing perturbed the run (seed {seed})");
        assert_eq!(off, ring, "flight recorder perturbed the run (seed {seed})");
    }
}

#[test]
fn health_monitor_never_changes_simulation_output() {
    // The monitor is a pure observer over the event stream: it draws no
    // randomness and feeds nothing back into the protocol, so a run with
    // detectors live must stay byte-identical to one with tracing off.
    for seed in [3, 19] {
        let off = witness(seed, Recorder::disabled());
        let monitored = witness_health(seed, Recorder::full(), true);
        assert_eq!(
            off, monitored,
            "health monitor perturbed the run (seed {seed})"
        );
    }
    // The monitor is recorder-free: a health-enabled config with a
    // disabled recorder still runs the detectors (and still matches).
    let off = witness(3, Recorder::disabled());
    let disabled_recorder = witness_health(3, Recorder::disabled(), true);
    assert_eq!(off, disabled_recorder);
}

#[test]
fn recorder_free_monitor_counts_alerts_without_perturbing_the_run() {
    // Satellite witness for the recorder-free monitor refactor: with no
    // recorder installed at all, the monitor still observes the run and
    // counts alerts via `Simulation::health_alerts`, while the simulation
    // output stays byte-identical to a monitor-off run.
    let run = |health: bool| {
        let mut p = params(11, Some(1));
        p.overlay.health.enabled = health;
        let trust = build_trust_graph(&p).expect("trust graph");
        let mut sim = build_simulation(trust, &p, 0.5).expect("simulation");
        sim.run_until(40.0);
        let alerts = sim.health_alerts();
        (
            serde_json::to_string(&snapshot(&sim)).expect("snapshot serializes"),
            alerts,
        )
    };
    let (plain, no_monitor) = run(false);
    let (monitored, alerts) = run(true);
    assert_eq!(no_monitor, None, "monitor-off run must report no counter");
    let alerts = alerts.expect("health-enabled run must expose the counter");
    assert!(alerts > 0, "the lossy churny workload must raise alerts");
    assert_eq!(
        plain, monitored,
        "recorder-free monitor perturbed the simulation"
    );
}

#[test]
fn health_monitored_trace_validates_and_counts_alerts() {
    let recorder = Recorder::full();
    witness_health(11, recorder.clone(), true);
    let jsonl = recorder.events_jsonl();
    let count = veil_obs::validate_events_jsonl(&jsonl).expect("monitored trace validates");
    assert_eq!(count as u64, recorder.events_seen());
    let alerts = recorder
        .events()
        .iter()
        .filter(|e| e.kind.name() == "HealthAlert")
        .count() as u64;
    assert_eq!(
        recorder.metrics().counter("health.alerts"),
        alerts,
        "alert counter and event stream must agree"
    );
}

#[test]
fn traced_run_exports_load_cleanly() {
    let recorder = Recorder::full();
    witness(5, recorder.clone());

    // JSONL validates against the event schema, line by line.
    let jsonl = recorder.events_jsonl();
    let count = veil_obs::validate_events_jsonl(&jsonl).expect("trace validates");
    assert_eq!(count as u64, recorder.events_seen());
    assert!(count > 0, "an eventful run must produce events");
    assert_eq!(recorder.events_dropped(), 0, "full mode never drops");

    // The Chrome trace parses and contains the run_until phase spans.
    let chrome = recorder.chrome_trace();
    let doc: serde_json::Value = serde_json::from_str(&chrome).expect("chrome trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_seq())
        .expect("traceEvents array");
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("sim.run_until")));

    // The metrics registry counts the same story the events tell.
    let minted_events = recorder
        .events()
        .iter()
        .filter(|e| e.kind.name() == "PseudonymMinted")
        .count() as u64;
    assert_eq!(
        recorder.metrics().counter("sim.pseudonyms_minted"),
        minted_events,
        "counter and event stream must agree"
    );
}

#[test]
fn sharded_traces_are_shard_count_invariant() {
    // The trace content (what happened, when, to whom) must be identical
    // for every shard count; only the recording order (`seq`) of
    // equal-time events depends on the shard layout, so events are
    // compared in canonical order with the capture metadata stripped. Health
    // alerts feed off the same stream and must agree too — and so must
    // the remediation engine's reactions when self-healing is on, since
    // its decisions are made against barrier-time state that every shard
    // layout reconstructs identically.
    let canonical = |seed: u64, shards: usize, healing: bool| {
        let mut p = params(seed, Some(1));
        p.overlay.link = LinkLayerConfig::Faulty(FaultConfig::with_loss(0.2));
        p.overlay.health.enabled = true;
        if healing {
            p.overlay.remedy = RemedyConfig::all_on();
        }
        p.overlay.shards = Some(shards);
        let trust = build_trust_graph(&p).expect("trust graph");
        let recorder = Recorder::full();
        let mut sim = build_simulation(trust, &p, 0.5).expect("simulation");
        assert!(sim.is_sharded(), "fault model must engage the executor");
        sim.set_recorder(recorder.clone());
        sim.run_until(40.0);
        let mut events: Vec<(u64, Option<u32>, String)> = recorder
            .events()
            .iter()
            .map(|e| {
                (
                    e.t.to_bits(),
                    e.node,
                    serde_json::to_string(&e.kind).expect("kind serializes"),
                )
            })
            .collect();
        events.sort();
        (
            events,
            sim.health_alerts().expect("monitor is on"),
            sim.remedy_counts(),
            serde_json::to_string(&snapshot(&sim)).expect("snapshot serializes"),
        )
    };
    for healing in [false, true] {
        for seed in [3, 11, 19] {
            let reference = canonical(seed, 1, healing);
            if healing {
                let counts = reference.2.as_ref().expect("self-healing is on");
                assert!(
                    counts.total() > 0,
                    "healing-on reference run must actually react (seed {seed})"
                );
            }
            for shards in [2, 8] {
                let got = canonical(seed, shards, healing);
                assert_eq!(
                    got.0.len(),
                    reference.0.len(),
                    "event count diverged (seed {seed}, shards {shards}, healing {healing})"
                );
                assert_eq!(
                    got, reference,
                    "trace/alerts/reactions/snapshot diverged \
                     (seed {seed}, shards {shards}, healing {healing})"
                );
            }
        }
    }
}

/// A lossy, monitored run on `shards` shards, traced into `recorder`;
/// `healing` switches every remediation reaction on.
fn lossy_run(seed: u64, shards: usize, healing: bool, recorder: Recorder) {
    let mut p = params(seed, Some(1));
    p.overlay.link = LinkLayerConfig::Faulty(FaultConfig::with_loss(0.2));
    p.overlay.health.enabled = true;
    if healing {
        p.overlay.remedy = RemedyConfig::all_on();
    }
    p.overlay.shards = Some(shards);
    let trust = build_trust_graph(&p).expect("trust graph");
    let mut sim = build_simulation(trust, &p, 0.5).expect("simulation");
    sim.set_recorder(recorder);
    sim.run_until(40.0);
}

#[test]
fn flight_recorder_honors_its_capacity() {
    // One ring per recorder, whatever runs the simulation: the sequential
    // ideal-link run, and lossy monitored runs whose windows fork onto 2
    // and 8 worker threads.
    let cap = 32;
    type Run = Box<dyn Fn(Recorder)>;
    let runs: Vec<(&str, Run)> = vec![
        ("ideal", Box::new(|r| drop(witness(5, r)))),
        ("lossy, shards 2", Box::new(|r| lossy_run(5, 2, false, r))),
        ("lossy, shards 8", Box::new(|r| lossy_run(5, 8, false, r))),
    ];
    for (name, run) in runs {
        let recorder = Recorder::flight_recorder(cap);
        run(recorder.clone());
        let retained = recorder.events();
        assert!(
            retained.len() <= cap,
            "{name}: ring retained {} events, capacity {cap}",
            retained.len()
        );
        assert!(
            recorder.events_seen() > cap as u64,
            "{name}: workload overflows the ring"
        );
        assert_eq!(
            recorder.events_dropped(),
            recorder.events_seen() - retained.len() as u64,
            "{name}: seen = retained + dropped"
        );
        // The ring keeps the *tail*: retained events are the most recent
        // ones of the full trace at the same shard count.
        let full = Recorder::full();
        run(full.clone());
        let all = full.events();
        assert_eq!(
            retained,
            all[all.len() - retained.len()..],
            "{name}: flight recorder must retain the suffix of the full trace"
        );
    }
}

#[test]
fn sharded_raw_traces_repeat_byte_for_byte() {
    // The barrier records every window's events in one order fixed by
    // the run and the shard count, so the raw trace — capture metadata
    // included — repeats exactly, however the worker threads were
    // scheduled.
    for shards in [2, 8] {
        let trace = || {
            let recorder = Recorder::full();
            lossy_run(7, shards, true, recorder.clone());
            recorder.events_jsonl()
        };
        let first = trace();
        for rep in 1..5 {
            assert!(
                trace() == first,
                "raw trace differs on repetition {rep} (shards {shards})"
            );
        }
    }
}

#[test]
fn attaching_a_recorder_mid_run_changes_nothing_it_sees() {
    // `set_recorder` swaps the sink and nothing else. A recorder attached
    // at t = 17.5 must see the rest of the very run a recorder attached at
    // t = 0 sees: the same alert count, the same alerts from 17.5 on, the
    // same reactions and the same final overlay — on a lossy, monitored,
    // self-healing run where the monitor's window state matters.
    const ATTACH: f64 = 17.5;
    let run = |seed: u64, attach: f64| {
        let mut p = params(seed, Some(1));
        p.overlay.link = LinkLayerConfig::Faulty(FaultConfig::with_loss(0.2));
        p.overlay.health.enabled = true;
        p.overlay.remedy = RemedyConfig::all_on();
        let trust = build_trust_graph(&p).expect("trust graph");
        let mut sim = build_simulation(trust, &p, 0.5).expect("simulation");
        let recorder = Recorder::full();
        sim.run_until(attach);
        sim.set_recorder(recorder.clone());
        sim.run_until(40.0);
        let late_alerts: Vec<(f64, EventKind)> = recorder
            .events()
            .into_iter()
            .filter(|e| e.t >= ATTACH && matches!(e.kind, EventKind::HealthAlert { .. }))
            .map(|e| (e.t, e.kind))
            .collect();
        let first_event = recorder.events().first().map(|e| e.t);
        (
            (
                sim.health_alerts().expect("monitor is on"),
                late_alerts,
                sim.remedy_counts().expect("self-healing is on"),
                serde_json::to_string(&snapshot(&sim)).expect("snapshot serializes"),
            ),
            first_event,
        )
    };
    for seed in 1..=10 {
        let (from_start, _) = run(seed, 0.0);
        let (from_mid_run, first_event) = run(seed, ATTACH);
        assert!(
            first_event.is_some_and(|t| t >= ATTACH),
            "a late recorder sees nothing from before it was attached (seed {seed})"
        );
        assert_eq!(
            from_mid_run, from_start,
            "attaching at t = {ATTACH} changed the run (seed {seed})"
        );
    }
}

#[test]
fn a_recorder_attached_before_the_run_gets_one_startup_mint_per_online_node() {
    // The t = 0 start-up mints are recorded once, into the recorder
    // attached when the run first advances: one `PseudonymMinted` per node
    // online at construction, in node order, carrying the configured
    // lifetime, as the first events recorded — exactly what
    // construction used to record into a recorder installed around it.
    // A blackout injected before the run starts comes after the mints and
    // does not hide its victims' mints.
    for (seed, shards, blackout_first) in [(3, None, false), (11, None, true), (19, Some(2), false)]
    {
        let mut p = params(seed, Some(1));
        p.overlay.shards = shards;
        if shards.is_some() {
            p.overlay.link = LinkLayerConfig::Faulty(FaultConfig::with_loss(0.2));
        }
        let trust = build_trust_graph(&p).expect("trust graph");
        let mut sim = build_simulation(trust, &p, 0.5).expect("simulation");
        let online: Vec<u32> = (0..sim.node_count())
            .filter(|&v| sim.is_online(v))
            .map(|v| v as u32)
            .collect();
        assert!(
            !online.is_empty(),
            "someone is online at t = 0 (seed {seed})"
        );
        let recorder = Recorder::full();
        sim.set_recorder(recorder.clone());
        if blackout_first {
            sim.inject_blackout(&[0, 1, 2, 3], 5.0);
        }
        sim.run_until(40.0);
        let lifetime = sim.config().pseudonym_lifetime;
        let events = recorder.events();
        let tid = events[0].tid;
        let mints: Vec<(u32, u64, Option<u32>, EventKind)> = events
            .into_iter()
            .filter(|e| e.t == 0.0 && matches!(e.kind, EventKind::PseudonymMinted { .. }))
            .map(|e| (e.tid, e.seq, e.node, e.kind))
            .collect();
        let expected: Vec<(u32, u64, Option<u32>, EventKind)> = online
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                (
                    tid,
                    i as u64,
                    Some(v),
                    EventKind::PseudonymMinted { lifetime },
                )
            })
            .collect();
        assert_eq!(mints, expected, "seed {seed}, shards {shards:?}");
    }
}
