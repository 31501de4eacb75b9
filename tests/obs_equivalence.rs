//! Observability-determinism harness: the recorder must be a pure
//! observer. Every simulation and sweep output must be byte-identical
//! whether tracing is off, on in full mode, or on as a bounded flight
//! recorder — at every parallelism level — because the recorder never
//! draws from any RNG stream and never reorders events.
//!
//! Also exercises the export surface end to end: the JSONL trace
//! validates against the event schema, the Chrome trace parses, and the
//! flight-recorder ring honors its capacity.

use std::sync::Mutex;
use veil_core::experiment::{
    availability_sweep, build_simulation, build_trust_graph, ExperimentParams,
};
use veil_core::metrics::snapshot;
use veil_obs::Recorder;

/// Serializes the tests that install a *global* recorder: the global is
/// process-wide state, and the test harness runs tests on concurrent
/// threads.
static GLOBAL_RECORDER_LOCK: Mutex<()> = Mutex::new(());

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

/// Builds a simulation while no concurrently running test has a global
/// recorder installed: construction adopts whatever `veil_obs::global()`
/// returns at that instant, and would otherwise write its t = 0 events
/// into the other test's trace.
fn build_isolated(
    trust: veil_graph::Graph,
    p: &ExperimentParams,
) -> veil_core::simulation::Simulation {
    let _guard = GLOBAL_RECORDER_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    build_simulation(trust, p, 0.5).expect("simulation")
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
    let mut sim = build_isolated(trust, &p);
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
        let mut sim = build_isolated(trust, &p);
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
fn global_tracing_never_changes_sweep_output() {
    let _guard = GLOBAL_RECORDER_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let alphas = [0.25, 0.5, 1.0];
    for parallelism in [Some(1), Some(4)] {
        let p = params(7, parallelism);
        let trust = build_trust_graph(&p).expect("trust graph");
        let baseline = {
            let prev = veil_obs::install_global(Recorder::disabled());
            let out = availability_sweep(&trust, &p, &alphas, false).expect("sweep");
            veil_obs::install_global(prev);
            serde_json::to_string(&out).expect("sweep serializes")
        };
        let recorder = Recorder::full();
        let prev = veil_obs::install_global(recorder.clone());
        let out = availability_sweep(&trust, &p, &alphas, false).expect("sweep");
        veil_obs::install_global(prev);
        let traced = serde_json::to_string(&out).expect("sweep serializes");
        assert_eq!(
            baseline, traced,
            "tracing perturbed the sweep at parallelism {parallelism:?}"
        );
        assert!(
            !recorder.spans().is_empty(),
            "the traced sweep should have recorded spans"
        );
    }
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
    // for every shard count; only the capture metadata (`tid`, the
    // per-thread `seq`) depends on the thread layout, so events are
    // compared in canonical order with those fields stripped. Health
    // alerts feed off the same stream and must agree too — and so must
    // the remediation engine's reactions when self-healing is on, since
    // its decisions are made against barrier-time state that every shard
    // layout reconstructs identically.
    use veil_core::config::{LinkLayerConfig, RemedyConfig};
    use veil_core::experiment::build_simulation;
    use veil_sim::fault::FaultConfig;
    let _guard = GLOBAL_RECORDER_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
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
        let prev = veil_obs::install_global(recorder.clone());
        let sim = build_simulation(trust, &p, 0.5);
        veil_obs::install_global(prev);
        let mut sim = sim.expect("simulation");
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

#[test]
fn flight_recorder_honors_its_capacity() {
    let cap = 32;
    let recorder = Recorder::flight_recorder(cap);
    witness(5, recorder.clone());
    let retained = recorder.events();
    assert!(
        retained.len() <= cap,
        "ring retained {} events, capacity {cap}",
        retained.len()
    );
    assert!(
        recorder.events_seen() > cap as u64,
        "workload overflows the ring"
    );
    assert_eq!(
        recorder.events_dropped(),
        recorder.events_seen() - retained.len() as u64,
        "seen = retained + dropped"
    );
    // The ring keeps the *tail*: retained events are the most recent ones.
    let full = Recorder::full();
    witness(5, full.clone());
    let all = full.events();
    assert_eq!(
        retained,
        all[all.len() - retained.len()..],
        "flight recorder must retain the suffix of the full trace"
    );
}
