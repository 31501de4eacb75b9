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

use std::collections::{HashMap, HashSet};
use veil_core::config::{LinkLayerConfig, RemedyConfig};
use veil_core::experiment::{build_simulation, build_trust_graph, ExperimentParams};
use veil_core::metrics::snapshot;
use veil_obs::{EventKind, Recorder, TraceDecoder, TraceEvent};
use veil_sim::fault::{EpisodeEffect, FaultConfig, FaultEpisode, LatencyDist};

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

/// The raw trace of a lossy run whose ties a canonical order must break
/// without looking at shards, stepped by `step` periods when given.
///
/// Every message takes exactly one period, so a request that finds its
/// responder offline is dropped at the instant its initiator's next
/// shuffle tick fires. Two blackouts start at t = 10: episode 0 anchored
/// on node `n - 3` (in the last shard), episode 1 on node 1 (in shard 0).
fn tied_trace(shards: usize, step: Option<f64>) -> String {
    let mut p = params(5, Some(1));
    let n = p.nodes as u32;
    let blackout = |end: f64, first: u32| FaultEpisode {
        start: 10.0,
        end,
        effect: EpisodeEffect::Blackout { first, count: 3 },
    };
    p.overlay.link = LinkLayerConfig::Faulty(FaultConfig {
        drop_probability: 0.1,
        latency: LatencyDist::Constant { value: 1.0 },
        episodes: vec![blackout(14.0, n - 3), blackout(13.0, 1)],
    });
    p.overlay.health.enabled = true;
    p.overlay.shards = Some(shards);
    let trust = build_trust_graph(&p).expect("trust graph");
    let recorder = Recorder::full();
    let mut sim = build_simulation(trust, &p, 0.5).expect("simulation");
    sim.set_recorder(recorder.clone());
    let horizon = 40.0;
    let mut t = 0.0;
    while t < horizon {
        t = step.map_or(horizon, |s| (t + s).min(horizon));
        sim.run_until(t);
    }
    recorder.events_jsonl()
}

/// Counts the two ties in a trace that no shard may decide: (a) a
/// `(t, node)` holding both a responder-side drop of the node's request
/// and an event of the node's own, and (b) a second `EpisodeStart` at one
/// `t`. A request drop is the initiator's own when it falls on one of its
/// exchange's transmissions: the `k`-th `ShuffleStart` of node `v` begins
/// exchange `((v + 1) << 32) | k`, and a `ShuffleRetry` names its own.
fn count_ties(trace: &str) -> (usize, usize) {
    let events: Vec<TraceEvent> = trace
        .lines()
        .skip(1)
        .map(|line| serde_json::from_str(line).expect("event parses"))
        .collect();
    let mut begun: HashMap<u32, u64> = HashMap::new();
    let mut sent: HashSet<(u64, u64)> = HashSet::new();
    let mut episode_starts: HashMap<u64, usize> = HashMap::new();
    for e in &events {
        match e.kind {
            EventKind::ShuffleStart { .. } => {
                let v = e.node.expect("a start has a node");
                let k = begun.entry(v).or_default();
                sent.insert((((u64::from(v) + 1) << 32) | *k, e.t.to_bits()));
                *k += 1;
            }
            EventKind::ShuffleRetry { exchange, .. } => {
                sent.insert((exchange, e.t.to_bits()));
            }
            EventKind::EpisodeStart { .. } => {
                *episode_starts.entry(e.t.to_bits()).or_default() += 1;
            }
            _ => {}
        }
    }
    let responder_side = |e: &TraceEvent| {
        matches!(e.kind, EventKind::MessageDropped { exchange, response: false }
            if !sent.contains(&(exchange, e.t.to_bits())))
    };
    // Per `(t, node)`: (responder-side drops, other events).
    let mut at: HashMap<(u64, Option<u32>), (usize, usize)> = HashMap::new();
    for e in &events {
        let (drops, others) = at.entry((e.t.to_bits(), e.node)).or_default();
        if responder_side(e) {
            *drops += 1;
        } else {
            *others += 1;
        }
    }
    let drops = at.values().filter(|&&(d, o)| d > 0 && o > 0).count();
    let episodes = episode_starts.values().map(|n| n - 1).sum();
    (drops, episodes)
}

#[test]
fn tied_events_are_recorded_in_one_order_for_every_shard_count() {
    let reference = tied_trace(1, None);
    let (drops, episodes) = count_ties(&reference);
    assert!(
        drops > 0,
        "no responder-side drop shared a (t, node) with its initiator's own events"
    );
    assert_eq!(episodes, 1, "the two blackouts start at one t");
    let starts: Vec<&str> = reference
        .lines()
        .filter(|line| line.contains("EpisodeStart"))
        .collect();
    assert!(starts[0].contains(r#""index":0"#), "{starts:?}");
    for shards in [2, 3, 8] {
        assert!(
            tied_trace(shards, None) == reference,
            "raw trace differs from one shard's (shards {shards})"
        );
    }
}

#[test]
fn a_run_stepped_off_the_grid_writes_the_straight_runs_bytes() {
    // `run_until` stops at 0.7, 1.4, 2.1, …: off the 0.5 grid, so windows
    // close in partial barriers — on more than one shard, too.
    let straight = tied_trace(1, None);
    for shards in [1, 2, 3] {
        assert!(
            tied_trace(shards, Some(0.7)) == straight,
            "stepped raw trace differs from the straight one (shards {shards})"
        );
    }
}

/// A lossy, monitored run on `shards` shards, traced into `recorder`;
/// `healing` switches every remediation reaction on.
fn lossy_run(seed: u64, shards: usize, healing: bool, recorder: Recorder) {
    let mut p = params(seed, Some(1));
    p.overlay.link = LinkLayerConfig::Faulty(FaultConfig::with_loss(0.2));
    p.overlay.health.enabled = true;
    if healing {
        p.overlay.remedy = RemedyConfig { enabled: true };
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
fn a_healing_lossy_trace_writes_lines_that_read_back_as_its_events() {
    // `events_jsonl` writes every event straight into one buffer. Each line
    // must be the text its own parsed value writes, and must decode to the
    // event it was written from.
    let recorder = Recorder::full();
    lossy_run(7, 2, true, recorder.clone());
    let events = recorder.events();
    let kinds: HashSet<&str> = events.iter().map(|ev| ev.kind.name()).collect();
    for kind in [
        "HealthAlert",
        "RemedyAction",
        "MessageDropped",
        "PseudonymMinted",
    ] {
        assert!(kinds.contains(kind), "no {kind} in {kinds:?}");
    }
    let jsonl = recorder.events_jsonl();
    let mut lines = jsonl.lines();
    let mut decoder = TraceDecoder::default();
    let header = lines.next().unwrap();
    assert_eq!(header, veil_obs::trace_header());
    assert_eq!(decoder.decode(header), Ok(None));
    for (i, ev) in events.into_iter().enumerate() {
        let line = lines.next().unwrap();
        let value: serde_json::Value = serde_json::from_str(line).unwrap();
        assert_eq!(serde_json::to_string(&value).unwrap(), line, "event {i}");
        assert_eq!(decoder.decode(line), Ok(Some(ev)), "event {i}");
    }
    assert_eq!(lines.next(), None);
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
        p.overlay.remedy = RemedyConfig { enabled: true };
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
