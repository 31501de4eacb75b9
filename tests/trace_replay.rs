//! Trace-replay round trip: analyzing a recorded JSONL trace must
//! reconstruct exactly the counters the live simulation reports. This is
//! what makes `veil obs analyze` trustworthy as a post-mortem tool — the
//! offline replay and the in-process stats can never drift apart, because
//! every stats increment in the simulation pairs with an emitted event.
//!
//! Runs the faulty link layer (drops, timeouts, retries, failures all
//! exercised) across several seeds, serial and parallel.

use veil_core::config::LinkLayerConfig;
use veil_core::experiment::{build_simulation, build_trust_graph, ExperimentParams};
use veil_core::metrics::snapshot;
use veil_obs::{analyze_trace, Recorder};
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
    p.overlay.link = LinkLayerConfig::Faulty(FaultConfig::with_loss(0.2));
    p.overlay.health.enabled = true;
    p
}

#[test]
fn replayed_trace_reconstructs_live_final_stats() {
    for seed in [3, 11, 19] {
        for parallelism in [Some(1), Some(4)] {
            let p = params(seed, parallelism);
            let trust = build_trust_graph(&p).expect("trust graph");
            let recorder = Recorder::full();
            // Attached before the run starts, so the initial pseudonym
            // mints land in the trace.
            let mut sim = build_simulation(trust, &p, 0.5).expect("simulation");
            sim.set_recorder(recorder.clone());
            sim.run_until(40.0);
            let live = snapshot(&sim);

            let report = analyze_trace(&recorder.events_jsonl()).expect("trace analyzes");
            let ctx = format!("seed {seed}, parallelism {parallelism:?}");

            // Live `dropped_requests` counts every message lost in
            // transit, requests and responses alike; the replay splits
            // the two but their sum must match exactly.
            assert_eq!(
                report.dropped_requests + report.dropped_responses,
                live.dropped_requests,
                "dropped messages diverged ({ctx})"
            );
            assert_eq!(
                report.total("sim.messages_dropped"),
                live.dropped_requests,
                "drop counter diverged ({ctx})"
            );
            assert_eq!(
                report.total("sim.shuffle_failures"),
                live.shuffle_failures,
                "shuffle failures diverged ({ctx})"
            );
            assert_eq!(
                report.total("sim.shuffle_retries"),
                live.shuffle_retries,
                "shuffle retries diverged ({ctx})"
            );
            assert_eq!(
                report.final_online, live.online_nodes as u64,
                "reconstructed online set diverged ({ctx})"
            );
            assert_eq!(
                report.total("health.alerts"),
                sim.health_alerts().expect("monitor is on"),
                "alert count diverged ({ctx})"
            );

            // Sanity: the workload actually exercised the faulty layer.
            assert!(live.dropped_requests > 0, "no drops occurred ({ctx})");
            assert!(report.events > 0 && report.total("sim.pseudonyms_minted") > 0);
        }
    }
}

#[test]
fn sharded_trace_replays_to_live_stats_at_every_shard_count() {
    // Every shard count emits the same per-event story (different
    // interleaving, same increments), so offline replay must still
    // reconstruct the live stats — and the replayed report must be
    // identical for every shard count.
    let run = |shards: usize| {
        let mut p = params(23, Some(1));
        p.overlay.shards = Some(shards);
        let trust = build_trust_graph(&p).expect("trust graph");
        let recorder = Recorder::full();
        let mut sim = build_simulation(trust, &p, 0.5).expect("simulation");
        sim.set_recorder(recorder.clone());
        assert!(sim.is_sharded(), "fault model must engage the executor");
        sim.run_until(40.0);
        let live = snapshot(&sim);
        let report = analyze_trace(&recorder.events_jsonl()).expect("trace analyzes");
        assert_eq!(
            report.dropped_requests + report.dropped_responses,
            live.dropped_requests,
            "dropped messages diverged (shards {shards})"
        );
        assert_eq!(
            report.total("sim.shuffle_failures"),
            live.shuffle_failures,
            "shuffle failures diverged (shards {shards})"
        );
        assert_eq!(
            report.total("sim.shuffle_retries"),
            live.shuffle_retries,
            "shuffle retries diverged (shards {shards})"
        );
        assert_eq!(
            report.final_online, live.online_nodes as u64,
            "reconstructed online set diverged (shards {shards})"
        );
        assert_eq!(
            report.total("health.alerts"),
            sim.health_alerts().expect("monitor is on"),
            "alert count diverged (shards {shards})"
        );
        assert!(live.dropped_requests > 0, "no drops occurred");
        serde_json::to_string(&report).expect("report serializes")
    };
    let reference = run(1);
    for shards in [2, 8] {
        assert_eq!(run(shards), reference, "report diverged at {shards} shards");
    }
}

#[test]
fn serial_and_parallel_traces_reconstruct_identically() {
    // The parallelism knob must not change what the trace replays to.
    let reports: Vec<String> = [Some(1), Some(4)]
        .into_iter()
        .map(|parallelism| {
            let p = params(7, parallelism);
            let trust = build_trust_graph(&p).expect("trust graph");
            let recorder = Recorder::full();
            let mut sim = build_simulation(trust, &p, 0.5).expect("simulation");
            sim.set_recorder(recorder.clone());
            sim.run_until(40.0);
            let report = analyze_trace(&recorder.events_jsonl()).expect("trace analyzes");
            serde_json::to_string(&report).expect("report serializes")
        })
        .collect();
    assert_eq!(reports[0], reports[1]);
}
