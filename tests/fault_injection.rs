//! Acceptance tests for the fault-injecting link layer:
//!
//! 1. A `Faulty` link layer with the trivial (zero-fault) model is
//!    byte-for-byte identical to the ideal layer, at every thread count —
//!    in sweep results, snapshot, raw trace and message log.
//! 2. Under increasing message loss the overlay degrades *gracefully*:
//!    coverage declines near-monotonically with no cliff, and stays high
//!    up to the documented 20% loss threshold.
//! 3. Faulty runs are deterministic across thread counts.

use veil_core::config::{LinkLayerConfig, RemedyConfig};
use veil_core::experiment::{
    availability_point, build_simulation, build_trust_graph, degradation_point, recovery_point,
    sweep, DegradationPoint, ExperimentParams, FaultAxis, RecoveryScenario, SweepPoint,
};
use veil_graph::Graph;
use veil_sim::fault::{FaultConfig, LatencyDist};

const PARALLELISMS: [Option<usize>; 3] = [Some(1), Some(4), None];
// Extends well past the documented 20% operating threshold so the decline
// (which at test scale only becomes visible above ~50% loss, the trust
// graph being a connectivity floor) is actually exercised.
const LOSSES: [f64; 7] = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7];

/// Availability the degradation experiments run at: high enough that the
/// fault layer (not churn) dominates, low enough that churn still matters.
const ALPHA: f64 = 0.8;

fn tiny_params(seed: u64) -> ExperimentParams {
    ExperimentParams {
        nodes: 60,
        warmup: 60.0,
        seed,
        source_multiplier: 5,
        ..ExperimentParams::default()
    }
    .scaled_down(8)
}

fn with_link(
    params: &ExperimentParams,
    link: LinkLayerConfig,
    parallelism: Option<usize>,
) -> ExperimentParams {
    let mut p = params.clone();
    p.overlay.link = link;
    p.overlay.parallelism = parallelism;
    p
}

/// One availability point per α, path lengths included.
fn availability_sweep(trust: &Graph, p: &ExperimentParams, alphas: &[f64]) -> Vec<SweepPoint> {
    sweep(alphas, p.overlay.parallelism, |&alpha| {
        availability_point(trust, p, alpha, true)
    })
    .expect("sweep")
}

/// One degradation point per value `x` of `axis`, at availability `alpha`.
fn degradation_sweep(
    trust: &Graph,
    p: &ExperimentParams,
    alpha: f64,
    axis: FaultAxis,
    xs: &[f64],
) -> Vec<DegradationPoint> {
    sweep(xs, p.overlay.parallelism, |&x| {
        let mut q = p.clone();
        q.overlay.link = axis.link(x, trust.node_count());
        degradation_point(trust, &q, alpha, x)
    })
    .expect("sweep")
}

#[test]
fn zero_fault_faulty_layer_is_byte_identical_to_ideal() {
    for seed in [5, 23] {
        let params = tiny_params(seed);
        let trust = build_trust_graph(&params).expect("trust graph");
        let alphas = [0.5, 1.0];
        let ideal = with_link(&params, LinkLayerConfig::Ideal, Some(1));
        let baseline =
            serde_json::to_string(&availability_sweep(&trust, &ideal, &alphas)).expect("serialize");
        for parallelism in PARALLELISMS {
            let faulty = with_link(
                &params,
                LinkLayerConfig::Faulty(FaultConfig::none()),
                parallelism,
            );
            let got = serde_json::to_string(&availability_sweep(&trust, &faulty, &alphas))
                .expect("serialize");
            assert_eq!(
                baseline, got,
                "zero-fault faulty layer diverged from ideal \
                 (seed {seed}, parallelism {parallelism:?})"
            );
        }
    }
    // One run, everything it leaves behind. The second spelling is what
    // `--mean-latency 0` and a scenario's `latency.mean = 0` produce.
    let run = |seed: u64, link: LinkLayerConfig| {
        let params = with_link(&tiny_params(seed), link, Some(1));
        let trust = build_trust_graph(&params).expect("trust graph");
        let mut sim = build_simulation(trust, &params, 0.5).expect("simulation");
        sim.set_recorder(veil_obs::Recorder::full());
        sim.enable_message_log();
        sim.run_until(30.0);
        (
            serde_json::to_string(&veil_core::metrics::snapshot(&sim)).expect("serialize"),
            sim.recorder().events_jsonl(),
            sim.take_message_log(),
        )
    };
    let zero_latency = FaultConfig {
        latency: LatencyDist::Constant { value: 0.0 },
        ..FaultConfig::none()
    };
    for seed in [1, 7, 42] {
        let ideal = run(seed, LinkLayerConfig::Ideal);
        assert!(!ideal.1.is_empty() && !ideal.2.is_empty());
        for fault in [FaultConfig::none(), zero_latency.clone()] {
            let got = run(seed, LinkLayerConfig::Faulty(fault.clone()));
            assert!(got == ideal, "{fault:?} diverged from ideal (seed {seed})");
        }
    }
}

#[test]
fn coverage_degrades_gracefully_with_loss() {
    let params = tiny_params(42);
    let trust = build_trust_graph(&params).expect("trust graph");
    let points = degradation_sweep(&trust, &params, ALPHA, FaultAxis::Loss, &LOSSES);
    let coverages: Vec<f64> = points.iter().map(|p| p.coverage).collect();
    // Near-monotone decline: later points may wobble up only within noise.
    for w in coverages.windows(2) {
        assert!(
            w[1] <= w[0] + 0.10,
            "coverage increased past noise: {coverages:?}"
        );
    }
    // Cliff-free: no single loss step wipes out more than a quarter of the
    // online nodes' coverage.
    for w in coverages.windows(2) {
        assert!(
            w[0] - w[1] <= 0.25,
            "coverage cliff between adjacent loss rates: {coverages:?}"
        );
    }
    // Documented threshold: at up to 20% loss the overlay still reaches
    // the large majority of online nodes, and stays essentially connected.
    for p in points.iter().filter(|p| p.x <= 0.2) {
        assert!(
            p.coverage > 0.75,
            "coverage {} at loss {} below threshold",
            p.coverage,
            p.x
        );
        assert!(
            p.overlay_disconnected < 0.25,
            "disconnection {} at loss {} above threshold",
            p.overlay_disconnected,
            p.x
        );
    }
    // Loss must actually be exercised: drops and retries observed, and the
    // repair machinery works harder as loss grows (monotone replacement
    // effort, eviction-driven).
    assert!(points[6].dropped_requests > points[1].dropped_requests);
    assert!(points[6].shuffle_retries > points[1].shuffle_retries);
    assert!(points[1].shuffle_retries > 0);
    assert!(
        points[6].replacement_rate > points[0].replacement_rate,
        "heavy loss must force link replacement: {:?}",
        points
            .iter()
            .map(|p| p.replacement_rate)
            .collect::<Vec<_>>()
    );
}

#[test]
fn degradation_sweeps_are_deterministic_across_thread_counts() {
    let params = tiny_params(7);
    let trust = build_trust_graph(&params).expect("trust graph");
    let run = |parallelism: Option<usize>| {
        let mut p = params.clone();
        p.overlay.parallelism = parallelism;
        let loss = degradation_sweep(&trust, &p, ALPHA, FaultAxis::Loss, &[0.1, 0.3]);
        let lat = degradation_sweep(&trust, &p, ALPHA, FaultAxis::Latency, &[0.5, 2.0]);
        let part = degradation_sweep(&trust, &p, ALPHA, FaultAxis::Partition, &[0.3]);
        (loss, lat, part)
    };
    let serial = run(Some(1));
    for parallelism in &PARALLELISMS[1..] {
        assert_eq!(
            serial,
            run(*parallelism),
            "faulty run diverged at parallelism {parallelism:?}"
        );
    }
}

#[test]
fn latency_degradation_is_graceful() {
    let params = tiny_params(11);
    let trust = build_trust_graph(&params).expect("trust graph");
    let points = degradation_sweep(&trust, &params, ALPHA, FaultAxis::Latency, &[0.0, 0.5, 1.0]);
    // Sub-timeout latencies barely hurt: the overlay stays useful.
    for p in &points {
        assert!(
            p.coverage > 0.6,
            "coverage {} at mean latency {}",
            p.coverage,
            p.x
        );
    }
}

#[test]
fn self_healing_strictly_speeds_blackout_recovery() {
    // The headline robustness claim, pinned at test scale: after a
    // correlated blackout that outlasts the pseudonym lifetime (so the
    // victims return with empty samplers), the remediation engine must
    // strictly reduce time-to-recover at the documented 20% loss
    // threshold. Both arms share the identical monitor; they differ only
    // in whether alerts trigger reactions. Mirrors the committed
    // `benchmarks/baseline/BENCH_recovery.json` sweep; 300 nodes is the
    // smallest scale at which the unhealed re-knit reliably takes longer
    // than the one-period probe granularity — below that both arms floor
    // at two periods and the gap is invisible.
    let params = ExperimentParams {
        nodes: 300,
        warmup: 40.0,
        seed: 0,
        source_multiplier: 5,
        // Lifetime = 1.0 × Toff = 30 periods; the 35-period blackout
        // below outlasts it, draining every victim's pseudonym cache.
        lifetime_ratio: Some(1.0),
        ..ExperimentParams::default()
    };
    let scenario = RecoveryScenario {
        fraction: 0.8,
        duration: 35.0,
        horizon: 40.0,
        baseline_snapshots: 10,
    };
    let trust = build_trust_graph(&params).expect("trust graph");
    for seed in [23, 47] {
        let mut p = params.clone();
        p.seed = seed;
        p.overlay.link = FaultAxis::Loss.link(0.2, trust.node_count());
        let off = recovery_point(&trust, &p, ALPHA, &scenario).expect("off arm");
        p.overlay.remedy = RemedyConfig::all_on();
        let on = recovery_point(&trust, &p, ALPHA, &scenario).expect("on arm");
        assert_eq!(off.remedy_actions, 0, "healing-off arm must not react");
        assert!(
            on.remedy_actions > 0,
            "healing-on arm raised {} alerts but never reacted",
            on.health_alerts
        );
        let on_ttr = on
            .time_to_recover
            .unwrap_or_else(|| panic!("healing-on run never recovered (seed {seed})"));
        // Strict win: an unrecovered healing-off arm counts as slower
        // than any recovery time.
        match off.time_to_recover {
            None => {}
            Some(off_ttr) => assert!(
                on_ttr < off_ttr,
                "healing did not strictly speed recovery at seed {seed}: \
                 on {on_ttr} vs off {off_ttr}"
            ),
        }
    }
}

#[test]
fn partition_size_limits_coverage() {
    let params = tiny_params(19);
    let trust = build_trust_graph(&params).expect("trust graph");
    let points = degradation_sweep(
        &trust,
        &params,
        1.0,
        FaultAxis::Partition,
        &[0.0, 0.25, 0.5],
    );
    // Coverage cannot exceed the fraction of nodes on the source's side
    // (plus rounding); it must shrink as the cut grows toward an even
    // split.
    assert!(points[0].coverage > 0.95, "unpartitioned baseline");
    assert!(
        points[2].coverage < points[0].coverage,
        "an even split must cut coverage: {} vs {}",
        points[2].coverage,
        points[0].coverage
    );
    // The disconnection metric sees the partition too.
    assert!(points[2].overlay_disconnected > points[0].overlay_disconnected);
}
