//! Observability overhead benchmark: times the same simulation run with
//! the recorder disabled, enabled in full mode, enabled as a bounded
//! flight recorder, and enabled in full mode with the online health
//! monitor running, verifies the simulation output is byte-identical in
//! all modes, and writes `target/figures/BENCH_obs.json`.
//!
//! The no-op path is the contract to protect: a disabled recorder costs a
//! single branch per instrumentation point, so "disabled" and a second
//! disabled run should time the same to within noise. Timing uses the
//! minimum over several repetitions, which is the standard robust
//! estimator against scheduler noise. Honors `VEIL_SCALE` and
//! `VEIL_PARALLELISM`; set `VEIL_OBS_CHECK=1` to turn the overhead budget
//! into a hard assertion (used by CI). Refuses to run on a one-core
//! machine unless `--allow-single-core` is given.

use serde::Serialize;
use std::time::Instant;
use veil_bench::{fault_loss, paper_params, scale, scaled_horizon, write_bench_json};
use veil_core::experiment::{build_simulation, build_trust_graph, ExperimentParams};
use veil_core::metrics::snapshot;
use veil_obs::Recorder;

/// Repetitions per mode; the minimum is reported. Reps are interleaved
/// across modes so slow drift in machine load (frequency scaling, noisy
/// CI neighbors) cannot bias one whole mode, and batches are kept short
/// so many reps fit — the per-mode minimum then gets enough samples to
/// land in a quiet scheduling window.
const REPS: usize = 12;

#[derive(Serialize)]
struct Mode {
    name: String,
    min_ms: f64,
    /// Overhead relative to the first disabled run, in percent.
    overhead_pct: f64,
    events_seen: u64,
}

#[derive(Serialize)]
struct Report {
    alpha: f64,
    horizon: f64,
    reps: usize,
    /// Simulation runs per timed batch (auto-calibrated so a batch lasts
    /// long enough to time reliably).
    iters: usize,
    modes: Vec<Mode>,
    outputs_identical: bool,
}

/// Runs the workload over `params` `iters` times, each under a fresh
/// recorder from `make` (matching real usage: one recorder per run);
/// returns the serialized final snapshot (the byte-identity witness —
/// identical on every iteration by determinism), the mean wall-clock
/// milliseconds per iteration over the timed batch, and the per-run event
/// count.
fn run_batch(
    params: &ExperimentParams,
    make: &impl Fn() -> Recorder,
    alpha: f64,
    horizon: f64,
    iters: usize,
    health: bool,
) -> (String, f64, u64) {
    let mut params = params.clone();
    // The health monitor is read-only over the event stream and draws no
    // randomness, so enabling it must keep the witness byte-identical.
    params.overlay.health.enabled = health;
    let trust = build_trust_graph(&params).expect("trust graph");
    let mut snap = String::new();
    let mut seen = 0;
    let t0 = Instant::now();
    for _ in 0..iters {
        let recorder = make();
        let mut sim = build_simulation(trust.clone(), &params, alpha).expect("simulation");
        sim.set_recorder(recorder.clone());
        sim.run_until(horizon);
        snap = serde_json::to_string(&snapshot(&sim)).expect("snapshot serializes");
        seen = recorder.events_seen();
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;
    (snap, ms, seen)
}

/// Picks an iteration count that makes each timed batch run for at least
/// `TARGET_BATCH_MS`, so percentage comparisons are not noise on a
/// few-millisecond measurement at small `VEIL_SCALE`.
fn calibrate(params: &ExperimentParams, alpha: f64, horizon: f64) -> usize {
    const TARGET_BATCH_MS: f64 = 30.0;
    let (_, est_ms, _) = run_batch(params, &Recorder::disabled, alpha, horizon, 1, false);
    ((TARGET_BATCH_MS / est_ms.max(0.1)).ceil() as usize).clamp(1, 500)
}

fn main() -> Result<(), String> {
    veil_bench::refuse_single_core_baseline("obs");
    let scale = scale()?;
    let params = paper_params(scale, fault_loss()?);
    let alpha = 0.5;
    let horizon = scaled_horizon(300.0, 30.0, scale);
    eprintln!("observability overhead: alpha = {alpha}, horizon = {horizon} sp, scale = {scale}");

    type MakeRecorder = fn() -> Recorder;
    let modes: Vec<(&str, MakeRecorder, bool)> = vec![
        ("disabled", Recorder::disabled, false),
        ("disabled_again", Recorder::disabled, false),
        ("full", Recorder::full, false),
        (
            "flight_recorder_1k",
            || Recorder::flight_recorder(1024),
            false,
        ),
        ("full_health", Recorder::full, true),
    ];
    // The calibration batch doubles as cache/allocator warmup.
    let iters = calibrate(&params, alpha, horizon);
    eprintln!("calibrated to {iters} runs per timed batch");

    // A measurement attempt: REPS interleaved rounds over all modes,
    // overhead taken on the per-mode minimum (the classical noise-robust
    // estimator — ambient load only ever slows a batch down). The second
    // disabled mode measures the residual noise floor: any nonzero
    // "overhead" it shows is pure measurement error.
    let measure = |attempt: usize| -> (Vec<Mode>, bool) {
        let mut timings = vec![Vec::with_capacity(REPS); modes.len()];
        let mut witnesses = vec![String::new(); modes.len()];
        let mut events = vec![0u64; modes.len()];
        for rep in 0..REPS {
            for (i, (name, make, health)) in modes.iter().enumerate() {
                let (snap, ms, seen) = run_batch(&params, make, alpha, horizon, iters, *health);
                timings[i].push(ms);
                witnesses[i] = snap;
                events[i] = seen;
                eprintln!("  attempt {attempt} rep {rep} {name}: {ms:.2} ms/run over {iters} runs");
            }
        }
        let min_of = |xs: &[f64]| xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let baseline = min_of(&timings[0]);
        let measured = modes
            .iter()
            .enumerate()
            .map(|(i, (name, _, _))| {
                let min_ms = min_of(&timings[i]);
                Mode {
                    name: name.to_string(),
                    min_ms,
                    overhead_pct: (min_ms / baseline - 1.0) * 100.0,
                    events_seen: events[i],
                }
            })
            .collect();
        let identical = witnesses.iter().all(|w| *w == witnesses[0]);
        (measured, identical)
    };

    // The noise floor must resolve the budget we assert against; on a
    // loaded machine a single attempt can be junk, so retry a couple of
    // times before conceding the environment cannot measure this. In
    // strict mode a budget blip is also retried — a real regression fails
    // every attempt, a scheduling hiccup does not survive three.
    const NOISE_FLOOR_PCT: f64 = 2.0;
    const BUDGET_PCT: f64 = 5.0;
    const ATTEMPTS: usize = 3;
    let strict = std::env::var("VEIL_OBS_CHECK").as_deref() == Ok("1");
    let mut modes_measured = Vec::new();
    let mut outputs_identical = false;
    let mut resolvable = false;
    for attempt in 0..ATTEMPTS {
        let (measured, identical) = measure(attempt);
        let noise = measured[1].overhead_pct.abs();
        resolvable = noise < NOISE_FLOOR_PCT;
        let within_budget = measured[2..].iter().all(|m| m.overhead_pct < BUDGET_PCT);
        modes_measured = measured;
        outputs_identical = identical;
        assert!(
            outputs_identical,
            "tracing must never change simulation results"
        );
        if resolvable && (within_budget || !strict) {
            break;
        }
        eprintln!(
            "  measurement not conclusive (noise floor {noise:+.1}%, within budget: \
             {within_budget}), retrying"
        );
    }
    let modes = modes_measured;

    println!("\nmode               min_ms/run   overhead   events/run");
    for m in &modes {
        println!(
            "{:<20} {:>7.1}   {:>+7.1}%   {:>8}",
            m.name, m.min_ms, m.overhead_pct, m.events_seen
        );
    }

    if strict {
        let pct = |name: &str| {
            modes
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.overhead_pct)
                .expect("mode present")
        };
        if resolvable {
            // Budget from DESIGN.md: full tracing stays under 5% on the
            // simulation workload (the no-op path was already shown to be
            // within the <2% noise floor by the resolvability gate).
            for name in ["full", "flight_recorder_1k", "full_health"] {
                assert!(
                    pct(name) < BUDGET_PCT,
                    "{name} tracing exceeds the {BUDGET_PCT}% budget: {:+.1}%",
                    pct(name)
                );
            }
            eprintln!("VEIL_OBS_CHECK passed: no-op <{NOISE_FLOOR_PCT}%, tracing <{BUDGET_PCT}%");
        } else {
            // Byte-identity was still asserted above; only the timing
            // comparison is meaningless on this machine.
            eprintln!(
                "VEIL_OBS_CHECK: machine too noisy to resolve a {NOISE_FLOOR_PCT}% \
                 budget (noise floor {:+.1}%); skipping the percentage assertions",
                pct("disabled_again")
            );
        }
    }

    let report = Report {
        alpha,
        horizon,
        reps: REPS,
        iters,
        modes,
        outputs_identical,
    };
    write_bench_json("obs", scale, &report);
    Ok(())
}
