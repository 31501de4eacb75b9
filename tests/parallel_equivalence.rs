//! Regression harness for the deterministic parallel experiment engine:
//! every experiment must produce *identical* output (`==` on the full
//! result structures, i.e. bit-identical floats) for every `parallelism`
//! setting, because each sweep point derives its randomness from the
//! master seed and its own stream and results are reduced in index order.
//!
//! Runs 3 seeds × 2 scaled-down parameter sets across
//! `parallelism ∈ {Some(1), Some(4), None}`.

use veil_core::dissemination::flood_current_overlay;
use veil_core::experiment::{
    availability_point, build_simulation, build_trust_graph, collector_series,
    degree_distributions, message_load, sweep, ExperimentParams,
};
use veil_graph::Graph;

const SEEDS: [u64; 3] = [11, 42, 97];
const PARALLELISMS: [Option<usize>; 3] = [Some(1), Some(4), None];
const ALPHAS: [f64; 3] = [0.25, 0.5, 1.0];
const RATIOS: [Option<f64>; 2] = [Some(3.0), None];

/// The two scaled-down parameter sets the harness sweeps: a small dense
/// one and a slightly larger one with finite pseudonym lifetimes.
fn parameter_sets(seed: u64) -> Vec<ExperimentParams> {
    vec![
        ExperimentParams {
            nodes: 60,
            warmup: 60.0,
            seed,
            source_multiplier: 5,
            ..ExperimentParams::default()
        }
        .scaled_down(8),
        ExperimentParams {
            nodes: 200,
            warmup: 80.0,
            seed,
            lifetime_ratio: Some(2.0),
            source_multiplier: 8,
            ..ExperimentParams::default()
        }
        .scaled_down(5),
    ]
}

fn with_parallelism(params: &ExperimentParams, parallelism: Option<usize>) -> ExperimentParams {
    let mut p = params.clone();
    p.overlay.parallelism = parallelism;
    p
}

/// `params` once per lifetime ratio of [`RATIOS`].
fn per_ratio(params: &ExperimentParams) -> Vec<ExperimentParams> {
    RATIOS
        .iter()
        .map(|&lifetime_ratio| ExperimentParams {
            lifetime_ratio,
            ..params.clone()
        })
        .collect()
}

/// Runs `experiment` at every parallelism level and asserts all outputs
/// equal the serial one.
fn assert_equivalent<T, F>(label: &str, params: &ExperimentParams, experiment: F)
where
    T: PartialEq + std::fmt::Debug,
    F: Fn(&ExperimentParams) -> T,
{
    let serial = experiment(&with_parallelism(params, Some(1)));
    for parallelism in &PARALLELISMS[1..] {
        let other = experiment(&with_parallelism(params, *parallelism));
        assert_eq!(
            serial, other,
            "{label}: parallelism {parallelism:?} diverged from serial (seed {})",
            params.seed
        );
    }
}

fn for_each_config(mut body: impl FnMut(&ExperimentParams, &Graph)) {
    for seed in SEEDS {
        for params in parameter_sets(seed) {
            let trust = build_trust_graph(&params).expect("trust graph");
            body(&params, &trust);
        }
    }
}

#[test]
fn availability_sweep_is_parallelism_invariant() {
    for_each_config(|params, trust| {
        assert_equivalent("availability_sweep", params, |p| {
            sweep(&ALPHAS, p.overlay.parallelism, |&alpha| {
                availability_point(trust, p, alpha, false)
            })
            .expect("sweep")
        });
    });
}

#[test]
fn availability_sweep_with_path_lengths_is_parallelism_invariant() {
    for_each_config(|params, trust| {
        assert_equivalent("availability_sweep(npl)", params, |p| {
            sweep(&[0.5, 1.0], p.overlay.parallelism, |&alpha| {
                availability_point(trust, p, alpha, true)
            })
            .expect("sweep")
        });
    });
}

#[test]
fn lifetime_sweep_is_parallelism_invariant() {
    for_each_config(|params, trust| {
        assert_equivalent("lifetime_sweep", params, |p| {
            let runs: Vec<(ExperimentParams, f64)> = per_ratio(p)
                .into_iter()
                .flat_map(|q| ALPHAS.map(|alpha| (q.clone(), alpha)))
                .collect();
            sweep(&runs, p.overlay.parallelism, |(q, alpha)| {
                availability_point(trust, q, *alpha, false)
            })
            .expect("sweep")
        });
    });
}

#[test]
fn connectivity_over_time_is_parallelism_invariant() {
    for_each_config(|params, trust| {
        assert_equivalent("connectivity_over_time", params, |p| {
            sweep(&per_ratio(p), p.overlay.parallelism, |q| {
                collector_series(trust, q, 0.5, 40.0, 10.0)
                    .map(|c| (c.connectivity_trust().clone(), c.connectivity().clone()))
            })
            .expect("series")
        });
    });
}

#[test]
fn replacement_rate_is_parallelism_invariant() {
    for_each_config(|params, trust| {
        assert_equivalent("replacement_rate_over_time", params, |p| {
            sweep(&per_ratio(p), p.overlay.parallelism, |q| {
                collector_series(trust, q, 0.5, 40.0, 10.0).map(|c| c.replacement_rate().clone())
            })
            .expect("series")
        });
    });
}

#[test]
fn degree_distributions_are_parallelism_invariant() {
    for_each_config(|params, trust| {
        assert_equivalent("degree_distributions", params, |p| {
            sweep(&ALPHAS, p.overlay.parallelism, |&alpha| {
                degree_distributions(trust, p, alpha)
            })
            .expect("distributions")
        });
    });
}

#[test]
fn message_load_is_parallelism_invariant() {
    for_each_config(|params, trust| {
        assert_equivalent("message_load", params, |p| {
            sweep(&ALPHAS, p.overlay.parallelism, |&alpha| {
                message_load(trust, p, alpha, 20.0, 5.0)
            })
            .expect("rows")
        });
    });
}

#[test]
fn steady_state_flood_is_parallelism_invariant() {
    for_each_config(|params, trust| {
        assert_equivalent("steady_state_flood", params, |p| {
            sweep(&ALPHAS, p.overlay.parallelism, |&alpha| {
                let mut sim = build_simulation(trust.clone(), p, alpha)?;
                sim.run_until(p.warmup);
                let online = sim.online_mask();
                let source = (0..online.len())
                    .filter(|&v| online[v])
                    .max_by_key(|&v| trust.degree(v))
                    .expect("someone online at steady state");
                Ok(flood_current_overlay(&sim, source))
            })
            .expect("report")
        });
    });
}

#[test]
fn shards_knob_survives_serde_round_trip() {
    for shards in [None, Some(1), Some(8)] {
        let mut p = parameter_sets(7).remove(0);
        p.overlay.shards = shards;
        let json = serde_json::to_string(&p).expect("serialize");
        let back: ExperimentParams = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(p, back);
    }
}

#[test]
fn parallelism_knob_survives_serde_round_trip() {
    // Old result JSON (written before the knob existed) must still load,
    // and the knob itself must round-trip.
    for parallelism in PARALLELISMS {
        let mut p = parameter_sets(7).remove(0);
        p.overlay.parallelism = parallelism;
        let json = serde_json::to_string(&p).expect("serialize");
        let back: ExperimentParams = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(p, back);
    }
}
