//! Serial-vs-parallel wall-clock comparison for the experiment engine.
//!
//! Times each figure's core computation twice — once with
//! `parallelism = Some(1)` (serial) and once with `parallelism = None`
//! (all cores) — verifies the outputs are identical, and writes
//! `target/figures/BENCH_parallel.json`.
//!
//! On a single-core runner the two times coincide (the engine falls back
//! to the serial path); the JSON records `available_cores` so consumers
//! can tell an absent speedup from a failed one. Honors `VEIL_SCALE`.
//! Refuses to run on a one-core machine unless `--allow-single-core` is
//! given (see `veil_bench::refuse_single_core_baseline`).

use serde::Serialize;
use std::time::Instant;
use veil_bench::{
    fault_loss, paper_params, scale, scaled_horizon, write_bench_json, ALPHAS, RATIOS,
};
use veil_core::experiment::{
    availability_point, build_trust_graph, collector_series, sweep, ExperimentParams, SweepPoint,
};
use veil_core::metrics::Collector;
use veil_graph::metrics as gm;
use veil_graph::Graph;

#[derive(Serialize)]
struct Entry {
    figure: String,
    serial_ms: f64,
    parallel_ms: f64,
    speedup: f64,
    outputs_identical: bool,
}

#[derive(Serialize)]
struct Report {
    entries: Vec<Entry>,
}

/// Times `run` serially (`Some(1)`) and on every core (`None`) and
/// checks the two outputs are equal.
fn compare<T: PartialEq>(figure: &str, run: impl Fn(Option<usize>) -> T) -> Entry {
    eprintln!("timing {figure} …");
    let timed = |parallelism| {
        let t0 = Instant::now();
        let out = run(parallelism);
        (out, t0.elapsed().as_secs_f64() * 1e3)
    };
    let (a, serial_ms) = timed(Some(1));
    let (b, parallel_ms) = timed(None);
    let entry = Entry {
        figure: figure.to_string(),
        serial_ms,
        parallel_ms,
        speedup: serial_ms / parallel_ms.max(1e-9),
        outputs_identical: a == b,
    };
    eprintln!(
        "  serial {serial_ms:.0} ms, parallel {parallel_ms:.0} ms, speedup {:.2}x, identical: {}",
        entry.speedup, entry.outputs_identical
    );
    entry
}

/// The availability points of `runs` (`(params, α)`), connectivity only
/// or with path lengths.
fn availability(
    trust: &Graph,
    runs: &[(ExperimentParams, f64)],
    path_length: bool,
    parallelism: Option<usize>,
) -> Vec<SweepPoint> {
    sweep(runs, parallelism, |(p, alpha)| {
        availability_point(trust, p, *alpha, path_length)
    })
    .expect("sweep")
}

fn main() -> Result<(), String> {
    veil_bench::refuse_single_core_baseline("parallel");
    let scale = scale()?;
    let params = paper_params(scale, fault_loss()?);
    let trust = build_trust_graph(&params).expect("trust graph");
    eprintln!(
        "trust graph: {} nodes, {} edges; available cores: {}",
        trust.node_count(),
        trust.edge_count(),
        veil_par::effective_parallelism(None)
    );
    let horizon = scaled_horizon(300.0, 60.0, scale);
    // The (lifetime ratio × α) grid of Figure 7, ratio-major.
    let per_ratio = |alphas: &[f64]| -> Vec<(ExperimentParams, f64)> {
        (RATIOS.iter())
            .flat_map(|&lifetime_ratio| {
                let p = ExperimentParams {
                    lifetime_ratio,
                    ..params.clone()
                };
                alphas.iter().map(move |&alpha| (p.clone(), alpha))
            })
            .collect()
    };
    let alphas = ALPHAS.map(|alpha| (params.clone(), alpha));
    let lifetimes = per_ratio(&ALPHAS[..4]);
    // Figures 8 and 9 read the same collector runs, one per ratio.
    let series = |parallelism| -> Vec<Collector> {
        sweep(&per_ratio(&[0.5]), parallelism, |(p, alpha)| {
            collector_series(&trust, p, *alpha, horizon, 10.0)
        })
        .expect("series")
    };

    let entries = vec![
        compare("fig3_availability_sweep", |par| {
            availability(&trust, &alphas, false, par)
        }),
        compare("fig4_availability_sweep_npl", |par| {
            availability(&trust, &alphas[..4], true, par)
        }),
        compare("fig7_lifetime_sweep", |par| {
            availability(&trust, &lifetimes, false, par)
        }),
        compare("fig8_connectivity_over_time", series),
        compare("fig9_replacement_rate", series),
        compare("metric_average_path_length", |par| {
            gm::average_path_length_par(&trust, None, par)
        }),
        compare("metric_betweenness_centrality", |par| {
            gm::betweenness_centrality_par(&trust, par)
        }),
    ];

    for e in &entries {
        assert!(
            e.outputs_identical,
            "{}: parallel output diverged from serial",
            e.figure
        );
    }
    let report = Report { entries };
    write_bench_json("parallel", scale, &report);
    Ok(())
}
