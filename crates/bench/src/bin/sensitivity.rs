//! Sensitivity analysis "wrt a number of settings affecting the execution
//! of different protocols within our service" (paper abstract / §V).
//!
//! The paper reports only its most relevant results for space; this binary
//! regenerates the underlying sweeps at a demanding availability
//! (α = 0.25): link-layer latency, cache size, shuffle length ℓ, and the
//! target overlay-link count.

use serde::Serialize;
use veil_bench::{f3, paper_params, render_table, write_json};
use veil_core::config::{LinkLayerConfig, OverlayConfig};
use veil_core::experiment::{availability_sweep, build_trust_graph, ExperimentParams};
use veil_sim::fault::{FaultConfig, LatencyDist};

#[derive(Serialize)]
struct SensitivityRow {
    parameter: String,
    value: f64,
    overlay_disconnected: f64,
    overlay_npl: f64,
}

fn measure(trust: &veil_graph::Graph, params: &ExperimentParams, alpha: f64) -> (f64, f64) {
    let sweep = availability_sweep(trust, params, &[alpha], true).expect("sweep");
    (sweep[0].overlay_disconnected, sweep[0].overlay_npl)
}

fn main() {
    let base = paper_params();
    let trust = build_trust_graph(&base).expect("trust graph");
    let alpha = 0.25;
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json: Vec<SensitivityRow> = Vec::new();
    let mut record = |name: &str, value: f64, overlay: OverlayConfig| {
        // The candidate grids are paper-scale; under VEIL_SCALE some
        // combinations (e.g. shuffle_length > scaled cache) become
        // invalid — skip those rather than abort the smoke run.
        if let Err(e) = overlay.validate() {
            eprintln!("skipping {name} = {value}: {e}");
            return;
        }
        let params = ExperimentParams {
            overlay,
            ..base.clone()
        };
        let (disc, npl) = measure(&trust, &params, alpha);
        rows.push(vec![
            name.to_string(),
            format!("{value}"),
            f3(disc),
            f3(npl),
        ]);
        json.push(SensitivityRow {
            parameter: name.to_string(),
            value,
            overlay_disconnected: disc,
            overlay_npl: npl,
        });
    };

    for latency in [0.0, 0.25, 0.5, 1.0, 2.0] {
        record(
            "link_latency (sp)",
            latency,
            OverlayConfig {
                link: LinkLayerConfig::Faulty(FaultConfig {
                    latency: LatencyDist::Constant { value: latency },
                    ..FaultConfig::none()
                }),
                ..base.overlay.clone()
            },
        );
    }
    for cache in [50usize, 100, 200, 400, 800] {
        record(
            "cache_size",
            cache as f64,
            OverlayConfig {
                cache_size: cache,
                ..base.overlay.clone()
            },
        );
    }
    for l in [10usize, 20, 40, 80] {
        record(
            "shuffle_length",
            l as f64,
            OverlayConfig {
                shuffle_length: l,
                ..base.overlay.clone()
            },
        );
    }
    for target in [10usize, 25, 50, 100] {
        record(
            "target_links",
            target as f64,
            OverlayConfig {
                target_links: target,
                ..base.overlay.clone()
            },
        );
    }

    println!("\nSensitivity analysis at alpha = {alpha} (overlay metrics)");
    println!(
        "{}",
        render_table(
            &["parameter", "value", "disconnected", "norm. path len"],
            &rows
        )
    );
    write_json("sensitivity", &json);
}
