//! Regenerates the paper's tables and figures: one row per output, named
//! by the JSON stem it writes under `target/figures/`.
//!
//! ```sh
//! VEIL_SCALE=10 cargo run --release -p veil-bench --bin figures   # every paper row
//! VEIL_SCALE=10 cargo run --release -p veil-bench --bin figures fig3_connectivity bench_faults
//! ```
//!
//! With no arguments the rows from `table1` to `sensitivity` run in order;
//! `bench_faults` and `recovery_sweep` (`BENCH_faults.json`,
//! `BENCH_recovery.json`) run only by name. Honors `VEIL_SCALE`,
//! `VEIL_PARALLELISM` and `VEIL_FAULT_LOSS` (see the crate docs); a
//! malformed knob or an unknown row name exits 1 before anything runs.
//! Nothing here records a trace: trace one run with `veil simulate
//! --trace-out`.

use serde::Serialize;
use std::process::ExitCode;
use veil_bench::{
    f3, fault_loss, paper_params, ratio_label, render_table, scale, scaled_horizon,
    write_bench_json, write_json, ALPHAS, RATIOS,
};
use veil_core::config::{
    DistanceMetric, LifetimePolicy, LinkLayerConfig, OverlayConfig, RemedyConfig, SlotPolicy,
};
use veil_core::experiment::{
    availability_point, build_trust_graph, collector_series, degradation_point,
    degree_distributions, message_load, recovery_point, sweep, DegradationPoint, ExperimentParams,
    FaultAxis, RecoveryPoint, RecoveryScenario, SweepPoint,
};
use veil_core::metrics::Collector;
use veil_graph::Graph;
use veil_metrics::{Histogram, TimeSeries};
use veil_sim::fault::{FaultConfig, LatencyDist};

/// What every row reads: the `VEIL_SCALE` divisor and the paper-scale
/// parameters it implies.
struct Setup {
    scale: usize,
    params: ExperimentParams,
}

/// One row per table or figure: the JSON stem it writes, and how.
type Row = (&'static str, fn(&Setup));

const ROWS: [Row; 12] = [
    ("table1", table1),
    ("fig3_connectivity", |s| availability_figure(s, false)),
    ("fig4_path_length", |s| availability_figure(s, true)),
    ("fig5_degree_dist", fig5_degree_dist),
    ("fig6_messages", fig6_messages),
    ("fig7_lifetime", fig7_lifetime),
    ("fig8_convergence", fig8_convergence),
    ("fig9_churn_overhead", fig9_churn_overhead),
    ("ablation_quality", ablation_quality),
    ("sensitivity", sensitivity),
    ("bench_faults", bench_faults),
    ("recovery_sweep", recovery_sweep),
];

/// How many leading rows a bare `figures` runs: the paper's tables and
/// figures, without the two fault reports.
const PAPER_ROWS: usize = 10;

/// The rows `names` asks for, in the order given (the paper rows when
/// empty), or an error naming the first unknown name and the valid ones.
fn select(names: &[String]) -> Result<Vec<&'static Row>, String> {
    if names.is_empty() {
        return Ok(ROWS[..PAPER_ROWS].iter().collect());
    }
    names
        .iter()
        .map(|name| {
            ROWS.iter().find(|(row, _)| row == name).ok_or_else(|| {
                let valid: Vec<&str> = ROWS.iter().map(|(row, _)| *row).collect();
                format!("unknown figure {name:?}; valid: {}", valid.join(", "))
            })
        })
        .collect()
}

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let setup = select(&names).and_then(|rows| {
        let scale = scale()?;
        let params = paper_params(scale, fault_loss()?);
        Ok((rows, Setup { scale, params }))
    });
    let (rows, setup) = match setup {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, run) in rows {
        eprintln!("== running {name} ==");
        run(&setup);
    }
    ExitCode::SUCCESS
}

/// Prints a blank line, `title` and the table.
fn print_table<H: AsRef<str>>(title: &str, headers: &[H], rows: &[Vec<String>]) {
    println!("\n{title}");
    println!("{}", render_table(headers, rows));
}

/// Prints time series side by side under `title`, every `step`-th
/// sample, on the first series' clock.
fn print_series(title: &str, columns: &[(String, &TimeSeries)], step: usize) {
    let names = columns.iter().map(|(name, _)| name.as_str());
    let headers: Vec<&str> = std::iter::once("time (sp)").chain(names).collect();
    let rows: Vec<Vec<String>> = (0..columns[0].1.len())
        .step_by(step)
        .map(|i| {
            let t = format!("{:.0}", columns[0].1.as_slice()[i].0);
            let values = columns.iter().map(|(_, ts)| f3(ts.as_slice()[i].1));
            std::iter::once(t).chain(values).collect()
        })
        .collect();
    print_table(title, &headers, &rows);
}

/// Runs `row` once per trust-graph sampling parameter f ∈ {1.0, 0.5}
/// (Figures 3–6), on the paper-scale parameters with that `trust_f` and
/// the trust graph they sample, and writes `[[f, result], …]` to
/// `target/figures/<name>.json`.
fn per_f<T: Serialize>(s: &Setup, name: &str, row: impl Fn(f64, &ExperimentParams, &Graph) -> T) {
    let results: Vec<(f64, T)> = [1.0, 0.5]
        .into_iter()
        .map(|trust_f| {
            let params = ExperimentParams {
                trust_f,
                ..s.params.clone()
            };
            let trust = build_trust_graph(&params).expect("trust graph");
            (trust_f, row(trust_f, &params, &trust))
        })
        .collect();
    write_json(name, &results);
}

/// The paper-scale parameters once per pseudonym-lifetime ratio.
fn per_ratio(s: &Setup, ratios: &[Option<f64>]) -> Vec<ExperimentParams> {
    let params = |&lifetime_ratio| ExperimentParams {
        lifetime_ratio,
        ..s.params.clone()
    };
    ratios.iter().map(params).collect()
}

/// Table I: default values for system parameters.
fn table1(_: &Setup) {
    let p = ExperimentParams::default();
    let lifetime = p.lifetime().expect("default lifetime is finite");
    let ratio = p.lifetime_ratio.expect("default ratio is finite");
    let rows = [
        ("Number of nodes in trust graph", p.nodes.to_string()),
        (
            "Trust-graph sampling parameter (f)",
            format!("{}", p.trust_f),
        ),
        (
            "Mean offline time in shuffling periods (Toff)",
            format!("{} sp", p.mean_offline),
        ),
        (
            "Pseudonym lifetime",
            format!("{lifetime} sp (= {ratio} x Toff)"),
        ),
        ("Size of pseudonym cache", p.overlay.cache_size.to_string()),
        (
            "Pseudonyms exchanged during a shuffle (l)",
            p.overlay.shuffle_length.to_string(),
        ),
        (
            "Target number of overlay links per node",
            p.overlay.target_links.to_string(),
        ),
    ]
    .map(|(name, value)| vec![name.to_string(), value]);
    println!("Table I: Default values for system parameters");
    println!("{}", render_table(&["Parameter", "Default"], &rows));
}

/// Figure 3 (fraction of disconnected online nodes) or, with
/// `path_length`, Figure 4 (normalized average path length) versus
/// availability, for trust graphs sampled with f = 1.0 and f = 0.5,
/// against the overlay and an Erdős–Rényi reference graph.
fn availability_figure(s: &Setup, path_length: bool) {
    let name = if path_length {
        "fig4_path_length"
    } else {
        "fig3_connectivity"
    };
    per_f(s, name, |f, params, trust| {
        let points = sweep(&ALPHAS, params.overlay.parallelism, |&alpha| {
            availability_point(trust, params, alpha, path_length)
        })
        .expect("availability sweep");
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                let series = if path_length {
                    [p.trust_npl, p.overlay_npl, p.random_npl]
                } else {
                    [
                        p.trust_disconnected,
                        p.overlay_disconnected,
                        p.random_disconnected,
                    ]
                };
                std::iter::once(p.alpha).chain(series).map(f3).collect()
            })
            .collect();
        let title = if path_length {
            format!("Figure 4 (f = {f}): normalized average path length")
        } else {
            format!("Figure 3 (f = {f}): fraction of disconnected online nodes")
        };
        let headers = ["alpha", "trust graph", "overlay", "random graph"];
        print_table(&title, &headers, &rows);
        points
    });
}

/// Figure 5: degree distribution among online nodes at α = 0.5 for
/// f = 1.0 and f = 0.5 — trust graph, overlay and ER reference — printed
/// in 5-wide degree bins.
fn fig5_degree_dist(s: &Setup) {
    fn bucketed(h: &Histogram, width: usize) -> Vec<(usize, u64)> {
        let mut buckets: Vec<(usize, u64)> = Vec::new();
        for (value, count) in h.iter() {
            let b = value / width * width;
            match buckets.last_mut() {
                Some((lb, c)) if *lb == b => *c += count,
                _ => buckets.push((b, count)),
            }
        }
        buckets
    }
    let alpha = 0.5;
    per_f(s, "fig5_degree_dist", |f, params, trust| {
        let d = degree_distributions(trust, params, alpha).expect("degree distributions");
        println!("\nFigure 5 (f = {f}, alpha = {alpha}): degree distribution (5-wide bins)");
        for (name, h) in [
            ("trust graph", &d.trust),
            ("overlay", &d.overlay),
            ("random graph", &d.random),
        ] {
            let rows: Vec<Vec<String>> = bucketed(h, 5)
                .into_iter()
                .map(|(deg, count)| vec![format!("{deg}-{}", deg + 4), count.to_string()])
                .collect();
            let max = h.max_value().unwrap_or(0);
            println!("{name}: mean degree {:.1}, max {max}", h.mean());
            println!("{}", render_table(&["degree", "nodes"], &rows));
        }
        d
    });
}

/// Figure 6: messages sent per shuffle period per node, ranked by trust
/// degree, and the maximum overlay out-degree, at α = 0.5 for f = 1.0 and
/// f = 0.5.
fn fig6_messages(s: &Setup) {
    let alpha = 0.5;
    let measure = scaled_horizon(200.0, 40.0, s.scale);
    per_f(s, "fig6_messages", |f, params, trust| {
        let rows = message_load(trust, params, alpha, measure, 5.0).expect("message load");
        // Print a decimated view: every node would be 1000 lines.
        let shown: Vec<Vec<String>> = rows
            .iter()
            .filter(|r| r.rank <= 10 || (r.rank <= 100 && r.rank % 10 == 0) || r.rank % 100 == 0)
            .map(|r| {
                vec![
                    r.rank.to_string(),
                    r.trust_degree.to_string(),
                    r.max_out_degree.to_string(),
                    f3(r.messages_per_period),
                ]
            })
            .collect();
        let mean: f64 = rows.iter().map(|r| r.messages_per_period).sum::<f64>() / rows.len() as f64;
        println!("\nFigure 6 (f = {f}, alpha = {alpha}): message load by trust-degree rank");
        println!("mean messages per shuffle period per node: {mean:.2} (paper: 2)");
        let headers = ["rank", "trust deg", "max out-deg", "msgs/sp"];
        println!("{}", render_table(&headers, &shown));
        rows
    });
}

/// Figure 7: fraction of disconnected online nodes versus availability for
/// pseudonym-lifetime ratios r ∈ {1, 3, 9, ∞}, against the trust graph and
/// an ER reference — the (ratio × α) grid as one sweep.
fn fig7_lifetime(s: &Setup) {
    let trust = build_trust_graph(&s.params).expect("trust graph");
    let runs: Vec<(ExperimentParams, f64)> = per_ratio(s, &RATIOS)
        .into_iter()
        .flat_map(|params| ALPHAS.map(|alpha| (params.clone(), alpha)))
        .collect();
    let points = sweep(&runs, s.params.overlay.parallelism, |(params, alpha)| {
        availability_point(&trust, params, *alpha, false)
    })
    .expect("lifetime sweep");
    let sweeps: Vec<(Option<f64>, &[SweepPoint])> = RATIOS
        .into_iter()
        .zip(points.chunks(ALPHAS.len()))
        .collect();
    // One row per alpha: trust, r=1, r=3, r=9, r=inf, random.
    let rows: Vec<Vec<String>> = (0..ALPHAS.len())
        .map(|i| {
            let first = &sweeps[0].1[i];
            let overlays = sweeps
                .iter()
                .map(|(_, sweep)| sweep[i].overlay_disconnected);
            [first.alpha, first.trust_disconnected]
                .into_iter()
                .chain(overlays)
                .chain([first.random_disconnected])
                .map(f3)
                .collect()
        })
        .collect();
    let headers: Vec<String> = ["alpha".to_string(), "trust".to_string()]
        .into_iter()
        .chain(RATIOS.map(|r| format!("r={}", ratio_label(r))))
        .chain(["random".to_string()])
        .collect();
    let title = "Figure 7: fraction of disconnected online nodes by pseudonym lifetime";
    print_table(title, &headers, &rows);
    write_json("fig7_lifetime", &sweeps);
}

/// One collector series per lifetime ratio at α = 0.25 from a cold start
/// to `horizon`, sampled 200 times (Figures 8 and 9).
fn series_per_ratio(s: &Setup, ratios: &[Option<f64>], horizon: f64) -> Vec<Collector> {
    let interval = (horizon / 200.0).max(1.0);
    let trust = build_trust_graph(&s.params).expect("trust graph");
    sweep(&per_ratio(s, ratios), s.params.overlay.parallelism, |p| {
        collector_series(&trust, p, 0.25, horizon, interval)
    })
    .expect("collector series")
}

/// The shape of `fig8_convergence.json`.
#[derive(Serialize)]
struct ConvergenceSeries {
    alpha: f64,
    trust: TimeSeries,
    overlays: Vec<(Option<f64>, TimeSeries)>,
}

/// Figure 8: connectivity over time at α = 0.25 — the trust graph versus
/// overlays with lifetime ratios r = 3 and r = 9, to 1000 shuffle periods.
fn fig8_convergence(s: &Setup) {
    let ratios = [Some(3.0), Some(9.0)];
    let collectors = series_per_ratio(s, &ratios, scaled_horizon(1000.0, 100.0, s.scale));
    // The trust graph's series does not depend on the overlay.
    let series = ConvergenceSeries {
        alpha: 0.25,
        trust: collectors[0].connectivity_trust().clone(),
        overlays: ratios
            .into_iter()
            .zip(collectors.iter().map(|c| c.connectivity().clone()))
            .collect(),
    };
    let trust = ("trust".to_string(), &series.trust);
    let overlays =
        (series.overlays.iter()).map(|(r, ts)| (format!("overlay r={}", ratio_label(*r)), ts));
    let columns: Vec<(String, &TimeSeries)> = std::iter::once(trust).chain(overlays).collect();
    let title = "Figure 8 (alpha = 0.25): fraction of disconnected nodes over time";
    print_series(title, &columns, 4);
    for (r, ts) in &series.overlays {
        let r = ratio_label(*r);
        match ts.settling_time(0.01) {
            Some(t) => println!("overlay r={r} settles below 1% disconnected at t = {t:.0} sp"),
            None => println!("overlay r={r} did not settle below 1%"),
        }
    }
    write_json("fig8_convergence", &series);
}

/// Figure 9: pseudonym links replaced per node per shuffle period over
/// time at α = 0.25, for lifetime ratios r ∈ {3, 9, ∞}, to 10000 shuffle
/// periods.
fn fig9_churn_overhead(s: &Setup) {
    let ratios = [Some(3.0), Some(9.0), None];
    let collectors = series_per_ratio(s, &ratios, scaled_horizon(10_000.0, 200.0, s.scale));
    let series: Vec<(Option<f64>, &TimeSeries)> = ratios
        .into_iter()
        .zip(collectors.iter().map(Collector::replacement_rate))
        .collect();
    let columns: Vec<(String, &TimeSeries)> = (series.iter())
        .map(|(r, ts)| (format!("r={}", ratio_label(*r)), *ts))
        .collect();
    let title = "Figure 9 (alpha = 0.25): links replaced per node per shuffle period";
    print_series(title, &columns, 8);
    for (r, ts) in &series {
        let tail = ts.tail_mean(20).unwrap_or(0.0);
        let r = ratio_label(*r);
        println!("r={r}: steady-state replacement rate ~ {tail:.2} links/node/sp");
    }
    write_json("fig9_churn_overhead", &series);
}

/// The shared shape of the ablation and sensitivity tables: every overlay
/// variant at every α of `alphas`, as one flattened sweep over the
/// paper-scale trust graph (path lengths included), printed one table row
/// per (variant, α) and written to `target/figures/<name>.json`. `row`
/// turns a variant's label and point into its two leading cells and its
/// JSON row.
fn variants_table<V, J: Serialize>(
    s: &Setup,
    (name, title, headers): (&str, &str, [&str; 2]),
    variants: &[(V, OverlayConfig)],
    alphas: &[f64],
    row: impl Fn(&V, &SweepPoint) -> ([String; 2], J),
) {
    let trust = build_trust_graph(&s.params).expect("trust graph");
    let runs: Vec<(ExperimentParams, f64)> = variants
        .iter()
        .flat_map(|(_, overlay)| {
            let params = ExperimentParams {
                overlay: overlay.clone(),
                ..s.params.clone()
            };
            alphas.iter().map(move |&alpha| (params.clone(), alpha))
        })
        .collect();
    let points = sweep(&runs, s.params.overlay.parallelism, |(params, alpha)| {
        availability_point(&trust, params, *alpha, true)
    })
    .expect("variant sweep");
    let labels = variants
        .iter()
        .flat_map(|(v, _)| alphas.iter().map(move |_| v));
    let (rows, json): (Vec<Vec<String>>, Vec<J>) = labels
        .zip(&points)
        .map(|(label, p)| {
            let ([first, second], json) = row(label, p);
            let metrics = [p.overlay_disconnected, p.overlay_npl].map(f3);
            ([first, second].into_iter().chain(metrics).collect(), json)
        })
        .unzip();
    let headers = [headers[0], headers[1], "disconnected", "norm. path len"];
    print_table(title, &headers, &rows);
    write_json(name, &json);
}

/// `base` with one change.
fn overlay_with(base: &OverlayConfig, change: impl FnOnce(&mut OverlayConfig)) -> OverlayConfig {
    let mut overlay = base.clone();
    change(&mut overlay);
    overlay
}

#[derive(Serialize)]
struct AblationRow {
    variant: String,
    alpha: f64,
    overlay_disconnected: f64,
    overlay_npl: f64,
}

/// Ablation of the design choices DESIGN.md §7 calls out — degree-aware
/// slots, min-wise sampling, the distance metric, deliverability-aware
/// partner selection — and of the adaptive shuffle-stop (§V-B) and
/// per-node lifetime (§III-C future work) extensions, on the Figure 3
/// workload at two demanding availabilities.
fn ablation_quality(s: &Setup) {
    let base = &s.params.overlay;
    let variants = [
        ("paper (degree-aware, min-wise, abs)", base.clone()),
        (
            "uniform slots",
            overlay_with(base, |o| o.slot_policy = SlotPolicy::Uniform),
        ),
        (
            "no min-wise sampling (recency ring)",
            overlay_with(base, |o| o.minwise_sampling = false),
        ),
        (
            "xor distance metric",
            overlay_with(base, |o| o.distance_metric = DistanceMetric::Xor),
        ),
        (
            "blind peer selection",
            overlay_with(base, |o| o.skip_offline_peers = false),
        ),
        (
            "adaptive shuffle stop (k=10)",
            overlay_with(base, |o| o.stop_after_stable_periods = Some(10)),
        ),
        (
            "adaptive lifetime (3x own Toff)",
            overlay_with(base, |o| {
                o.lifetime_policy = LifetimePolicy::Adaptive {
                    multiplier: 3.0,
                    floor: 10.0,
                }
            }),
        ),
    ];
    let table = (
        "ablation_quality",
        "Ablation: overlay quality by design variant",
        ["variant", "alpha"],
    );
    variants_table(s, table, &variants, &[0.25, 0.5], |&variant, p| {
        let row = AblationRow {
            variant: variant.to_string(),
            alpha: p.alpha,
            overlay_disconnected: p.overlay_disconnected,
            overlay_npl: p.overlay_npl,
        };
        ([row.variant.clone(), f3(p.alpha)], row)
    });
}

#[derive(Serialize)]
struct SensitivityRow {
    parameter: String,
    value: f64,
    overlay_disconnected: f64,
    overlay_npl: f64,
}

/// Sensitivity analysis "wrt a number of settings affecting the execution
/// of different protocols within our service" (paper abstract / §V), at a
/// demanding availability (α = 0.25): link-layer latency, cache size,
/// shuffle length ℓ and the target overlay-link count.
fn sensitivity(s: &Setup) {
    let base = &s.params.overlay;
    let mut variants = Vec::new();
    for value in [0.0, 0.25, 0.5, 1.0, 2.0] {
        let latency = LatencyDist::Constant { value };
        let link = LinkLayerConfig::Faulty(FaultConfig {
            latency,
            ..FaultConfig::none()
        });
        let overlay = overlay_with(base, |o| o.link = link);
        variants.push((("link_latency (sp)", value), overlay));
    }
    for n in [50usize, 100, 200, 400, 800] {
        let overlay = overlay_with(base, |o| o.cache_size = n);
        variants.push((("cache_size", n as f64), overlay));
    }
    for n in [10usize, 20, 40, 80] {
        let overlay = overlay_with(base, |o| o.shuffle_length = n);
        variants.push((("shuffle_length", n as f64), overlay));
    }
    for n in [10usize, 25, 50, 100] {
        let overlay = overlay_with(base, |o| o.target_links = n);
        variants.push((("target_links", n as f64), overlay));
    }
    // The candidate grids are paper-scale; under VEIL_SCALE some
    // combinations (e.g. shuffle_length > scaled cache) become invalid —
    // skip those rather than abort the smoke run.
    variants.retain(|((name, value), overlay)| {
        let valid = overlay.validate();
        if let Err(e) = &valid {
            eprintln!("skipping {name} = {value}: {e}");
        }
        valid.is_ok()
    });
    let title = "Sensitivity analysis at alpha = 0.25 (overlay metrics)";
    let table = ("sensitivity", title, ["parameter", "value"]);
    variants_table(s, table, &variants, &[0.25], |&(parameter, value), p| {
        let row = SensitivityRow {
            parameter: parameter.to_string(),
            value,
            overlay_disconnected: p.overlay_disconnected,
            overlay_npl: p.overlay_npl,
        };
        ([row.parameter.clone(), format!("{value}")], row)
    });
}

/// Availability the fault reports run at: high enough that the fault
/// layer (not churn) dominates the measurement.
const FAULT_ALPHA: f64 = 0.8;

#[derive(Serialize)]
struct FaultsReport {
    alpha: f64,
    loss: Vec<DegradationPoint>,
    latency: Vec<DegradationPoint>,
    partition: Vec<DegradationPoint>,
}

/// Fault-injection degradation report (`BENCH_faults.json`): per-message
/// loss, mean latency and partition size swept over the steady-state
/// overlay as one sweep, each point reporting connectivity, broadcast
/// coverage, path length, link-replacement rate and the fault counters.
fn bench_faults(s: &Setup) {
    let axes: [(FaultAxis, &str, &str, &[f64]); 3] = [
        (
            FaultAxis::Loss,
            "message loss",
            "loss",
            &[0.0, 0.05, 0.1, 0.2, 0.3, 0.5],
        ),
        (
            FaultAxis::Latency,
            "mean latency (exponential)",
            "latency",
            &[0.0, 0.5, 1.0, 2.0, 5.0],
        ),
        (
            FaultAxis::Partition,
            "partition size",
            "fraction",
            &[0.0, 0.1, 0.25, 0.5],
        ),
    ];
    let trust = build_trust_graph(&s.params).expect("trust graph");
    let n = trust.node_count();
    eprintln!(
        "degradation sweeps: {n} nodes, alpha = {FAULT_ALPHA}, scale = {}",
        s.scale
    );
    let runs: Vec<(FaultAxis, f64)> = axes
        .iter()
        .flat_map(|&(axis, _, _, xs)| xs.iter().map(move |&x| (axis, x)))
        .collect();
    let points = sweep(&runs, s.params.overlay.parallelism, |&(axis, x)| {
        let mut params = s.params.clone();
        params.overlay.link = axis.link(x, n);
        degradation_point(&trust, &params, FAULT_ALPHA, x)
    })
    .expect("degradation sweep");
    let mut rest = points.as_slice();
    let [loss, latency, partition] = axes.map(|(_, what, x_label, xs)| {
        let (points, tail) = rest.split_at(xs.len());
        rest = tail;
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                let counters = [p.dropped_requests, p.shuffle_retries, p.shuffle_failures];
                [p.x, p.overlay_disconnected, p.coverage, p.overlay_npl]
                    .map(f3)
                    .into_iter()
                    .chain([format!("{:.4}", p.replacement_rate)])
                    .chain(counters.map(|c| c.to_string()))
                    .collect()
            })
            .collect();
        let headers = [
            x_label,
            "disconnected",
            "coverage",
            "npl",
            "repl/node/sp",
            "dropped",
            "retries",
            "failures",
        ];
        print_table(&format!("degradation vs {what}"), &headers, &rows);
        points.to_vec()
    });
    let report = FaultsReport {
        alpha: FAULT_ALPHA,
        loss,
        latency,
        partition,
    };
    write_bench_json("faults", s.scale, &report);
}

/// Per-message loss probability layered on top of the recovery blackout,
/// matching the fault-injection A/B test.
const RECOVERY_LOSS: f64 = 0.2;

#[derive(Serialize)]
struct RecoveryReport {
    alpha: f64,
    loss: f64,
    points: Vec<RecoveryPoint>,
}

/// Self-healing recovery report (`BENCH_recovery.json`): time-to-recover
/// from a correlated blackout with the remediation engine off, then on,
/// at seeds 11, 23 and 47, measured on the pseudonym overlay (trusted
/// links are node-addressed and heal instantly, so they carry no signal).
fn recovery_sweep(s: &Setup) {
    let trust = build_trust_graph(&s.params).expect("trust graph");
    let n = trust.node_count();
    eprintln!(
        "recovery sweep: {n} nodes, alpha = {FAULT_ALPHA}, loss = {RECOVERY_LOSS}, scale = {}",
        s.scale
    );
    let runs: Vec<ExperimentParams> = [11, 23, 47]
        .into_iter()
        .flat_map(|seed| {
            [RemedyConfig::default(), RemedyConfig::all_on()].map(|remedy| {
                let mut params = s.params.clone();
                params.seed = seed;
                params.overlay.link = FaultAxis::Loss.link(RECOVERY_LOSS, n);
                params.overlay.remedy = remedy;
                params
            })
        })
        .collect();
    let points = sweep(&runs, s.params.overlay.parallelism, |params| {
        recovery_point(&trust, params, FAULT_ALPHA, &RecoveryScenario::default())
    })
    .expect("recovery sweep");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let healing = if p.healing { "on" } else { "off" };
            let recover = p
                .time_to_recover
                .map_or("-".to_string(), |t| format!("{t:.1}"));
            vec![
                p.seed.to_string(),
                healing.to_string(),
                recover,
                p.health_alerts.to_string(),
                p.remedy_actions.to_string(),
            ]
        })
        .collect();
    let title = format!("time-to-recover from an 80% blackout (loss = {RECOVERY_LOSS})");
    let headers = ["seed", "healing", "recover (sp)", "alerts", "reactions"];
    print_table(&title, &headers, &rows);
    let report = RecoveryReport {
        alpha: FAULT_ALPHA,
        loss: RECOVERY_LOSS,
        points,
    };
    write_bench_json("recovery", s.scale, &report);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(rows: &[&Row]) -> Vec<&'static str> {
        rows.iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn row_names_are_unique() {
        for (i, (name, _)) in ROWS.iter().enumerate() {
            assert!(
                ROWS[..i].iter().all(|(other, _)| other != name),
                "{name} twice"
            );
        }
    }

    #[test]
    fn no_arguments_runs_the_paper_rows_in_order() {
        assert_eq!(
            names(&select(&[]).unwrap()),
            [
                "table1",
                "fig3_connectivity",
                "fig4_path_length",
                "fig5_degree_dist",
                "fig6_messages",
                "fig7_lifetime",
                "fig8_convergence",
                "fig9_churn_overhead",
                "ablation_quality",
                "sensitivity",
            ]
        );
    }

    #[test]
    fn named_rows_run_in_the_order_given() {
        let asked = [
            "recovery_sweep".to_string(),
            "fig3_connectivity".to_string(),
        ];
        assert_eq!(
            names(&select(&asked).unwrap()),
            ["recovery_sweep", "fig3_connectivity"]
        );
    }

    #[test]
    fn an_unknown_name_is_an_error_listing_the_valid_names() {
        let asked = ["fig3_connectivity".to_string(), "fig10".to_string()];
        let err = select(&asked).expect_err("unknown name rejected");
        assert!(err.contains("\"fig10\""), "{err}");
        for (name, _) in &ROWS {
            assert!(err.contains(name), "{err} omits {name}");
        }
    }
}
