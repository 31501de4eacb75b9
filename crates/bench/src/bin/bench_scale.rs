//! Capacity benchmark for the million-node hot path.
//!
//! Runs the ideal-link overlay at a ladder of sizes (default 10k and
//! 100k; pass `--sizes 10000,100000,1000000` for the full ladder), records
//! events per second, approximate heap bytes per node and the process's
//! peak RSS, and writes `target/figures/BENCH_scale.json`.
//!
//! CI gates on this binary: `--min-events-per-sec F` and
//! `--max-bytes-per-node F` turn the measured numbers into assertions
//! (exit code 1 on violation), so a regression in the flat data layout or
//! the event queue fails the `scale-smoke` job instead of silently
//! shipping. `VEIL_SCALE` divides every size for smoke runs.

use serde::Serialize;
use veil_bench::scale::{measure_scale_point, ScalePoint};
use veil_bench::write_bench_json;

const SEED: u64 = 42;
const DEFAULT_SIZES: [usize; 2] = [10_000, 100_000];
const DEFAULT_HORIZON: f64 = 100.0;

#[derive(Serialize)]
struct Report {
    horizon: f64,
    seed: u64,
    points: Vec<ScalePoint>,
}

/// Reads `--flag value` from the raw argument list.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    veil_bench::refuse_single_core_baseline("scale");
    let args: Vec<String> = std::env::args().collect();
    let scale = veil_bench::scale();
    let sizes: Vec<usize> = match flag_value(&args, "--sizes") {
        Some(raw) => raw
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<usize>()
                    .unwrap_or_else(|e| panic!("--sizes {s:?}: {e}"))
            })
            .collect(),
        None => DEFAULT_SIZES.to_vec(),
    };
    let sizes: Vec<usize> = sizes.iter().map(|&n| (n / scale).max(1_000)).collect();
    let horizon: f64 = flag_value(&args, "--horizon")
        .map(|s| s.parse().unwrap_or_else(|e| panic!("--horizon {s:?}: {e}")))
        .unwrap_or(DEFAULT_HORIZON);
    let min_eps: Option<f64> =
        flag_value(&args, "--min-events-per-sec").map(|s| s.parse().expect("--min-events-per-sec"));
    let max_bpn: Option<f64> =
        flag_value(&args, "--max-bytes-per-node").map(|s| s.parse().expect("--max-bytes-per-node"));

    let mut points = Vec::new();
    for &nodes in &sizes {
        eprintln!("measuring {nodes} nodes, horizon {horizon} sp …");
        let p = measure_scale_point(nodes, horizon, SEED).expect("scale point");
        eprintln!(
            "  build {:.1}s, run {:.1}s: {:.0} events/s, {:.0} bytes/node, peak RSS {}",
            p.build_secs,
            p.run_secs,
            p.events_per_sec,
            p.bytes_per_node,
            p.peak_rss_bytes
                .map_or("n/a".to_string(), |b| format!("{} MiB", b >> 20)),
        );
        points.push(p);
    }

    let mut failed = false;
    for p in &points {
        if let Some(floor) = min_eps {
            if p.events_per_sec < floor {
                eprintln!(
                    "FAIL: {} nodes: {:.0} events/s below the floor {floor}",
                    p.nodes, p.events_per_sec
                );
                failed = true;
            }
        }
        if let Some(ceiling) = max_bpn {
            if p.bytes_per_node > ceiling {
                eprintln!(
                    "FAIL: {} nodes: {:.0} bytes/node above the ceiling {ceiling}",
                    p.nodes, p.bytes_per_node
                );
                failed = true;
            }
        }
    }

    let report = Report {
        horizon,
        seed: SEED,
        points,
    };
    write_bench_json("scale", &report);
    if failed {
        std::process::exit(1);
    }
}
