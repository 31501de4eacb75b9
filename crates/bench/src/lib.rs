//! Experiment harness shared by the `fig*` binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md for the index). This library provides the common plumbing:
//! paper-scale default parameters, an environment-driven scale knob for
//! smoke runs, plain-text table rendering, and JSON result export.
//!
//! # Scale knob
//!
//! Set `VEIL_SCALE=n` to divide the experiment size by `n` (nodes, warm-up
//! time, horizons). `VEIL_SCALE=1` (default) reproduces the paper's
//! configuration; `VEIL_SCALE=10` finishes in seconds for CI smoke tests.
//!
//! # Parallelism knob
//!
//! Set `VEIL_PARALLELISM=k` to cap the experiment engine at `k` worker
//! threads (`1` forces serial execution; `0` or unset uses every core).
//! The knob only changes wall-clock time: every sweep point derives its
//! randomness from the master seed and its own stream and results are
//! reduced in index order, so output files are byte-identical for every
//! value.
//!
//! # Fault knob
//!
//! Set `VEIL_FAULT_LOSS=p` to run every figure over the fault-injecting
//! link layer with per-message drop probability `p` (default `0` keeps the
//! ideal layer). The CI fault matrix uses this to smoke-test the figure
//! pipeline at several loss rates.
//!
//! # Tracing
//!
//! A figure is many independent simulations, so the figure binaries
//! record no trace; `veil simulate --trace-out` traces a single run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scale;

use serde::Serialize;
use std::path::{Path, PathBuf};
use veil_core::config::LinkLayerConfig;
use veil_core::experiment::ExperimentParams;
use veil_sim::fault::FaultConfig;

/// The availability grid the paper sweeps (Figures 3, 4 and 7).
pub const ALPHAS: [f64; 8] = [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0];

/// The pseudonym-lifetime ratios of Figures 7–9 (`None` = `r = ∞`).
pub const RATIOS: [Option<f64>; 4] = [Some(1.0), Some(3.0), Some(9.0), None];

/// Reads the `VEIL_SCALE` divisor (default 1).
pub fn scale() -> usize {
    std::env::var("VEIL_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1)
}

/// Reads the `VEIL_FAULT_LOSS` per-message drop probability (default 0).
pub fn fault_loss() -> f64 {
    std::env::var("VEIL_FAULT_LOSS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|p| (0.0..=1.0).contains(p))
        .unwrap_or(0.0)
}

/// Paper-scale experiment parameters divided by the `VEIL_SCALE` knob,
/// with the thread count taken from `VEIL_PARALLELISM` and the link layer
/// from `VEIL_FAULT_LOSS` (non-zero loss switches every experiment onto
/// the fault-injecting layer).
pub fn paper_params() -> ExperimentParams {
    let s = scale();
    let base = ExperimentParams::default();
    let mut params = if s == 1 { base } else { base.scaled_down(s) };
    params.overlay.parallelism = veil_par::env_parallelism();
    let loss = fault_loss();
    if loss > 0.0 {
        params.overlay.link = LinkLayerConfig::Faulty(FaultConfig::with_loss(loss));
    }
    params
}

/// Divides a time horizon by the scale knob, with a floor.
pub fn scaled_horizon(full: f64, min: f64) -> f64 {
    (full / scale() as f64).max(min)
}

/// Renders a plain-text table with right-aligned numeric columns.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&line(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a lifetime ratio for display (`inf` for `None`).
pub fn ratio_label(r: Option<f64>) -> String {
    match r {
        Some(v) if v.fract() == 0.0 => format!("{}", v as i64),
        Some(v) => format!("{v}"),
        None => "inf".to_string(),
    }
}

/// Directory where figure outputs are written (`target/figures`).
pub fn output_dir() -> PathBuf {
    let dir = Path::new("target").join("figures");
    std::fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

/// Serializes `value` as pretty JSON into `target/figures/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = output_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize result");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    // On stdout so scripts copying artifacts (e.g. into benchmarks/baseline/)
    // can capture the path.
    println!("wrote {}", path.display());
}

/// Serializes a benchmark report into `target/figures/BENCH_<name>.json`,
/// wrapped in the envelope shared by every `bench_*` binary: the benchmark
/// name, the `VEIL_SCALE` divisor and the available core count, with the
/// benchmark-specific payload under `"report"`. Keeping the envelope in
/// one place keeps the `BENCH_*.json` files mutually comparable.
pub fn write_bench_json<T: Serialize>(name: &str, payload: &T) {
    refuse_single_core_baseline(name);
    let doc = serde::Content::Map(vec![
        ("bench".to_string(), serde::Content::Str(name.to_string())),
        ("scale".to_string(), serde::Content::U64(scale() as u64)),
        (
            "available_cores".to_string(),
            serde::Content::U64(veil_par::effective_parallelism(None) as u64),
        ),
        ("report".to_string(), payload.to_content()),
    ]);
    write_json(&format!("BENCH_{name}"), &doc);
}

/// Whether writing a `BENCH_*.json` report is permitted on this host.
///
/// The committed baselines under `benchmarks/baseline/` are timing
/// references captured on multi-core hosts; a report produced with one
/// available core has the same shape but meaningless speedup columns, and
/// it is far too easy to copy one over a baseline by accident. Opt in
/// explicitly with the `--allow-single-core` flag (any `bench_*` binary)
/// or `VEIL_ALLOW_SINGLE_CORE=1` when a single-core report is wanted.
pub fn single_core_allowed() -> bool {
    std::env::args().any(|a| a == "--allow-single-core")
        || std::env::var("VEIL_ALLOW_SINGLE_CORE").is_ok_and(|v| v == "1")
}

/// Aborts (exit code 1) instead of writing a baseline-shaped benchmark
/// report when only one core is available and the caller did not opt in —
/// see [`single_core_allowed`]. The `bench_*` binaries call this first
/// thing in `main` so a refused run fails before the timing loops, and
/// [`write_bench_json`] calls it again as the last-line guarantee.
pub fn refuse_single_core_baseline(name: &str) {
    if veil_par::effective_parallelism(None) == 1 && !single_core_allowed() {
        eprintln!(
            "error: refusing to write BENCH_{name}.json: only one core is available \
             (VEIL_PARALLELISM or the machine), so the timing columns would be \
             meaningless next to the committed multi-core baselines.\n\
             Re-run with --allow-single-core (or VEIL_ALLOW_SINGLE_CORE=1) to \
             write the report anyway."
        );
        std::process::exit(1);
    }
}

/// Formats a float with 3 decimal places.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphas_cover_paper_range() {
        assert_eq!(ALPHAS.len(), 8);
        assert_eq!(ALPHAS[0], 0.125);
        assert_eq!(ALPHAS[7], 1.0);
        for w in ALPHAS.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn ratios_match_figure_seven() {
        assert_eq!(RATIOS, [Some(1.0), Some(3.0), Some(9.0), None]);
    }

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            &["alpha", "value"],
            &[
                vec!["0.5".into(), "1".into()],
                vec!["1".into(), "12.345".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("alpha"));
        assert!(lines[2].ends_with("1"));
    }

    #[test]
    fn ratio_labels() {
        assert_eq!(ratio_label(Some(3.0)), "3");
        assert_eq!(ratio_label(None), "inf");
    }

    #[test]
    fn scaled_horizon_has_floor() {
        assert_eq!(scaled_horizon(1000.0, 50.0), 1000.0 / scale() as f64);
        assert!(
            scaled_horizon(10.0, 50.0) >= 50.0 / scale() as f64
                || scaled_horizon(10.0, 50.0) == 50.0
        );
    }

    #[test]
    fn f3_formats() {
        assert_eq!(f3(1.23456), "1.235");
    }
}
