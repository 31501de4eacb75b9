//! Experiment harness behind the `figures` binary and the three timing
//! benchmarks (`bench_parallel`, `bench_obs`, `bench_scale`).
//!
//! `figures` regenerates every table and figure of the paper as one row
//! per output (see DESIGN.md §4 for the index); the experiments themselves
//! are [`veil_core::experiment`] measurements fanned out by its `sweep`.
//! This library provides the common plumbing: paper-scale default
//! parameters, the environment knobs below, plain-text table rendering,
//! JSON result export and the timing benchmarks' command-line flags.
//!
//! # Scale knob
//!
//! Set `VEIL_SCALE=n` to divide the experiment size by `n` (nodes, warm-up
//! time, horizons). `VEIL_SCALE=1` (default) reproduces the paper's
//! configuration; `VEIL_SCALE=10` finishes in seconds for CI smoke tests.
//! Anything but a positive integer is an error, never a silent default.
//!
//! # Parallelism knob
//!
//! Set `VEIL_PARALLELISM=k` to cap the experiment engine at `k` worker
//! threads (`1` forces serial execution; `0` or unset uses every core).
//! The knob only changes wall-clock time: every run of a sweep derives its
//! randomness from its own parameters and results are reduced in index
//! order, so output files are byte-identical for every value.
//!
//! # Fault knob
//!
//! Set `VEIL_FAULT_LOSS=p` to run every figure over the fault-injecting
//! link layer with per-message drop probability `p` (default `0` keeps the
//! ideal layer); anything outside `[0, 1]` is an error. The CI fault
//! matrix uses this to smoke-test the figure pipeline at several loss
//! rates.
//!
//! # Tracing
//!
//! A figure is many independent simulations, so `figures` records no
//! trace; `veil simulate --trace-out` traces a single run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scale;

use serde::Serialize;
use std::path::Path;
use veil_core::config::LinkLayerConfig;
use veil_core::experiment::ExperimentParams;
use veil_sim::fault::FaultConfig;

/// The availability grid the paper sweeps (Figures 3, 4 and 7).
pub const ALPHAS: [f64; 8] = [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0];

/// The pseudonym-lifetime ratios of Figures 7–9 (`None` = `r = ∞`).
pub const RATIOS: [Option<f64>; 4] = [Some(1.0), Some(3.0), Some(9.0), None];

/// Reads the `VEIL_SCALE` divisor (default 1).
///
/// # Errors
///
/// Names the variable and its value unless it is a positive integer.
pub fn scale() -> Result<usize, String> {
    parse_scale(env_value("VEIL_SCALE").as_deref())
}

fn parse_scale(raw: Option<&str>) -> Result<usize, String> {
    parse_knob("VEIL_SCALE", raw, 1, |&s| s >= 1, "a positive integer")
}

/// Reads the `VEIL_FAULT_LOSS` per-message drop probability (default 0).
///
/// # Errors
///
/// Names the variable and its value unless it is a number in `[0, 1]`.
pub fn fault_loss() -> Result<f64, String> {
    parse_fault_loss(env_value("VEIL_FAULT_LOSS").as_deref())
}

fn parse_fault_loss(raw: Option<&str>) -> Result<f64, String> {
    parse_knob(
        "VEIL_FAULT_LOSS",
        raw,
        0.0,
        |p| (0.0..=1.0).contains(p),
        "a probability in [0, 1]",
    )
}

/// The value of an environment knob. A non-Unicode value is kept, lossily,
/// so that it fails to parse instead of reading as unset.
fn env_value(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

/// `default` when the knob is unset, its value when that parses and is
/// `valid`, and otherwise an error naming the knob and its value.
fn parse_knob<T: std::str::FromStr>(
    name: &str,
    raw: Option<&str>,
    default: T,
    valid: impl Fn(&T) -> bool,
    expected: &str,
) -> Result<T, String> {
    let Some(raw) = raw else {
        return Ok(default);
    };
    raw.parse()
        .ok()
        .filter(valid)
        .ok_or_else(|| format!("{name}={raw} is not {expected}"))
}

/// Paper-scale experiment parameters divided by `scale` (see
/// [`scale()`]), with the thread count taken from `VEIL_PARALLELISM` and a
/// non-zero `loss` (see [`fault_loss()`]) switching every experiment onto
/// the fault-injecting link layer.
pub fn paper_params(scale: usize, loss: f64) -> ExperimentParams {
    let mut params = ExperimentParams::default().scaled_down(scale);
    params.overlay.parallelism = veil_par::env_parallelism();
    if loss > 0.0 {
        params.overlay.link = LinkLayerConfig::Faulty(FaultConfig::with_loss(loss));
    }
    params
}

/// Divides a time horizon by the scale divisor, with a floor.
pub fn scaled_horizon(full: f64, min: f64, scale: usize) -> f64 {
    (full / scale as f64).max(min)
}

/// Renders a plain-text table with right-aligned numeric columns.
pub fn render_table<H: AsRef<str>>(headers: &[H], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.as_ref().len()).collect();
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
    let header_cells: Vec<String> = headers.iter().map(|h| h.as_ref().to_string()).collect();
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

/// Serializes `value` as pretty JSON into `target/figures/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = Path::new("target").join("figures");
    std::fs::create_dir_all(&dir).expect("create target/figures");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize result");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    // On stdout so scripts copying artifacts (e.g. into benchmarks/baseline/)
    // can capture the path.
    println!("wrote {}", path.display());
}

/// Serializes a benchmark report into `target/figures/BENCH_<name>.json`,
/// wrapped in the envelope shared by every `BENCH_*.json`: the benchmark
/// name, the `VEIL_SCALE` divisor and the available core count, with the
/// benchmark-specific payload under `"report"`. Keeping the envelope in
/// one place keeps the `BENCH_*.json` files mutually comparable.
pub fn write_bench_json<T: Serialize>(name: &str, scale: usize, payload: &T) {
    let doc = serde::Content::Map(vec![
        ("bench".to_string(), serde::Content::Str(name.to_string())),
        ("scale".to_string(), serde::Content::U64(scale as u64)),
        (
            "available_cores".to_string(),
            serde::Content::U64(veil_par::effective_parallelism(None) as u64),
        ),
        ("report".to_string(), payload.to_content()),
    ]);
    write_json(&format!("BENCH_{name}"), &doc);
}

/// Reads `flag` from the command line: `None` when it is absent, otherwise
/// the argument after it (empty when it is last), so a bare switch such as
/// `--allow-single-core` reads as `Some`.
pub fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip_while(|a| a != flag);
    args.next()?;
    Some(args.next().unwrap_or_default())
}

/// Exits (code 1) before a timing benchmark starts when the machine has
/// one core and `--allow-single-core` was not given.
///
/// The committed `benchmarks/baseline/BENCH_{parallel,obs,scale}.json` are
/// timing references captured on multi-core hosts; a report timed on one
/// core has the same shape but meaningless speedup columns, and it is far
/// too easy to copy one over a baseline by accident. Reports that hold no
/// timings (`BENCH_faults.json`, `BENCH_recovery.json`) are written on any
/// core count.
pub fn refuse_single_core_baseline(name: &str) {
    if veil_par::effective_parallelism(None) == 1 && flag_value("--allow-single-core").is_none() {
        eprintln!(
            "error: refusing to write BENCH_{name}.json: this machine has one core, so \
             the timing columns would be meaningless next to the committed \
             multi-core baselines.\n\
             Re-run with --allow-single-core to write the report anyway."
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
        assert_eq!(scaled_horizon(1000.0, 50.0, 10), 100.0);
        assert_eq!(scaled_horizon(1000.0, 50.0, 1), 1000.0);
        assert_eq!(scaled_horizon(10.0, 50.0, 1), 50.0);
    }

    #[test]
    fn scale_knob_accepts_only_positive_integers() {
        assert_eq!(parse_scale(None), Ok(1));
        assert_eq!(parse_scale(Some("1")), Ok(1));
        assert_eq!(parse_scale(Some("10")), Ok(10));
        for bad in ["0", "ten", "1.5", "-0.1", "0.2x", "", "-1"] {
            let err = parse_scale(Some(bad)).unwrap_err();
            assert_eq!(err, format!("VEIL_SCALE={bad} is not a positive integer"));
        }
    }

    #[test]
    fn fault_loss_knob_accepts_only_probabilities() {
        assert_eq!(parse_fault_loss(None), Ok(0.0));
        assert_eq!(parse_fault_loss(Some("0")), Ok(0.0));
        assert_eq!(parse_fault_loss(Some("0.05")), Ok(0.05));
        assert_eq!(parse_fault_loss(Some("1")), Ok(1.0));
        for bad in ["1.5", "-0.1", "0.2x", "ten", "NaN", ""] {
            let err = parse_fault_loss(Some(bad)).unwrap_err();
            assert_eq!(
                err,
                format!("VEIL_FAULT_LOSS={bad} is not a probability in [0, 1]")
            );
        }
    }

    #[test]
    fn paper_params_switch_the_link_only_for_loss() {
        assert_eq!(paper_params(10, 0.0).overlay.link, LinkLayerConfig::Ideal);
        assert_eq!(
            paper_params(10, 0.2).overlay.link,
            LinkLayerConfig::Faulty(FaultConfig::with_loss(0.2))
        );
        assert_eq!(paper_params(1, 0.0).nodes, 1000);
    }

    #[test]
    fn f3_formats() {
        assert_eq!(f3(1.23456), "1.235");
    }
}
