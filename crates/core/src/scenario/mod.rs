//! Declarative scenarios: parse → validate → lower → run.
//!
//! A scenario file (TOML subset, or JSON with the same shape) names a
//! complete chaos/load experiment: graph, overlay overrides, ambient link
//! faults, a sequence of workload *phases* (flash crowds, blackouts,
//! churn waves, creeping loss, partitions, eclipse pressure), an optional
//! observer-attack audit, and pass/fail assertions over the run's health
//! alerts, coverage, and trace report.
//!
//! The pipeline is strictly layered so each stage is testable alone:
//!
//! 1. [`parser`] — spanned TOML-subset / JSON front-end producing a value
//!    tree where every key and value remembers its line and column.
//! 2. [`schema`] — typed [`Scenario`] built from that
//!    tree; unknown keys, wrong types, unknown phase kinds and detector
//!    names are rejected here with precise spans.
//! 3. [`validate`](mod@validate) — semantic checks spanning fields (phase ordering,
//!    overlapping blackout regions, ranges, assertion/attack coherence).
//! 4. [`lower`](mod@lower) — deterministic translation onto the existing machinery:
//!    `ExperimentParams` + `OverlayConfig` + `FaultEpisode` scripts. A
//!    scenario run is byte-identical to the equivalent hand-built config.
//! 5. [`runner`] — executes a lowered scenario (optionally overriding
//!    seed/shards), evaluates assertions, and sweeps campaigns in
//!    parallel via `veil-par`.

pub mod lower;
pub mod parser;
pub mod runner;
pub mod schema;
pub mod validate;

pub use lower::{lower, Lowered};
pub use runner::{
    canonical_trace_jsonl, run_campaign, run_scenario, run_scenario_with, with_global_recorder,
    AttackEval, AttackFindings, CampaignReport, CampaignSpec, RunOverrides, ScenarioOutcome,
    ScenarioRun,
};
pub use schema::{Assertions, AttackSpec, GraphModel, Phase, RemedySpec, Scenario};
pub use validate::validate;

use std::fmt;
use std::path::Path;

/// A 1-based line/column position in a scenario source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based source line; 0 for synthetic nodes (JSON input,
    /// programmatically built scenarios).
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

impl Span {
    /// The synthetic span (no source location).
    pub const NONE: Span = Span { line: 0, col: 0 };

    /// A concrete source position.
    pub const fn new(line: u32, col: u32) -> Self {
        Span { line, col }
    }

    /// Whether this span points at real source text.
    pub fn is_real(self) -> bool {
        self.line > 0
    }
}

/// A scenario-pipeline error: a message plus, when it came from source
/// text, the position it points at. Render with [`render_error`] for the
/// full caret diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioError {
    /// Human-readable description of what is wrong.
    pub message: String,
    /// Source position, when the error maps to one.
    pub span: Option<Span>,
}

impl ScenarioError {
    /// An error with no source position.
    pub fn new(message: impl Into<String>) -> Self {
        ScenarioError {
            message: message.into(),
            span: None,
        }
    }

    /// An error pointing at `span` (synthetic spans degrade to no
    /// position).
    pub fn at(span: Span, message: impl Into<String>) -> Self {
        ScenarioError {
            message: message.into(),
            span: span.is_real().then_some(span),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some(span) => write!(
                f,
                "{} (line {}, column {})",
                self.message, span.line, span.col
            ),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Renders `err` as a rustc-style diagnostic against `source`:
///
/// ```text
/// error: unknown key `cache_siz` in [overlay] (did you mean `cache_size`?)
///   --> scenarios/demo.toml:7:1
///    |
///  7 | cache_siz = 80
///    | ^
/// ```
///
/// Falls back to `error: {message}` when the error has no span or the
/// span's line is out of range. This exact text is pinned by the golden
/// tests, so diagnostics cannot silently regress.
pub fn render_error(err: &ScenarioError, file_label: &str, source: &str) -> String {
    let mut out = format!("error: {}\n", err.message);
    let Some(span) = err.span else {
        return out;
    };
    let Some(line_text) = source.lines().nth(span.line as usize - 1) else {
        return out;
    };
    let num = span.line.to_string();
    let gutter = " ".repeat(num.len());
    out.push_str(&format!("  --> {file_label}:{}:{}\n", span.line, span.col));
    out.push_str(&format!("{gutter} |\n"));
    out.push_str(&format!("{num} | {line_text}\n"));
    let caret_pad = " ".repeat(span.col.saturating_sub(1) as usize);
    out.push_str(&format!("{gutter} | {caret_pad}^\n"));
    out
}

/// The on-disk encodings a scenario file may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// The TOML subset documented in DESIGN.md §11.
    Toml,
    /// JSON with the identical shape (phases under a `"phase"` array).
    Json,
}

/// Parses and structurally checks scenario text. Semantic validation is a
/// separate step ([`validate()`]) so callers can distinguish "unreadable"
/// from "readable but inconsistent".
///
/// # Errors
///
/// Syntax errors, unknown keys, and type mismatches, with spans for TOML
/// input (JSON input yields spanless errors).
pub fn parse_scenario_str(
    text: &str,
    format: Format,
    default_name: &str,
) -> Result<(Scenario, schema::ScenarioSpans), ScenarioError> {
    let doc = match format {
        Format::Toml => parser::parse_document(text)?,
        Format::Json => {
            let value: serde_json::Value = serde_json::from_str(text)
                .map_err(|e| ScenarioError::new(format!("invalid JSON: {e}")))?;
            let spanned = parser::from_json(&value)?;
            match spanned.value {
                parser::Value::Table(t) => t,
                other => {
                    return Err(ScenarioError::new(format!(
                        "scenario JSON must be an object, got {}",
                        other.type_name()
                    )))
                }
            }
        }
    };
    schema::build_scenario(&doc, default_name)
}

/// Loads a scenario from `path`, choosing the format by extension
/// (`.json` → JSON, anything else → TOML) and defaulting the scenario
/// name to the file stem. Runs structural checks only, like
/// [`parse_scenario_str`].
///
/// # Errors
///
/// I/O failures and everything [`parse_scenario_str`] rejects.
pub fn parse_scenario_path(
    path: &Path,
) -> Result<(Scenario, schema::ScenarioSpans), ScenarioError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::new(format!("cannot read {}: {e}", path.display())))?;
    let format = match path.extension().and_then(|e| e.to_str()) {
        Some("json") => Format::Json,
        _ => Format::Toml,
    };
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("unnamed");
    parse_scenario_str(&text, format, stem)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_error_points_at_source() {
        let src = "nodes = 100\ncache_siz = 80\n";
        let err = ScenarioError::at(Span::new(2, 1), "unknown key `cache_siz`");
        let text = render_error(&err, "demo.toml", src);
        assert!(text.contains("error: unknown key `cache_siz`"), "{text}");
        assert!(text.contains("--> demo.toml:2:1"), "{text}");
        assert!(text.contains("2 | cache_siz = 80"), "{text}");
        let caret_line = text.lines().last().unwrap();
        assert_eq!(caret_line, "  | ^");
    }

    #[test]
    fn render_error_without_span_is_plain() {
        let err = ScenarioError::new("boom");
        assert_eq!(render_error(&err, "x.toml", ""), "error: boom\n");
    }

    #[test]
    fn json_and_toml_parse_to_equal_scenarios() {
        let toml = "nodes = 120\nseed = 7\n[overlay]\ncache_size = 64\n";
        let json = r#"{"nodes": 120, "seed": 7, "overlay": {"cache_size": 64}}"#;
        let (a, _) = parse_scenario_str(toml, Format::Toml, "x").unwrap();
        let (b, _) = parse_scenario_str(json, Format::Json, "x").unwrap();
        assert_eq!(a, b);
    }
}
