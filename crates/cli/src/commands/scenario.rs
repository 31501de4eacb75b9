//! `veil scenario` — validate, list, run, and sweep declarative scenario
//! files (see `scenarios/` and DESIGN.md §11).

use super::{CmdResult, ScenarioFailure};
use crate::args::Args;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use veil_core::scenario::{
    self, render_error, run_campaign, run_scenario_with, CampaignSpec, RunOverrides, Scenario,
    ScenarioOutcome,
};

/// Loads, parses, and semantically validates a scenario file, rendering
/// any diagnostic against the source text.
fn load(path: &Path) -> Result<(Scenario, String), String> {
    let label = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {label}: {e}"))?;
    let (s, spans) =
        scenario::parse_scenario_path(path).map_err(|e| render_error(&e, &label, &text))?;
    scenario::validate::validate_with_spans(&s, &spans)
        .map_err(|e| render_error(&e, &label, &text))?;
    Ok((s, text))
}

/// Scenario files in `dir`, sorted by name for deterministic output.
fn scenario_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            matches!(
                p.extension().and_then(|x| x.to_str()),
                Some("toml") | Some("json")
            )
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .toml or .json scenarios in {}", dir.display()));
    }
    Ok(files)
}

/// `veil scenario validate <FILE|DIR>` — parse + validate one file or a
/// whole library; any invalid file fails the command (exit 3) with a
/// caret diagnostic.
pub fn validate(args: &Args) -> CmdResult {
    args.check_known(&[])?;
    let target = args
        .positional(2)
        .ok_or("scenario validate: expected a file or directory")?;
    let target = Path::new(target);
    let files = if target.is_dir() {
        scenario_files(target)?
    } else {
        vec![target.to_path_buf()]
    };
    let mut out = String::new();
    let mut failures = 0usize;
    for path in &files {
        match load(path) {
            Ok((s, _)) => {
                let _ = writeln!(
                    out,
                    "ok      {} ({} nodes, horizon {}, {} phase{})",
                    path.display(),
                    s.nodes,
                    s.horizon,
                    s.phases.len(),
                    if s.phases.len() == 1 { "" } else { "s" },
                );
            }
            Err(diag) => {
                failures += 1;
                let _ = writeln!(out, "INVALID {}\n{diag}", path.display());
            }
        }
    }
    let _ = writeln!(out, "{} scenario(s), {} invalid", files.len(), failures);
    if failures > 0 {
        return Err(Box::new(ScenarioFailure(out.trim_end().to_string())));
    }
    Ok(out.trim_end().to_string())
}

/// `veil scenario list [DIR]` — one line per scenario in the library.
pub fn list(args: &Args) -> CmdResult {
    args.check_known(&[])?;
    let dir = args.positional(2).unwrap_or("scenarios");
    let files = scenario_files(Path::new(dir))?;
    let mut out = format!(
        "{:<22} {:>6} {:>8} {:>7} {:>7}  description\n",
        "name", "nodes", "horizon", "phases", "checks"
    );
    for path in &files {
        let (s, _) = load(path).map_err(|diag| format!("{}:\n{diag}", path.display()))?;
        let checks = count_assertions(&s);
        let _ = writeln!(
            out,
            "{:<22} {:>6} {:>8} {:>7} {:>7}  {}",
            s.name,
            s.nodes,
            s.horizon,
            s.phases.len(),
            checks,
            s.description,
        );
    }
    Ok(out.trim_end().to_string())
}

fn count_assertions(s: &Scenario) -> usize {
    let a = &s.assertions;
    let opts = [
        a.max_disconnected.is_some(),
        a.min_coverage.is_some(),
        a.max_alerts.is_some(),
        a.min_alerts.is_some(),
        a.max_critical_alerts.is_some(),
        a.min_shuffle_success_rate.is_some(),
        a.max_shuffle_failures.is_some(),
        a.forbid_vertex_cut,
        a.max_observed_node_fraction.is_some(),
        a.max_observed_edge_fraction.is_some(),
        a.recovery_time_at_most.is_some(),
    ];
    opts.iter().filter(|&&b| b).count()
        + a.require_detectors.len()
        + a.forbid_detectors.len()
        + a.reaction_fired.len()
}

fn render_outcome(outcome: &ScenarioOutcome) -> String {
    let mut out = String::new();
    let shards = match outcome.shards {
        Some(k) => k.to_string(),
        None => "-".to_string(),
    };
    let _ = writeln!(
        out,
        "scenario `{}`  seed {}  shards {}",
        outcome.scenario, outcome.seed, shards
    );
    let snap = &outcome.snapshot;
    let _ = writeln!(
        out,
        "  final: {} online, {:.1}% disconnected, coverage {:.1}%, \
         shuffle success {:.1}%",
        snap.online_nodes,
        100.0 * snap.fraction_disconnected,
        100.0 * outcome.coverage,
        100.0 * outcome.shuffle_success_rate,
    );
    let _ = writeln!(
        out,
        "  alerts: {} total, {} critical{}",
        outcome.alerts_total,
        outcome.critical_alerts,
        if outcome.detectors.is_empty() {
            String::new()
        } else {
            format!(" [{}]", outcome.detectors.join(", "))
        },
    );
    if !outcome.reaction_counts.is_empty() {
        let total: u64 = outcome.reaction_counts.values().sum();
        let kinds: Vec<String> = outcome
            .reaction_counts
            .iter()
            .map(|(k, v)| format!("{v} {k}"))
            .collect();
        let _ = writeln!(
            out,
            "  healing: {} reaction(s) ({})",
            total,
            kinds.join(", ")
        );
    }
    if let Some(measured) = outcome.recovery_time {
        match measured {
            Some(t) => {
                let _ = writeln!(out, "  recovery: {t} period(s) after the outage");
            }
            None => {
                let _ = writeln!(out, "  recovery: never, within the horizon");
            }
        }
    }
    if let Some(attack) = &outcome.attack {
        let _ = writeln!(
            out,
            "  attack: observers know {:.1}% of nodes, {:.1}% of edges, vertex cut: {}",
            100.0 * attack.node_fraction,
            100.0 * attack.edge_fraction,
            if attack.is_vertex_cut { "YES" } else { "no" },
        );
    }
    for check in &outcome.checks {
        let _ = writeln!(
            out,
            "  [{}] {:<26} {}",
            if check.passed { "PASS" } else { "FAIL" },
            check.key,
            check.detail,
        );
    }
    if outcome.checks.is_empty() {
        let _ = writeln!(out, "  (no assertions)");
    }
    out
}

/// `veil scenario run <FILE>` — one run, verdict table, exit 3 on any
/// failed assertion.
pub fn run(args: &Args) -> CmdResult {
    args.check_known(&["seed", "shards", "json", "trace-out"])?;
    let path = args
        .positional(2)
        .ok_or("scenario run: expected a scenario file")?;
    let (s, _) = load(Path::new(path)).map_err(flat)?;
    let overrides = RunOverrides {
        seed: match args.flag("seed") {
            Some(_) => Some(args.require::<u64>("seed", "integer seed")?),
            None => None,
        },
        shards: match args.flag("shards") {
            Some(_) => Some(args.require::<usize>("shards", "shard count")?),
            None => None,
        },
    };
    let run = run_scenario_with(&s, overrides, Some(&veil_privacy::evaluate_attack))
        .map_err(|e| e.to_string())?;
    if let Some(out_path) = args.flag("trace-out") {
        std::fs::write(out_path, &run.trace_jsonl)
            .map_err(|e| format!("writing {out_path}: {e}"))?;
    }
    let text = if args.has("json") {
        serde_json::to_string_pretty(&run.outcome)?
    } else {
        let mut text = render_outcome(&run.outcome);
        if let Some(out_path) = args.flag("trace-out") {
            let _ = writeln!(text, "  trace: {out_path}");
        }
        let _ = write!(
            text,
            "verdict: {}",
            if run.outcome.passed { "PASS" } else { "FAIL" }
        );
        text
    };
    if run.outcome.passed {
        Ok(text)
    } else {
        Err(Box::new(ScenarioFailure(text)))
    }
}

/// `veil scenario campaign <FILE>` — sweep seeds × shard counts in
/// parallel, print a per-run verdict table, optionally write a JSONL
/// report, exit 3 if any run fails an assertion.
pub fn campaign(args: &Args) -> CmdResult {
    args.check_known(&["seeds", "seed-list", "shard-list", "parallelism", "report"])?;
    let path = args
        .positional(2)
        .ok_or("scenario campaign: expected a scenario file")?;
    let (s, _) = load(Path::new(path)).map_err(flat)?;
    let seeds: Vec<u64> = match args.flag("seed-list") {
        Some(list) => parse_list(list, "seed-list")?,
        None => {
            let n: u64 = args.get_or("seeds", 3, "seed count")?;
            (s.seed..s.seed + n).collect()
        }
    };
    // Shard counts: 0 leaves `shards` unset (the report's `-` column),
    // k >= 1 asks for k shards; the outcomes must not differ.
    let shard_counts: Vec<Option<usize>> = match args.flag("shard-list") {
        Some(list) => parse_list::<usize>(list, "shard-list")?
            .into_iter()
            .map(|k| if k == 0 { None } else { Some(k) })
            .collect(),
        None => vec![None],
    };
    let parallelism = match args.flag("parallelism") {
        Some(_) => Some(args.require::<usize>("parallelism", "worker count")?),
        None => None,
    };
    let spec = CampaignSpec {
        seeds,
        shard_counts,
        parallelism,
    };
    let report =
        run_campaign(&s, &spec, Some(&veil_privacy::evaluate_attack)).map_err(|e| e.to_string())?;
    if let Some(out_path) = args.flag("report") {
        std::fs::write(out_path, report.jsonl()).map_err(|e| format!("writing {out_path}: {e}"))?;
    }
    let mut out = format!(
        "campaign `{}`: {} runs\n",
        report.scenario,
        report.runs.len()
    );
    let _ = writeln!(
        out,
        "  {:>10} {:>7} {:>7} {:>9} {:>7}  verdict",
        "seed", "shards", "disc.", "coverage", "alerts"
    );
    for r in &report.runs {
        let shards = match r.shards {
            Some(k) => k.to_string(),
            None => "-".to_string(),
        };
        let verdict = if r.passed {
            "PASS".to_string()
        } else {
            let failed: Vec<&str> = r
                .checks
                .iter()
                .filter(|c| !c.passed)
                .map(|c| c.key.as_str())
                .collect();
            format!("FAIL ({})", failed.join(", "))
        };
        let _ = writeln!(
            out,
            "  {:>10} {:>7} {:>6.1}% {:>8.1}% {:>7}  {}",
            r.seed,
            shards,
            100.0 * r.snapshot.fraction_disconnected,
            100.0 * r.coverage,
            r.alerts_total,
            verdict,
        );
    }
    let _ = write!(
        out,
        "{}/{} runs passed",
        report.passed_count(),
        report.runs.len()
    );
    if let Some(out_path) = args.flag("report") {
        let _ = write!(out, "; report: {out_path}");
    }
    if report.all_passed() {
        Ok(out)
    } else {
        Err(Box::new(ScenarioFailure(out)))
    }
}

fn parse_list<T: std::str::FromStr>(list: &str, flag: &str) -> Result<Vec<T>, String> {
    list.split(',')
        .map(|item| {
            item.trim()
                .parse()
                .map_err(|_| format!("--{flag}: cannot parse {item:?}"))
        })
        .collect()
}

fn flat(diag: String) -> String {
    diag.trim_end().to_string()
}
