//! `run --all`: every workload, each run in a process of its own (so
//! `VmHWM` is per workload), collected into one result set, with the
//! checks that need more than one run.

use crate::cli::Flags;
use crate::report::Check;
use crate::spec::{DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, SMOKE_SECONDS, WORKLOADS};
use crate::{stats, sys};
use serde_json::Value;
use std::process::{Command, Stdio};

/// The parsed last two lines of one child run.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, unit, value)` in the order the child printed them.
    metrics: Vec<(String, String, f64)>,
    exact: Value,
    checks: Vec<Check>,
}

fn parse_child(stdout: &str) -> Result<ChildRun, String> {
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let result: Value = serde_json::from_str(lines.next().ok_or("no output")?)
        .map_err(|e| format!("result line: {e}"))?;
    let info: Value = serde_json::from_str(lines.next().ok_or("no info line")?)
        .map_err(|e| format!("info line: {e}"))?;
    let metrics = result
        .get("metrics")
        .and_then(Value::as_map)
        .ok_or("result line without `metrics`")?
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            (name.clone(), unit.to_string(), value)
        })
        .collect();
    let checks = info
        .get("checks")
        .and_then(Value::as_seq)
        .unwrap_or(&[])
        .iter()
        .map(|c| Check {
            name: c.get("name").and_then(Value::as_str).unwrap_or("").into(),
            passed: c.get("passed").and_then(Value::as_bool).unwrap_or(false),
            detail: c.get("detail").and_then(Value::as_str).unwrap_or("").into(),
        })
        .collect();
    Ok(ChildRun {
        correct: result.get("correct").and_then(Value::as_bool) == Some(true),
        attempted: result.get("attempted").and_then(Value::as_u64).unwrap_or(0),
        failed: result.get("failed").and_then(Value::as_u64).unwrap_or(0),
        metrics,
        exact: info.get("exact").cloned().unwrap_or(Value::Null),
        checks,
    })
}

/// One workload's runs, merged: every metric with all its values.
struct Row {
    workload: &'static str,
    runs: Vec<ChildRun>,
}

impl Row {
    fn values(&self, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| r.metrics.iter().find(|m| m.0 == metric).map(|m| m.2))
            .collect()
    }

    fn median(&self, metric: &str) -> Option<f64> {
        let v = self.values(metric);
        (!v.is_empty()).then(|| stats::median(&v))
    }

    fn to_json(&self, suite_checks: &[Check]) -> Value {
        let first = &self.runs[0];
        let metrics = first
            .metrics
            .iter()
            .map(|(name, unit, _)| {
                let values = self.values(name);
                (
                    name.clone(),
                    Value::Map(vec![
                        ("unit".into(), Value::Str(unit.clone())),
                        ("median".into(), Value::F64(stats::median(&values))),
                        (
                            "values".into(),
                            Value::Seq(values.into_iter().map(Value::F64).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        let checks = self
            .runs
            .iter()
            .flat_map(|r| &r.checks)
            .chain(suite_checks)
            .filter(|c| !c.passed)
            .map(|c| Value::Str(format!("{}: {}", c.name, c.detail)))
            .collect();
        Value::Map(vec![
            ("workload".into(), Value::Str(self.workload.into())),
            (
                "correct".into(),
                Value::Bool(
                    self.runs.iter().all(|r| r.correct) && suite_checks.iter().all(|c| c.passed),
                ),
            ),
            (
                "attempted".into(),
                Value::U64(self.runs.iter().map(|r| r.attempted).sum()),
            ),
            (
                "failed".into(),
                Value::U64(self.runs.iter().map(|r| r.failed).sum()),
            ),
            ("metrics".into(), Value::Map(metrics)),
            ("exact".into(), first.exact.clone()),
            ("failed_checks".into(), Value::Seq(checks)),
        ])
    }
}

fn spawn(exe: &std::path::Path, args: &[String]) -> Result<ChildRun, String> {
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run {}: {e}", exe.display()))?;
    parse_child(&String::from_utf8_lossy(&output.stdout))
        .map_err(|e| format!("{} {}: {e}", exe.display(), args.join(" ")))
}

fn commit() -> String {
    Command::new("git")
        .args([
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "rev-parse",
            "--short",
            "HEAD",
        ])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn write_set(path: &str, meta: &Value, rows: &[Value], derived: &Value) -> Result<(), String> {
    let set = Value::Map(vec![
        ("meta".into(), meta.clone()),
        ("workloads".into(), Value::Seq(rows.to_vec())),
        ("derived".into(), derived.clone()),
    ]);
    let text = serde_json::to_string_pretty(&set).expect("result set serializes");
    std::fs::write(path, text + "\n").map_err(|e| format!("write {path}: {e}"))
}

/// Checks that need every run of a pass, one list per row: exact values
/// repeat across runs of one seed; both shard counts compute the same
/// overlay.
fn cross_checks(rows: &[Row]) -> Vec<Vec<Check>> {
    let mut checks: Vec<Vec<Check>> = rows
        .iter()
        .map(|row| {
            let first = &row.runs[0].exact;
            (row.runs.len() > 1)
                .then(|| Check {
                    name: "exact_values_repeat".into(),
                    passed: row.runs.iter().all(|r| r.exact == *first),
                    detail: format!(
                        "count.* and digests over {} runs of one seed",
                        row.runs.len()
                    ),
                })
                .into_iter()
                .collect()
        })
        .collect();
    let digest = |row: &Row| row.runs[0].exact.get("warm_snapshot_digest").cloned();
    let at = |name: &str| rows.iter().position(|r| r.workload == name);
    if let (Some(i1), Some(i2)) = (at("faulty_s1"), at("faulty_s2")) {
        let (s1, s2) = (digest(&rows[i1]), digest(&rows[i2]));
        checks[i2].push(Check {
            name: "snapshot_digest_equals_faulty_s1".into(),
            passed: s1.is_some() && s1 == s2,
            detail: format!("faulty_s1 {s1:?}, faulty_s2 {s2:?}"),
        });
    }
    checks
}

/// What every child run of a suite is started with.
struct SuiteArgs {
    seed: u64,
    reps: u64,
    seconds: f64,
    smoke: bool,
}

impl SuiteArgs {
    fn from_flags(flags: &Flags) -> Result<Self, String> {
        let smoke = flags.has("smoke");
        Ok(Self {
            seed: flags.number("seed", DEFAULT_SEED)?,
            reps: flags.number("reps", 2u64)?.max(1),
            seconds: flags.number("seconds", if smoke { SMOKE_SECONDS } else { RUN_SECONDS })?,
            smoke,
        })
    }
}

fn run_pass(
    exe: &std::path::Path,
    declared: &[(&str, &str)],
    trace: bool,
    suite: &SuiteArgs,
) -> Result<Vec<Row>, String> {
    let SuiteArgs {
        seed,
        reps,
        seconds,
        smoke,
    } = *suite;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for rep in 0..reps {
            eprintln!(
                "{} {} run {}/{reps}",
                if trace { "layers" } else { "plain " },
                w.name,
                rep + 1
            );
            let mut args: Vec<String> = [
                "--workload",
                w.name,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ]
            .map(str::to_string)
            .to_vec();
            if smoke {
                args.push("--smoke".into());
            }
            let run = spawn(exe, &args)?;
            for &(name, unit) in declared {
                let got = run.metrics.iter().find(|m| m.0 == name);
                if got.map(|m| m.1.as_str()) != Some(unit) {
                    return Err(format!("{}: metric `{name}` [{unit}] missing", w.name));
                }
            }
            runs.push(run);
        }
        rows.push(Row {
            workload: w.name,
            runs,
        });
    }
    Ok(rows)
}

fn finish_pass(rows: &[Row]) -> (Vec<Value>, bool) {
    let mut all_ok = true;
    let json = rows
        .iter()
        .zip(cross_checks(rows))
        .map(|(row, checks)| {
            let v = row.to_json(&checks);
            all_ok &= v.get("correct").and_then(Value::as_bool) == Some(true);
            v
        })
        .collect();
    (json, all_ok)
}

/// `run --all [--seed N] [--reps R] [--seconds S] [--smoke] [--layers]
/// [--out FILE] [--layers-out FILE]`. Prints one JSON object per workload
/// (every metric by name, with its unit) and returns whether every check
/// passed.
pub fn run_all(flags: &Flags) -> Result<bool, String> {
    flags.only(&[
        "all",
        "seed",
        "reps",
        "seconds",
        "smoke",
        "layers",
        "out",
        "layers-out",
    ])?;
    if !flags.has("all") {
        return Err(
            "run: only `run --all` is supported; one workload is `--workload <name>`".into(),
        );
    }
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let suite = SuiteArgs::from_flags(flags)?;
    let meta = Value::Map(vec![
        ("commit".into(), Value::Str(commit())),
        ("seed".into(), Value::U64(suite.seed)),
        ("reps".into(), Value::U64(suite.reps)),
        ("seconds".into(), Value::F64(suite.seconds)),
        ("smoke".into(), Value::Bool(suite.smoke)),
        ("nproc".into(), Value::U64(sys::nproc() as u64)),
        (
            "available_cores".into(),
            Value::U64(veil_par::effective_parallelism(None) as u64),
        ),
    ]);

    let plain = run_pass(&exe, &END_TO_END, false, &suite)?;
    let (plain_json, mut ok) = finish_pass(&plain);
    for row in &plain_json {
        println!("{}", serde_json::to_string(row).expect("row serializes"));
    }

    let mut derived = Vec::new();
    let ratio = |metric: &str, a: &str, b: &str| -> Option<f64> {
        let of = |w: &str| plain.iter().find(|r| r.workload == w)?.median(metric);
        Some(of(a)? / of(b)?)
    };
    // Both ratios have faulty_s1 as their base.
    if let Some(r) = ratio("us_per_event_p50", "faulty_s1", "faulty_s2") {
        derived.push(("exec.speedup_vs_s1".to_string(), Value::F64(r)));
    }
    if let Some(r) = ratio("events_per_cpu_s", "faulty_s1", "faulty_s2") {
        derived.push(("exec.cpu_ratio_vs_s1".to_string(), Value::F64(r)));
    }
    if let Some(r) = ratio("us_per_event_p50", "ideal_20k", "ideal_10k") {
        derived.push(("scale.us_per_event_20k_vs_10k".to_string(), Value::F64(r)));
    }

    if flags.has("layers") {
        let layers_exe = exe.with_file_name("veil-benchmark-layers");
        let layers = run_pass(&layers_exe, &PER_LAYER, true, &suite)?;
        let (layers_json, layers_ok) = finish_pass(&layers);
        ok &= layers_ok;
        for row in &layers_json {
            println!("{}", serde_json::to_string(row).expect("row serializes"));
        }
        // What recording spans costs: the traced run's own per-event
        // median against the plain run's, the plain run being the base.
        let mut overhead = Vec::new();
        for (p, l) in plain.iter().zip(&layers) {
            if let (Some(base), Some(traced)) = (
                p.median("us_per_event_p50"),
                l.median("trace.us_per_event_p50"),
            ) {
                overhead.push((
                    p.workload.to_string(),
                    Value::F64((traced / base - 1.0) * 100.0),
                ));
            }
        }
        derived.push(("trace_overhead_pct".to_string(), Value::Map(overhead)));
        if let Some(path) = flags.get("layers-out") {
            write_set(path, &meta, &layers_json, &Value::Map(derived.clone()))?;
        }
    }
    let derived = Value::Map(derived);
    println!(
        "{}",
        serde_json::to_string(&Value::Map(vec![("derived".into(), derived.clone())]))
            .expect("derived serializes")
    );
    if let Some(path) = flags.get("out") {
        write_set(path, &meta, &plain_json, &derived)?;
    }
    Ok(ok)
}
