//! The `veil` CLI's byte checks, as one cell table.
//!
//! A row is a seeded workload: a `veil simulate` run or a scenario file.
//! Its columns are the ways of running it that must not change a byte:
//! shards unset, 1, 2 or 8, tracing on or off, each run twice. Across the
//! sixteen runs of a row the raw traces are equal, `--json` is equal once
//! the key that echoes the layout is removed (`config` for `simulate`,
//! `shards` for `scenario run`), and so is `obs analyze` of every trace.
//! The single cells after the table hold the CLI's other byte checks.
//!
//! Every cell writes its artifacts under `target/tmp/cells/<cell>/`, so
//! "identical to the parent" is `cargo test --workspace --release --
//! --include-ignored` at both revisions and a `diff -r` of the two
//! `target/tmp/cells` directories. Rows that are slow in a debug build
//! are `#[ignore]`d; CI runs them with `-- --ignored`.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The workspace root: every `veil` command runs from here.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// An empty artifact directory for `cell`.
fn cell_dir(cell: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("cells")
        .join(cell);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the cell directory");
    dir
}

/// Runs `veil` from the workspace root on the words of `line`, each `{}`
/// replaced by the next of `paths`; asserts that it exits with `code` and
/// returns its stdout.
fn run(line: &str, paths: &[&Path], code: i32) -> String {
    let mut paths = paths.iter();
    let word = |w| match w {
        "{}" => paths.next().expect("a path per {}").display().to_string(),
        w => w.to_string(),
    };
    let args: Vec<String> = line.split_whitespace().map(word).collect();
    let out = Command::new(env!("CARGO_BIN_EXE_veil"))
        .args(&args)
        .current_dir(root())
        .output()
        .expect("spawn veil");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(
        out.status.code(),
        Some(code),
        "veil {}\nstdout:\n{stdout}\nstderr:\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn write(path: &Path, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
}

fn parse(json: &str) -> serde_json::Value {
    serde_json::from_str(json).unwrap_or_else(|e| panic!("not JSON: {e}\n{json}"))
}

/// `json` without its top-level `key`, re-printed.
fn without(json: &str, key: &str) -> String {
    let mut doc = parse(json);
    let serde_json::Value::Map(entries) = &mut doc else {
        panic!("not a JSON object: {json}")
    };
    entries.retain(|(k, _)| k != key);
    serde_json::to_string_pretty(&doc).expect("re-print")
}

/// `veil simulate` at the table's size and seed, with the flags `extra`.
fn simulate(extra: &str) -> String {
    format!("simulate --nodes 300 --horizon 60 --seed 7 --alpha 0.6 {extra}")
}

/// The lossy, latent link that puts messages in flight.
const LOSSY: &str = "--loss 0.1 --mean-latency 0.3";

/// Runs the row `line`, whose `--json` echoes its layout under
/// `layout_key`, in every column; asserts the row's invariants and returns
/// its layout-free `--json` and its trace's `obs analyze --json`. The cell
/// keeps the first column's stdout (`run.json`), the first trace and its
/// analysis.
fn table(cell: &str, line: &str, layout_key: &str) -> (String, String) {
    let dir = cell_dir(cell);
    let column = dir.join("column.jsonl");
    let mut json_ref: Option<String> = None;
    let mut trace_ref: Option<(Vec<u8>, String)> = None;
    for shards in ["", "--shards 1", "--shards 2", "--shards 8"] {
        for traced in [false, true] {
            for rep in [1, 2] {
                let layout = if shards.is_empty() {
                    "shards unset"
                } else {
                    shards
                };
                let at = format!("{cell} ({layout}, traced {traced}, run {rep})");
                let trace_out = if traced { "--trace-out {}" } else { "" };
                let line = format!("{line} --json {shards} {trace_out}");
                let stdout = run(&line, &[&column], 0);
                let json = without(&stdout, layout_key);
                match &json_ref {
                    None => {
                        write(&dir.join("run.json"), &stdout);
                        json_ref = Some(json);
                    }
                    Some(first) => assert_eq!(&json, first, "{at}: --json moved"),
                }
                if !traced {
                    continue;
                }
                let trace = std::fs::read(&column).expect("read the trace");
                let analysis = run("obs analyze {} --json", &[&column], 0);
                match &trace_ref {
                    None => {
                        write(&dir.join("analyze.json"), &analysis);
                        trace_ref = Some((trace, analysis));
                        std::fs::rename(&column, dir.join("trace.jsonl")).expect("keep trace");
                    }
                    Some((first, first_analysis)) => {
                        // Megabytes each: name the files instead of printing them.
                        assert!(
                            &trace == first,
                            "{at}: raw trace moved; compare {} with trace.jsonl",
                            column.display()
                        );
                        assert_eq!(&analysis, first_analysis, "{at}: obs analyze moved");
                    }
                }
            }
        }
    }
    let _ = std::fs::remove_file(&column);
    let (_, analysis) = trace_ref.expect("eight columns traced");
    (json_ref.expect("sixteen columns ran"), analysis)
}

#[test]
#[ignore = "a table row: slow in a debug build"]
fn lossy_latent() {
    table("lossy_latent", &simulate(LOSSY), "config");
}

#[test]
#[ignore = "a table row: slow in a debug build"]
fn blackout() {
    // A `--blackout` is a scenario blackout phase on the windowed executor.
    table("blackout", &simulate("--blackout 20,10,0.5"), "config");
}

#[test]
#[ignore = "a table row: slow in a debug build"]
fn self_heal() {
    // Victims return with empty samplers; the remediation engine reacts
    // at the window barrier.
    let line = simulate("--blackout 20,35,0.5 --lifetime-ratio 1 --self-heal");
    let (_, analysis) = table("self_heal", &line, "config");
    let analysis = parse(&analysis);
    let counts = analysis.get("reaction_counts").and_then(|r| r.as_map());
    let total: u64 = counts
        .expect("reaction counts")
        .iter()
        .filter_map(|(_, n)| n.as_u64())
        .sum();
    assert!(total > 0, "the healing row never reacted");
}

#[test]
#[ignore = "a table row: slow in a debug build"]
fn ideal_health() {
    // The zero-latency ideal link runs on one shard whatever `--shards` says.
    table("ideal_health", &simulate("--health"), "config");
}

#[test]
#[ignore = "a table row: slow in a debug build"]
fn slow() {
    // A loss-free constant-latency link still has messages in flight: it
    // runs tracked exchanges and must not fall back to the ideal link.
    let line = simulate("--health --mean-latency 0.3 --latency-dist constant");
    let (slow, _) = table("slow", &line, "config");
    let ideal = run(&simulate("--health --json"), &[], 0);
    assert_ne!(
        slow,
        without(&ideal, "config"),
        "the slow link ran as ideal"
    );
}

/// Runs the scenario file at `path` (relative to the workspace root) as a
/// row, `next` seeds after its own.
fn scenario(path: &str, next: u64) {
    let (s, _) = veil_core::scenario::parse_scenario_path(&root().join(path))
        .unwrap_or_else(|e| panic!("{path}: {e}"));
    let stem = Path::new(path).file_stem().unwrap().to_string_lossy();
    let seed = s.seed + next;
    let line = format!("scenario run {path} --seed {seed}");
    table(&format!("{stem}.seed{seed}"), &line, "shards");
}

/// Two rows per `scenarios/*.toml`: at its own seed and at the next one,
/// which runs with the slow cells.
macro_rules! library_rows {
    ($($(#[$attr:meta])* $stem:ident,)*) => {
        const LIBRARY: &[&str] = &[$(stringify!($stem)),*];
        mod library {
            $(
                mod $stem {
                    const PATH: &str = concat!("scenarios/", stringify!($stem), ".toml");
                    #[test]
                    $(#[$attr])*
                    fn own_seed() {
                        crate::scenario(PATH, 0);
                    }
                    #[test]
                    #[ignore = "a table row: slow in a debug build"]
                    fn next_seed() {
                        crate::scenario(PATH, 1);
                    }
                }
            )*
        }
    };
}

library_rows! {
    #[ignore = "a table row: slow in a debug build"]
    baseline,
    #[ignore = "a table row: slow in a debug build"]
    blackout_recovery,
    #[ignore = "a table row: slow in a debug build"]
    creeping_loss,
    diurnal_churn,
    #[ignore = "a table row: slow in a debug build"]
    eclipse_pressure,
    #[ignore = "a table row: slow in a debug build"]
    flash_crowd,
    #[ignore = "a table row: slow in a debug build"]
    self_healing_blackout,
}

#[test]
fn every_library_scenario_is_a_row() {
    let mut stems: Vec<String> = std::fs::read_dir(root().join("scenarios"))
        .expect("scenarios/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("toml"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    stems.sort();
    assert_eq!(stems, LIBRARY);
}

#[test]
#[ignore = "a table row: slow in a debug build"]
fn benchmark_heal() {
    // The benchmark's own scenario, read only, at its own seed.
    scenario("benchmarks/veil-benchmark/scenarios/heal.toml", 0);
}

#[test]
fn flight_recorder_retains_16_on_a_sharded_run() {
    // One ring per recorder, however many threads the windows fork onto.
    let dir = cell_dir("flight_recorder");
    let line = "simulate --nodes 300 --horizon 60 --seed 5 --loss 0.1 --shards 2";
    let out = run(&format!("{line} --flight-recorder 16"), &[], 0);
    write(&dir.join("stdout.txt"), &out);
    assert!(out.contains("retained 16 of"), "{out}");
}

#[test]
fn traced_run_matches_the_committed_report() {
    // Seeded, so any delta at all is a behaviour change. After an intended
    // one, re-capture the report with
    //   veil simulate --nodes 200 --horizon 120 --health --trace-out t.jsonl
    //   veil obs analyze t.jsonl --out benchmarks/baseline/ci_trace_report.json
    let dir = cell_dir("traced_run");
    let [trace, report, prom, spans] =
        ["trace.jsonl", "report.json", "metrics.prom", "spans.json"].map(|f| dir.join(f));
    let line = "simulate --nodes 200 --horizon 120 --health --trace-out {} \
                --metrics-out {} --chrome-trace {}";
    run(line, &[&trace, &prom, &spans], 0);
    run("obs validate {}", &[&trace], 0);
    run("obs analyze {} --out {}", &[&trace, &report], 0);
    let baseline = root().join("benchmarks/baseline/ci_trace_report.json");
    assert!(
        read(&baseline) == read(&report),
        "{} differs from {}",
        report.display(),
        baseline.display()
    );
    run("obs diff {} {}", &[&baseline, &report], 0);
    assert!(read(&prom).contains("veil_sim_shuffles_started_total"));
    // Span times are wall-clock: the Chrome trace is checked, not kept.
    assert!(read(&spans).contains("traceEvents"));
    std::fs::remove_file(&spans).expect("remove the Chrome trace");
}

#[test]
fn self_healing_verdict_equals_its_replay() {
    // A run grades from the events it holds and never reads its own trace
    // back, so the file it writes must validate and replay, through the
    // text door, to the verdict the run printed.
    let dir = cell_dir("self_healing_replay");
    let trace = dir.join("trace.jsonl");
    let line = "scenario run scenarios/self_healing_blackout.toml --json --trace-out {}";
    let verdict = run(line, &[&trace], 0);
    run("obs validate {}", &[&trace], 0);
    let report = run("obs analyze {} --json", &[&trace], 0);
    write(&dir.join("verdict.json"), &verdict);
    write(&dir.join("report.json"), &report);
    let (verdict, report) = (parse(&verdict), parse(&report));
    let alerts = report
        .get("alerts")
        .and_then(|a| a.as_seq())
        .expect("alerts");
    let critical = alerts
        .iter()
        .filter(|a| a.get("severity").and_then(|s| s.as_str()) == Some("critical"));
    let count = |key: &str| verdict.get(key).and_then(|v| v.as_u64());
    assert_eq!(count("alerts_total"), Some(alerts.len() as u64));
    assert_eq!(count("critical_alerts"), Some(critical.count() as u64));
    for key in ["shuffle_success_rate", "reaction_counts"] {
        assert_eq!(verdict.get(key), report.get(key), "{key}");
    }
}

#[test]
fn healing_off_is_byte_identical() {
    // `--health` runs the monitor and the remediation plumbing with every
    // reaction off: only the echoed config tells it from a plain run.
    let dir = cell_dir("healing_off");
    let plain = run(&simulate(&format!("{LOSSY} --json")), &[], 0);
    let monitored = run(&simulate(&format!("{LOSSY} --health --json")), &[], 0);
    write(&dir.join("plain.json"), &plain);
    write(&dir.join("monitored.json"), &monitored);
    assert_eq!(without(&plain, "config"), without(&monitored, "config"));
}

#[test]
fn expected_fail_fixture_exits_3() {
    // The fixture asserts on detectors a quiet run never fires, which
    // keeps the assertion gate itself honest.
    let dir = cell_dir("expected_fail");
    let out = run(
        "scenario run tests/fixtures/scenario_expected_fail.toml",
        &[],
        3,
    );
    write(&dir.join("stdout.txt"), &out);
}

#[test]
fn two_seed_campaign_passes() {
    // Two seeds × shards unset and 8, in parallel workers; a failed
    // assertion exits 3.
    let dir = cell_dir("campaign");
    let line = "scenario campaign scenarios/diurnal_churn.toml --seeds 2 --shard-list 0,8 \
                --report {}";
    run(line, &[&dir.join("campaign.jsonl")], 0);
}

#[test]
fn scenario_files_validate() {
    run("scenario validate scenarios", &[], 0);
    // Read only: a schema change must not break the benchmark's scenario.
    run(
        "scenario validate benchmarks/veil-benchmark/scenarios",
        &[],
        0,
    );
}
