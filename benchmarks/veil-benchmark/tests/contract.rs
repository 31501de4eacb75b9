//! Pins what the binaries emit against `BENCHMARK.json`: every workload
//! and every metric named there comes out of a `--smoke` run under that
//! name with that unit, and nothing the contract forbids is in the file.

use std::process::Command;
use veil_benchmark::spec::{
    contract_path, Contract, MetricSpec, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};

fn contract() -> Contract {
    Contract::load(&contract_path()).expect("BENCHMARK.json loads")
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn pairs(specs: &[MetricSpec]) -> Vec<(&str, &str)> {
    specs
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect()
}

#[test]
fn contract_lists_exactly_what_the_code_emits() {
    let c = contract();
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(c.workloads, names);
    assert_eq!(pairs(&c.end_to_end), END_TO_END.to_vec());
    assert_eq!(pairs(&c.per_layer), PER_LAYER.to_vec());
    assert_eq!(c.run_seconds, RUN_SECONDS);
}

#[test]
fn contract_is_within_the_gates_limits() {
    let c = contract();
    assert!((2..=8).contains(&c.workloads.len()));
    assert!((1..=16).contains(&c.end_to_end.len()));
    assert!((1..=128).contains(&c.per_layer.len()));
    let mut seen = std::collections::BTreeSet::new();
    for name in c
        .workloads
        .iter()
        .chain(c.end_to_end.iter().chain(&c.per_layer).map(|m| &m.name))
    {
        assert!(is_name(name), "bad name `{name}`");
        assert!(seen.insert(name.clone()), "`{name}` is used twice");
    }
    for m in c.end_to_end.iter().chain(&c.per_layer) {
        assert!(is_unit(&m.unit), "bad unit `{}` on `{}`", m.unit, m.name);
    }
    for m in &c.end_to_end {
        let bound = m
            .bound
            .unwrap_or_else(|| panic!("`{}` has no bound", m.name));
        assert!(bound > 0.0 && bound <= 0.25, "`{}` bound {bound}", m.name);
    }
    assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
    let setup = c
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
    let widest = c
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    assert!((1.0..=60.0).contains(&c.run_seconds) && c.run_seconds.fract() == 0.0);
}

#[test]
fn no_workload_spawns_more_load_threads_than_cores() {
    // The suite is sized for two cores; on a smaller host the two-shard
    // and two-node workloads still start two threads.
    let cores = veil_benchmark::sys::nproc().max(2);
    for w in &WORKLOADS {
        for smoke in [false, true] {
            assert!(w.load_threads(smoke) <= cores, "{}", w.name);
        }
    }
}

/// Runs one binary on one workload at smoke size and checks its last line.
fn smoke(exe: &str, workload: &str, trace: &str, declared: &[(&str, &str)]) {
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("binary starts");
    assert!(
        output.status.success(),
        "{workload}: exit {:?}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let doc: serde_json::Value = serde_json::from_str(last).expect("result line is JSON");
    let keys: Vec<&str> = doc
        .as_map()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(0));
    assert!(doc.get("attempted").and_then(|v| v.as_u64()) >= Some(1));
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_map())
        .expect("metrics");
    let emitted: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(k, v)| {
            (
                k.as_str(),
                v.get("unit").and_then(|u| u.as_str()).unwrap_or(""),
            )
        })
        .collect();
    assert_eq!(emitted, declared, "{workload} --trace {trace}");
    for (name, m) in metrics {
        let value = m.get("value").and_then(|v| v.as_f64()).expect("a number");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        if trace == "0" {
            assert!(value > 0.0, "{workload}: end-to-end {name} = {value}");
        }
    }
    if trace == "1" {
        let shares: f64 = metrics
            .iter()
            .filter(|(k, _)| k.starts_with("est_share."))
            .filter_map(|(_, v)| v.get("value").and_then(|v| v.as_f64()))
            .sum();
        assert!(
            (shares - 1.0).abs() < 1e-9,
            "{workload}: shares sum to {shares}"
        );
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in &WORKLOADS {
        smoke(
            env!("CARGO_BIN_EXE_veil-benchmark"),
            w.name,
            "0",
            &END_TO_END,
        );
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    for w in &WORKLOADS {
        smoke(
            env!("CARGO_BIN_EXE_veil-benchmark-layers"),
            w.name,
            "1",
            &PER_LAYER,
        );
    }
}
