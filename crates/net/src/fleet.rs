//! The fleet runner: spawns one veil-node process per overlay node, waits
//! for the run, merges the per-process traces, and diffs the merged trace
//! against a fresh simulated run of the same scenario.
//!
//! The simulator is the behavioral oracle: it shares the scenario's trust
//! graph, overlay configuration, seed, and shuffle-timer phases, and runs
//! under a churn model with availability 1 (real processes never leave).
//! The merged fleet trace and the oracle trace are reduced to
//! [`TraceReport`]s and compared with [`veil_obs::diff_reports`]; the
//! tolerance bands of [`DiffConfig`] absorb what may legitimately differ,
//! which is purely latency discipline at the horizon: a lossy oracle
//! quantizes deliveries to window boundaries, so exchanges it starts late
//! never finish before the cutoff, while the real fleet completes them in
//! milliseconds. Drop *fates* are not a source of slack — both sides key
//! them from the same stateless per-message RNG
//! ([`veil_core::transport::MessageLink`]), so every message both sides
//! transmit shares one fate. A regression — success rate down, failures
//! or drops up beyond the band — fails the run.

use crate::control;
use crate::runtime::NodeSummary;
use crate::scenario::NetScenario;
use crate::telemetry::RTT_METRIC;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Read;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use veil_core::simulation::Simulation;
use veil_obs::{
    analyze_trace, diff_reports, DiffConfig, HistogramSummary, Recorder, TraceDiff, TraceReport,
};

/// Wall-clock margin children get to bind their listeners before the
/// logical clock starts.
const START_DELAY_MS: u64 = 1200;

/// Extra wait beyond the scenario's nominal wall time before the parent
/// declares a child hung and kills it.
const WAIT_MARGIN_MS: u64 = 10_000;

/// What to launch and where to put the artifacts.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The `veil` executable to spawn (`veil net node ...` per child).
    pub exe: PathBuf,
    /// Number of nodes (= processes).
    pub nodes: usize,
    /// Master seed.
    pub seed: u64,
    /// Run length in shuffle periods.
    pub horizon: f64,
    /// Wall milliseconds per shuffle period.
    pub period_ms: u64,
    /// Sender-side drop probability.
    pub loss: f64,
    /// Directory receiving per-node traces, the merged trace, and the
    /// oracle trace (created if missing).
    pub out_dir: PathBuf,
    /// Enable transport telemetry on every node: per-node telemetry
    /// traces and metrics endpoints, the live collector, and the
    /// `fleet_metrics.json` artifact. Off ⇒ children run exactly as
    /// before this option existed.
    pub telemetry: bool,
    /// Render a live per-node status table to stderr at each scrape
    /// (`veil net run --watch`). Requires `telemetry`.
    pub watch: bool,
    /// Interval between live metric scrapes, in milliseconds.
    pub scrape_ms: u64,
}

/// Everything a completed fleet run produced.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Per-node end-of-run counters, indexed by node id.
    pub summaries: Vec<NodeSummary>,
    /// Path of the merged fleet trace.
    pub merged_path: PathBuf,
    /// Path of the oracle's trace.
    pub oracle_path: PathBuf,
    /// Report reduced from the merged fleet trace.
    pub net_report: TraceReport,
    /// Report reduced from the oracle trace.
    pub oracle_report: TraceReport,
    /// The oracle comparison (baseline = oracle, candidate = fleet).
    pub diff: TraceDiff,
    /// Path of the fleet-wide metrics artifact, when telemetry was on.
    pub fleet_metrics_path: Option<PathBuf>,
    /// The fleet-wide metrics themselves, when telemetry was on.
    pub fleet_metrics: Option<FleetMetrics>,
}

impl FleetOutcome {
    /// Transport-level failures across the fleet: rejected handshakes,
    /// malformed payloads, or frame-level poisonings. Zero on a healthy
    /// run.
    pub fn transport_failures(&self) -> u64 {
        self.summaries
            .iter()
            .map(|s| s.handshake_failures + s.decode_errors + s.frame_errors)
            .sum()
    }
}

/// The on-disk description of a fleet — `fleet.json` in the output
/// directory, written before the children spawn. `veil net top` and the
/// CI scrape step use it to find the metrics endpoints of a live run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetManifest {
    /// Number of nodes (= processes).
    pub nodes: usize,
    /// Master seed.
    pub seed: u64,
    /// Run length in shuffle periods.
    pub horizon: f64,
    /// Wall milliseconds per shuffle period.
    pub period_ms: u64,
    /// Sender-side drop probability.
    pub loss: f64,
    /// Unix-ms instant of the fleet's logical t = 0.
    pub start_at_ms: u64,
    /// Overlay listener ports, indexed by node.
    pub ports: Vec<u16>,
    /// Metrics-endpoint ports, indexed by node; empty when telemetry is
    /// off.
    pub metrics_ports: Vec<u16>,
}

/// One node's metrics document, as served on `/metrics.json` and written
/// to `node-N.metrics.json` at process exit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeMetricsDoc {
    /// The node id.
    pub node: u32,
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram name → summary.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

/// The fleet-wide metrics artifact (`fleet_metrics.json`): per-node final
/// snapshots plus summed counter totals.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetMetrics {
    /// Number of nodes.
    pub nodes: usize,
    /// Master seed of the run.
    pub seed: u64,
    /// Successful live scrapes the collector performed during the run.
    pub live_scrapes: u64,
    /// Counters summed across all nodes.
    pub totals: BTreeMap<String, u64>,
    /// Final per-node metrics documents, indexed by node.
    pub per_node: Vec<NodeMetricsDoc>,
}

/// Reads the `fleet.json` manifest from a fleet output directory.
pub fn read_manifest(dir: &Path) -> Result<FleetManifest, String> {
    let path = dir.join("fleet.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Scrapes every node's `/metrics.json` once; one result per node.
pub fn scrape_fleet(
    manifest: &FleetManifest,
    timeout: Duration,
) -> Vec<Result<NodeMetricsDoc, String>> {
    manifest
        .metrics_ports
        .iter()
        .map(|&port| {
            let body = control::scrape(port, "/metrics.json", timeout)?;
            serde_json::from_str::<NodeMetricsDoc>(&body)
                .map_err(|e| format!("port {port}: bad metrics document: {e}"))
        })
        .collect()
}

/// Renders scrape results as an aligned status table — the body of
/// `veil net run --watch` and `veil net top`.
pub fn render_fleet_table(rows: &[Result<NodeMetricsDoc, String>]) -> String {
    let mut out = format!(
        "{:>4} {:>8} {:>8} {:>10} {:>10} {:>5} {:>9} {:>9} {:>6} {:>6} {:>6}\n",
        "node",
        "frm_in",
        "frm_out",
        "bytes_in",
        "bytes_out",
        "pend",
        "p50_us",
        "p99_us",
        "hsfail",
        "decerr",
        "frmerr"
    );
    for (i, row) in rows.iter().enumerate() {
        match row {
            Ok(d) => {
                let c = |k: &str| d.counters.get(k).copied().unwrap_or(0);
                let rtt = d.histograms.get(RTT_METRIC);
                let pct =
                    |p: Option<usize>| p.map(|v| v.to_string()).unwrap_or_else(|| "-".to_string());
                out.push_str(&format!(
                    "{:>4} {:>8} {:>8} {:>10} {:>10} {:>5} {:>9} {:>9} {:>6} {:>6} {:>6}\n",
                    d.node,
                    c("net.frames_in"),
                    c("net.frames_out"),
                    c("net.bytes_in"),
                    c("net.bytes_out"),
                    d.gauges
                        .get("net.pending_exchanges")
                        .copied()
                        .unwrap_or(0.0) as u64,
                    pct(rtt.and_then(|h| h.p50)),
                    pct(rtt.and_then(|h| h.p99)),
                    c("net.handshake_failures"),
                    c("net.decode_errors"),
                    c("net.frame_errors"),
                ));
            }
            Err(e) => out.push_str(&format!("{i:>4} unreachable: {e}\n")),
        }
    }
    out
}

/// Sums per-node counters into fleet totals.
fn sum_counters(docs: &[NodeMetricsDoc]) -> BTreeMap<String, u64> {
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for d in docs {
        for (name, value) in &d.counters {
            *totals.entry(name.clone()).or_insert(0) += value;
        }
    }
    totals
}

/// The collector loop: polls the children until every one has exited (or
/// the deadline kills the stragglers), scraping the live metrics
/// endpoints at the configured interval in between. Returns the number
/// of successful live scrapes and the first child failure, if any.
fn collect_children(
    fc: &FleetConfig,
    manifest: &FleetManifest,
    children: &mut [(u32, Child)],
    deadline: Instant,
) -> (u64, Option<String>) {
    let scrape_every = Duration::from_millis(fc.scrape_ms.max(50));
    let scrape_timeout = Duration::from_millis(500);
    let mut next_scrape = Instant::now() + scrape_every;
    let mut live_scrapes = 0u64;
    let mut first_err: Option<String> = None;
    let mut exited = vec![false; children.len()];
    loop {
        let mut all_done = true;
        for (i, (id, child)) in children.iter_mut().enumerate() {
            if exited[i] {
                continue;
            }
            match child.try_wait() {
                Ok(Some(status)) => {
                    exited[i] = true;
                    if !status.success() {
                        first_err.get_or_insert(format!("node {id} exited with {status}"));
                    }
                }
                Ok(None) => all_done = false,
                Err(e) => {
                    exited[i] = true;
                    first_err.get_or_insert(format!("node {id}: wait failed: {e}"));
                }
            }
        }
        if all_done {
            break;
        }
        if Instant::now() >= deadline {
            for (i, (id, child)) in children.iter_mut().enumerate() {
                if !exited[i] {
                    let _ = child.kill();
                    let _ = child.wait();
                    first_err
                        .get_or_insert(format!("node {id} overran its deadline and was killed"));
                }
            }
            break;
        }
        if fc.telemetry && Instant::now() >= next_scrape {
            let rows = scrape_fleet(manifest, scrape_timeout);
            live_scrapes += rows.iter().filter(|r| r.is_ok()).count() as u64;
            if fc.watch {
                eprintln!("{}", render_fleet_table(&rows));
            }
            next_scrape = Instant::now() + scrape_every;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    (live_scrapes, first_err)
}

/// Reserves `n` distinct free localhost ports by binding ephemeral
/// listeners and releasing them. The children re-bind moments later;
/// nothing else is handed these ports in between on a quiet CI host.
fn allocate_ports(n: usize) -> Result<Vec<u16>, String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("reserve port: {e}")))
        .collect::<Result<_, _>>()?;
    listeners
        .iter()
        .map(|l| {
            l.local_addr()
                .map(|a| a.port())
                .map_err(|e| format!("reserve port: {e}"))
        })
        .collect()
}

fn unix_now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Runs the simulator oracle for `sc` and returns its JSONL trace. The
/// recorder is attached before the run starts, so the trace holds the
/// t = 0 pseudonym mints.
pub fn oracle_trace(sc: &NetScenario) -> Result<String, String> {
    let rec = Recorder::full();
    let mut sim = Simulation::new(sc.trust_graph(), sc.overlay(), sc.churn(), sc.seed)
        .map_err(|e| format!("oracle: {e}"))?;
    sim.set_recorder(rec.clone());
    sim.run_until(sc.horizon);
    Ok(rec.events_jsonl())
}

/// Spawns the fleet, merges its traces, runs the oracle, and diffs.
/// With telemetry on, a collector polls every node's metrics endpoint
/// while the run is live and a `fleet_metrics.json` artifact is written
/// from the final per-node snapshots.
pub fn run_fleet(fc: &FleetConfig) -> Result<FleetOutcome, String> {
    // One listener port per node, plus one metrics port each when
    // telemetry is on.
    let want = if fc.telemetry { fc.nodes * 2 } else { fc.nodes };
    let mut all_ports = allocate_ports(want)?;
    let metrics_ports: Vec<u16> = all_ports.split_off(fc.nodes);
    let sc = NetScenario {
        nodes: fc.nodes,
        seed: fc.seed,
        horizon: fc.horizon,
        period_ms: fc.period_ms,
        loss: fc.loss,
        ports: all_ports,
        start_at_ms: unix_now_ms() + START_DELAY_MS,
    };
    sc.validate()?;
    std::fs::create_dir_all(&fc.out_dir)
        .map_err(|e| format!("create {}: {e}", fc.out_dir.display()))?;
    let manifest = FleetManifest {
        nodes: fc.nodes,
        seed: fc.seed,
        horizon: fc.horizon,
        period_ms: fc.period_ms,
        loss: fc.loss,
        start_at_ms: sc.start_at_ms,
        ports: sc.ports.clone(),
        metrics_ports,
    };
    let manifest_json =
        serde_json::to_string(&manifest).map_err(|e| format!("encode manifest: {e}"))?;
    write_text(&fc.out_dir.join("fleet.json"), &manifest_json)?;
    let ports_csv = sc
        .ports
        .iter()
        .map(|p| p.to_string())
        .collect::<Vec<_>>()
        .join(",");

    let mut children: Vec<(u32, Child)> = Vec::new();
    for id in 0..fc.nodes as u32 {
        let trace_path = fc.out_dir.join(format!("node-{id}.jsonl"));
        let mut args: Vec<String> = [
            "net",
            "node",
            "--id",
            &id.to_string(),
            "--nodes",
            &fc.nodes.to_string(),
            "--seed",
            &fc.seed.to_string(),
            "--horizon",
            &fc.horizon.to_string(),
            "--period-ms",
            &fc.period_ms.to_string(),
            "--loss",
            &fc.loss.to_string(),
            "--ports",
            &ports_csv,
            "--start-at",
            &sc.start_at_ms.to_string(),
            "--trace-out",
            &trace_path.display().to_string(),
        ]
        .map(str::to_string)
        .to_vec();
        if fc.telemetry {
            let tele_path = fc.out_dir.join(format!("node-{id}.telemetry.jsonl"));
            let metrics_path = fc.out_dir.join(format!("node-{id}.metrics.json"));
            args.extend([
                "--metrics-port".to_string(),
                manifest.metrics_ports[id as usize].to_string(),
                "--telemetry-out".to_string(),
                tele_path.display().to_string(),
                "--metrics-out".to_string(),
                metrics_path.display().to_string(),
            ]);
        }
        let child = Command::new(&fc.exe)
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn node {id}: {e}"))?;
        children.push((id, child));
    }

    // Nominal run: start delay + (horizon + linger) periods, then margin.
    let run_ms = START_DELAY_MS + ((fc.horizon + 2.0) * fc.period_ms as f64).ceil() as u64;
    let deadline = Instant::now() + Duration::from_millis(run_ms + WAIT_MARGIN_MS);
    let (live_scrapes, mut first_err) = collect_children(fc, &manifest, &mut children, deadline);

    let mut summaries: Vec<NodeSummary> = Vec::new();
    for (id, mut child) in children {
        let mut stdout = String::new();
        if let Some(mut pipe) = child.stdout.take() {
            let _ = pipe.read_to_string(&mut stdout);
        }
        if first_err.is_some() {
            continue;
        }
        let parsed = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| format!("node {id}: no summary on stdout"))
            .and_then(|line| {
                serde_json::from_str::<NodeSummary>(line)
                    .map_err(|e| format!("node {id}: bad summary: {e}"))
            });
        match parsed {
            Ok(summary) => summaries.push(summary),
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    summaries.sort_by_key(|s| s.node);

    let traces: Vec<(String, String)> = (0..fc.nodes as u32)
        .map(|id| {
            let path = fc.out_dir.join(format!("node-{id}.jsonl"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            Ok((path.display().to_string(), text))
        })
        .collect::<Result<_, String>>()?;
    let refs: Vec<(&str, &str)> = traces
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect();
    let merged = veil_obs::merge_traces(&refs)?;
    let merged_path = fc.out_dir.join("merged.jsonl");
    write_text(&merged_path, &merged)?;

    let oracle = oracle_trace(&sc)?;
    let oracle_path = fc.out_dir.join("oracle.jsonl");
    write_text(&oracle_path, &oracle)?;

    let net_report = analyze_trace(&merged).map_err(|e| format!("merged trace: {e}"))?;
    let oracle_report = analyze_trace(&oracle).map_err(|e| format!("oracle trace: {e}"))?;
    let diff = diff_reports(&oracle_report, &net_report, DiffConfig::default());

    let (fleet_metrics_path, fleet_metrics) = if fc.telemetry {
        let per_node: Vec<NodeMetricsDoc> = (0..fc.nodes as u32)
            .map(|id| {
                let path = fc.out_dir.join(format!("node-{id}.metrics.json"));
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                serde_json::from_str::<NodeMetricsDoc>(&text)
                    .map_err(|e| format!("parse {}: {e}", path.display()))
            })
            .collect::<Result<_, String>>()?;
        let fm = FleetMetrics {
            nodes: fc.nodes,
            seed: fc.seed,
            live_scrapes,
            totals: sum_counters(&per_node),
            per_node,
        };
        let path = fc.out_dir.join("fleet_metrics.json");
        let json = serde_json::to_string(&fm).map_err(|e| format!("encode fleet metrics: {e}"))?;
        write_text(&path, &json)?;
        (Some(path), Some(fm))
    } else {
        (None, None)
    };

    Ok(FleetOutcome {
        summaries,
        merged_path,
        oracle_path,
        net_report,
        oracle_report,
        diff,
        fleet_metrics_path,
        fleet_metrics,
    })
}

fn write_text(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle of a lossless scenario is a clean ideal run: every
    /// shuffle completes, nothing is dropped, and the initial population
    /// equals the node count (availability 1 ⇒ nobody ever leaves).
    #[test]
    fn lossless_oracle_is_clean() {
        let sc = NetScenario {
            nodes: 8,
            seed: 42,
            horizon: 6.0,
            period_ms: 120,
            loss: 0.0,
            ports: (0..8).map(|i| 21000 + i).collect(),
            start_at_ms: 0,
        };
        let trace = oracle_trace(&sc).unwrap();
        let report = analyze_trace(&trace).unwrap();
        assert_eq!(report.initial_online, 8);
        assert_eq!(report.final_online, 8);
        assert_eq!(report.total("sim.shuffles_started"), 8 * 6);
        assert_eq!(report.total("sim.shuffles_completed"), 8 * 6);
        assert_eq!(report.total("sim.messages_dropped"), 0);
        assert_eq!(report.total("sim.shuffle_failures"), 0);
        // The oracle of the same scenario is deterministic.
        assert_eq!(oracle_trace(&sc).unwrap(), trace);
    }

    #[test]
    fn manifest_and_metrics_documents_round_trip() {
        let manifest = FleetManifest {
            nodes: 2,
            seed: 7,
            horizon: 4.0,
            period_ms: 100,
            loss: 0.1,
            start_at_ms: 123,
            ports: vec![21000, 21001],
            metrics_ports: vec![22000, 22001],
        };
        let json = serde_json::to_string(&manifest).unwrap();
        let back: FleetManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.metrics_ports, manifest.metrics_ports);
        assert_eq!(back.start_at_ms, manifest.start_at_ms);

        // A scraped document (with its leading "node" key) parses, sums,
        // and renders.
        let mut reg = veil_obs::MetricsRegistry::new();
        reg.count("net.frames_in", 5);
        reg.count("net.bytes_in", 640);
        reg.gauge("net.pending_exchanges", 2.0);
        reg.observe(RTT_METRIC, 800);
        let doc_json = crate::telemetry::metrics_json(1, &reg.snapshot());
        let doc: NodeMetricsDoc = serde_json::from_str(&doc_json).unwrap();
        assert_eq!(doc.node, 1);
        assert_eq!(doc.counters.get("net.frames_in"), Some(&5));
        let totals = sum_counters(std::slice::from_ref(&doc));
        assert_eq!(totals.get("net.bytes_in"), Some(&640));
        let table = render_fleet_table(&[Ok(doc), Err("connect refused".to_string())]);
        assert!(table.contains("frm_in"), "{table}");
        assert!(table.contains("800"), "{table}");
        assert!(table.contains("unreachable"), "{table}");
    }
}
