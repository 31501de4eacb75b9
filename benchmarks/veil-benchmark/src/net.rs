//! The `net_pair` workload: two `run_node_with` nodes in this process,
//! talking over loopback TCP with telemetry on, paced by the runtime's
//! own seeded timer grid (an open loop: one exchange per node per period
//! whether or not the previous one has come back).
//!
//! Loopback is not a real link: the round trip measured here is the
//! runtime's poll loop, framing and JSON, never propagation delay.

use crate::report::Outcome;
use crate::spans::Tracer;
use crate::spec::NetSpec;
use crate::sys;
use serde_json::Value;
use std::net::TcpListener;
use std::time::{SystemTime, UNIX_EPOCH};
use veil_net::{oracle_trace, run_node_with, NetScenario, NodeOptions, NodeOutput, RTT_METRIC};
use veil_obs::{analyze_trace, diff_reports, merge_traces, DiffConfig};

/// Wall-clock lead between spawning the node threads and logical t = 0,
/// so both listeners are bound before the first dial.
pub const START_LEAD_MS: u64 = 50;
/// Oracle-diff metrics a wall-clock stall moves on its own.
const STALL_METRICS: [&str; 2] = ["sim.shuffle_timeouts", "sim.shuffle_retries"];
/// Exchanges the pair may still have in flight when the horizon cuts
/// them off (one per node).
pub const IN_FLIGHT_ALLOWANCE: u64 = 2;

fn unix_now_s() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs_f64()
}

/// Two free loopback ports: bind ephemeral listeners, note the ports,
/// release them for the nodes to re-bind.
fn reserve_ports() -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral loopback port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("bound address").port())
        .collect()
}

pub struct NetRun {
    pub scenario: NetScenario,
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub nodes: Vec<NodeOutput>,
    pub outcome: Outcome,
}

impl NetRun {
    /// Sum of a summary counter over both nodes.
    pub fn total(&self, f: impl Fn(&veil_net::NodeSummary) -> u64) -> u64 {
        self.nodes.iter().map(|n| f(&n.summary)).sum()
    }

    /// Sum of a telemetry counter over both nodes.
    pub fn telemetry_total(&self, name: &str) -> u64 {
        self.nodes
            .iter()
            .filter_map(|n| n.metrics.as_ref()?.counters.get(name))
            .sum()
    }

    /// Mean over both nodes of one quantile of the RTT histogram, in µs.
    pub fn rtt_us(&self, pick: impl Fn(&veil_obs::HistogramSummary) -> Option<usize>) -> f64 {
        let values: Vec<f64> = self
            .nodes
            .iter()
            .filter_map(|n| pick(n.metrics.as_ref()?.histograms.get(RTT_METRIC)?))
            .map(|v| v as f64)
            .collect();
        values.iter().sum::<f64>() / values.len().max(1) as f64
    }
}

/// Runs the pair for `seconds` of wall clock and fills in the end-to-end
/// metrics.
pub fn run(spec: NetSpec, seed: u64, seconds: f64, tr: &mut Tracer) -> NetRun {
    let mut out = Outcome::default();
    let horizon = (seconds * 1000.0 / spec.period_ms as f64).round().max(1.0);

    // Set-up ends at logical t = 0: ports reserved, threads spawned,
    // listeners bound, start barrier passed.
    let setup_started = unix_now_s();
    let sc = NetScenario {
        nodes: 2,
        seed,
        horizon,
        period_ms: spec.period_ms,
        loss: 0.0,
        ports: reserve_ports(),
        start_at_ms: (unix_now_s() * 1000.0) as u64 + START_LEAD_MS,
    };
    sc.validate().expect("net scenario is valid");
    let opts = NodeOptions {
        telemetry: true,
        metrics_port: None,
    };

    let (ran, wall_s) = tr.scope("steady.run_nodes", |_| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2u32)
                .map(|id| {
                    let (sc, opts) = (&sc, &opts);
                    scope.spawn(move || {
                        let node = run_node_with(sc, id, opts).expect("node runs");
                        // The thread did nothing but run the node.
                        (node, sys::thread_cpu_seconds())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("node thread does not panic"))
                .collect::<Vec<(NodeOutput, f64)>>()
        })
    });
    let cpu_s: f64 = ran.iter().map(|(_, cpu)| cpu).sum();
    let nodes: Vec<NodeOutput> = ran.into_iter().map(|(node, _)| node).collect();
    let setup_s = sc.start_at_ms as f64 / 1000.0 - setup_started;

    let mut run = NetRun {
        scenario: sc,
        setup_s,
        wall_s,
        cpu_s,
        nodes,
        outcome: Outcome::default(),
    };
    let started = run.total(|s| s.shuffles_started);
    let completed = run.total(|s| s.shuffles_completed);
    let failures = run.total(|s| s.shuffle_failures);
    let wire_errors =
        run.total(|s| s.handshake_failures) + run.total(|s| s.decode_errors + s.frame_errors);

    // Every exchange is an operation; one that was abandoned or hit a
    // handshake, decode or frame error failed.
    out.attempted = started;
    out.failed = failures + wire_errors;
    // In flight at the horizon: what started in the last period, and
    // what is waiting out a retransmission.
    let in_flight = started.saturating_sub(completed + failures);
    let retries = run.total(|s| s.shuffle_retries);
    out.check(
        "in_flight_at_horizon",
        in_flight <= IN_FLIGHT_ALLOWANCE + retries,
        format!("{started} started, {completed} completed, {failures} failed, {retries} retried"),
    );
    out.check(
        "generator_kept_its_schedule",
        started == 2 * horizon as u64,
        format!("{started} exchanges started for {} due", 2 * horizon as u64),
    );

    // The simulator is the oracle: the merged fleet trace may not regress
    // against a simulated run of the same scenario.
    let (verdict, _) = tr.scope("check.oracle", |_| {
        let traces = [
            ("node-0", run.nodes[0].trace.as_str()),
            ("node-1", run.nodes[1].trace.as_str()),
        ];
        let merged = analyze_trace(&merge_traces(&traces)?)?;
        let oracle = analyze_trace(&oracle_trace(&run.scenario)?)?;
        Ok::<_, String>(diff_reports(&oracle, &merged, DiffConfig::default()))
    });
    match verdict {
        Ok(diff) => {
            // A thread stalled for three periods on a shared box times an
            // exchange out and retransmits it; the simulator has no wall
            // clock to stall. That is the host's doing, is counted
            // (`count.timeouts`), and is not a wrong result.
            let wrong: Vec<&String> = diff
                .regressions
                .iter()
                .filter(|m| !STALL_METRICS.contains(&m.as_str()))
                .collect();
            out.check(
                "no_regression_against_oracle",
                wrong.is_empty(),
                format!("regressed: {wrong:?}"),
            );
        }
        Err(e) => out.check("no_regression_against_oracle", false, e),
    }

    out.exact("count.shuffles", Value::U64(started));

    out.metric("setup_s", setup_s);
    // An event here is one exchange; what it costs in wall clock is its
    // round trip. The core-seconds it is charged are the ones the two node
    // threads hold — a core each for the length of the run — which makes
    // this the delivered rate per node. The CPU the threads burn is 80
    // wake-ups from a 1 ms sleep an exchange, moves by a quarter with the
    // host's idle path for tens of minutes at a time, and is no gate: the
    // layer pass reports it (`net.runtime.cpu_us_per_exchange`).
    out.metric("us_per_event_p50", run.rtt_us(|h| h.p50));
    out.metric("events_per_cpu_s", completed as f64 / (2.0 * wall_s));
    out.metric("peak_rss_mb", sys::peak_rss_mib());
    let exchanging = run
        .nodes
        .iter()
        .filter(|n| n.summary.shuffles_completed > 0)
        .count();
    out.metric("overlay_connected", exchanging as f64 / 2.0);
    let ok_share = out.ok_share();
    out.metric("ok_share", ok_share);

    run.outcome = out;
    run
}
