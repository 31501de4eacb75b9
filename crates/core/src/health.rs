//! Online overlay health monitoring.
//!
//! A [`HealthMonitor`] watches the observability event stream of a running
//! [`crate::simulation::Simulation`] through rolling windows and raises
//! typed `HealthAlert` trace events when a degradation detector crosses its
//! threshold. The thresholds are the constants below, except the eviction
//! storm's, which [`HealthConfig`] holds (the recovery sweep lifts it out
//! of reach):
//!
//! * `shuffle_failure_burst` — failures / starts within a window;
//! * `eviction_storm` — Cyclon evictions per window;
//! * `pseudonym_expiry_stampede` — fraction of nodes purging expired
//!   pseudonyms in one window (the synchronized-expiry transient);
//! * `starved_nodes` — online nodes that have not completed a shuffle for
//!   `STARVATION_PERIODS`;
//! * `isolated_nodes` — online nodes with no *pseudonym* links. Trusted
//!   links are node-addressed and survive any outage, so a node can be
//!   perfectly reachable by its friends yet absent from the anonymous
//!   indirection layer the paper's privacy argument rests on — exactly the
//!   state a long blackout leaves its victims in, and exactly what the
//!   remediation engine's re-bootstrap repairs;
//! * `indegree_skew` — max/mean of trust degree plus the node's *own*
//!   sampler links over online nodes. Both terms are links the node holds,
//!   so despite its (trace-stable) name this is an out-degree skew: it
//!   flags trust-graph hubs, not nodes whose pseudonym sits in many
//!   caches.
//!
//! # Alerts are events — and decisions
//!
//! The monitor is strictly read-only with respect to the simulation: it
//! never draws randomness and never touches protocol state. Each
//! [`HealthMonitor::rotate`] returns the window's [`WindowAlert`]s (with
//! the implicated node set) so the remediation engine
//! ([`crate::remedy`]) can act on them; as a side effect it also pushes
//! `HealthAlert` trace events and `health.*` gauges into the recorder its
//! caller hands it. The monitor holds no recorder: a disabled one silently
//! swallows the events while alert counting and the returned decisions
//! stay identical, so untraced runs monitor (and heal) exactly like traced
//! ones, and attaching a recorder mid-run changes nothing it decides.
//! With remediation off this keeps the
//! `off == full == ring` byte-identity of `tests/obs_equivalence.rs`
//! intact whether monitoring is enabled or not.
//!
//! # Determinism
//!
//! Window boundaries lie on the fixed grid `k * window`, so detector
//! decisions depend only on the event stream, not on when the simulation
//! happens to poll. All state lives in plain vectors — no hash-map
//! iteration order can leak into the alert sequence.

use crate::config::HealthConfig;
use veil_obs::{EventKind as Obs, Recorder};

/// Names of the detectors, as the `detector` field of `HealthAlert`
/// trace events spells them, in evaluation order.
pub const DETECTOR_NAMES: [&str; 6] = [
    "shuffle_failure_burst",
    "eviction_storm",
    "pseudonym_expiry_stampede",
    "starved_nodes",
    "isolated_nodes",
    "indegree_skew",
];

/// Severity threshold: a value at least this multiple of its threshold is
/// reported as `critical` rather than `warning`.
const CRITICAL_FACTOR: f64 = 2.0;
/// `shuffle_failure_burst` fires when `failures / starts` within a window
/// exceeds this rate…
const FAILURE_BURST_RATE: f64 = 0.25;
/// …and the window saw at least this many starts (a nearly idle window's
/// rate is noise).
const FAILURE_BURST_MIN_STARTS: u64 = 20;
/// `pseudonym_expiry_stampede` fires when more than this fraction of the
/// nodes purged expired pseudonyms within one window (the
/// synchronized-expiry transient of the paper's Figure 9).
const EXPIRY_STAMPEDE_FRACTION: f64 = 0.5;
/// A node is starved when online but without a completed shuffle for more
/// than this many shuffle periods…
const STARVATION_PERIODS: f64 = 15.0;
/// …and `starved_nodes` fires when more than this fraction of the online
/// nodes are.
const STARVED_FRACTION: f64 = 0.10;
/// `indegree_skew` fires when max/mean of the degree it reads exceeds
/// this ratio.
const INDEGREE_SKEW_RATIO: f64 = 8.0;

/// One detector firing, as returned by [`HealthMonitor::rotate`].
///
/// This is the monitor's *decision* record — the same information as the
/// emitted `HealthAlert` trace event, plus the set of implicated nodes so a
/// consumer (the remediation engine) can target its reaction. Aggregate
/// detectors (`shuffle_failure_burst`, `eviction_storm`,
/// `pseudonym_expiry_stampede`) report an empty node set.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAlert {
    /// Window boundary the alert is stamped at.
    pub t: f64,
    /// Detector name, matching the trace event's `detector` field.
    pub detector: &'static str,
    /// Whether the value reached the critical multiple of its threshold.
    pub critical: bool,
    /// Observed value.
    pub value: f64,
    /// Threshold (0.0 for the always-critical isolation check).
    pub threshold: f64,
    /// Nodes the detector implicates, in ascending id order; empty for
    /// population-aggregate detectors.
    pub nodes: Vec<u32>,
}

/// Rolling-window health detector bank over the simulation event stream.
///
/// Construct with [`HealthMonitor::maybe_new`]; feed every emitted event
/// through [`HealthMonitor::observe`]; let the simulation call
/// [`HealthMonitor::due`] / [`HealthMonitor::rotate`] when event time
/// crosses a window boundary.
#[derive(Debug)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    /// Start of the currently accumulating window (on the `k * window`
    /// grid).
    window_start: f64,
    // Counts accumulated over the current window.
    starts: u64,
    failures: u64,
    evictions: u64,
    /// Number of `PseudonymsExpired` purges seen this window (one per node
    /// per purge, which is what the stampede detector wants).
    expiry_purges: u64,
    /// Per node: time of the last completed shuffle, or of coming online —
    /// a rejoining node gets a fresh grace period before counting as
    /// starved.
    last_progress: Vec<f64>,
    alerts_emitted: u64,
}

impl HealthMonitor {
    /// Builds a monitor over `nodes` nodes, starting at t = 0, when
    /// `cfg.enabled`; `None` otherwise.
    pub fn maybe_new(cfg: &HealthConfig, nodes: usize) -> Option<Self> {
        if !cfg.enabled {
            return None;
        }
        Some(Self {
            cfg: cfg.clone(),
            window_start: 0.0,
            starts: 0,
            failures: 0,
            evictions: 0,
            expiry_purges: 0,
            last_progress: vec![0.0; nodes],
            alerts_emitted: 0,
        })
    }

    /// Total `HealthAlert` events emitted so far.
    pub fn alerts_emitted(&self) -> u64 {
        self.alerts_emitted
    }

    /// Feeds one emitted event into the window counters.
    pub fn observe(&mut self, t: f64, node: Option<u32>, kind: &Obs) {
        match kind {
            Obs::ShuffleStart { .. } => self.starts += 1,
            Obs::ShuffleComplete { .. } => {
                if let Some(v) = node {
                    if let Some(slot) = self.last_progress.get_mut(v as usize) {
                        *slot = t;
                    }
                }
            }
            Obs::ShuffleFailure { .. } => self.failures += 1,
            Obs::PeerEvicted { .. } => self.evictions += 1,
            Obs::PseudonymsExpired { .. } => self.expiry_purges += 1,
            // Coming online (or back from a blackout) restarts the
            // starvation clock; the node cannot have completed a shuffle
            // while away.
            Obs::NodeOnline | Obs::BlackoutEnd => {
                if let Some(v) = node {
                    if let Some(slot) = self.last_progress.get_mut(v as usize) {
                        *slot = t;
                    }
                }
            }
            _ => {}
        }
    }

    /// Whether event time `now` has crossed the current window's end.
    pub fn due(&self, now: f64) -> bool {
        now >= self.window_start + self.cfg.window
    }

    /// Closes the elapsed window(s): runs every detector against the
    /// accumulated counts and the caller-supplied topology view, emits
    /// `HealthAlert` events stamped at the window boundary into `recorder`,
    /// refreshes its `health.*` gauges, resets the counters, and returns
    /// the window's alerts (with implicated nodes) for the remediation
    /// engine. The returned alerts do not depend on `recorder`.
    ///
    /// `online[v]` is the node's state and `degrees[v]` its trust degree
    /// plus its own pseudonym links, which the skew detector reads;
    /// `pseudonym_degrees[v]` counts the pseudonym links alone, which is
    /// what the isolation detector watches (see the module docs for why
    /// trusted links don't count).
    pub fn rotate(
        &mut self,
        recorder: &Recorder,
        now: f64,
        online: &[bool],
        degrees: &[usize],
        pseudonym_degrees: &[usize],
    ) -> Vec<WindowAlert> {
        let w = self.cfg.window;
        let mut fired = Vec::new();
        // Jump straight to the grid point at or below `now`: an idle gap
        // spanning several windows is closed as one evaluation instead of
        // replaying empty windows one by one.
        let boundary = (now / w).floor() * w;
        if boundary <= self.window_start {
            return fired;
        }

        let online_count = online.iter().filter(|o| **o).count();
        let nodes = online.len().max(1);
        let [burst, storm, stampede, starving, isolation, skewed] = DETECTOR_NAMES;

        // 1. Shuffle failure burst.
        if self.starts >= FAILURE_BURST_MIN_STARTS {
            let rate = self.failures as f64 / self.starts as f64;
            recorder.gauge("health.shuffle_failure_rate", rate);
            if rate > FAILURE_BURST_RATE {
                fired.push(self.alert(
                    recorder,
                    boundary,
                    burst,
                    rate,
                    FAILURE_BURST_RATE,
                    Vec::new(),
                ));
            }
        } else if self.starts > 0 {
            recorder.gauge(
                "health.shuffle_failure_rate",
                self.failures as f64 / self.starts as f64,
            );
        }

        // 2. Eviction storm.
        recorder.gauge("health.window_evictions", self.evictions as f64);
        if self.evictions > self.cfg.eviction_storm_count {
            fired.push(self.alert(
                recorder,
                boundary,
                storm,
                self.evictions as f64,
                self.cfg.eviction_storm_count as f64,
                Vec::new(),
            ));
        }

        // 3. Pseudonym expiry stampede.
        let expiry_fraction = self.expiry_purges as f64 / nodes as f64;
        recorder.gauge("health.window_expiry_fraction", expiry_fraction);
        if expiry_fraction > EXPIRY_STAMPEDE_FRACTION {
            fired.push(self.alert(
                recorder,
                boundary,
                stampede,
                expiry_fraction,
                EXPIRY_STAMPEDE_FRACTION,
                Vec::new(),
            ));
        }

        // 4. Starved nodes: online but no completed shuffle for
        // `STARVATION_PERIODS`.
        let starved: Vec<u32> = online
            .iter()
            .zip(self.last_progress.iter())
            .enumerate()
            .filter(|(_, (on, last))| **on && boundary - **last > STARVATION_PERIODS)
            .map(|(v, _)| v as u32)
            .collect();
        recorder.gauge("health.starved_nodes", starved.len() as f64);
        if online_count > 0 {
            let starved_fraction = starved.len() as f64 / online_count as f64;
            if starved_fraction > STARVED_FRACTION {
                fired.push(self.alert(
                    recorder,
                    boundary,
                    starving,
                    starved_fraction,
                    STARVED_FRACTION,
                    starved,
                ));
            }
        }

        // 5. Isolated nodes: online with no pseudonym links — invisible to
        // the anonymous overlay however healthy their trusted links are.
        // Always critical: every such node is deanonymized-or-unreachable
        // until re-bootstrapped.
        let isolated: Vec<u32> = online
            .iter()
            .zip(pseudonym_degrees.iter())
            .enumerate()
            .filter(|(_, (on, deg))| **on && **deg == 0)
            .map(|(v, _)| v as u32)
            .collect();
        recorder.gauge("health.isolated_nodes", isolated.len() as f64);
        if !isolated.is_empty() {
            let count = isolated.len() as f64;
            fired.push(self.alert(recorder, boundary, isolation, count, 0.0, isolated));
        }

        // 6. Degree skew over online nodes (named `indegree_skew`; it reads
        // out-degree, see the module docs).
        if online_count > 0 {
            let (sum, max) = online
                .iter()
                .zip(degrees.iter())
                .filter(|(on, _)| **on)
                .fold((0usize, 0usize), |(s, m), (_, d)| (s + d, m.max(*d)));
            let mean = sum as f64 / online_count as f64;
            if mean > 0.0 {
                let skew = max as f64 / mean;
                recorder.gauge("health.indegree_skew", skew);
                if skew > INDEGREE_SKEW_RATIO {
                    // Implicate every online node sitting above the ratio
                    // (at least the max-degree node).
                    let hubs: Vec<u32> = online
                        .iter()
                        .zip(degrees.iter())
                        .enumerate()
                        .filter(|(_, (on, deg))| **on && **deg as f64 > INDEGREE_SKEW_RATIO * mean)
                        .map(|(v, _)| v as u32)
                        .collect();
                    fired.push(self.alert(
                        recorder,
                        boundary,
                        skewed,
                        skew,
                        INDEGREE_SKEW_RATIO,
                        hubs,
                    ));
                }
            }
        }

        recorder.gauge("health.alerts_emitted", self.alerts_emitted as f64);
        self.window_start = boundary;
        self.starts = 0;
        self.failures = 0;
        self.evictions = 0;
        self.expiry_purges = 0;
        fired
    }

    fn alert(
        &mut self,
        recorder: &Recorder,
        t: f64,
        detector: &'static str,
        value: f64,
        threshold: f64,
        nodes: Vec<u32>,
    ) -> WindowAlert {
        self.alerts_emitted += 1;
        // Zero-threshold detectors (isolated nodes) have no meaningful
        // ratio; any firing is critical.
        let critical = threshold <= 0.0 || value >= CRITICAL_FACTOR * threshold;
        recorder.event(t, None, || Obs::HealthAlert {
            detector: detector.to_string(),
            severity: if critical { "critical" } else { "warning" }.to_string(),
            value,
            threshold,
        });
        WindowAlert {
            t,
            detector,
            critical,
            value,
            threshold,
            nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled_cfg() -> HealthConfig {
        HealthConfig {
            enabled: true,
            window: 5.0,
            ..HealthConfig::default()
        }
    }

    fn alerts(recorder: &Recorder) -> Vec<(f64, String, String)> {
        recorder
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                Obs::HealthAlert {
                    detector, severity, ..
                } => Some((e.t, detector, severity)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn only_the_config_gates_the_monitor() {
        assert!(HealthMonitor::maybe_new(&HealthConfig::default(), 4).is_none());
        assert!(HealthMonitor::maybe_new(&enabled_cfg(), 4).is_some());
    }

    #[test]
    fn recorder_free_monitor_counts_and_returns_alerts() {
        let rec = Recorder::disabled();
        let mut hm = HealthMonitor::maybe_new(&enabled_cfg(), 4).unwrap();
        // Starve everyone and isolate node 3; no recorder is attached, yet
        // the decisions must match a traced run exactly.
        let fired = hm.rotate(&rec, 20.0, &[true; 4], &[2, 2, 2, 1], &[2, 2, 2, 0]);
        assert!(
            fired
                .iter()
                .any(|a| a.detector == "starved_nodes" && a.nodes == vec![0, 1, 2, 3]),
            "{fired:?}"
        );
        assert!(
            fired
                .iter()
                .any(|a| a.detector == "isolated_nodes" && a.critical && a.nodes == vec![3]),
            "{fired:?}"
        );
        assert_eq!(hm.alerts_emitted(), fired.len() as u64);
        assert!(rec.events().is_empty(), "disabled recorder stays empty");
    }

    #[test]
    fn failure_burst_fires_with_severity() {
        let rec = Recorder::full();
        let mut hm = HealthMonitor::maybe_new(&enabled_cfg(), 4).unwrap();
        // One start short of `FAILURE_BURST_MIN_STARTS`, every one failed:
        // too few starts for the rate to count.
        let start = Obs::ShuffleStart {
            target: 0,
            trusted: false,
        };
        for i in 0..FAILURE_BURST_MIN_STARTS - 1 {
            hm.observe(0.5, Some(i as u32 % 4), &start);
            hm.observe(1.0, Some(0), &Obs::ShuffleFailure { exchange: 1 });
        }
        hm.rotate(&rec, 5.0, &[true; 4], &[3, 3, 3, 3], &[1, 1, 1, 1]);
        assert!(alerts(&rec).is_empty());
        for i in 0..FAILURE_BURST_MIN_STARTS {
            hm.observe(5.5, Some(i as u32 % 4), &start);
        }
        for _ in 0..12 {
            hm.observe(6.0, Some(0), &Obs::ShuffleFailure { exchange: 1 });
        }
        assert!(hm.due(10.0));
        hm.rotate(&rec, 10.0, &[true; 4], &[3, 3, 3, 3], &[1, 1, 1, 1]);
        let fired = alerts(&rec);
        // 0.6 failure rate >= 2 * 0.25 threshold: critical, stamped at the
        // window boundary.
        assert_eq!(fired.len(), 1, "{fired:?}");
        assert_eq!(fired[0].0, 10.0);
        assert_eq!(fired[0].1, "shuffle_failure_burst");
        assert_eq!(fired[0].2, "critical");
        assert_eq!(rec.metrics().counter("health.alerts"), 1);
        assert_eq!(hm.alerts_emitted(), 1);
    }

    #[test]
    fn quiet_window_fires_nothing() {
        let rec = Recorder::full();
        let mut hm = HealthMonitor::maybe_new(&enabled_cfg(), 4).unwrap();
        for i in 0..8 {
            hm.observe(
                0.5,
                Some(i % 4),
                &Obs::ShuffleStart {
                    target: 0,
                    trusted: false,
                },
            );
            hm.observe(0.6, Some(i % 4), &Obs::ShuffleComplete { exchange: 0 });
        }
        hm.rotate(&rec, 6.0, &[true; 4], &[3, 3, 3, 3], &[1, 1, 1, 1]);
        assert!(alerts(&rec).is_empty());
        assert_eq!(hm.alerts_emitted(), 0);
    }

    #[test]
    fn isolated_and_starved_nodes_detected() {
        let rec = Recorder::full();
        let mut hm = HealthMonitor::maybe_new(&enabled_cfg(), 4).unwrap();
        // Nobody completes anything for 20 periods: everyone online is
        // starved (> 15 periods) and node 3 is isolated — its surviving
        // trusted link (total degree 1) does not rescue it, because
        // isolation is measured on pseudonym links alone.
        hm.rotate(
            &rec,
            20.0,
            &[true, true, true, true],
            &[2, 2, 2, 1],
            &[2, 2, 2, 0],
        );
        let a = alerts(&rec);
        assert!(a.iter().any(|(_, d, _)| d == "starved_nodes"), "{a:?}");
        assert!(
            a.iter()
                .any(|(_, d, s)| d == "isolated_nodes" && s == "critical"),
            "{a:?}"
        );
    }

    #[test]
    fn rejoining_node_gets_starvation_grace() {
        let rec = Recorder::full();
        let mut hm = HealthMonitor::maybe_new(&enabled_cfg(), 2).unwrap();
        // Both nodes make progress late enough to stay fresh; one came
        // online even later.
        hm.observe(18.0, Some(0), &Obs::ShuffleComplete { exchange: 0 });
        hm.observe(19.0, Some(1), &Obs::NodeOnline);
        hm.rotate(&rec, 20.0, &[true, true], &[1, 1], &[1, 1]);
        assert!(
            !alerts(&rec).iter().any(|(_, d, _)| d == "starved_nodes"),
            "progress and rejoin must reset the starvation clock"
        );
    }

    #[test]
    fn skew_detector_uses_online_mean() {
        let rec = Recorder::full();
        let mut hm = HealthMonitor::maybe_new(&enabled_cfg(), 9).unwrap();
        // The offline node's degree (1000) must not enter the mean: with
        // it, max/mean would be 1000 / 120.8 > 8; over the 8 online nodes
        // max/mean is at most 8, so no alert.
        let mut degrees = vec![1; 9];
        degrees[0] = 80;
        degrees[8] = 1000;
        let mut online = [true; 9];
        online[8] = false;
        hm.rotate(&rec, 5.0, &online, &degrees, &[1; 9]);
        assert!(
            !alerts(&rec).iter().any(|(_, d, _)| d == "indegree_skew"),
            "8 online nodes bound the ratio at 8"
        );
        let rec2 = Recorder::full();
        let mut hm2 = HealthMonitor::maybe_new(&enabled_cfg(), 10).unwrap();
        let mut degrees = vec![1; 10];
        degrees[0] = 100;
        let fired = hm2.rotate(&rec2, 5.0, &[true; 10], &degrees, &[1; 10]);
        let skew = fired.iter().find(|a| a.detector == "indegree_skew");
        // 100 vs mean 10.9 is a 9.2x skew; only node 0 is above 8x.
        assert_eq!(skew.map(|a| &a.nodes[..]), Some(&[0][..]), "{fired:?}");
    }

    #[test]
    fn eviction_storm_and_stampede() {
        let rec = Recorder::full();
        let cfg = HealthConfig {
            eviction_storm_count: 3,
            ..enabled_cfg()
        };
        let mut hm = HealthMonitor::maybe_new(&cfg, 4).unwrap();
        for v in 0..4 {
            hm.observe(1.0, Some(v), &Obs::PeerEvicted { pseudonym: 7 });
            hm.observe(1.5, Some(v), &Obs::PseudonymsExpired { count: 2 });
            hm.observe(2.0, Some(v), &Obs::ShuffleComplete { exchange: 0 });
        }
        hm.rotate(&rec, 5.0, &[true; 4], &[3; 4], &[1; 4]);
        let fired = alerts(&rec);
        assert!(fired.iter().any(|(_, d, _)| d == "eviction_storm"));
        assert!(
            fired
                .iter()
                .any(|(_, d, _)| d == "pseudonym_expiry_stampede"),
            "4/4 nodes purged"
        );
        // Counters reset: an immediately following quiet window is clean.
        hm.rotate(&rec, 10.0, &[true; 4], &[3; 4], &[1; 4]);
        assert_eq!(alerts(&rec).len(), fired.len());
    }

    #[test]
    fn rotation_is_idempotent_within_a_window() {
        let rec = Recorder::full();
        let mut hm = HealthMonitor::maybe_new(&enabled_cfg(), 2).unwrap();
        assert!(!hm.due(4.9));
        hm.rotate(&rec, 4.9, &[true, true], &[1, 1], &[1, 1]); // not past the boundary: no-op
        assert!(hm.due(5.0));
        hm.rotate(&rec, 5.0, &[true, true], &[1, 1], &[1, 1]);
        assert!(!hm.due(9.9));
        // A long idle gap collapses into one evaluation at the last grid
        // point, not one per elapsed window.
        hm.rotate(&rec, 102.3, &[true, true], &[1, 1], &[1, 1]);
        assert!(!hm.due(102.4));
        assert!(hm.due(105.0));
    }
}
