//! Offline trace analytics: replay a JSONL trace into a reconstructed
//! per-node / per-round state model and derive time series from it.
//!
//! One `replay`, two doors. [`analyze_trace`] (and its streaming form
//! [`analyze_trace_reader`]) is the text door: it parses a trace as
//! written by [`crate::Recorder::events_jsonl`], for artifacts on disk.
//! [`analyze_events`] is the typed door, for the process that recorded
//! the events and still holds them. Both replay every event in `(t, tid,
//! seq)` order and produce a [`TraceReport`]:
//!
//! * **totals** — event-derived counters, accumulated exactly as the live
//!   recorder accumulates them ([`EventKind::counter`]), so a replayed
//!   trace reproduces the run's final statistics bit for bit;
//! * **per-round series** — shuffle starts/completes/timeouts/retries/
//!   failures, drop breakdown (requests vs responses), evictions, mints,
//!   expiries and churn per unit-time round;
//! * **node model** — the online set (seeded from the t = 0 pseudonym
//!   mints, which the simulation emits exactly for the initially online
//!   nodes) tracked through `NodeOnline`/`NodeOffline` transitions;
//! * **alert timeline** — every `HealthAlert` with its detector, severity
//!   and window boundary;
//! * **reaction timeline** — every `RemedyAction` the self-healing engine
//!   applied, with per-kind counts;
//! * **blackout episodes** — grouped `BlackoutStart` bursts with
//!   time-to-recover, measured as the delay until per-round shuffle
//!   completions regain 90% of their pre-blackout mean.

use crate::event::{
    check_event_fields, parse_trace_header, validate_event_value, COUNTER_NAMES, KIND_COUNT,
    TRACE_SCHEMA_VERSION,
};
use crate::{EventKind, TraceEvent};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Fraction of the pre-blackout completion rate that counts as recovered.
const RECOVERY_FRACTION: f64 = 0.9;

/// Per-round (unit simulated time) aggregates of the replayed event
/// stream.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Round index: events with `t` in `[round, round + 1)`.
    pub round: u64,
    /// Shuffles initiated.
    pub starts: u64,
    /// Shuffle exchanges completed.
    pub completes: u64,
    /// Timeouts fired.
    pub timeouts: u64,
    /// Retransmissions sent.
    pub retries: u64,
    /// Exchanges abandoned after exhausting the retry budget.
    pub failures: u64,
    /// Requests dropped (in flight or at an offline peer).
    pub dropped_requests: u64,
    /// Responses dropped in flight.
    pub dropped_responses: u64,
    /// Cyclon evictions.
    pub evictions: u64,
    /// Pseudonyms minted.
    pub mints: u64,
    /// Pseudonyms purged after expiry.
    pub expiries: u64,
    /// Nodes that came online.
    pub onlines: u64,
    /// Nodes that went offline.
    pub offlines: u64,
    /// Health alerts raised.
    pub alerts: u64,
}

/// One `HealthAlert` event from the trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertRecord {
    /// Window boundary the alert was stamped with.
    pub t: f64,
    /// Detector name.
    pub detector: String,
    /// `"warning"` or `"critical"`.
    pub severity: String,
    /// Observed value.
    pub value: f64,
    /// Configured threshold.
    pub threshold: f64,
}

/// One `RemedyAction` event from the trace — a reaction the self-healing
/// engine applied.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReactionRecord {
    /// Window boundary the reaction was applied at.
    pub t: f64,
    /// Reaction kind (`"backoff"`, `"rebootstrap"` or `"throttle"`).
    pub reaction: String,
    /// Detector whose alert triggered it.
    pub detector: String,
    /// The targeted node, when the reaction is per-node.
    pub node: Option<u32>,
    /// Nodes backed off / pseudonyms accepted / throttles applied.
    pub affected: u64,
}

/// A correlated blackout episode reconstructed from `BlackoutStart`
/// bursts sharing one injection instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlackoutRecord {
    /// Injection time.
    pub start: f64,
    /// When the last affected node was due back.
    pub end: f64,
    /// Number of nodes forced offline.
    pub nodes: u64,
    /// Periods after `end` until per-round completions regained 90% of
    /// their pre-blackout mean; `None` if the trace ends first or there
    /// is no pre-blackout baseline.
    pub time_to_recover: Option<f64>,
}

/// The full analysis of one trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Trace schema version (from the header; current version for
    /// header-less legacy traces).
    pub schema_version: u32,
    /// Events replayed (excluding the header).
    pub events: u64,
    /// Largest event timestamp.
    pub duration: f64,
    /// Distinct node ids seen.
    pub nodes_seen: u64,
    /// Nodes online at t = 0 (inferred from the synchronized initial
    /// pseudonym mints).
    pub initial_online: u64,
    /// Nodes online after the last replayed event.
    pub final_online: u64,
    /// Event-derived counters, identical to the live recorder's
    /// (`sim.shuffles_started`, `sim.messages_dropped`, `health.alerts`,
    /// ...).
    pub totals: BTreeMap<String, u64>,
    /// Overall completed / started shuffles.
    pub shuffle_success_rate: f64,
    /// Requests dropped (the live `dropped_requests` stat counts both
    /// directions; `dropped_requests + dropped_responses` reproduces it).
    pub dropped_requests: u64,
    /// Responses dropped.
    pub dropped_responses: u64,
    /// Per-round aggregates, one entry per unit of simulated time.
    pub rounds: Vec<RoundStats>,
    /// Every health alert in the trace, in time order.
    pub alerts: Vec<AlertRecord>,
    /// Every self-healing reaction in the trace, in time order. Defaulted
    /// on deserialization so reports written before the remediation engine
    /// existed still load, and skipped when empty so reaction-free reports
    /// stay byte-identical to pre-remediation ones (committed baselines
    /// diff clean either way).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub reactions: Vec<ReactionRecord>,
    /// Reactions by kind (`"backoff"` / `"rebootstrap"` / `"throttle"`).
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub reaction_counts: BTreeMap<String, u64>,
    /// Reconstructed blackout episodes with recovery times.
    pub blackouts: Vec<BlackoutRecord>,
}

impl TraceReport {
    /// Looks up a counter total (0 when the trace never fed it).
    pub fn total(&self, name: &str) -> u64 {
        self.totals.get(name).copied().unwrap_or(0)
    }

    /// Renders the human-readable report.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace analysis: {} events over {:.1} sp, schema v{}",
            self.events, self.duration, self.schema_version
        );
        let _ = writeln!(
            out,
            "nodes: {} seen, {} online at start, {} online at end",
            self.nodes_seen, self.initial_online, self.final_online
        );
        let _ = writeln!(
            out,
            "shuffles: {} started, {} completed ({:.1}% success), {} timeouts, {} retries, {} failures",
            self.total("sim.shuffles_started"),
            self.total("sim.shuffles_completed"),
            self.shuffle_success_rate * 100.0,
            self.total("sim.shuffle_timeouts"),
            self.total("sim.shuffle_retries"),
            self.total("sim.shuffle_failures"),
        );
        let _ = writeln!(
            out,
            "drops: {} requests, {} responses; {} evictions",
            self.dropped_requests,
            self.dropped_responses,
            self.total("sim.evictions")
        );
        let _ = writeln!(
            out,
            "pseudonyms: {} minted, {} expired",
            self.total("sim.pseudonyms_minted"),
            self.total("sim.pseudonyms_expired")
        );
        if self.blackouts.is_empty() {
            let _ = writeln!(out, "blackouts: none");
        } else {
            for b in &self.blackouts {
                let recovery = match b.time_to_recover {
                    Some(r) => format!("recovered {r:.1} sp after lifting"),
                    None => "no recovery within the trace".to_string(),
                };
                let _ = writeln!(
                    out,
                    "blackout: {} nodes dark t = {:.1}..{:.1}, {recovery}",
                    b.nodes, b.start, b.end
                );
            }
        }
        if self.alerts.is_empty() {
            let _ = writeln!(out, "health alerts: none");
        } else {
            let _ = writeln!(out, "health alerts: {}", self.alerts.len());
            for a in &self.alerts {
                let _ = writeln!(
                    out,
                    "  [t={:>7.1}] {:<26} {:<8} value {:.3} vs threshold {:.3}",
                    a.t, a.detector, a.severity, a.value, a.threshold
                );
            }
        }
        // Traces without self-healing keep their exact pre-remediation
        // rendering; the section only appears once reactions exist.
        if !self.reactions.is_empty() {
            let by_kind: Vec<String> = self
                .reaction_counts
                .iter()
                .map(|(k, n)| format!("{n} {k}"))
                .collect();
            let _ = writeln!(
                out,
                "remediation: {} reactions ({})",
                self.reactions.len(),
                by_kind.join(", ")
            );
            for x in &self.reactions {
                let node = match x.node {
                    Some(v) => format!("node {v}"),
                    None => "overlay-wide".to_string(),
                };
                let _ = writeln!(
                    out,
                    "  [t={:>7.1}] {:<12} on {:<26} {} (affected {})",
                    x.t, x.reaction, x.detector, node, x.affected
                );
            }
        }
        out
    }
}

/// Parses and replays a JSONL trace into a [`TraceReport`].
///
/// Call-compatible since it was introduced (`&str` in, report or message
/// out): the frozen benchmark package compiles against it.
///
/// # Errors
///
/// Returns a line-annotated message when the header announces an
/// unsupported version or any line fails schema validation — analysis
/// never guesses around a malformed trace.
pub fn analyze_trace(text: &str) -> Result<TraceReport, String> {
    analyze_trace_reader(text.as_bytes())
}

/// Streaming form of [`analyze_trace`]: parses and replays a JSONL trace
/// line at a time from any buffered reader. Only the decoded
/// [`TraceEvent`]s are buffered (they must be, for the canonical re-sort
/// below) — the raw JSON text and the intermediate [`serde_json::Value`]
/// of each line are dropped as soon as the line validates, so the
/// analytics path never holds a whole multi-gigabyte trace in memory.
/// Each line is parsed once: the event is built from the `Value` that
/// was just validated.
pub fn analyze_trace_reader<R: std::io::BufRead>(reader: R) -> Result<TraceReport, String> {
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut saw_line = false;
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: read error: {e}", i + 1))?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if !saw_line {
            saw_line = true;
            if let Some(v) = parse_trace_header(line) {
                if v != u64::from(TRACE_SCHEMA_VERSION) {
                    return Err(format!(
                        "unsupported trace version {v} (this build reads version \
                         {TRACE_SCHEMA_VERSION}); re-record the trace with a matching build"
                    ));
                }
                continue;
            }
        }
        let value: serde_json::Value =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        validate_event_value(&value).map_err(|e| format!("line {}: {e}", i + 1))?;
        let ev: TraceEvent =
            serde_json::from_value(value).map_err(|e| format!("line {}: {e}", i + 1))?;
        events.push(ev);
    }
    Ok(sort_and_replay(events))
}

/// Replays events the caller already holds as values into a
/// [`TraceReport`] — the report [`analyze_trace`] gives for the same
/// events written out as JSONL, without writing or parsing them.
///
/// # Errors
///
/// The types rule out everything the text door's schema validation
/// checks except two things, which stay checked here: `t` must be finite
/// and non-negative, and every `f64` payload must be finite (the JSON
/// writer turns a non-finite float into `null`, which the validator
/// rejects — or, for an optional field, silently reads back as absent).
/// The message names the offending event by its position.
pub fn analyze_events(events: Vec<TraceEvent>) -> Result<TraceReport, String> {
    for (i, ev) in events.iter().enumerate() {
        check_event_fields(ev).map_err(|e| format!("event {i}: {e}"))?;
    }
    Ok(sort_and_replay(events))
}

/// The tail both doors share. The recorder exports shard-merged events
/// already sorted by `(t, tid, seq)`; re-sort so hand-assembled or
/// concatenated traces replay identically.
fn sort_and_replay(mut events: Vec<TraceEvent>) -> TraceReport {
    events.sort_by(|a, b| {
        a.t.partial_cmp(&b.t)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.tid.cmp(&b.tid))
            .then(a.seq.cmp(&b.seq))
    });
    replay(&events)
}

/// Node-state model rebuilt during replay.
struct NodeModel {
    /// `online[v]`: current state, `None` until the node is first seen.
    online: BTreeMap<u32, bool>,
    initial_online: u64,
}

impl NodeModel {
    fn new() -> Self {
        Self {
            online: BTreeMap::new(),
            initial_online: 0,
        }
    }

    fn apply(&mut self, ev: &TraceEvent) {
        let Some(node) = ev.node else { return };
        match &ev.kind {
            // Initial condition: the simulation mints a pseudonym at
            // exactly t = 0 for every initially online node (and only for
            // them), so those mints reconstruct the starting online set.
            EventKind::PseudonymMinted { .. } if ev.t == 0.0 => {
                if self.online.insert(node, true).is_none() {
                    self.initial_online += 1;
                }
            }
            EventKind::NodeOnline | EventKind::BlackoutEnd => {
                self.online.insert(node, true);
            }
            EventKind::NodeOffline | EventKind::BlackoutStart { .. } => {
                self.online.insert(node, false);
            }
            _ => {
                // Any other node-attributed event just marks the node as
                // seen; nodes that start offline enter here as offline.
                self.online.entry(node).or_insert(false);
            }
        }
    }

    fn final_online(&self) -> u64 {
        self.online.values().filter(|o| **o).count() as u64
    }

    fn seen(&self) -> u64 {
        self.online.len() as u64
    }
}

/// Every trace this build reads is [`TRACE_SCHEMA_VERSION`]: a header
/// announcing another version is refused before replay, and a header-less
/// trace is read as the current one.
fn replay(events: &[TraceEvent]) -> TraceReport {
    // Counter totals by `EventKind::index`, folded into names once at
    // the end. `Some` once the kind occurred, so it keeps its key even at
    // total 0.
    let mut kind_totals: [Option<u64>; KIND_COUNT] = [None; KIND_COUNT];
    let mut rounds: Vec<RoundStats> = Vec::new();
    let mut alerts = Vec::new();
    let mut reactions: Vec<ReactionRecord> = Vec::new();
    let mut reaction_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut nodes = NodeModel::new();
    let mut dropped_requests = 0u64;
    let mut dropped_responses = 0u64;
    let mut duration = 0.0f64;
    // In-progress blackout grouping: (start t, max until, node count).
    let mut open_blackout: Option<(f64, f64, u64)> = None;
    let mut blackouts: Vec<BlackoutRecord> = Vec::new();

    for ev in events {
        duration = duration.max(ev.t);
        if let Some((_, delta)) = ev.kind.counter() {
            *kind_totals[ev.kind.index()].get_or_insert(0) += delta;
        }
        nodes.apply(ev);

        let round = ev.t.floor().max(0.0) as u64;
        if rounds.last().is_none_or(|r| r.round < round) {
            rounds.push(RoundStats {
                round,
                ..RoundStats::default()
            });
        }
        let r = rounds.last_mut().expect("pushed above");
        match &ev.kind {
            EventKind::ShuffleStart { .. } => r.starts += 1,
            EventKind::ShuffleComplete { .. } => r.completes += 1,
            EventKind::ShuffleTimeout { .. } => r.timeouts += 1,
            EventKind::ShuffleRetry { .. } => r.retries += 1,
            EventKind::ShuffleFailure { .. } => r.failures += 1,
            EventKind::PeerEvicted { .. } => r.evictions += 1,
            EventKind::MessageDropped { response, .. } => {
                if *response {
                    r.dropped_responses += 1;
                    dropped_responses += 1;
                } else {
                    r.dropped_requests += 1;
                    dropped_requests += 1;
                }
            }
            EventKind::PseudonymMinted { .. } => r.mints += 1,
            EventKind::PseudonymsExpired { count } => r.expiries += count,
            EventKind::NodeOnline => r.onlines += 1,
            EventKind::NodeOffline => r.offlines += 1,
            EventKind::BlackoutStart { until } => {
                // Starts from one injection share the event time; a gap
                // (or a later injection) closes the group.
                match &mut open_blackout {
                    Some((start, end, count)) if *start == ev.t => {
                        *end = end.max(*until);
                        *count += 1;
                    }
                    other => {
                        if let Some((start, end, count)) = other.take() {
                            blackouts.push(BlackoutRecord {
                                start,
                                end,
                                nodes: count,
                                time_to_recover: None,
                            });
                        }
                        *other = Some((ev.t, *until, 1));
                    }
                }
            }
            EventKind::HealthAlert {
                detector,
                severity,
                value,
                threshold,
            } => {
                r.alerts += 1;
                alerts.push(AlertRecord {
                    t: ev.t,
                    detector: detector.clone(),
                    severity: severity.clone(),
                    value: *value,
                    threshold: *threshold,
                });
            }
            EventKind::RemedyAction {
                reaction,
                detector,
                affected,
            } => {
                *reaction_counts.entry(reaction.clone()).or_insert(0) += 1;
                reactions.push(ReactionRecord {
                    t: ev.t,
                    reaction: reaction.clone(),
                    detector: detector.clone(),
                    node: ev.node,
                    affected: *affected,
                });
            }
            _ => {}
        }
    }
    if let Some((start, end, count)) = open_blackout {
        blackouts.push(BlackoutRecord {
            start,
            end,
            nodes: count,
            time_to_recover: None,
        });
    }
    for b in &mut blackouts {
        b.time_to_recover = recovery_time(&rounds, b.start, b.end);
    }

    let totals: BTreeMap<String, u64> = COUNTER_NAMES
        .iter()
        .zip(kind_totals)
        .filter_map(|(name, total)| Some(((*name)?.to_string(), total?)))
        .collect();
    let starts = totals.get("sim.shuffles_started").copied().unwrap_or(0);
    let completes = totals.get("sim.shuffles_completed").copied().unwrap_or(0);
    TraceReport {
        schema_version: TRACE_SCHEMA_VERSION,
        events: events.len() as u64,
        duration,
        nodes_seen: nodes.seen(),
        initial_online: nodes.initial_online,
        final_online: nodes.final_online(),
        shuffle_success_rate: if starts == 0 {
            1.0
        } else {
            completes as f64 / starts as f64
        },
        dropped_requests,
        dropped_responses,
        totals,
        rounds,
        alerts,
        reactions,
        reaction_counts,
        blackouts,
    }
}

/// Time after `end` until per-round shuffle completions regain
/// [`RECOVERY_FRACTION`] of their mean over the rounds fully before
/// `start`.
fn recovery_time(rounds: &[RoundStats], start: f64, end: f64) -> Option<f64> {
    let before: Vec<&RoundStats> = rounds
        .iter()
        .filter(|r| ((r.round + 1) as f64) <= start)
        .collect();
    if before.is_empty() {
        return None;
    }
    let baseline = before.iter().map(|r| r.completes as f64).sum::<f64>() / before.len() as f64;
    if baseline <= 0.0 {
        return None;
    }
    let target = RECOVERY_FRACTION * baseline;
    rounds
        .iter()
        .filter(|r| (r.round as f64) >= end && r.completes as f64 >= target)
        .map(|r| (r.round as f64 - end).max(0.0))
        .next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::trace_header;
    use crate::Recorder;

    fn ev(t: f64, node: Option<u32>, kind: EventKind) -> String {
        serde_json::to_string(&TraceEvent {
            t,
            tid: 0,
            seq: (t * 1000.0) as u64,
            node,
            kind,
        })
        .unwrap()
    }

    #[test]
    fn totals_match_recorder_counters() {
        let rec = Recorder::full();
        rec.event(0.0, Some(0), || EventKind::PseudonymMinted {
            lifetime: Some(90.0),
        });
        rec.event(0.5, Some(0), || EventKind::ShuffleStart {
            target: 1,
            trusted: false,
        });
        rec.event(0.5, Some(0), || EventKind::ShuffleComplete { exchange: 0 });
        rec.event(1.5, Some(1), || EventKind::PseudonymsExpired { count: 3 });
        let report = analyze_trace(&rec.events_jsonl()).unwrap();
        let metrics = rec.metrics();
        for (name, total) in &report.totals {
            assert_eq!(
                *total,
                metrics.counter(name),
                "replayed {name} must equal the live counter"
            );
        }
        assert_eq!(report.events, 4);
        assert_eq!(report.total("sim.pseudonyms_expired"), 3);
        assert_eq!(report.schema_version, TRACE_SCHEMA_VERSION);
    }

    #[test]
    fn typed_door_gives_the_text_doors_report() {
        let rec = Recorder::full();
        rec.event(0.0, Some(0), || EventKind::PseudonymMinted {
            lifetime: Some(90.0),
        });
        rec.event(0.0, Some(1), || EventKind::PseudonymMinted {
            lifetime: None,
        });
        rec.event(0.5, Some(0), || EventKind::ShuffleStart {
            target: 1,
            trusted: false,
        });
        rec.event(1.5, Some(1), || EventKind::PseudonymsExpired { count: 0 });
        rec.event(2.0, Some(1), || EventKind::BlackoutStart { until: 4.0 });
        rec.event(3.0, None, || EventKind::HealthAlert {
            detector: "isolated_nodes".into(),
            severity: "critical".into(),
            value: 2.0,
            threshold: 1.0,
        });
        rec.event(3.0, Some(1), || EventKind::RemedyAction {
            reaction: "rebootstrap".into(),
            detector: "isolated_nodes".into(),
            affected: 3,
        });
        rec.event(4.0, Some(1), || EventKind::BlackoutEnd);
        let typed = analyze_events(rec.events()).unwrap();
        assert_eq!(typed, analyze_trace(&rec.events_jsonl()).unwrap());
        assert_eq!(typed.events, 8);
        // A kind that occurred keeps its key even at total 0; one that
        // never occurred, or feeds no counter, has none.
        assert_eq!(typed.totals.get("sim.pseudonyms_expired"), Some(&0));
        assert_eq!(typed.totals.get("sim.evictions"), None);
        assert_eq!(typed.totals.len(), 6, "{:?}", typed.totals);
        // Like the text door, it sorts what it is given.
        let mut reversed = rec.events();
        reversed.reverse();
        assert_eq!(analyze_events(reversed).unwrap(), typed);
    }

    #[test]
    fn typed_door_refuses_what_the_text_door_refuses() {
        let forged = |t: f64, value: f64| TraceEvent {
            t,
            tid: 0,
            seq: 1,
            node: None,
            kind: EventKind::HealthAlert {
                detector: "forged".into(),
                severity: "warning".into(),
                value,
                threshold: 1.0,
            },
        };
        let fine = TraceEvent {
            t: 0.0,
            tid: 0,
            seq: 0,
            node: Some(0),
            kind: EventKind::NodeOnline,
        };
        for (bad, what) in [
            (forged(1.0, f64::NAN), "event 1: HealthAlert.value"),
            (forged(-1.0, 0.5), "event 1: \"t\""),
        ] {
            let events = vec![fine.clone(), bad];
            let text: Vec<String> = events
                .iter()
                .map(|e| serde_json::to_string(e).unwrap())
                .collect();
            let err = analyze_trace(&text.join("\n")).unwrap_err();
            assert!(err.starts_with("line 2:"), "{err}");
            let err = analyze_events(events).unwrap_err();
            assert!(err.starts_with(what), "{err}");
        }
    }

    #[test]
    fn online_set_reconstruction() {
        let lines = [
            trace_header(),
            ev(0.0, Some(0), EventKind::PseudonymMinted { lifetime: None }),
            ev(0.0, Some(1), EventKind::PseudonymMinted { lifetime: None }),
            // Node 2 starts offline and comes online later; node 1 leaves.
            ev(2.0, Some(2), EventKind::NodeOnline),
            ev(3.0, Some(1), EventKind::NodeOffline),
            // A later (t > 0) mint must not count as "initially online".
            ev(4.0, Some(2), EventKind::PseudonymMinted { lifetime: None }),
        ];
        let report = analyze_trace(&lines.join("\n")).unwrap();
        assert_eq!(report.initial_online, 2);
        assert_eq!(report.final_online, 2, "nodes 0 and 2");
        assert_eq!(report.nodes_seen, 3);
    }

    #[test]
    fn per_round_series_and_success_rate() {
        let lines = [
            ev(
                0.2,
                Some(0),
                EventKind::ShuffleStart {
                    target: 1,
                    trusted: false,
                },
            ),
            ev(0.3, Some(0), EventKind::ShuffleComplete { exchange: 1 }),
            ev(
                1.2,
                Some(0),
                EventKind::ShuffleStart {
                    target: 1,
                    trusted: false,
                },
            ),
            ev(
                1.4,
                Some(0),
                EventKind::MessageDropped {
                    exchange: 2,
                    response: false,
                },
            ),
            ev(
                1.8,
                Some(0),
                EventKind::MessageDropped {
                    exchange: 2,
                    response: true,
                },
            ),
            ev(
                4.0,
                Some(0),
                EventKind::ShuffleTimeout {
                    exchange: 2,
                    attempt: 0,
                },
            ),
            ev(4.1, Some(0), EventKind::ShuffleFailure { exchange: 2 }),
        ];
        let report = analyze_trace(&lines.join("\n")).unwrap();
        assert_eq!(report.rounds.len(), 3, "rounds 0, 1 and 4 have events");
        assert_eq!(report.rounds[0].round, 0);
        assert_eq!(report.rounds[0].starts, 1);
        assert_eq!(report.rounds[0].completes, 1);
        assert_eq!(report.rounds[1].round, 1);
        assert_eq!(report.rounds[1].dropped_requests, 1);
        assert_eq!(report.rounds[1].dropped_responses, 1);
        assert_eq!(report.rounds[2].round, 4);
        assert_eq!(report.rounds[2].failures, 1);
        assert_eq!(report.shuffle_success_rate, 0.5);
        assert_eq!(report.dropped_requests, 1);
        assert_eq!(report.dropped_responses, 1);
    }

    #[test]
    fn alert_timeline_extracted() {
        let lines = [ev(
            5.0,
            None,
            EventKind::HealthAlert {
                detector: "eviction_storm".into(),
                severity: "warning".into(),
                value: 60.0,
                threshold: 50.0,
            },
        )];
        let report = analyze_trace(&lines.join("\n")).unwrap();
        assert_eq!(report.alerts.len(), 1);
        assert_eq!(report.alerts[0].detector, "eviction_storm");
        assert_eq!(report.total("health.alerts"), 1);
        assert!(report.render_text().contains("eviction_storm"));
    }

    #[test]
    fn reaction_timeline_and_counts_extracted() {
        let lines = [
            ev(
                5.0,
                None,
                EventKind::RemedyAction {
                    reaction: "backoff".into(),
                    detector: "eviction_storm".into(),
                    affected: 40,
                },
            ),
            ev(
                10.0,
                Some(7),
                EventKind::RemedyAction {
                    reaction: "rebootstrap".into(),
                    detector: "starved_nodes".into(),
                    affected: 3,
                },
            ),
            ev(
                10.0,
                Some(9),
                EventKind::RemedyAction {
                    reaction: "rebootstrap".into(),
                    detector: "isolated_nodes".into(),
                    affected: 2,
                },
            ),
        ];
        let report = analyze_trace(&lines.join("\n")).unwrap();
        assert_eq!(report.reactions.len(), 3);
        assert_eq!(report.total("remedy.actions"), 3);
        assert_eq!(report.reaction_counts.get("backoff"), Some(&1));
        assert_eq!(report.reaction_counts.get("rebootstrap"), Some(&2));
        assert_eq!(report.reactions[1].node, Some(7));
        assert_eq!(report.reactions[1].affected, 3);
        let text = report.render_text();
        assert!(text.contains("remediation: 3 reactions"), "{text}");
        assert!(text.contains("1 backoff, 2 rebootstrap"), "{text}");
        // A reaction-free report keeps the pre-remediation rendering.
        let quiet = analyze_trace(&ev(0.0, Some(0), EventKind::NodeOnline)).unwrap();
        assert!(!quiet.render_text().contains("remediation"));
        // And a pre-remediation serialized report still loads.
        let mut json = serde_json::to_string(&quiet).unwrap();
        json = json.replace(",\"reactions\":[]", "");
        json = json.replace(",\"reaction_counts\":{}", "");
        assert!(!json.contains("reaction"), "{json}");
        let back: TraceReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, quiet);
    }

    #[test]
    fn blackout_grouping_and_recovery() {
        let mut lines = Vec::new();
        // Steady state: 10 completions per round for rounds 0..5.
        for round in 0..5 {
            for i in 0..10 {
                lines.push(ev(
                    round as f64 + 0.05 * i as f64,
                    Some(i),
                    EventKind::ShuffleComplete { exchange: 0 },
                ));
            }
        }
        // One injection at t = 5.0 forcing 3 nodes dark until 8.0.
        for v in 0..3 {
            lines.push(ev(5.0, Some(v), EventKind::BlackoutStart { until: 8.0 }));
        }
        // Degraded rounds, then full recovery in round 9.
        lines.push(ev(6.5, Some(5), EventKind::ShuffleComplete { exchange: 0 }));
        for i in 0..10 {
            lines.push(ev(
                9.0 + 0.05 * i as f64,
                Some(i),
                EventKind::ShuffleComplete { exchange: 0 },
            ));
        }
        let report = analyze_trace(&lines.join("\n")).unwrap();
        assert_eq!(report.blackouts.len(), 1);
        let b = &report.blackouts[0];
        assert_eq!(b.nodes, 3);
        assert_eq!(b.start, 5.0);
        assert_eq!(b.end, 8.0);
        assert_eq!(b.time_to_recover, Some(1.0), "round 9 regains the baseline");
    }

    /// An overflowing float literal is infinity: both text doors reject
    /// it for every float field of the schema, naming `Kind.field`.
    #[test]
    fn text_doors_reject_overflowing_floats() {
        const PLACEHOLDER: &str = "12345.5";
        let v: f64 = PLACEHOLDER.parse().unwrap();
        let alert = |value, threshold| EventKind::HealthAlert {
            detector: "d".into(),
            severity: "warning".into(),
            value,
            threshold,
        };
        for (kind, field) in [
            (alert(v, 1.0), "HealthAlert.value"),
            (alert(1.0, v), "HealthAlert.threshold"),
            (EventKind::BlackoutStart { until: v }, "BlackoutStart.until"),
            (
                EventKind::PseudonymMinted { lifetime: Some(v) },
                "PseudonymMinted.lifetime",
            ),
        ] {
            let line = ev(1.0, Some(0), kind);
            assert!(analyze_trace(&line).is_ok(), "{line}");
            for bad in ["1e400", "-1e400"] {
                let line = line.replace(PLACEHOLDER, bad);
                for err in [
                    crate::event::validate_events_jsonl(&line).unwrap_err(),
                    analyze_trace(&line).unwrap_err(),
                ] {
                    assert!(
                        err.contains(&format!("{field}: must be finite")),
                        "{line}: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let text = format!(
            "{{\"veil_trace_version\":7}}\n{}",
            ev(0.0, None, EventKind::NodeOnline)
        );
        let err = analyze_trace(&text).unwrap_err();
        assert!(err.contains("unsupported trace version 7"), "{err}");
    }

    #[test]
    fn malformed_event_is_line_annotated() {
        let text = format!("{}\nnot json\n", trace_header());
        let err = analyze_trace(&text).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
