//! Cross-process exchange tracing: stitch the request/response lifecycle
//! of every shuffle exchange across a merged fleet trace into one Chrome
//! `trace_event` timeline.
//!
//! A fleet run records each node's protocol events in its own process;
//! [`crate::merge_traces`] interleaves them on the logical clock but
//! leaves the *correlation* implicit. This module makes it explicit:
//!
//! * [`correlate_exchanges`] reconstructs the exchange id of every
//!   `ShuffleStart` (the event itself does not carry one) from the
//!   sharded executor's id scheme — the `k`-th start of node `n`, in
//!   trace order, is exchange `((n + 1) << 32) | k` — and then attaches
//!   every exchange-bearing event (`ShuffleComplete`, `ShuffleFailure`,
//!   `ShuffleTimeout`, `ShuffleRetry`, `MessageDropped`) to its record,
//!   *regardless of which process emitted it*. A responder-side response
//!   drop lands on the initiator's exchange.
//! * [`exchange_chrome_trace`] renders the correlated exchanges as a
//!   Chrome trace: one track per node (`tid` = node id), an `X` span per
//!   exchange on the initiator's track from start to resolution, instant
//!   events for timeouts / retries / drops on the track of the node that
//!   emitted them, and `s`/`f` flow arrows (id = exchange) linking the
//!   initiator's span to responder-side events of the same exchange.
//!
//! Timestamps are logical: one shuffle period maps to one "millisecond"
//! of trace time (`ts` is `t × 1e6` in the file's microsecond unit), so
//! the viewer's ruler reads directly in periods. The output loads in
//! `about:tracing` and [Perfetto](https://ui.perfetto.dev) unchanged.

use crate::event::read_sorted;
use crate::{EventKind, TraceEvent};
use serde_json::Value;
use std::collections::HashMap;

/// One correlated shuffle exchange, assembled from events of up to two
/// processes.
#[derive(Debug, Clone, PartialEq)]
pub struct ExchangeRecord {
    /// The reconstructed exchange id (`((initiator + 1) << 32) | k`).
    pub exchange: u64,
    /// Node that started the exchange.
    pub initiator: u32,
    /// Destination node of the request.
    pub target: u64,
    /// Whether the link used was a trusted edge.
    pub trusted: bool,
    /// Logical time of the `ShuffleStart`.
    pub start_t: f64,
    /// Logical time of the `ShuffleComplete` or `ShuffleFailure`;
    /// `None` when the trace ends with the exchange unresolved.
    pub end_t: Option<f64>,
    /// `true` once a `ShuffleComplete` was seen.
    pub completed: bool,
    /// `true` once a `ShuffleFailure` was seen.
    pub failed: bool,
    /// Timeouts attributed to this exchange.
    pub timeouts: u64,
    /// Retransmissions attributed to this exchange.
    pub retries: u64,
    /// Request-leg drops (emitted by the initiator).
    pub dropped_requests: u64,
    /// Response-leg drops (emitted by the responder process).
    pub dropped_responses: u64,
}

impl ExchangeRecord {
    /// `"completed"`, `"failed"`, or `"pending"` (trace ended first).
    pub fn outcome(&self) -> &'static str {
        if self.completed {
            "completed"
        } else if self.failed {
            "failed"
        } else {
            "pending"
        }
    }
}

/// Reconstructs every exchange of a merged fleet trace, in exchange-id
/// order.
///
/// The id reconstruction relies on each process's `ShuffleStart` events
/// staying in emission order after the merge, which
/// [`crate::merge_traces`] guarantees (per-input `seq` is monotone and
/// ties sort by `(t, tid, seq)`).
pub fn correlate_exchanges(events: &[TraceEvent]) -> Vec<ExchangeRecord> {
    let mut per_node_starts: HashMap<u32, u64> = HashMap::new();
    let mut records: HashMap<u64, ExchangeRecord> = HashMap::new();
    for ev in events {
        match &ev.kind {
            EventKind::ShuffleStart { target, trusted } => {
                let Some(node) = ev.node else { continue };
                let k = per_node_starts.entry(node).or_insert(0);
                let exchange = ((u64::from(node) + 1) << 32) | *k;
                *k += 1;
                records.insert(
                    exchange,
                    ExchangeRecord {
                        exchange,
                        initiator: node,
                        target: *target,
                        trusted: *trusted,
                        start_t: ev.t,
                        end_t: None,
                        completed: false,
                        failed: false,
                        timeouts: 0,
                        retries: 0,
                        dropped_requests: 0,
                        dropped_responses: 0,
                    },
                );
            }
            EventKind::ShuffleComplete { exchange } => {
                if let Some(r) = records.get_mut(exchange) {
                    r.completed = true;
                    r.end_t.get_or_insert(ev.t);
                }
            }
            EventKind::ShuffleFailure { exchange } => {
                if let Some(r) = records.get_mut(exchange) {
                    r.failed = true;
                    r.end_t.get_or_insert(ev.t);
                }
            }
            EventKind::ShuffleTimeout { exchange, .. } => {
                if let Some(r) = records.get_mut(exchange) {
                    r.timeouts += 1;
                }
            }
            EventKind::ShuffleRetry { exchange, .. } => {
                if let Some(r) = records.get_mut(exchange) {
                    r.retries += 1;
                }
            }
            EventKind::MessageDropped { exchange, response } => {
                if let Some(r) = records.get_mut(exchange) {
                    if *response {
                        r.dropped_responses += 1;
                    } else {
                        r.dropped_requests += 1;
                    }
                }
            }
            _ => {}
        }
    }
    let mut out: Vec<ExchangeRecord> = records.into_values().collect();
    out.sort_by_key(|r| r.exchange);
    out
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One logical period = 1e6 trace microseconds, so the viewer's
/// millisecond ruler reads in periods.
fn ts(t: f64) -> u64 {
    (t.max(0.0) * 1e6).round() as u64
}

/// Renders a merged fleet trace as a cross-process exchange timeline in
/// Chrome `trace_event` JSON.
pub fn exchange_chrome_trace(text: &str) -> Result<String, String> {
    let events = read_sorted(text.as_bytes())?;
    let exchanges = correlate_exchanges(&events);
    let by_id: HashMap<u64, &ExchangeRecord> = exchanges.iter().map(|r| (r.exchange, r)).collect();

    let mut nodes: Vec<u32> = events.iter().filter_map(|e| e.node).collect();
    nodes.sort_unstable();
    nodes.dedup();

    let mut out: Vec<Value> = Vec::new();
    for node in &nodes {
        out.push(map(vec![
            ("name", Value::Str("thread_name".to_string())),
            ("ph", Value::Str("M".to_string())),
            ("pid", Value::U64(1)),
            ("tid", Value::U64(u64::from(*node))),
            (
                "args",
                map(vec![("name", Value::Str(format!("node {node}")))]),
            ),
        ]));
    }

    // The exchange spans, on the initiator's track.
    for r in &exchanges {
        let start = ts(r.start_t);
        let end = r.end_t.map(ts).unwrap_or(start);
        out.push(map(vec![
            (
                "name",
                Value::Str(format!("shuffle {}→{}", r.initiator, r.target)),
            ),
            ("cat", Value::Str("exchange".to_string())),
            ("ph", Value::Str("X".to_string())),
            ("ts", Value::U64(start)),
            ("dur", Value::U64((end - start).max(1))),
            ("pid", Value::U64(1)),
            ("tid", Value::U64(u64::from(r.initiator))),
            (
                "args",
                map(vec![
                    ("exchange", Value::Str(format!("{:#x}", r.exchange))),
                    ("trusted", Value::Str(r.trusted.to_string())),
                    ("outcome", Value::Str(r.outcome().to_string())),
                    ("timeouts", Value::U64(r.timeouts)),
                    ("retries", Value::U64(r.retries)),
                    ("dropped_requests", Value::U64(r.dropped_requests)),
                    ("dropped_responses", Value::U64(r.dropped_responses)),
                ]),
            ),
        ]));
    }

    // Instant events on the emitting node's track, plus flow arrows for
    // events another process contributed to the exchange.
    for ev in &events {
        let (label, exchange) = match &ev.kind {
            EventKind::ShuffleTimeout { exchange, .. } => ("timeout", *exchange),
            EventKind::ShuffleRetry { exchange, .. } => ("retry", *exchange),
            EventKind::MessageDropped { exchange, response } => (
                if *response {
                    "drop response"
                } else {
                    "drop request"
                },
                *exchange,
            ),
            _ => continue,
        };
        let Some(node) = ev.node else { continue };
        out.push(map(vec![
            ("name", Value::Str(label.to_string())),
            ("cat", Value::Str("exchange".to_string())),
            ("ph", Value::Str("i".to_string())),
            ("s", Value::Str("t".to_string())),
            ("ts", Value::U64(ts(ev.t))),
            ("pid", Value::U64(1)),
            ("tid", Value::U64(u64::from(node))),
            (
                "args",
                map(vec![("exchange", Value::Str(format!("{exchange:#x}")))]),
            ),
        ]));
        // A contribution from a process other than the initiator's is the
        // cross-process edge worth drawing: initiator span → remote event.
        if let Some(r) = by_id.get(&exchange) {
            if r.initiator != node {
                out.push(map(vec![
                    ("name", Value::Str("exchange".to_string())),
                    ("cat", Value::Str("exchange".to_string())),
                    ("ph", Value::Str("s".to_string())),
                    ("id", Value::U64(exchange)),
                    ("ts", Value::U64(ts(r.start_t))),
                    ("pid", Value::U64(1)),
                    ("tid", Value::U64(u64::from(r.initiator))),
                ]));
                out.push(map(vec![
                    ("name", Value::Str("exchange".to_string())),
                    ("cat", Value::Str("exchange".to_string())),
                    ("ph", Value::Str("f".to_string())),
                    ("bp", Value::Str("e".to_string())),
                    ("id", Value::U64(exchange)),
                    ("ts", Value::U64(ts(ev.t))),
                    ("pid", Value::U64(1)),
                    ("tid", Value::U64(u64::from(node))),
                ]));
            }
        }
    }

    let doc = map(vec![
        ("traceEvents", Value::Seq(out)),
        ("displayTimeUnit", Value::Str("ms".to_string())),
    ]);
    Ok(serde_json::to_string(&doc).expect("chrome trace serializes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    /// Hand-record a two-process exchange story: node 0 starts two
    /// shuffles at node 1; the first completes, the second loses its
    /// response at node 1 and fails after a timeout.
    fn two_process_trace() -> String {
        let a = Recorder::full();
        a.event(0.25, Some(0), || EventKind::ShuffleStart {
            target: 1,
            trusted: true,
        });
        a.event(0.26, Some(0), || EventKind::ShuffleComplete {
            exchange: 1 << 32,
        });
        a.event(1.25, Some(0), || EventKind::ShuffleStart {
            target: 1,
            trusted: false,
        });
        a.event(2.25, Some(0), || EventKind::ShuffleTimeout {
            exchange: (1 << 32) | 1,
            attempt: 0,
        });
        a.event(2.25, Some(0), || EventKind::ShuffleFailure {
            exchange: (1 << 32) | 1,
        });
        let b = Recorder::full();
        b.event(1.26, Some(1), || EventKind::MessageDropped {
            exchange: (1 << 32) | 1,
            response: true,
        });
        crate::merge_traces(&[("a", &a.events_jsonl()), ("b", &b.events_jsonl())]).unwrap()
    }

    #[test]
    fn correlation_stitches_events_across_processes() {
        let merged = two_process_trace();
        let events = read_sorted(merged.as_bytes()).unwrap();
        let records = correlate_exchanges(&events);
        assert_eq!(records.len(), 2);
        let first = &records[0];
        assert_eq!(first.exchange, 1 << 32);
        assert_eq!(first.outcome(), "completed");
        assert_eq!(first.end_t, Some(0.26));
        let second = &records[1];
        assert_eq!(second.exchange, (1 << 32) | 1);
        assert_eq!(second.outcome(), "failed");
        // The responder's drop event (node 1's process) landed on the
        // initiator's exchange record.
        assert_eq!(second.dropped_responses, 1);
        assert_eq!(second.timeouts, 1);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_spans_and_flows() {
        let merged = two_process_trace();
        let json = exchange_chrome_trace(&merged).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_seq())
            .expect("traceEvents array");
        let phase = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph))
                .count()
        };
        assert_eq!(phase("M"), 2, "one thread_name per node");
        assert_eq!(phase("X"), 2, "one span per exchange");
        assert_eq!(phase("s"), 1, "one flow start for the remote drop");
        assert_eq!(phase("f"), 1, "one flow end for the remote drop");
        assert!(phase("i") >= 2, "timeout and drop instants");
        // The failed exchange's span carries its correlated counters.
        let failed = events
            .iter()
            .find(|e| {
                e.get("args")
                    .and_then(|a| a.get("outcome"))
                    .and_then(|o| o.as_str())
                    == Some("failed")
            })
            .expect("failed span present");
        assert_eq!(
            failed
                .get("args")
                .and_then(|a| a.get("dropped_responses"))
                .and_then(|d| d.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn header_and_old_traces_are_tolerated() {
        // No header at all (pre-versioning trace): still parses.
        let rec = Recorder::full();
        rec.event(0.5, Some(0), || EventKind::ShuffleStart {
            target: 1,
            trusted: true,
        });
        let jsonl = rec.events_jsonl();
        let body = jsonl.split_once('\n').unwrap().1;
        let events = read_sorted(body.as_bytes()).unwrap();
        assert_eq!(correlate_exchanges(&events).len(), 1);
    }
}
