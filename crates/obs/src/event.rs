//! Typed trace events and the JSONL trace format.
//!
//! Every event the simulator can emit is a variant of [`EventKind`]; an
//! [`TraceEvent`] wraps a kind with its simulated timestamp, the emitting
//! node (when there is one) and a `(tid, seq)` pair: `seq` is the
//! recorder's recording order, and `tid` is 0 from a recorder — only
//! `obs merge` sets it, to number its inputs.
//!
//! This module owns the format. The JSONL export writes a [`trace_header`]
//! line, then one serialized [`TraceEvent`] per line. Every reader of that
//! text — validation, replay, merge, the exchange timeline and `veil obs
//! tail` — goes through one [`TraceDecoder`], which checks each line
//! against the schema table without needing the original Rust types, so
//! CI can verify an emitted trace from the outside. Every consumer orders
//! events by one comparator, `(t, tid, seq)`.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::io::BufRead;

/// What happened. Serialized externally tagged: a unit variant becomes the
/// bare variant-name string, a struct variant a single-key map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A node initiated a shuffle with a partner drawn from its cache
    /// (`trusted = false`) or its trusted ring (`trusted = true`).
    ShuffleStart {
        /// Resolved node id of the shuffle partner.
        target: u64,
        /// Whether the partner came from the trusted ring rather than the cache.
        trusted: bool,
    },
    /// A shuffle exchange completed (response merged at the initiator).
    ShuffleComplete {
        /// Exchange id of the completed request/response pair.
        exchange: u64,
    },
    /// An in-flight shuffle request timed out before its response arrived.
    ShuffleTimeout {
        /// Exchange id of the request that timed out.
        exchange: u64,
        /// Attempt number that timed out (0-based).
        attempt: u64,
    },
    /// A timed-out shuffle request was retransmitted.
    ShuffleRetry {
        /// Exchange id being retried.
        exchange: u64,
        /// The new attempt number (0-based).
        attempt: u64,
    },
    /// A shuffle exchange exhausted its retry budget and was abandoned.
    ShuffleFailure {
        /// Exchange id that failed.
        exchange: u64,
    },
    /// An unresponsive partner was evicted from the cache and sampler
    /// after a failed exchange (Cyclon-style replacement).
    PeerEvicted {
        /// Pseudonym id of the evicted partner.
        pseudonym: u64,
    },
    /// The fault layer dropped a message in flight.
    MessageDropped {
        /// Exchange id the message belonged to.
        exchange: u64,
        /// `true` for a shuffle response, `false` for a request.
        response: bool,
    },
    /// A node minted a fresh pseudonym (birth).
    PseudonymMinted {
        /// Configured lifetime in shuffle periods; `None` = immortal.
        lifetime: Option<f64>,
    },
    /// Expired pseudonyms were purged from a node's cache.
    PseudonymsExpired {
        /// How many cache entries were dropped.
        count: u64,
    },
    /// A node came online (churn up-transition or blackout recovery).
    NodeOnline,
    /// A node went offline (churn down-transition or fault episode).
    NodeOffline,
    /// A regional blackout forced this node offline until `until`.
    BlackoutStart {
        /// Simulated time at which the blackout lifts.
        until: f64,
    },
    /// A blackout lifted for this node.
    BlackoutEnd,
    /// A scripted fault episode began.
    EpisodeStart {
        /// Index of the episode in the fault schedule.
        index: u64,
        /// Effect kind (`"blackout"`, `"partition"`, `"crash"`, ...).
        kind: String,
    },
    /// An online health detector crossed its threshold (see
    /// `veil_core::health`). Alerts are ordinary trace events: the monitor
    /// never feeds back into the simulation, so `off == full == ring`
    /// equivalence holds whether or not monitoring is enabled.
    HealthAlert {
        /// Detector name (`"shuffle_failure_burst"`, `"eviction_storm"`,
        /// `"pseudonym_expiry_stampede"`, `"starved_nodes"`,
        /// `"isolated_nodes"`, `"indegree_skew"`).
        detector: String,
        /// `"warning"`, or `"critical"` when the observed value is at
        /// least twice the threshold.
        severity: String,
        /// Observed detector value for the window.
        value: f64,
        /// Configured threshold the value crossed.
        threshold: f64,
    },
    /// The self-healing remediation engine (see `veil_core::remedy`)
    /// applied a reaction to a health alert. Only emitted when remediation
    /// is explicitly enabled — with it off, traces are byte-identical to a
    /// monitoring-only run.
    RemedyAction {
        /// Reaction kind (`"backoff"`, `"rebootstrap"`, `"throttle"`).
        reaction: String,
        /// The detector whose alert triggered the reaction.
        detector: String,
        /// Reaction-specific magnitude: nodes backed off, sampler links
        /// refreshed by a re-bootstrap, or 1 for a throttle.
        affected: u64,
    },
    /// A `veil-net` listener rejected a peer's opening `Hello` (transport
    /// telemetry; emitted to the node's telemetry trace, never the
    /// protocol trace the oracle diffs).
    NetHandshakeFail {
        /// Human-readable rejection reason (`HandshakeError` display).
        reason: String,
    },
    /// A `veil-net` connection delivered bytes that did not decode
    /// (transport telemetry).
    NetDecodeError {
        /// `true` for a frame-level violation that poisons the stream
        /// (the connection is closed); `false` for a message-level JSON
        /// error (the frame is skipped, the connection survives).
        fatal: bool,
    },
    /// A `veil-net` connection was closed or dropped (transport
    /// telemetry). Per-connection I/O totals ride along so the lifetime
    /// of short-lived exchange connections is still visible.
    NetConnClose {
        /// Whether this end accepted (`true`) or dialed (`false`) it.
        inbound: bool,
        /// Bytes read from the peer over the connection's lifetime.
        bytes_in: u64,
        /// Bytes written to the peer over the connection's lifetime.
        bytes_out: u64,
    },
    /// Periodic cumulative I/O sample from a `veil-net` node (transport
    /// telemetry): totals since process start, emitted once per shuffle
    /// period so a scraped or merged telemetry trace shows throughput
    /// over time.
    NetBytes {
        /// Total bytes read from all connections so far.
        bytes_in: u64,
        /// Total bytes written to all connections so far.
        bytes_out: u64,
        /// Total complete frames decoded so far.
        frames_in: u64,
        /// Total frames queued for transmission so far.
        frames_out: u64,
    },
}

/// The one declaration of each kind's facts beside the enum: its payload
/// fields with their Rust types, in declaration order, and the counter it
/// feeds. The generated `match`es bind every field by name and type, so a
/// row that disagrees with [`EventKind`] does not compile.
macro_rules! event_kinds {
    ($($kind:ident { $($field:ident: $ty:ty),* } => $counter:expr,)+) => {
        /// Dense kind numbers, in table order.
        enum KindIndex {
            $($kind,)+
        }

        /// Number of [`EventKind`] variants; the range of [`EventKind::index`].
        pub(crate) const KIND_COUNT: usize = [$(KindIndex::$kind),+].len();

        /// Counter name per kind index; `None` for kinds that feed no counter.
        pub(crate) const COUNTER_NAMES: [Option<&str>; KIND_COUNT] = [$($counter),+];

        /// The event schema: variant name → required fields and their types.
        /// Unit variants have no fields and serialize as a bare string.
        static SCHEMA: [(&str, &[(&str, FieldType)]); KIND_COUNT] =
            [$((stringify!($kind), &[$((stringify!($field), <$ty as Field>::TYPE)),*])),+];

        impl EventKind {
            /// Dense variant index, in [`SCHEMA`] order.
            pub(crate) fn index(&self) -> usize {
                match self {
                    $(EventKind::$kind { .. } => KindIndex::$kind as usize,)+
                }
            }

            fn check_fields(&self) -> Result<(), String> {
                match self {
                    $(EventKind::$kind { $($field),* } => {
                        $(<$ty as Field>::check($field).map_err(|e| {
                            format!(concat!(stringify!($kind), ".", stringify!($field), ": {}"), e)
                        })?;)*
                    })+
                }
                Ok(())
            }
        }
    };
}

event_kinds! {
    ShuffleStart { target: u64, trusted: bool } => Some("sim.shuffles_started"),
    ShuffleComplete { exchange: u64 } => Some("sim.shuffles_completed"),
    ShuffleTimeout { exchange: u64, attempt: u64 } => Some("sim.shuffle_timeouts"),
    ShuffleRetry { exchange: u64, attempt: u64 } => Some("sim.shuffle_retries"),
    ShuffleFailure { exchange: u64 } => Some("sim.shuffle_failures"),
    PeerEvicted { pseudonym: u64 } => Some("sim.evictions"),
    MessageDropped { exchange: u64, response: bool } => Some("sim.messages_dropped"),
    PseudonymMinted { lifetime: Option<f64> } => Some("sim.pseudonyms_minted"),
    PseudonymsExpired { count: u64 } => Some("sim.pseudonyms_expired"),
    NodeOnline {} => None,
    NodeOffline {} => None,
    BlackoutStart { until: f64 } => Some("sim.blackouts"),
    BlackoutEnd {} => None,
    EpisodeStart { index: u64, kind: String } => None,
    HealthAlert { detector: String, severity: String, value: f64, threshold: f64 }
        => Some("health.alerts"),
    RemedyAction { reaction: String, detector: String, affected: u64 } => Some("remedy.actions"),
    NetHandshakeFail { reason: String } => Some("net.handshake_failures"),
    NetDecodeError { fatal: bool } => Some("net.decode_errors"),
    NetConnClose { inbound: bool, bytes_in: u64, bytes_out: u64 } => Some("net.conn_closes"),
    // A cumulative sample, not a countable occurrence.
    NetBytes { bytes_in: u64, bytes_out: u64, frames_in: u64, frames_out: u64 } => None,
}

impl EventKind {
    /// The counter this event feeds, as `(name, increment)`, or `None`.
    ///
    /// Counters derive from the event stream at emission time — the
    /// recorder accumulates them per kind when the event is recorded, so
    /// the metrics can never disagree with the trace, and flight-recorder
    /// ring eviction does not un-count.
    pub fn counter(&self) -> Option<(&'static str, u64)> {
        let delta = match self {
            EventKind::PseudonymsExpired { count } => *count,
            _ => 1,
        };
        COUNTER_NAMES[self.index()].map(|name| (name, delta))
    }

    /// Stable variant name, matching the serialized tag.
    pub fn name(&self) -> &'static str {
        SCHEMA[self.index()].0
    }
}

/// Version of the JSONL trace format. Bumped whenever the event schema
/// changes incompatibly; the header line produced by [`trace_header`]
/// carries it so consumers can reject traces they do not understand
/// up front instead of failing on individual events.
///
/// **Additive changes do not bump this.** New event kinds (such as the
/// `Net*` transport-telemetry kinds) extend the schema table without
/// invalidating anything a version-1 reader already understands: an old
/// trace without the new kinds still validates, analyzes and diffs
/// cleanly against this build, and [`validate_events_jsonl`] continues
/// to accept it under the same header.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// The key of the header object.
const HEADER_KEY: &str = "veil_trace_version";

/// The header object opening every JSONL trace: one line identifying the
/// format and its [`TRACE_SCHEMA_VERSION`].
pub fn trace_header() -> String {
    format!("{{\"{HEADER_KEY}\":{TRACE_SCHEMA_VERSION}}}")
}

/// One recorded event: simulated time, emitting node, capture metadata
/// and the typed payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulated time in shuffle periods.
    pub t: f64,
    /// Input number in a merged trace; 0 as a recorder writes it.
    pub tid: u32,
    /// Recording order (monotone per `tid`).
    pub seq: u64,
    /// Node the event concerns; `None` for global events.
    pub node: Option<u32>,
    /// The typed payload.
    pub kind: EventKind,
}

/// The canonical order of a trace: `(t, tid, seq)`. Validated times are
/// finite and non-negative, so `total_cmp` is numeric order on them.
pub(crate) fn canonical_order(a: &TraceEvent, b: &TraceEvent) -> Ordering {
    a.t.total_cmp(&b.t)
        .then(a.tid.cmp(&b.tid))
        .then(a.seq.cmp(&b.seq))
}

/// Field types the schema can require.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FieldType {
    /// Non-negative integer.
    U64,
    /// A finite JSON number.
    F64,
    /// Boolean.
    Bool,
    /// String.
    Str,
    /// A finite number or `null`.
    NullableF64,
}

/// A payload field's Rust type, tied to its schema type.
trait Field {
    const TYPE: FieldType;

    /// What the types do not rule out: a float must be finite, because the
    /// JSON writer has no spelling for NaN or infinity and writes `null`,
    /// which is a schema violation for a required float and reads back as
    /// "absent" for an optional one.
    fn check(&self) -> Result<(), String> {
        Ok(())
    }
}

impl Field for u64 {
    const TYPE: FieldType = FieldType::U64;
}

impl Field for bool {
    const TYPE: FieldType = FieldType::Bool;
}

impl Field for String {
    const TYPE: FieldType = FieldType::Str;
}

impl Field for f64 {
    const TYPE: FieldType = FieldType::F64;

    fn check(&self) -> Result<(), String> {
        if self.is_finite() {
            Ok(())
        } else {
            Err(format!("must be finite, got {self}"))
        }
    }
}

impl Field for Option<f64> {
    const TYPE: FieldType = FieldType::NullableF64;

    fn check(&self) -> Result<(), String> {
        self.as_ref().map_or(Ok(()), Field::check)
    }
}

/// Human-readable schema listing (one line per event kind), for
/// `veil obs schema` and the documentation.
pub fn schema_text() -> String {
    let mut out = String::new();
    out.push_str("TraceEvent: {t: f64, tid: u64, seq: u64, node: u64|null, kind: <event>}\n");
    for (name, fields) in SCHEMA {
        if fields.is_empty() {
            out.push_str(&format!("  {name}\n"));
        } else {
            let fs: Vec<String> = fields
                .iter()
                .map(|(f, ty)| {
                    let ty = match ty {
                        FieldType::U64 => "u64",
                        FieldType::F64 => "f64",
                        FieldType::Bool => "bool",
                        FieldType::Str => "string",
                        FieldType::NullableF64 => "f64|null",
                    };
                    format!("{f}: {ty}")
                })
                .collect();
            out.push_str(&format!("  {name} {{{}}}\n", fs.join(", ")));
        }
    }
    out
}

fn check_field(value: &serde_json::Value, ty: FieldType) -> Result<(), String> {
    let ok = match ty {
        FieldType::U64 => value.as_u64().is_some(),
        FieldType::F64 => value.as_f64().is_some(),
        FieldType::Bool => value.as_bool().is_some(),
        FieldType::Str => value.as_str().is_some(),
        FieldType::NullableF64 => value.is_null() || value.as_f64().is_some(),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("wrong type, expected {ty:?}"))
    }
}

fn validate_kind(kind: &serde_json::Value) -> Result<(), String> {
    // Unit variant: bare string tag.
    if let Some(tag) = kind.as_str() {
        return match SCHEMA.iter().find(|(name, _)| *name == tag) {
            Some((_, [])) => Ok(()),
            Some(_) => Err(format!("kind {tag} requires a payload map")),
            None => Err(format!("unknown event kind {tag:?}")),
        };
    }
    // Struct variant: single-key map.
    let entries = kind
        .as_map()
        .ok_or_else(|| "kind must be a string or a single-key map".to_string())?;
    if entries.len() != 1 {
        return Err(format!(
            "kind map must have exactly 1 key, got {}",
            entries.len()
        ));
    }
    let (tag, payload) = &entries[0];
    let (_, fields) = SCHEMA
        .iter()
        .find(|(name, _)| name == tag)
        .ok_or_else(|| format!("unknown event kind {tag:?}"))?;
    let payload_map = payload
        .as_map()
        .ok_or_else(|| format!("payload of {tag} must be a map"))?;
    for (field, ty) in fields.iter() {
        let v = payload
            .get(field)
            .ok_or_else(|| format!("{tag} is missing field {field:?}"))?;
        check_field(v, *ty).map_err(|e| format!("{tag}.{field}: {e}"))?;
    }
    for (k, _) in payload_map {
        if !fields.iter().any(|(f, _)| f == k) {
            return Err(format!("{tag} has unknown field {k:?}"));
        }
    }
    Ok(())
}

/// Checks the shape of one parsed JSONL event object against the schema;
/// [`check_event_fields`] checks the values once it is typed.
fn validate_event_value(v: &serde_json::Value) -> Result<(), String> {
    v.get("t")
        .ok_or("missing field \"t\"")?
        .as_f64()
        .ok_or("\"t\" must be a number")?;
    v.get("tid")
        .and_then(serde_json::Value::as_u64)
        .ok_or("missing or non-integer field \"tid\"")?;
    v.get("seq")
        .and_then(serde_json::Value::as_u64)
        .ok_or("missing or non-integer field \"seq\"")?;
    let node = v.get("node").ok_or("missing field \"node\"")?;
    if !node.is_null() && node.as_u64().is_none() {
        return Err("\"node\" must be an integer or null".to_string());
    }
    let kind = v.get("kind").ok_or("missing field \"kind\"")?;
    validate_kind(kind)
}

/// What every door checks that the types of a [`TraceEvent`] do not: `t`
/// finite and non-negative, and every `f64` payload finite.
pub(crate) fn check_event_fields(ev: &TraceEvent) -> Result<(), String> {
    if !(ev.t.is_finite() && ev.t >= 0.0) {
        return Err(format!(
            "\"t\" must be finite and non-negative, got {}",
            ev.t
        ));
    }
    ev.kind.check_fields()
}

/// Reads a JSONL trace one line at a time: the one door through which
/// every reader of the format passes, so a trace one of them refuses, all
/// of them refuse with the same message.
///
/// A blank line is skipped. The first non-blank line may be a
/// [`trace_header`]; a header announcing another version than
/// [`TRACE_SCHEMA_VERSION`] is refused up front, and header-less traces
/// (from builds predating the header) are read as the current version.
/// Every other line must be one event that passes the schema. Line
/// numbers run on across calls, so a follower that feeds the lines of a
/// growing file poll by poll reports the same numbers as a whole-file read.
#[derive(Debug, Default)]
pub struct TraceDecoder {
    /// Lines fed so far, blank ones included.
    line: usize,
    /// Whether a non-blank line has been fed.
    started: bool,
}

impl TraceDecoder {
    /// Decodes the next line (without its newline): `Ok(None)` for a blank
    /// line or the header, the event otherwise.
    ///
    /// # Errors
    ///
    /// The first violation, prefixed with the 1-based `line N`.
    pub fn decode(&mut self, line: &str) -> Result<Option<TraceEvent>, String> {
        self.line += 1;
        let line = line.trim();
        if line.is_empty() {
            return Ok(None);
        }
        let first = !std::mem::replace(&mut self.started, true);
        decode_line(line, first).map_err(|e| format!("line {}: {e}", self.line))
    }
}

fn decode_line(line: &str, first: bool) -> Result<Option<TraceEvent>, String> {
    let value: serde_json::Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    if let Some(version) = value.get(HEADER_KEY) {
        if !first {
            return Err(format!("a {HEADER_KEY:?} header may only open the trace"));
        }
        if version.as_u64() != Some(u64::from(TRACE_SCHEMA_VERSION)) {
            return Err(format!(
                "unsupported trace version {} (this build reads version \
                 {TRACE_SCHEMA_VERSION}); re-record the trace with a matching build",
                serde_json::to_string(version).map_err(|e| e.to_string())?
            ));
        }
        return Ok(None);
    }
    validate_event_value(&value)?;
    let event: TraceEvent = serde_json::from_value(value).map_err(|e| e.to_string())?;
    check_event_fields(&event)?;
    Ok(Some(event))
}

/// Decodes every event of a JSONL trace from `reader` through one
/// [`TraceDecoder`], handing each to `each` in file order.
pub(crate) fn read_events<R: BufRead>(
    reader: R,
    mut each: impl FnMut(TraceEvent),
) -> Result<(), String> {
    let mut decoder = TraceDecoder::default();
    for line in reader.lines() {
        let line = line.map_err(|e| format!("line {}: read error: {e}", decoder.line + 1))?;
        if let Some(event) = decoder.decode(&line)? {
            each(event);
        }
    }
    Ok(())
}

/// Decodes a whole JSONL trace into its events in [`canonical_order`].
pub(crate) fn read_sorted<R: BufRead>(reader: R) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    read_events(reader, |event| events.push(event))?;
    events.sort_by(canonical_order);
    Ok(events)
}

/// Validates a whole JSONL trace (see [`TraceDecoder`]). Returns the number
/// of events (the header does not count), or the first error annotated
/// with its 1-based line number.
pub fn validate_events_jsonl(text: &str) -> Result<usize, String> {
    validate_events_reader(text.as_bytes())
}

/// Streaming form of [`validate_events_jsonl`]: validates a JSONL trace
/// line at a time from any buffered reader, so a multi-gigabyte trace
/// never has to fit in memory; peak memory is one line and its event.
pub fn validate_events_reader<R: BufRead>(reader: R) -> Result<usize, String> {
    let mut n = 0usize;
    read_events(reader, |_| n += 1)?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: EventKind) -> TraceEvent {
        TraceEvent {
            t: 1.5,
            tid: 0,
            seq: 3,
            node: Some(7),
            kind,
        }
    }

    /// Every variant, `PseudonymMinted` with and without a lifetime.
    fn every_kind() -> Vec<EventKind> {
        vec![
            EventKind::ShuffleStart {
                target: 9,
                trusted: false,
            },
            EventKind::ShuffleComplete { exchange: 1 },
            EventKind::ShuffleTimeout {
                exchange: 1,
                attempt: 0,
            },
            EventKind::ShuffleRetry {
                exchange: 1,
                attempt: 1,
            },
            EventKind::ShuffleFailure { exchange: 1 },
            EventKind::PeerEvicted { pseudonym: 4 },
            EventKind::MessageDropped {
                exchange: 2,
                response: true,
            },
            EventKind::PseudonymMinted {
                lifetime: Some(90.0),
            },
            EventKind::PseudonymMinted { lifetime: None },
            EventKind::PseudonymsExpired { count: 3 },
            EventKind::NodeOnline,
            EventKind::NodeOffline,
            EventKind::BlackoutStart { until: 12.0 },
            EventKind::BlackoutEnd,
            EventKind::EpisodeStart {
                index: 0,
                kind: "partition".to_string(),
            },
            EventKind::HealthAlert {
                detector: "shuffle_failure_burst".to_string(),
                severity: "warning".to_string(),
                value: 0.4,
                threshold: 0.25,
            },
            EventKind::RemedyAction {
                reaction: "rebootstrap".to_string(),
                detector: "starved_nodes".to_string(),
                affected: 6,
            },
            EventKind::NetHandshakeFail {
                reason: "scenario seed 42 differs from ours".to_string(),
            },
            EventKind::NetDecodeError { fatal: true },
            EventKind::NetConnClose {
                inbound: false,
                bytes_in: 512,
                bytes_out: 256,
            },
            EventKind::NetBytes {
                bytes_in: 4096,
                bytes_out: 2048,
                frames_in: 12,
                frames_out: 11,
            },
        ]
    }

    #[test]
    fn every_kind_round_trips_and_validates() {
        let kinds = every_kind();
        assert_eq!(kinds.len(), SCHEMA.len() + 1); // PseudonymMinted twice
        for kind in kinds {
            let ev = event(kind.clone());
            let json = serde_json::to_string(&ev).unwrap();
            let back: TraceEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, ev);
            let value: serde_json::Value = serde_json::from_str(&json).unwrap();
            validate_event_value(&value).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        }
    }

    #[test]
    fn events_jsonl_writes_every_kind_as_a_line_that_reads_back() {
        let rec = crate::Recorder::full();
        let kinds = every_kind();
        for (i, kind) in kinds.iter().enumerate() {
            rec.event(i as f64 * 0.5, (i % 3 != 0).then_some(i as u32), || {
                kind.clone()
            });
        }
        let jsonl = rec.events_jsonl();
        let mut lines = jsonl.lines();
        let mut decoder = TraceDecoder::default();
        let header = lines.next().unwrap();
        assert_eq!(header, trace_header());
        assert_eq!(decoder.decode(header), Ok(None));
        let events = rec.events();
        assert_eq!(events.len(), kinds.len());
        // Each line is the text its parsed value writes, and it decodes to
        // the event it was written from.
        for ev in events {
            let line = lines.next().unwrap();
            let value: serde_json::Value = serde_json::from_str(line).unwrap();
            assert_eq!(serde_json::to_string(&value).unwrap(), line);
            let name = ev.kind.name();
            assert_eq!(decoder.decode(line), Ok(Some(ev)), "{name}");
        }
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn typed_field_check_covers_every_float_in_the_schema() {
        use FieldType::{NullableF64, F64};
        let floats: Vec<(&str, &str)> = SCHEMA
            .iter()
            .flat_map(|(kind, fields)| {
                fields
                    .iter()
                    .filter(|(_, ty)| matches!(ty, F64 | NullableF64))
                    .map(move |(field, _)| (*kind, *field))
            })
            .collect();
        // Adding a float field means adding it to `check_event_fields`.
        assert_eq!(
            floats,
            [
                ("PseudonymMinted", "lifetime"),
                ("BlackoutStart", "until"),
                ("HealthAlert", "value"),
                ("HealthAlert", "threshold"),
            ]
        );
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for v in bad {
            for (kind, field) in [
                (EventKind::PseudonymMinted { lifetime: Some(v) }, "lifetime"),
                (EventKind::BlackoutStart { until: v }, "until"),
                (
                    EventKind::HealthAlert {
                        detector: "d".into(),
                        severity: "warning".into(),
                        value: v,
                        threshold: 1.0,
                    },
                    "value",
                ),
                (
                    EventKind::HealthAlert {
                        detector: "d".into(),
                        severity: "warning".into(),
                        value: 1.0,
                        threshold: v,
                    },
                    "threshold",
                ),
            ] {
                let err = check_event_fields(&event(kind)).unwrap_err();
                assert!(err.contains(field) && err.contains("finite"), "{err}");
            }
            let mut ev = event(EventKind::NodeOnline);
            ev.t = v;
            assert!(check_event_fields(&ev).is_err());
        }
        let mut ev = event(EventKind::NodeOnline);
        ev.t = -1.0;
        assert!(check_event_fields(&ev).is_err());
        ev.t = 0.0;
        assert_eq!(check_event_fields(&ev), Ok(()));
        // Absent is a value of the optional field, not a missing float.
        let immortal = event(EventKind::PseudonymMinted { lifetime: None });
        assert_eq!(check_event_fields(&immortal), Ok(()));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        // Not JSON at all.
        assert!(validate_events_jsonl("not json").is_err());
        // Missing required envelope field.
        assert!(validate_events_jsonl(r#"{"t":0,"tid":0,"seq":0,"kind":"NodeOnline"}"#).is_err());
        // Unknown kind.
        assert!(
            validate_events_jsonl(r#"{"t":0,"tid":0,"seq":0,"node":null,"kind":"Nonsense"}"#)
                .is_err()
        );
        // Wrong payload field type.
        assert!(validate_events_jsonl(
            r#"{"t":0,"tid":0,"seq":0,"node":1,"kind":{"ShuffleStart":{"target":"x","trusted":true}}}"#
        )
        .is_err());
        // Missing payload field.
        assert!(validate_events_jsonl(
            r#"{"t":0,"tid":0,"seq":0,"node":1,"kind":{"ShuffleStart":{"target":3}}}"#
        )
        .is_err());
        // Unknown extra payload field.
        assert!(validate_events_jsonl(
            r#"{"t":0,"tid":0,"seq":0,"node":1,"kind":{"ShuffleFailure":{"exchange":3,"extra":1}}}"#
        )
        .is_err());
        // Negative time.
        assert!(validate_events_jsonl(
            r#"{"t":-1,"tid":0,"seq":0,"node":null,"kind":"NodeOnline"}"#
        )
        .is_err());
    }

    #[test]
    fn validator_counts_events_and_skips_blank_lines() {
        let text = "\n{\"t\":0,\"tid\":0,\"seq\":0,\"node\":null,\"kind\":\"NodeOnline\"}\n\n{\"t\":1,\"tid\":0,\"seq\":1,\"node\":2,\"kind\":\"NodeOffline\"}\n";
        assert_eq!(validate_events_jsonl(text), Ok(2));
        assert_eq!(validate_events_jsonl(""), Ok(0));
    }

    #[test]
    fn validator_accepts_current_header_and_rejects_other_versions() {
        let event = "{\"t\":0,\"tid\":0,\"seq\":0,\"node\":null,\"kind\":\"NodeOnline\"}";
        // Header does not count as an event.
        let with_header = format!("{}\n{event}\n", trace_header());
        assert_eq!(validate_events_jsonl(&with_header), Ok(1));
        // A future version is rejected up front with a single clear error.
        let future = format!("{{\"veil_trace_version\":999}}\n{event}\n");
        let err = validate_events_jsonl(&future).unwrap_err();
        assert!(err.contains("unsupported trace version 999"), "{err}");
        // A header appearing after the first line is just an invalid event.
        let late = format!("{event}\n{}\n", trace_header());
        assert!(validate_events_jsonl(&late).is_err());
    }

    #[test]
    fn schema_text_lists_every_kind() {
        let text = schema_text();
        for (name, _) in SCHEMA {
            assert!(text.contains(name), "{name} missing from schema text");
        }
    }

    /// The decoder on hostile bytes: arbitrary byte strings, and a recorder
    /// trace of every kind with random byte flips and truncations. No door
    /// panics, and every refusal names its line. 1 500 seeded cases.
    #[test]
    fn decoder_survives_hostile_bytes() {
        // splitmix64: a seeded stream without a dependency.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let rec = crate::Recorder::full();
        for (i, kind) in every_kind().into_iter().enumerate() {
            rec.event(i as f64 * 0.5, (i % 3 != 0).then_some(i as u32), || kind);
        }
        let trace = rec.events_jsonl().into_bytes();
        let event_lines = trace.iter().filter(|&&b| b == b'\n').count() - 1;
        assert_eq!(validate_events_reader(&trace[..]), Ok(event_lines));
        // A time past `u64::MAX` rounds is valid; replay must not overflow.
        let far = format!(
            "{}{}\n",
            String::from_utf8_lossy(&trace),
            r#"{"t":1e300,"tid":0,"seq":99,"node":1,"kind":"NodeOnline"}"#
        );
        assert_eq!(crate::analyze_trace(&far).map(|r| r.duration), Ok(1e300));
        // JSON punctuation, digits and literals, so random bytes get past
        // the tokenizer; plus invalid UTF-8.
        const ALPHABET: &[u8] = b"{}[]\":,.-+eE0123456789tfnrul \n\\\xff";
        for case in 0..1500 {
            let bytes: Vec<u8> = match case % 3 {
                0 => (0..next() % 96)
                    .map(|_| match next() {
                        r if r % 4 == 0 => r as u8,
                        r => ALPHABET[(r >> 8) as usize % ALPHABET.len()],
                    })
                    .collect(),
                1 => {
                    let mut flipped = trace.clone();
                    for _ in 0..1 + next() % 3 {
                        let at = next() as usize % flipped.len();
                        flipped[at] ^= 1 << (next() % 8);
                    }
                    flipped
                }
                _ => trace[..next() as usize % trace.len()].to_vec(),
            };
            let text = std::str::from_utf8(&bytes).unwrap_or("");
            for err in [
                validate_events_reader(&bytes[..]).map(drop),
                crate::analyze_trace_reader(&bytes[..]).map(drop),
                crate::merge_traces(&[("in", text)]).map(drop),
                crate::exchange_chrome_trace(text).map(drop),
            ]
            .into_iter()
            .filter_map(Result::err)
            {
                let err = err.strip_prefix("in: ").unwrap_or(&err);
                assert!(
                    err.starts_with("line "),
                    "{err} for {:?}",
                    String::from_utf8_lossy(&bytes)
                );
            }
        }
    }
}
