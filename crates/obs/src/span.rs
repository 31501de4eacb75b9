//! Profiling span records and Chrome `trace_event` export.
//!
//! Spans measure wall-clock time (microseconds since the recorder's
//! epoch), unlike trace events which carry simulated time. The export
//! follows the Chrome trace-event JSON format, so a file written by
//! [`chrome_trace_json`] loads directly in `about:tracing` or
//! [Perfetto](https://ui.perfetto.dev).

use serde::Serialize;
use serde_json::Value;

/// One completed profiling span.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanRecord {
    /// Span name (e.g. `"sim.run_until"`).
    pub name: String,
    /// Track id in the Chrome trace; 0 as a recorder writes it.
    pub tid: u32,
    /// Start, in microseconds since the recorder epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Optional free-form detail (sweep point, worker index, ...).
    pub args: Option<String>,
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Serializes spans as Chrome `trace_event` JSON.
///
/// `track_names` maps track ids to display names (emitted as
/// `thread_name` metadata records). All spans share `pid` 1; a span's
/// `tid` names its track.
pub fn chrome_trace_json(spans: &[SpanRecord], track_names: &[(u32, String)]) -> String {
    let mut events: Vec<Value> = Vec::with_capacity(spans.len() + track_names.len());
    for (tid, label) in track_names {
        events.push(map(vec![
            ("name", Value::Str("thread_name".to_string())),
            ("ph", Value::Str("M".to_string())),
            ("pid", Value::U64(1)),
            ("tid", Value::U64(u64::from(*tid))),
            ("args", map(vec![("name", Value::Str(label.clone()))])),
        ]));
    }
    for s in spans {
        let mut entry = vec![
            ("name", Value::Str(s.name.clone())),
            ("cat", Value::Str("veil".to_string())),
            ("ph", Value::Str("X".to_string())),
            ("ts", Value::U64(s.start_us)),
            ("dur", Value::U64(s.dur_us)),
            ("pid", Value::U64(1)),
            ("tid", Value::U64(u64::from(s.tid))),
        ];
        if let Some(args) = &s.args {
            entry.push(("args", map(vec![("detail", Value::Str(args.clone()))])));
        }
        events.push(map(entry));
    }
    let doc = map(vec![
        ("traceEvents", Value::Seq(events)),
        ("displayTimeUnit", Value::Str("ms".to_string())),
    ]);
    serde_json::to_string(&doc).expect("chrome trace serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_parses_and_has_metadata() {
        let spans = vec![
            SpanRecord {
                name: "phase".to_string(),
                tid: 0,
                start_us: 10,
                dur_us: 25,
                args: Some("alpha=0.5".to_string()),
            },
            SpanRecord {
                name: "unit".to_string(),
                tid: 1,
                start_us: 12,
                dur_us: 3,
                args: None,
            },
        ];
        let labels = vec![(0, "main".to_string()), (1, "worker-0".to_string())];
        let json = chrome_trace_json(&spans, &labels);
        let v: Value = serde_json::from_str(&json).unwrap();
        let events = v.get("traceEvents").unwrap().as_seq().unwrap();
        assert_eq!(events.len(), 4);
        // Metadata first, then the spans in order.
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("M"));
        assert_eq!(events[2].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[2].get("dur").unwrap().as_u64(), Some(25));
        assert_eq!(
            events[2]
                .get("args")
                .unwrap()
                .get("detail")
                .unwrap()
                .as_str(),
            Some("alpha=0.5")
        );
        assert!(events[3].get("args").is_none());
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = chrome_trace_json(&[], &[]);
        let v: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().as_seq().unwrap().len(), 0);
    }
}
