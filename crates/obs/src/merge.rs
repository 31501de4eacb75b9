//! Merging per-process JSONL traces into one canonical trace.
//!
//! A veil-net fleet produces one trace file per process. Every recorder
//! writes `tid` 0, so `(tid, seq)` pairs collide across files;
//! the merger renumbers every input onto its own `tid` (the input's index)
//! with a fresh per-input `seq`, then sorts globally by `(t, tid, seq)` —
//! the order `obs diff` and the replay analyzer replay in, which for one
//! simulator recorder is its recording order. The result is a single
//! well-formed trace: one header line, then events.

use crate::event::{canonical_order, read_sorted, trace_header, TraceEvent};

/// Merges JSONL traces into one canonical trace.
///
/// Each input is a `(name, contents)` pair; the name labels errors (a file
/// path, usually). Every input is decoded by [`crate::TraceDecoder`], so
/// an input `veil obs validate` refuses is refused here with the same
/// message, prefixed by its name.
pub fn merge_traces(inputs: &[(&str, &str)]) -> Result<String, String> {
    let mut all: Vec<TraceEvent> = Vec::new();
    for (idx, (name, text)) in inputs.iter().enumerate() {
        let mut events = read_sorted(text.as_bytes()).map_err(|e| format!("{name}: {e}"))?;
        // Renumber onto this input's tid so merged identities cannot
        // collide.
        for (seq, ev) in events.iter_mut().enumerate() {
            ev.tid = idx as u32;
            ev.seq = seq as u64;
        }
        all.extend(events);
    }
    all.sort_by(canonical_order);
    let mut out = trace_header();
    out.push('\n');
    for ev in &all {
        out.push_str(&serde_json::to_string(ev).map_err(|e| e.to_string())?);
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{validate_events_jsonl, EventKind};
    use crate::recorder::Recorder;

    fn trace_of(events: &[(f64, Option<u32>, EventKind)]) -> String {
        let rec = Recorder::full();
        for (t, node, kind) in events {
            let kind = kind.clone();
            rec.event(*t, *node, move || kind);
        }
        rec.events_jsonl()
    }

    #[test]
    fn merge_interleaves_by_time_and_renumbers() {
        let a = trace_of(&[
            (0.0, Some(0), EventKind::NodeOnline),
            (2.0, Some(0), EventKind::ShuffleComplete { exchange: 1 }),
        ]);
        let b = trace_of(&[
            (1.0, Some(1), EventKind::NodeOnline),
            (3.0, Some(1), EventKind::ShuffleComplete { exchange: 2 }),
        ]);
        let merged = merge_traces(&[("a", &a), ("b", &b)]).unwrap();
        assert_eq!(validate_events_jsonl(&merged), Ok(4));
        let events: Vec<TraceEvent> = merged
            .lines()
            .skip(1)
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        let times: Vec<f64> = events.iter().map(|e| e.t).collect();
        assert_eq!(times, vec![0.0, 1.0, 2.0, 3.0]);
        // Input index became the tid; seq restarts per input.
        assert_eq!(events[0].tid, 0);
        assert_eq!(events[1].tid, 1);
        assert_eq!(events[1].seq, 0);
        assert_eq!(events[3].tid, 1);
        assert_eq!(events[3].seq, 1);
    }

    #[test]
    fn merge_rejects_a_version_mismatch_naming_the_input() {
        let good = trace_of(&[(0.0, None, EventKind::NodeOnline)]);
        let bad = "{\"veil_trace_version\":99}\n";
        let err = merge_traces(&[("good.jsonl", &good), ("bad.jsonl", bad)]).unwrap_err();
        assert!(err.contains("bad.jsonl"), "{err}");
        assert!(err.contains("unsupported trace version 99"), "{err}");
    }

    #[test]
    fn merge_rejects_malformed_events_with_input_and_line() {
        let err = merge_traces(&[("x.jsonl", "not json\n")]).unwrap_err();
        assert!(err.contains("x.jsonl: line 1"), "{err}");
    }

    #[test]
    fn merging_nothing_yields_a_bare_header() {
        let merged = merge_traces(&[]).unwrap();
        assert_eq!(merged, format!("{}\n", trace_header()));
        assert_eq!(validate_events_jsonl(&merged), Ok(0));
    }
}
