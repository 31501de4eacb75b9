//! The [`Recorder`]: a cheap handle that is either disabled (every
//! operation is a single branch on `None`) or backed by one buffer.
//!
//! # One buffer, one lock
//!
//! An enabled recorder is one state — event deque (a ring for a flight
//! recorder), metrics registry, per-kind counts, spans — behind one
//! `Mutex`. Any thread may record; the simulator records from one thread
//! per run (its shards hand their events to the barrier), so the lock is
//! uncontended there and the event order is the barrier's canonical one,
//! the same for every shard count.
//!
//! # RNG isolation
//!
//! The recorder never draws randomness and never consumes an RNG stream;
//! enabling it cannot perturb any simulation. This is the invariant the
//! `obs_equivalence` integration tests pin.

use crate::event::{canonical_order, EventKind, TraceEvent, COUNTER_NAMES, KIND_COUNT};
use crate::metrics::MetricsRegistry;
use crate::span::{chrome_trace_json, SpanRecord};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Observability configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Maximum trace events retained; older events are evicted
    /// ring-buffer style. `None` (the default) keeps everything (full
    /// JSONL sink mode).
    pub ring_capacity: Option<usize>,
}

impl ObsConfig {
    /// Keep every event (full-sink mode).
    pub fn full() -> Self {
        Self::default()
    }

    /// Keep only the last `capacity` events (flight-recorder mode).
    pub fn flight_recorder(capacity: usize) -> Self {
        Self {
            ring_capacity: Some(capacity),
        }
    }
}

#[derive(Default)]
struct State {
    events: VecDeque<TraceEvent>,
    /// Events recorded so far, evicted ones included; the next event's
    /// `seq`.
    seen: u64,
    dropped: u64,
    spans: Vec<SpanRecord>,
    metrics: MetricsRegistry,
    /// Counters auto-derived from recorded events, accumulated per
    /// [`EventKind::index`] so the hot path never hashes a counter name.
    /// Folded into `metrics` under [`COUNTER_NAMES`] at export time.
    kind_counts: [u64; KIND_COUNT],
}

struct Inner {
    epoch: Instant,
    ring_capacity: Option<usize>,
    state: Mutex<State>,
}

impl Inner {
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("recorder state")
    }
}

/// `events` in the order of [`Recorder::events`], without copying them.
fn sorted(events: &VecDeque<TraceEvent>) -> Vec<&TraceEvent> {
    let mut refs: Vec<&TraceEvent> = events.iter().collect();
    refs.sort_by(|a, b| canonical_order(a, b));
    refs
}

/// A handle to the observability subsystem.
///
/// Cloning is cheap (an `Option<Arc>`); the disabled recorder —
/// [`Recorder::disabled`], also the `Default` — reduces every recording
/// call to one branch and allocates nothing, which is what makes "off"
/// free. All recording methods take event payloads and span arguments as
/// closures so the cost of *building* them is only paid when enabled.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => write!(f, "Recorder(disabled)"),
            Some(inner) => write!(f, "Recorder(ring={:?})", inner.ring_capacity),
        }
    }
}

impl Recorder {
    /// The no-op recorder.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled recorder with the given configuration.
    pub fn new(config: ObsConfig) -> Self {
        // Preallocate the event buffer: growth-by-doubling reallocs on the
        // recording hot path are a measurable fraction of the tracing
        // overhead budget.
        let capacity = match config.ring_capacity {
            Some(cap) => cap.min(65_536) + 1,
            None => 4_096,
        };
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                ring_capacity: config.ring_capacity,
                state: Mutex::new(State {
                    events: VecDeque::with_capacity(capacity),
                    ..State::default()
                }),
            })),
        }
    }

    /// An enabled recorder that keeps every event.
    pub fn full() -> Self {
        Self::new(ObsConfig::full())
    }

    /// An enabled recorder keeping the last `capacity` events.
    pub fn flight_recorder(capacity: usize) -> Self {
        Self::new(ObsConfig::flight_recorder(capacity))
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records a trace event at simulated time `t`. The payload closure
    /// runs only when the recorder is enabled.
    pub fn event(&self, t: f64, node: Option<u32>, kind: impl FnOnce() -> EventKind) {
        let Some(inner) = &self.inner else { return };
        let kind = kind();
        let mut st = inner.state();
        if let Some((_, delta)) = kind.counter() {
            st.kind_counts[kind.index()] += delta;
        }
        let seq = st.seen;
        st.seen += 1;
        st.events.push_back(TraceEvent {
            t,
            tid: 0,
            seq,
            node,
            kind,
        });
        if let Some(cap) = inner.ring_capacity {
            while st.events.len() > cap {
                st.events.pop_front();
                st.dropped += 1;
            }
        }
    }

    /// Adds `delta` to a named counter. Counters paired with trace events
    /// need no explicit call — [`Recorder::event`] accumulates those
    /// automatically (see [`EventKind::counter`]).
    pub fn count(&self, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        inner.state().metrics.count(name, delta);
    }

    /// Sets a named gauge.
    pub fn gauge(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.state().metrics.gauge(name, value);
    }

    /// Records one observation into a named histogram.
    pub fn observe(&self, name: &str, value: usize) {
        let Some(inner) = &self.inner else { return };
        inner.state().metrics.observe(name, value);
    }

    /// Opens a profiling span; it closes (and records) when dropped.
    #[must_use = "a span measures until it is dropped"]
    pub fn span(&self, name: &'static str) -> Span {
        self.span_inner(name, None)
    }

    /// Opens a profiling span with a lazily built detail string.
    #[must_use = "a span measures until it is dropped"]
    pub fn span_with(&self, name: &'static str, args: impl FnOnce() -> String) -> Span {
        let args = self.inner.is_some().then(args);
        self.span_inner(name, args)
    }

    fn span_inner(&self, name: &'static str, args: Option<String>) -> Span {
        let Some(inner) = &self.inner else {
            return Span(None);
        };
        Span(Some(ActiveSpan {
            inner: Arc::clone(inner),
            name,
            args,
            start: Instant::now(),
        }))
    }

    // --- export -----------------------------------------------------------

    /// All retained events in the canonical `(t, tid, seq)` order (`tid` is
    /// always 0 here). For a recorder fed in time order it is exactly
    /// recording order — for a simulation's recorder, the canonical order
    /// its executor records in at every shard count.
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        sorted(&inner.state().events).into_iter().cloned().collect()
    }

    /// The retained events as JSONL: a [`crate::event::trace_header`]
    /// version line followed by one event object per line, in the order of
    /// [`Recorder::events`]. Every event is written straight into one
    /// buffer, under the recorder's lock: a thread recording meanwhile
    /// waits for the write.
    pub fn events_jsonl(&self) -> String {
        let mut out = crate::event::trace_header();
        out.push('\n');
        let Some(inner) = &self.inner else {
            return out;
        };
        let state = inner.state();
        // A recorded event is ~110 bytes of JSON; the pages a generous
        // reservation leaves untouched cost no memory.
        out.reserve(state.events.len() * 128);
        for ev in sorted(&state.events) {
            serde::Serialize::write_json(ev, &mut out);
            out.push('\n');
        }
        out
    }

    /// All completed spans, sorted by `start_us`.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut spans = inner.state().spans.clone();
        spans.sort_by_key(|s| s.start_us);
        spans
    }

    /// The spans as Chrome `trace_event` JSON (loads in `about:tracing`
    /// and Perfetto), on one track.
    pub fn chrome_trace(&self) -> String {
        chrome_trace_json(&self.spans(), &[(0, "veil".to_string())])
    }

    /// The metrics, with the event-derived counters folded in.
    pub fn metrics(&self) -> MetricsRegistry {
        let Some(inner) = &self.inner else {
            return MetricsRegistry::new();
        };
        let st = inner.state();
        let mut metrics = st.metrics.clone();
        for (i, &total) in st.kind_counts.iter().enumerate() {
            if total > 0 {
                if let Some(name) = COUNTER_NAMES[i] {
                    metrics.count(name, total);
                }
            }
        }
        metrics
    }

    /// The metrics as pretty JSON.
    pub fn metrics_json(&self) -> String {
        serde_json::to_string_pretty(&self.metrics().snapshot()).expect("metrics serialize")
    }

    /// The metrics in Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        self.metrics().prometheus_text()
    }

    /// Total events emitted (including any evicted from the ring).
    pub fn events_seen(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.state().seen)
    }

    /// Events evicted by a flight-recorder ring (0 in full-sink mode).
    pub fn events_dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.state().dropped)
    }
}

struct ActiveSpan {
    inner: Arc<Inner>,
    name: &'static str,
    args: Option<String>,
    start: Instant,
}

/// RAII profiling span; records its wall-clock duration on drop.
/// Obtained from [`Recorder::span`]; a disabled recorder returns an inert
/// span that does nothing.
pub struct Span(Option<ActiveSpan>);

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.0.take() {
            let end = Instant::now();
            let ActiveSpan {
                inner,
                name,
                args,
                start,
            } = active;
            let start_us = start.duration_since(inner.epoch).as_micros() as u64;
            let dur_us = end.duration_since(start).as_micros() as u64;
            let span = SpanRecord {
                name: name.to_string(),
                tid: 0,
                start_us,
                dur_us,
                args,
            };
            // A drop must not panic: a poisoned lock loses the span.
            if let Ok(mut st) = inner.state.lock() {
                st.spans.push(span);
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.event(1.0, Some(2), || EventKind::NodeOnline);
        r.count("c", 1);
        r.observe("h", 3);
        {
            let _span = r.span("phase");
        }
        assert!(r.events().is_empty());
        assert!(r.spans().is_empty());
        assert!(r.metrics().is_empty());
        assert_eq!(r.events_seen(), 0);
    }

    #[test]
    fn event_payload_closure_is_lazy() {
        let r = Recorder::disabled();
        let mut built = false;
        r.event(0.0, None, || {
            built = true;
            EventKind::NodeOnline
        });
        assert!(!built, "disabled recorder must not build payloads");
        let r = Recorder::full();
        r.event(0.0, None, || {
            built = true;
            EventKind::NodeOnline
        });
        assert!(built);
    }

    #[test]
    fn events_are_recorded_in_order() {
        let r = Recorder::full();
        r.event(0.5, Some(1), || EventKind::NodeOffline);
        r.event(0.5, Some(2), || EventKind::NodeOnline);
        r.event(1.5, None, || EventKind::BlackoutEnd);
        let events = r.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].node, Some(1));
        assert_eq!(events[1].node, Some(2));
        assert_eq!(events[2].t, 1.5);
        assert_eq!(r.events_seen(), 3);
        assert_eq!(r.events_dropped(), 0);
        // One buffer: contiguous seqs in recording order.
        assert!(events.iter().enumerate().all(|(i, e)| e.seq == i as u64));
    }

    #[test]
    fn flight_recorder_keeps_the_tail() {
        let r = Recorder::flight_recorder(2);
        for i in 0..5u64 {
            r.event(i as f64, None, || EventKind::BroadcastPublish {
                message: i,
            });
        }
        let events = r.events();
        assert_eq!(events.len(), 2);
        assert_eq!(r.events_seen(), 5);
        assert_eq!(r.events_dropped(), 3);
        assert_eq!(events[0].kind, EventKind::BroadcastPublish { message: 3 });
        assert_eq!(events[1].kind, EventKind::BroadcastPublish { message: 4 });
    }

    #[test]
    fn spans_nest_and_export_to_chrome_trace() {
        let r = Recorder::full();
        {
            let _outer = r.span("outer");
            let _inner = r.span_with("inner", || "detail".to_string());
        }
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        // Inner drops first, outer encloses it.
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert!(outer.start_us <= inner.start_us);
        assert_eq!(inner.args.as_deref(), Some("detail"));
        let trace = r.chrome_trace();
        let v: serde_json::Value = serde_json::from_str(&trace).unwrap();
        assert_eq!(
            v.get("traceEvents").unwrap().as_seq().unwrap().len(),
            3 // thread_name metadata + 2 spans
        );
    }

    #[test]
    fn jsonl_export_validates_against_schema() {
        let r = Recorder::full();
        r.event(0.0, Some(3), || EventKind::ShuffleStart {
            target: 5,
            trusted: true,
        });
        r.event(3.0, Some(3), || EventKind::ShuffleComplete { exchange: 0 });
        let jsonl = r.events_jsonl();
        assert_eq!(crate::event::validate_events_jsonl(&jsonl), Ok(2));
    }

    #[test]
    fn metrics_merge_across_threads() {
        let r = Recorder::full();
        r.count("c", 1);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = r.clone();
                scope.spawn(move || {
                    r.count("c", 10);
                    r.observe("h", 2);
                });
            }
        });
        assert_eq!(r.metrics().counter("c"), 41);
        assert_eq!(r.metrics().histogram("h").unwrap().total(), 4);
        let prom = r.prometheus_text();
        assert!(prom.contains("veil_c_total 41"));
    }

    #[test]
    fn shards_are_per_recorder() {
        let a = Recorder::full();
        let b = Recorder::full();
        a.event(0.0, None, || EventKind::NodeOnline);
        b.event(0.0, None, || EventKind::NodeOffline);
        assert_eq!(a.events().len(), 1);
        assert_eq!(b.events().len(), 1);
        assert_eq!(a.events()[0].kind, EventKind::NodeOnline);
        assert_eq!(b.events()[0].kind, EventKind::NodeOffline);
    }
}
