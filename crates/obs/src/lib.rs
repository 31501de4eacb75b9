//! Zero-overhead-when-off observability for the veil overlay simulator.
//!
//! Three facilities share one handle, the [`Recorder`]:
//!
//! * **Structured event tracing** — typed [`TraceEvent`]s (shuffle
//!   start/complete/timeout/retry/eviction, pseudonym birth/expiry, churn
//!   transitions, fault episodes, broadcast hops) captured into one buffer
//!   per recorder, either unbounded (full JSONL sink) or as a bounded
//!   flight-recorder ring. Export as JSONL; validate with
//!   [`validate_events_jsonl`].
//! * **Metrics** — named counters, gauges and `veil-metrics` histograms
//!   ([`MetricsRegistry`]) with Prometheus text and JSON export.
//! * **Profiling spans** — RAII [`Span`]s measuring wall-clock time,
//!   exportable as Chrome `trace_event` JSON for `about:tracing`/Perfetto.
//!
//! # Zero overhead when off
//!
//! The default recorder is disabled: every recording call is one branch on
//! an `Option` and event payloads / span details are taken as closures, so
//! nothing is built or allocated. `bench_obs` in `veil-bench` checks the
//! no-op path costs nothing measurable.
//!
//! # RNG isolation
//!
//! The recorder never draws randomness: simulations behave byte-identically
//! with tracing on or off (pinned by the `obs_equivalence` test suite).
//!
//! # Example
//!
//! ```rust,ignore
//! let rec = veil_obs::Recorder::full();
//! {
//!     let _phase = rec.span("warmup");
//!     rec.event(0.0, Some(3), || veil_obs::EventKind::NodeOnline);
//!     rec.count("sim.churn_transitions", 1);
//! }
//! std::fs::write("trace.jsonl", rec.events_jsonl()).unwrap();
//! std::fs::write("chrome.json", rec.chrome_trace()).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod recorder;
pub mod span;

pub mod diff;
pub mod merge;
pub mod replay;
pub mod xtrace;

pub use diff::{diff_reports, DiffConfig, DiffEntry, TraceDiff};
pub use event::{
    schema_text, trace_header, validate_events_jsonl, validate_events_reader, EventKind,
    TraceDecoder, TraceEvent, TRACE_SCHEMA_VERSION,
};
pub use merge::merge_traces;
pub use metrics::{HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use recorder::{ObsConfig, Recorder, Span};
pub use replay::{
    analyze_events, analyze_trace, analyze_trace_reader, AlertRecord, BlackoutRecord, RoundStats,
    TraceReport,
};
pub use span::{chrome_trace_json, SpanRecord};
pub use xtrace::{correlate_exchanges, exchange_chrome_trace, ExchangeRecord};
