//! Per-node transport telemetry: a second recorder and a metrics
//! registry for the wire layer, kept strictly apart from the protocol
//! trace.
//!
//! The protocol trace (`node-N.jsonl`) is what the fleet merges and
//! diffs against the simulator oracle; its contents must be a pure
//! function of the scenario plus real network timing. Telemetry —
//! handshake rejections, decode errors, connection closes, periodic I/O
//! samples, the RTT histogram — therefore lives in a *separate*
//! [`Recorder`] whose events go to `node-N.telemetry.jsonl`, and in a
//! [`MetricsRegistry`] served over the control socket
//! ([`crate::control`]). Every telemetry hook only *reads* values the
//! runtime already computed (the same RNG-isolation rule `veil-obs`
//! enforces in the simulator), so a run with telemetry on emits exactly
//! the protocol events of a run with it off.

use crate::control::{ControlServer, ScrapeRequest};
use crate::sock::{Conn, IoCounters};
use veil_obs::{EventKind as Obs, MetricsRegistry, MetricsSnapshot, Recorder};

/// The wall-clock request→response histogram, in microseconds.
pub const RTT_METRIC: &str = "net.rtt_us";

/// Largest round trip [`RTT_METRIC`] resolves. The histogram behind it
/// is dense — eight bytes per microsecond up to the slowest sample — so
/// this ceiling is also its memory bound (2 MB per node). Slower round
/// trips are recorded at the ceiling and counted in `net.rtt_overflow`.
pub const RTT_CEILING_US: u64 = 250_000;

/// Transport telemetry for one node process. Constructed only when
/// telemetry is enabled; a disabled node carries `None` and pays nothing.
pub struct NodeTelemetry {
    node: u32,
    rec: Recorder,
    metrics: MetricsRegistry,
    control: Option<ControlServer>,
    /// Logical time of the next periodic [`Obs::NetBytes`] sample.
    next_sample: f64,
}

impl NodeTelemetry {
    /// Creates the telemetry side of a node, answering scrapes on
    /// `control` when the node serves a metrics endpoint.
    pub fn new(node: u32, control: Option<ControlServer>) -> Self {
        Self {
            node,
            rec: Recorder::full(),
            metrics: MetricsRegistry::new(),
            control,
            next_sample: 1.0,
        }
    }

    /// Banks one connection's I/O deltas into the registry and emits a
    /// [`Obs::NetDecodeError`] event per newly seen error.
    pub fn on_io(&mut self, t: f64, d: IoCounters) {
        if d.is_zero() {
            return;
        }
        self.metrics.count("net.bytes_in", d.bytes_in);
        self.metrics.count("net.bytes_out", d.bytes_out);
        self.metrics.count("net.frames_in", d.frames_in);
        self.metrics.count("net.frames_out", d.frames_out);
        self.metrics.count("net.decode_errors", d.decode_errors);
        self.metrics.count("net.frame_errors", d.frame_errors);
        self.metrics.count("net.write_stalls", d.write_stalls);
        for _ in 0..d.decode_errors {
            self.rec
                .event(t, Some(self.node), || Obs::NetDecodeError { fatal: false });
        }
        for _ in 0..d.frame_errors {
            self.rec
                .event(t, Some(self.node), || Obs::NetDecodeError { fatal: true });
        }
    }

    /// Records a connection being closed, with its lifetime I/O totals.
    pub fn on_conn_close(&mut self, t: f64, conn: &Conn) {
        self.metrics.count("net.conn_closes", 1);
        let (inbound, bytes_in, bytes_out) = (conn.inbound, conn.bytes_in, conn.bytes_out);
        self.rec.event(t, Some(self.node), || Obs::NetConnClose {
            inbound,
            bytes_in,
            bytes_out,
        });
    }

    /// Records a rejected handshake.
    pub fn on_handshake_fail(&mut self, t: f64, reason: &str) {
        self.metrics.count("net.handshake_failures", 1);
        let reason = reason.to_string();
        self.rec
            .event(t, Some(self.node), || Obs::NetHandshakeFail { reason });
    }

    /// Bumps a plain telemetry counter (`net.handshakes_ok`,
    /// `net.reconnects`, `net.dial_failures`, ...).
    pub fn count(&mut self, name: &str, delta: u64) {
        self.metrics.count(name, delta);
    }

    /// Observes one request→response round trip.
    pub fn observe_rtt(&mut self, micros: u64) {
        if micros > RTT_CEILING_US {
            self.metrics.count("net.rtt_overflow", 1);
        }
        self.metrics
            .observe(RTT_METRIC, micros.min(RTT_CEILING_US) as usize);
    }

    /// Logical time of the next periodic sample: the node loop waits no
    /// further than this.
    pub fn next_sample(&self) -> f64 {
        self.next_sample
    }

    /// Upkeep on every turn of the node loop: refreshes the send-queue
    /// and pending-exchange gauges, and once per shuffle period emits a
    /// cumulative [`Obs::NetBytes`] sample.
    pub fn sample(&mut self, t: f64, send_queue_bytes: u64, pending_exchanges: usize) {
        self.metrics
            .gauge("net.send_queue_bytes", send_queue_bytes as f64);
        self.metrics
            .gauge("net.pending_exchanges", pending_exchanges as f64);
        if t < self.next_sample {
            return;
        }
        self.next_sample = t.floor() + 1.0;
        let (bytes_in, bytes_out, frames_in, frames_out) = (
            self.metrics.counter("net.bytes_in"),
            self.metrics.counter("net.bytes_out"),
            self.metrics.counter("net.frames_in"),
            self.metrics.counter("net.frames_out"),
        );
        self.rec.event(t, Some(self.node), || Obs::NetBytes {
            bytes_in,
            bytes_out,
            frames_in,
            frames_out,
        });
    }

    /// Answers one scrape from the current registry.
    pub fn answer(&mut self, request: ScrapeRequest) {
        let Some(control) = self.control.as_mut() else {
            return;
        };
        let node = self.node;
        let metrics = &self.metrics;
        control.respond(request, |path| match path {
            "/metrics" => Some(("text/plain; version=0.0.4", metrics.prometheus_text())),
            "/metrics.json" | "/json" => {
                Some(("application/json", metrics_json(node, &metrics.snapshot())))
            }
            _ => None,
        });
    }

    /// Finishes the node: returns the telemetry trace (JSONL, with
    /// header) and the final metrics snapshot.
    pub fn finish(mut self) -> (String, MetricsSnapshot) {
        if let Some(control) = &self.control {
            self.metrics
                .count("net.scrapes_served", control.requests_served);
        }
        (self.rec.events_jsonl(), self.metrics.snapshot())
    }
}

/// Renders a node's metrics snapshot as the JSON document served on
/// `/metrics.json` and written to `--metrics-out`:
/// `{"node":N,"counters":{...},"gauges":{...},"histograms":{...}}`.
pub fn metrics_json(node: u32, snap: &MetricsSnapshot) -> String {
    let body = serde_json::to_string(snap).expect("metrics snapshot serializes");
    // The snapshot serializes to `{"counters":...}`; splice the node id
    // in as the first key.
    format!("{{\"node\":{node},{}", &body[1..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_events_validate_and_counters_accumulate() {
        let mut tel = NodeTelemetry::new(3, None);
        tel.on_io(
            0.5,
            IoCounters {
                bytes_in: 100,
                bytes_out: 80,
                frames_in: 2,
                frames_out: 2,
                decode_errors: 1,
                frame_errors: 1,
                write_stalls: 0,
            },
        );
        tel.on_handshake_fail(0.6, "scenario seed 9 differs from ours");
        tel.observe_rtt(750);
        tel.sample(1.2, 64, 1);
        let (trace, snap) = tel.finish();
        veil_obs::validate_events_jsonl(&trace).expect("telemetry trace validates");
        assert!(trace.contains("NetDecodeError"));
        assert!(trace.contains("NetHandshakeFail"));
        assert!(trace.contains("NetBytes"));
        assert_eq!(snap.counters.get("net.bytes_in"), Some(&100));
        assert_eq!(snap.counters.get("net.decode_errors"), Some(&1));
        assert_eq!(snap.counters.get("net.frame_errors"), Some(&1));
        assert_eq!(snap.counters.get("net.handshake_failures"), Some(&1));
        assert_eq!(snap.gauges.get("net.send_queue_bytes"), Some(&64.0));
        assert_eq!(snap.histograms.get(RTT_METRIC).map(|h| h.count), Some(1));
    }

    /// The RTT histogram is dense: a sample is clamped at the ceiling
    /// (and counted) so one slow round trip cannot size it.
    #[test]
    fn rtt_is_clamped_at_the_ceiling_and_the_overflow_counted() {
        let mut tel = NodeTelemetry::new(0, None);
        tel.observe_rtt(RTT_CEILING_US);
        tel.observe_rtt(RTT_CEILING_US + 1);
        tel.observe_rtt(u64::MAX);
        let (_, snap) = tel.finish();
        let rtt = &snap.histograms[RTT_METRIC];
        assert_eq!(rtt.count, 3);
        assert_eq!(rtt.max, Some(RTT_CEILING_US as usize));
        assert_eq!(snap.counters.get("net.rtt_overflow"), Some(&2));
    }

    #[test]
    fn sample_fires_once_per_period() {
        let mut tel = NodeTelemetry::new(0, None);
        tel.sample(0.2, 0, 0); // before the first boundary: no event
        tel.sample(1.1, 0, 0); // fires, next at 2.0
        tel.sample(1.9, 0, 0); // not yet
        tel.sample(2.0, 0, 0); // fires
        let (trace, _) = tel.finish();
        let samples = trace.matches("NetBytes").count();
        assert_eq!(samples, 2, "{trace}");
    }

    #[test]
    fn metrics_json_embeds_the_node_id() {
        let mut m = MetricsRegistry::new();
        m.count("net.frames_in", 4);
        let json = metrics_json(7, &m.snapshot());
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v.get("node").and_then(|n| n.as_u64()), Some(7));
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("net.frames_in"))
                .and_then(|n| n.as_u64()),
            Some(4)
        );
    }
}
