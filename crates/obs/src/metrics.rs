//! Metrics registry: named counters, gauges and integer histograms with
//! Prometheus-style text export and JSON export.
//!
//! A [`MetricsRegistry`] is plain data — the [`Recorder`](crate::Recorder)
//! keeps one behind its lock and hands out a copy at export time.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use veil_metrics::Histogram;

/// Named counters, gauges and histograms.
///
/// Keys use dotted lower-case names (`"sim.shuffles_started"`); the
/// Prometheus export rewrites them to `veil_sim_shuffles_started`.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// JSON-exportable summary of one histogram.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest observation (`None` when empty).
    pub min: Option<usize>,
    /// Median (nearest-rank).
    pub p50: Option<usize>,
    /// 90th percentile (nearest-rank).
    pub p90: Option<usize>,
    /// 99th percentile (nearest-rank).
    pub p99: Option<usize>,
    /// Largest observation (`None` when empty).
    pub max: Option<usize>,
}

impl HistogramSummary {
    /// Summarizes a histogram.
    pub fn of(h: &Histogram) -> Self {
        Self {
            count: h.total(),
            mean: h.mean(),
            min: h.min_value(),
            p50: h.quantile(0.5),
            p90: h.quantile(0.9),
            p99: h.quantile(0.99),
            max: h.max_value(),
        }
    }
}

/// The JSON export shape: counters and gauges verbatim, histograms as
/// summaries. `Deserialize` lets the fleet collector parse documents
/// scraped back from a node's metrics endpoint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram name → summary.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a counter, creating it at zero first.
    pub fn count(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Sets a gauge to `value`.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one observation into a histogram, creating it if needed.
    pub fn observe(&mut self, name: &str, value: usize) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram by name, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The JSON export shape (histograms summarized).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), HistogramSummary::of(h)))
                .collect(),
        }
    }

    /// Prometheus text exposition format.
    ///
    /// Counters become `veil_<name>_total`, gauges `veil_<name>`, and
    /// histograms Prometheus summaries with `quantile` labels plus
    /// `_sum`/`_count` series.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let p = prom_name(name);
            out.push_str(&format!("# TYPE veil_{p}_total counter\n"));
            out.push_str(&format!("veil_{p}_total {value}\n"));
        }
        for (name, value) in &self.gauges {
            let p = prom_name(name);
            out.push_str(&format!("# TYPE veil_{p} gauge\n"));
            out.push_str(&format!("veil_{p} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let p = prom_name(name);
            out.push_str(&format!("# TYPE veil_{p} summary\n"));
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                if let Some(v) = h.quantile(q) {
                    out.push_str(&format!("veil_{p}{{quantile=\"{label}\"}} {v}\n"));
                }
            }
            let sum: u64 = h.iter().map(|(v, c)| v as u64 * c).sum();
            out.push_str(&format!("veil_{p}_sum {sum}\n"));
            out.push_str(&format!("veil_{p}_count {}\n", h.total()));
        }
        out
    }
}

/// Rewrites a dotted metric name into a Prometheus-safe identifier.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.count("sim.shuffles", 1);
        m.count("sim.shuffles", 2);
        assert_eq!(m.counter("sim.shuffles"), 3);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn prometheus_text_shape() {
        let mut m = MetricsRegistry::new();
        m.count("sim.shuffles_started", 7);
        m.gauge("engine.queue_high_water", 42.0);
        m.observe("sim.node_links", 3);
        m.observe("sim.node_links", 5);
        let text = m.prometheus_text();
        assert!(text.contains("# TYPE veil_sim_shuffles_started_total counter"));
        assert!(text.contains("veil_sim_shuffles_started_total 7"));
        assert!(text.contains("veil_engine_queue_high_water 42"));
        assert!(text.contains("veil_sim_node_links{quantile=\"0.5\"} 3"));
        assert!(text.contains("veil_sim_node_links_count 2"));
        assert!(text.contains("veil_sim_node_links_sum 8"));
    }

    #[test]
    fn snapshot_serializes() {
        let mut m = MetricsRegistry::new();
        m.count("c", 1);
        m.observe("h", 4);
        let json = serde_json::to_string(&m.snapshot()).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(v.get("counters").is_some());
        assert!(v
            .get("histograms")
            .unwrap()
            .get("h")
            .unwrap()
            .get("p50")
            .is_some());
    }
}
