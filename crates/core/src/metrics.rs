//! Overlay-quality metrics and time-series collection (Section IV-C).
//!
//! Wraps the graph metrics of `veil-graph` into snapshot records taken from
//! a running [`Simulation`], and provides the periodic collector used by
//! the convergence experiments (Figures 8 and 9).

use crate::simulation::Simulation;
use serde::{Deserialize, Serialize};
use veil_graph::metrics as gm;
use veil_metrics::{Histogram, TimeSeries};

/// A point-in-time measurement of overlay quality.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverlaySnapshot {
    /// Simulation time of the snapshot, in shuffle periods.
    pub time: f64,
    /// Nodes currently online.
    pub online_nodes: usize,
    /// Fraction of online nodes outside the largest connected component of
    /// the online overlay (the paper's connectivity metric).
    pub fraction_disconnected: f64,
    /// Same metric evaluated on the trust graph alone (the F2F baseline).
    pub fraction_disconnected_trust: f64,
    /// Total distinct pseudonym links over all nodes.
    pub pseudonym_links: usize,
    /// Cumulative pseudonym-link removals over all nodes.
    pub cumulative_link_removals: u64,
    /// Cumulative shuffle messages lost in transit over all nodes (peer
    /// offline, churned mid-transit, or dropped by the fault-injecting link
    /// layer).
    pub dropped_requests: u64,
    /// Cumulative shuffle exchanges abandoned after retry exhaustion over
    /// all nodes (faulty link layer only).
    pub shuffle_failures: u64,
    /// Cumulative timed-out shuffle requests that were retransmitted over
    /// all nodes (faulty link layer only).
    pub shuffle_retries: u64,
}

/// Takes a snapshot of the simulation's current overlay.
pub fn snapshot(sim: &Simulation) -> OverlaySnapshot {
    let online = sim.online_mask();
    let overlay = sim.overlay_graph();
    let mut dropped_requests = 0;
    let mut shuffle_failures = 0;
    let mut shuffle_retries = 0;
    for v in 0..sim.node_count() {
        let stats = sim.node(v).stats;
        dropped_requests += stats.dropped_requests;
        shuffle_failures += stats.shuffle_failures;
        shuffle_retries += stats.shuffle_retries;
    }
    OverlaySnapshot {
        time: sim.now().as_f64(),
        online_nodes: online.iter().filter(|&&b| b).count(),
        fraction_disconnected: gm::fraction_disconnected(&overlay, &online),
        fraction_disconnected_trust: gm::fraction_disconnected(sim.trust_graph(), &online),
        pseudonym_links: (0..sim.node_count())
            .map(|v| sim.node(v).sampler.link_count())
            .sum(),
        cumulative_link_removals: sim.total_link_removals(),
        dropped_requests,
        shuffle_failures,
        shuffle_retries,
    }
}

/// Normalized average path length of the current online overlay
/// (expensive: all-pairs BFS within the largest component).
pub fn normalized_path_length(sim: &Simulation) -> f64 {
    let online = sim.online_mask();
    let overlay = sim.overlay_graph();
    gm::normalized_avg_path_length(&overlay, Some(&online))
}

/// Degree histogram of the current online overlay (Figure 5): for each
/// online node, the number of its overlay neighbours that are also online.
pub fn degree_histogram(sim: &Simulation) -> Histogram {
    let online = sim.online_mask();
    let overlay = sim.overlay_graph();
    gm::degree_histogram(&overlay, Some(&online))
}

/// Periodic collector producing the time series of Figures 8 and 9:
/// connectivity over time and link replacements per node per shuffle
/// period.
///
/// # Examples
///
/// ```
/// use veil_core::config::OverlayConfig;
/// use veil_core::metrics::Collector;
/// use veil_core::simulation::Simulation;
/// use veil_graph::generators;
/// use veil_sim::churn::ChurnConfig;
/// use veil_sim::rng::{derive_rng, Stream};
///
/// # fn main() -> Result<(), veil_core::error::CoreError> {
/// let mut rng = derive_rng(1, Stream::Topology);
/// let trust = generators::social_graph(40, 3, &mut rng).unwrap();
/// let churn = ChurnConfig::from_availability(0.5, 10.0);
/// let mut sim = Simulation::new(trust, OverlayConfig::default(), churn, 1)?;
/// let mut collector = Collector::new(5.0);
/// collector.run(&mut sim, 20.0);
/// assert_eq!(collector.connectivity().len(), 5); // t = 0, 5, 10, 15, 20
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Collector {
    interval: f64,
    connectivity: TimeSeries,
    connectivity_trust: TimeSeries,
    replacement_rate: TimeSeries,
    last_removals: u64,
    last_time: f64,
    started: bool,
}

impl Collector {
    /// Creates a collector sampling every `interval` shuffle periods.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive.
    pub fn new(interval: f64) -> Self {
        assert!(interval > 0.0, "sampling interval must be positive");
        Self {
            interval,
            ..Self::default()
        }
    }

    /// Runs the simulation until `horizon`, sampling every `interval`
    /// periods (including at the starting instant of this call and at the
    /// horizon when it falls on the grid).
    pub fn run(&mut self, sim: &mut Simulation, horizon: f64) {
        let mut t = if self.started {
            self.last_time + self.interval
        } else {
            sim.now().as_f64()
        };
        while t <= horizon + 1e-9 {
            sim.run_until(t);
            self.sample(sim);
            t += self.interval;
        }
        sim.run_until(horizon);
    }

    fn sample(&mut self, sim: &Simulation) {
        let snap = snapshot(sim);
        self.connectivity
            .push(snap.time, snap.fraction_disconnected);
        self.connectivity_trust
            .push(snap.time, snap.fraction_disconnected_trust);
        if self.started {
            let dt = snap.time - self.last_time;
            let removed = (snap.cumulative_link_removals - self.last_removals) as f64;
            let per_node_per_period = if dt > 0.0 {
                removed / dt / sim.node_count() as f64
            } else {
                0.0
            };
            self.replacement_rate.push(snap.time, per_node_per_period);
        }
        self.last_removals = snap.cumulative_link_removals;
        self.last_time = snap.time;
        self.started = true;
    }

    /// Fraction of disconnected online nodes over time (overlay).
    pub fn connectivity(&self) -> &TimeSeries {
        &self.connectivity
    }

    /// Fraction of disconnected online nodes over time (trust graph).
    pub fn connectivity_trust(&self) -> &TimeSeries {
        &self.connectivity_trust
    }

    /// Pseudonym-link replacements per node per shuffle period over time
    /// (one point per sampling interval, starting after the first).
    pub fn replacement_rate(&self) -> &TimeSeries {
        &self.replacement_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LinkLayerConfig, OverlayConfig};
    use crate::sim_exec::mailbox::WINDOW;
    use veil_graph::generators;
    use veil_sim::churn::ChurnConfig;
    use veil_sim::fault::{FaultConfig, LatencyDist};
    use veil_sim::rng::{derive_rng, Stream};

    fn sim(alpha: f64, seed: u64) -> Simulation {
        sim_over(LinkLayerConfig::Ideal, alpha, seed)
    }

    fn sim_over(link: LinkLayerConfig, alpha: f64, seed: u64) -> Simulation {
        let mut rng = derive_rng(seed, Stream::Topology);
        let trust = generators::social_graph(50, 3, &mut rng).unwrap();
        let cfg = OverlayConfig {
            cache_size: 50,
            shuffle_length: 8,
            target_links: 12,
            link,
            ..OverlayConfig::default()
        };
        let churn = ChurnConfig::from_availability(alpha, 10.0);
        Simulation::new(trust, cfg, churn, seed).unwrap()
    }

    #[test]
    fn snapshot_at_start() {
        let s = sim(1.0, 1);
        let snap = snapshot(&s);
        assert_eq!(snap.time, 0.0);
        assert_eq!(snap.online_nodes, 50);
        assert_eq!(snap.pseudonym_links, 0, "no gossip has happened yet");
        // The generated trust graph is connected and everyone is online.
        assert_eq!(snap.fraction_disconnected, 0.0);
        assert_eq!(snap.fraction_disconnected_trust, 0.0);
    }

    #[test]
    fn snapshot_improves_over_time_under_churn() {
        let mut s = sim(0.4, 2);
        let early = snapshot(&s);
        s.run_until(80.0);
        let late = snapshot(&s);
        assert!(late.pseudonym_links > early.pseudonym_links);
        assert!(
            late.fraction_disconnected <= late.fraction_disconnected_trust,
            "overlay {} vs trust {}",
            late.fraction_disconnected,
            late.fraction_disconnected_trust
        );
    }

    #[test]
    fn collector_samples_on_grid() {
        let mut s = sim(0.5, 3);
        let mut c = Collector::new(2.0);
        c.run(&mut s, 10.0);
        let times: Vec<f64> = c.connectivity().iter().map(|(t, _)| t).collect();
        assert_eq!(times, vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
        // Replacement rate starts one interval later.
        assert_eq!(c.replacement_rate().len(), 5);
    }

    #[test]
    fn collector_resumes_without_duplicate_sample() {
        let mut s = sim(0.5, 4);
        let mut c = Collector::new(2.0);
        c.run(&mut s, 4.0);
        c.run(&mut s, 8.0);
        let times: Vec<f64> = c.connectivity().iter().map(|(t, _)| t).collect();
        assert_eq!(times, vec![0.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn normalized_path_length_positive_when_connected() {
        let mut s = sim(1.0, 5);
        s.run_until(20.0);
        let npl = normalized_path_length(&s);
        assert!(npl > 1.0, "normalized path length {npl}");
    }

    #[test]
    fn degree_histogram_counts_online_nodes() {
        let mut s = sim(0.5, 6);
        s.run_until(20.0);
        let h = degree_histogram(&s);
        assert_eq!(h.total() as usize, s.online_count());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn collector_rejects_zero_interval() {
        Collector::new(0.0);
    }

    #[test]
    fn snapshot_counts_fault_statistics() {
        let clean = |s: &OverlaySnapshot| {
            (s.dropped_requests, s.shuffle_failures, s.shuffle_retries) == (0, 0, 0)
        };
        // Always-on nodes over an ideal link layer lose nothing.
        let mut quiet = sim(1.0, 7);
        quiet.run_until(20.0);
        assert!(clean(&snapshot(&quiet)));
        // Nor over a slow link that never drops, when a round trip (each
        // leg takes at most a window or the latency, whichever is longer)
        // fits the timeout: every exchange completes on its first attempt.
        let latency = 0.5;
        let slow = LinkLayerConfig::Faulty(FaultConfig {
            latency: LatencyDist::Constant { value: latency },
            ..FaultConfig::none()
        });
        assert!(2.0 * latency.max(WINDOW) < OverlayConfig::default().shuffle_timeout);
        let mut quiet = sim_over(slow.clone(), 1.0, 7);
        quiet.run_until(20.0);
        assert!(clean(&snapshot(&quiet)));
        // Under churn the same link finds peers gone, and — it reports no
        // deliverability — learns so by silence: timeouts, then retries.
        let mut churny = sim_over(slow, 0.4, 7);
        churny.run_until(80.0);
        let snap = snapshot(&churny);
        assert!(snap.dropped_requests > 0, "churn should drop some requests");
        assert!(snap.shuffle_retries > 0, "a lost request is retried");
    }
}
