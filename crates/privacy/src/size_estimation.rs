//! Estimating the number of participants (Section III-E4).
//!
//! "If the number of nodes in the system is small, then all nodes will
//! eventually see all pseudonyms in the system before they expire, which
//! allows nodes to estimate the number of participating nodes. This,
//! however, does not violate our privacy requirements."
//!
//! An observer accumulates every pseudonym that passes through its cache
//! and sampler; since each participant holds exactly one valid pseudonym at
//! a time, the number of distinct *currently valid* pseudonyms seen is an
//! estimator (a lower bound) of the online-capable population.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use veil_core::pseudonym::PseudonymId;
use veil_core::simulation::Simulation;
use veil_sim::SimTime;

/// Accumulates pseudonym sightings at one observer node.
#[derive(Debug, Clone, Default)]
pub struct SizeEstimator {
    seen: HashMap<PseudonymId, Option<SimTime>>,
}

impl SizeEstimator {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records everything currently visible at the observer: its cache and
    /// its sampler slots.
    pub fn observe(&mut self, sim: &Simulation, observer: usize) {
        let node = sim.node(observer);
        let arena = sim.arena_of(observer);
        for p in node.cache.iter(arena) {
            self.seen.insert(p.id(), p.expires());
        }
        for p in node.sampler.links_iter(arena) {
            self.seen.insert(p.id(), p.expires());
        }
    }

    /// The size estimate at `now`: distinct sighted pseudonyms still valid.
    pub fn estimate(&self, now: SimTime) -> usize {
        self.seen
            .values()
            .filter(|expiry| expiry.is_none_or(|e| now < e))
            .count()
    }
}

/// Result of a size-estimation campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SizeEstimate {
    /// The observer's estimate of the participant count.
    pub estimated: usize,
    /// The true participant count.
    pub actual: usize,
}

impl SizeEstimate {
    /// `estimated / actual`; `0.0` when the system is empty.
    pub fn recall(&self) -> f64 {
        if self.actual == 0 {
            0.0
        } else {
            self.estimated as f64 / self.actual as f64
        }
    }
}

/// Runs the campaign: the observer scans its state every `sample_every`
/// periods for `duration` periods, then reports its estimate.
///
/// # Panics
///
/// Panics if `observer` is out of range or the durations are not positive.
pub fn estimate_system_size(
    sim: &mut Simulation,
    observer: usize,
    duration: f64,
    sample_every: f64,
) -> SizeEstimate {
    assert!(observer < sim.node_count(), "observer out of range");
    assert!(
        duration > 0.0 && sample_every > 0.0,
        "durations must be positive"
    );
    let mut estimator = SizeEstimator::new();
    let start = sim.now().as_f64();
    let mut t = start;
    let end = start + duration;
    estimator.observe(sim, observer);
    while t < end {
        t = (t + sample_every).min(end);
        sim.run_until(t);
        estimator.observe(sim, observer);
    }
    SizeEstimate {
        estimated: estimator.estimate(sim.now()),
        actual: sim.node_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veil_core::config::OverlayConfig;
    use veil_graph::generators;
    use veil_sim::churn::ChurnConfig;
    use veil_sim::rng::{derive_rng, Stream};

    fn sim(seed: u64, n: usize, lifetime: Option<f64>) -> Simulation {
        let mut rng = derive_rng(seed, Stream::Topology);
        let trust = generators::social_graph(n, 3, &mut rng).unwrap();
        let cfg = OverlayConfig {
            cache_size: 200,
            shuffle_length: 10,
            target_links: 12,
            pseudonym_lifetime: lifetime,
            ..OverlayConfig::default()
        };
        let churn = ChurnConfig::from_availability(1.0, 30.0);
        Simulation::new(trust, cfg, churn, seed).unwrap()
    }

    #[test]
    fn small_system_is_fully_enumerated() {
        // The paper's point: in a small system the observer sees everyone.
        let mut s = sim(1, 30, None);
        let est = estimate_system_size(&mut s, 0, 60.0, 1.0);
        assert_eq!(est.actual, 30);
        assert!(
            est.recall() > 0.9,
            "observer saw only {} of {}",
            est.estimated,
            est.actual
        );
    }

    #[test]
    fn estimate_never_exceeds_population_without_expiry() {
        let mut s = sim(2, 25, None);
        let est = estimate_system_size(&mut s, 3, 40.0, 2.0);
        // Without expiry each node mints exactly one pseudonym.
        assert!(est.estimated <= est.actual);
    }

    #[test]
    fn expired_pseudonyms_leave_the_estimate() {
        let mut s = sim(3, 20, Some(10.0));
        let mut estimator = SizeEstimator::new();
        s.run_until(8.0);
        estimator.observe(&s, 0);
        let early = estimator.estimate(s.now());
        assert!(early > 0);
        // After a full lifetime with no further observation, everything
        // sighted so far has expired.
        s.run_until(20.0);
        assert_eq!(estimator.estimate(s.now()), 0);
    }

    #[test]
    fn recall_handles_empty_system() {
        let e = SizeEstimate {
            estimated: 0,
            actual: 0,
        };
        assert_eq!(e.recall(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_duration() {
        let mut s = sim(4, 20, None);
        estimate_system_size(&mut s, 0, 0.0, 1.0);
    }
}
