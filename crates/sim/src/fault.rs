//! Link-layer fault model: message loss, latency distributions and
//! scripted fault episodes.
//!
//! The paper evaluates the overlay over an *ideal* anonymity/pseudonym
//! service — messages between online endpoints always arrive, instantly.
//! Real F2F substrates deliver over multi-hop trusted paths with loss,
//! latency and silent peer failure. This module describes those
//! non-idealities as data, so the protocol simulation in `veil-core` can
//! inject them deterministically: a [`FaultConfig`] combines a per-message
//! drop probability, a per-message one-way [`LatencyDist`], and a script of
//! [`FaultEpisode`]s (regional blackouts, partitions and silent crashes).
//!
//! All sampling is driven by an RNG the caller derives from the master seed
//! (stream [`crate::rng::Stream::Fault`]), so runs remain bit-for-bit
//! reproducible.

use crate::dist::{DurationDist, Exponential, Pareto};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// Per-message one-way delivery latency of the faulty link layer, in
/// shuffle periods.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LatencyDist {
    /// Every message takes exactly `value` periods (`0.0` is instant
    /// delivery).
    Constant {
        /// The fixed one-way latency.
        value: f64,
    },
    /// Exponentially distributed latency with the given mean.
    Exponential {
        /// Mean one-way latency.
        mean: f64,
    },
    /// Pareto-distributed latency (heavy tail: most messages are fast, a
    /// few straggle) with the given shape and mean.
    Pareto {
        /// Shape (`alpha`) parameter; must exceed 1 for a finite mean.
        shape: f64,
        /// Mean one-way latency.
        mean: f64,
    },
}

impl Default for LatencyDist {
    fn default() -> Self {
        LatencyDist::Constant { value: 0.0 }
    }
}

impl LatencyDist {
    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        match *self {
            LatencyDist::Constant { value } => value,
            LatencyDist::Exponential { mean } | LatencyDist::Pareto { mean, .. } => mean,
        }
    }

    /// Draws one latency.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        match *self {
            LatencyDist::Constant { value } => value,
            LatencyDist::Exponential { mean } => {
                Exponential::new(mean).sample(rng as &mut dyn RngCore)
            }
            LatencyDist::Pareto { shape, mean } => {
                Pareto::with_mean(shape, mean).sample(rng as &mut dyn RngCore)
            }
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when a parameter is out of range.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            LatencyDist::Constant { value } => {
                if !(value.is_finite() && value >= 0.0) {
                    return Err(format!(
                        "constant latency must be finite and non-negative, got {value}"
                    ));
                }
            }
            LatencyDist::Exponential { mean } => {
                if !(mean.is_finite() && mean > 0.0) {
                    return Err(format!(
                        "exponential latency mean must be positive, got {mean}"
                    ));
                }
            }
            LatencyDist::Pareto { shape, mean } => {
                if !(shape.is_finite() && shape > 1.0) {
                    return Err(format!("pareto latency shape must exceed 1, got {shape}"));
                }
                if !(mean.is_finite() && mean > 0.0) {
                    return Err(format!("pareto latency mean must be positive, got {mean}"));
                }
            }
        }
        Ok(())
    }
}

/// What a scripted fault episode does while active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EpisodeEffect {
    /// Nodes `[first, first + count)` are forced offline for the whole
    /// episode and reconnect together when it ends — a regional blackout
    /// (delivered through the simulation's blackout injection, so it
    /// composes with natural churn).
    Blackout {
        /// First node of the affected region.
        first: u32,
        /// Number of affected nodes.
        count: u32,
    },
    /// Every message between a node `< boundary` and a node `>= boundary`
    /// is dropped while the episode is active — a network partition along
    /// node-index order. Nodes stay up and keep shuffling within their
    /// side.
    Partition {
        /// The partition boundary (nodes below vs. at-or-above).
        boundary: u32,
    },
    /// Nodes `[first, first + count)` crash without notification: they
    /// neither initiate nor answer shuffles while the episode is active,
    /// but peers receive no failure signal — only timeouts reveal them.
    Crash {
        /// First crashed node.
        first: u32,
        /// Number of crashed nodes.
        count: u32,
    },
}

impl EpisodeEffect {
    /// Stable lower-case effect name (observability seam: used as the
    /// `EpisodeStart` event label).
    pub fn kind_str(&self) -> &'static str {
        match self {
            EpisodeEffect::Blackout { .. } => "blackout",
            EpisodeEffect::Partition { .. } => "partition",
            EpisodeEffect::Crash { .. } => "crash",
        }
    }
}

/// One scripted fault episode: an effect active over `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEpisode {
    /// Episode start, in shuffle periods.
    pub start: f64,
    /// Episode end, in shuffle periods (`f64::INFINITY` = never ends).
    pub end: f64,
    /// What happens while the episode is active.
    pub effect: EpisodeEffect,
}

impl FaultEpisode {
    /// Whether the episode is active at `now` (`start <= now < end`).
    pub fn active_at(&self, now: f64) -> bool {
        self.start <= now && now < self.end
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the window is degenerate.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.start.is_finite() && self.start >= 0.0) {
            return Err(format!(
                "episode start must be finite and non-negative, got {}",
                self.start
            ));
        }
        if self.end.is_nan() || self.end <= self.start {
            return Err(format!(
                "episode end {} must exceed its start {}",
                self.end, self.start
            ));
        }
        Ok(())
    }
}

/// Complete description of a non-ideal link layer.
///
/// # Examples
///
/// ```
/// use veil_sim::fault::{FaultConfig, LatencyDist};
///
/// let ideal = FaultConfig::none();
/// assert!(ideal.is_trivial());
/// let lossy = FaultConfig::with_loss(0.1);
/// assert!(!lossy.is_trivial());
/// lossy.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultConfig {
    /// Independent probability that any single message is silently dropped
    /// in transit.
    pub drop_probability: f64,
    /// One-way delivery latency distribution.
    pub latency: LatencyDist,
    /// Scripted fault episodes, evaluated in order.
    pub episodes: Vec<FaultEpisode>,
}

impl FaultConfig {
    /// A fault model that injects nothing: no drops, instant delivery, no
    /// episodes. A faulty link layer configured with this reproduces the
    /// ideal layer exactly.
    pub fn none() -> Self {
        Self::default()
    }

    /// A fault model that drops each message independently with
    /// probability `p` and otherwise delivers instantly.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1`.
    pub fn with_loss(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability must be in [0, 1], got {p}"
        );
        Self {
            drop_probability: p,
            ..Self::default()
        }
    }

    /// Whether this model injects nothing at all (zero drop probability,
    /// zero latency, no episodes). A trivial model is behaviourally the
    /// ideal link layer; any latency, however regular, puts messages in
    /// flight and is not trivial.
    pub fn is_trivial(&self) -> bool {
        self.drop_probability == 0.0
            && self.latency == LatencyDist::Constant { value: 0.0 }
            && self.episodes.is_empty()
    }

    /// Whether a message from `from` to `to` sent at `now` is lost —
    /// either to the random drop process or to an active partition.
    pub fn is_dropped<R: Rng>(&self, from: u32, to: u32, now: f64, rng: &mut R) -> bool {
        if self.drop_probability > 0.0 && rng.gen_bool(self.drop_probability) {
            return true;
        }
        self.partitioned(from, to, now)
    }

    /// Whether an active partition episode separates `from` and `to` at
    /// `now`.
    pub fn partitioned(&self, from: u32, to: u32, now: f64) -> bool {
        self.episodes.iter().any(|ep| {
            matches!(ep.effect, EpisodeEffect::Partition { boundary }
                if ep.active_at(now) && ((from < boundary) != (to < boundary)))
        })
    }

    /// Whether node `v` is silently crashed at `now`.
    pub fn crashed(&self, v: u32, now: f64) -> bool {
        self.episodes.iter().any(|ep| {
            matches!(ep.effect, EpisodeEffect::Crash { first, count }
                if ep.active_at(now) && v >= first && v - first < count)
        })
    }

    /// Draws one one-way delivery latency.
    pub fn sample_latency<R: Rng>(&self, rng: &mut R) -> f64 {
        self.latency.sample(rng)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when any parameter is out of range.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.drop_probability) {
            return Err(format!(
                "drop probability must be in [0, 1], got {}",
                self.drop_probability
            ));
        }
        self.latency.validate()?;
        for (i, ep) in self.episodes.iter().enumerate() {
            ep.validate().map_err(|e| format!("episode {i}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_is_trivial_and_valid() {
        let f = FaultConfig::none();
        assert!(f.is_trivial());
        f.validate().unwrap();
        assert_eq!(f.latency.mean(), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!f.is_dropped(0, 1, 5.0, &mut rng));
        assert_eq!(f.sample_latency(&mut rng), 0.0);
    }

    #[test]
    fn loss_drops_about_p() {
        let f = FaultConfig::with_loss(0.25);
        assert!(!f.is_trivial());
        let mut rng = StdRng::seed_from_u64(2);
        let dropped = (0..40_000)
            .filter(|_| f.is_dropped(0, 1, 0.0, &mut rng))
            .count();
        let frac = dropped as f64 / 40_000.0;
        assert!((frac - 0.25).abs() < 0.02, "drop fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn with_loss_rejects_out_of_range() {
        FaultConfig::with_loss(1.5);
    }

    #[test]
    fn latency_distributions_sample_near_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        for dist in [
            LatencyDist::Constant { value: 0.5 },
            LatencyDist::Exponential { mean: 0.5 },
            LatencyDist::Pareto {
                shape: 2.5,
                mean: 0.5,
            },
        ] {
            dist.validate().unwrap();
            assert_eq!(dist.mean(), 0.5);
            let m: f64 = (0..100_000).map(|_| dist.sample(&mut rng)).sum::<f64>() / 100_000.0;
            assert!((m - 0.5).abs() < 0.05, "{dist:?} sample mean {m}");
        }
    }

    #[test]
    fn nonconstant_latency_is_nontrivial() {
        // Nor is a constant one: only zero latency keeps nothing in flight.
        for latency in [
            LatencyDist::Exponential { mean: 0.2 },
            LatencyDist::Constant { value: 0.2 },
        ] {
            let f = FaultConfig {
                latency,
                ..FaultConfig::none()
            };
            assert!(!f.is_trivial(), "{latency:?}");
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(FaultConfig {
            drop_probability: 1.2,
            ..FaultConfig::none()
        }
        .validate()
        .is_err());
        assert!(LatencyDist::Constant { value: -1.0 }.validate().is_err());
        assert!(LatencyDist::Exponential { mean: 0.0 }.validate().is_err());
        assert!(LatencyDist::Pareto {
            shape: 0.5,
            mean: 1.0
        }
        .validate()
        .is_err());
        let bad_episode = FaultConfig {
            episodes: vec![FaultEpisode {
                start: 5.0,
                end: 5.0,
                effect: EpisodeEffect::Partition { boundary: 10 },
            }],
            ..FaultConfig::none()
        };
        assert!(bad_episode.validate().is_err());
    }

    #[test]
    fn partition_separates_sides_only_while_active() {
        let f = FaultConfig {
            episodes: vec![FaultEpisode {
                start: 10.0,
                end: 20.0,
                effect: EpisodeEffect::Partition { boundary: 5 },
            }],
            ..FaultConfig::none()
        };
        f.validate().unwrap();
        assert!(f.partitioned(0, 7, 15.0));
        assert!(f.partitioned(7, 0, 15.0), "partitions are symmetric");
        assert!(!f.partitioned(0, 3, 15.0), "same side passes");
        assert!(!f.partitioned(6, 9, 15.0), "same side passes");
        assert!(!f.partitioned(0, 7, 9.0), "inactive before start");
        assert!(!f.partitioned(0, 7, 20.0), "end is exclusive");
        let mut rng = StdRng::seed_from_u64(4);
        assert!(f.is_dropped(0, 7, 15.0, &mut rng));
    }

    #[test]
    fn crash_covers_exact_range() {
        let f = FaultConfig {
            episodes: vec![FaultEpisode {
                start: 0.0,
                end: f64::INFINITY,
                effect: EpisodeEffect::Crash { first: 3, count: 2 },
            }],
            ..FaultConfig::none()
        };
        f.validate().unwrap();
        assert!(!f.crashed(2, 1.0));
        assert!(f.crashed(3, 1.0));
        assert!(f.crashed(4, 1.0));
        assert!(!f.crashed(5, 1.0));
    }

    #[test]
    fn serde_round_trip() {
        let f = FaultConfig {
            drop_probability: 0.05,
            latency: LatencyDist::Pareto {
                shape: 2.0,
                mean: 0.3,
            },
            episodes: vec![FaultEpisode {
                start: 1.0,
                end: 2.0,
                effect: EpisodeEffect::Blackout { first: 0, count: 4 },
            }],
        };
        let json = serde_json::to_string(&f).unwrap();
        let back: FaultConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let f = FaultConfig {
            drop_probability: 0.2,
            latency: LatencyDist::Exponential { mean: 0.4 },
            ..FaultConfig::none()
        };
        let run = || {
            let mut rng = StdRng::seed_from_u64(7);
            (0..100)
                .map(|i| {
                    (
                        f.is_dropped(i, i + 1, 0.0, &mut rng),
                        f.sample_latency(&mut rng),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
