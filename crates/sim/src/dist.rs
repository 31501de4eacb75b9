//! Duration distributions for churn modelling.
//!
//! Yao et al. — the churn model the paper adopts — "consider exponential
//! and Pareto distributions as good candidates for individual online/offline
//! time distributions"; the paper itself uses exponentials. Both are
//! provided, plus a degenerate fixed distribution for tests.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A distribution over non-negative durations (in shuffle periods).
///
/// A churn process holds one of the three families by value as a [`Dist`].
pub trait DurationDist {
    /// Draws one duration.
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64;

    /// The distribution mean.
    fn mean(&self) -> f64;
}

/// Exponential distribution with the given mean (the paper's choice:
/// "we use only exponential distributions, which have a single parameter
/// that represents the distribution's mean").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with mean `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn new(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        Self { mean }
    }
}

impl DurationDist for Exponential {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        // Inverse-CDF sampling; 1-u in (0,1] avoids ln(0).
        let u: f64 = rng.gen_range(0.0..1.0);
        -self.mean * (1.0 - u).ln()
    }

    fn mean(&self) -> f64 {
        self.mean
    }
}

/// Pareto distribution with shape `alpha > 1` and the given mean.
///
/// Heavy-tailed session times; the alternative candidate in Yao et al.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pareto {
    shape: f64,
    scale: f64,
}

impl Pareto {
    /// Creates a Pareto distribution with the given `shape` (`alpha`) and
    /// `mean`. The scale is derived as `mean * (shape - 1) / shape`.
    ///
    /// # Panics
    ///
    /// Panics unless `shape > 1` (otherwise the mean diverges) and
    /// `mean > 0`.
    pub fn with_mean(shape: f64, mean: f64) -> Self {
        assert!(shape.is_finite() && shape > 1.0, "shape must exceed 1");
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        Self {
            shape,
            scale: mean * (shape - 1.0) / shape,
        }
    }

    /// The shape parameter `alpha`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale (minimum value) parameter.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl DurationDist for Pareto {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.scale / (1.0 - u).powf(1.0 / self.shape)
    }

    fn mean(&self) -> f64 {
        self.scale * self.shape / (self.shape - 1.0)
    }
}

/// Degenerate distribution returning a constant duration; handy for tests
/// that need fully predictable churn timelines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fixed(pub f64);

impl DurationDist for Fixed {
    fn sample(&self, _rng: &mut dyn rand::RngCore) -> f64 {
        self.0
    }

    fn mean(&self) -> f64 {
        self.0
    }
}

/// Serializable tag selecting a duration-distribution family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DistKind {
    /// Exponential with mean set by the churn config.
    Exponential,
    /// Pareto with the given shape and mean set by the churn config.
    Pareto {
        /// Shape (`alpha`) parameter, must exceed 1.
        shape: f64,
    },
    /// Constant durations equal to the configured mean.
    Fixed,
}

impl DistKind {
    /// Instantiates the distribution with the given mean.
    pub fn build(self, mean: f64) -> Dist {
        match self {
            DistKind::Exponential => Dist::Exponential(Exponential::new(mean)),
            DistKind::Pareto { shape } => Dist::Pareto(Pareto::with_mean(shape, mean)),
            DistKind::Fixed => Dist::Fixed(Fixed(mean)),
        }
    }
}

/// One distribution of any family, held by value: what a churn process
/// keeps per node, without an allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// See [`Exponential`].
    Exponential(Exponential),
    /// See [`Pareto`].
    Pareto(Pareto),
    /// See [`Fixed`].
    Fixed(Fixed),
}

impl DurationDist for Dist {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        match self {
            Dist::Exponential(d) => d.sample(rng),
            Dist::Pareto(d) => d.sample(rng),
            Dist::Fixed(d) => d.sample(rng),
        }
    }

    fn mean(&self) -> f64 {
        match self {
            Dist::Exponential(d) => d.mean(),
            Dist::Pareto(d) => d.mean(),
            Dist::Fixed(d) => d.mean(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_of(d: &dyn DurationDist, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_sample_mean_matches() {
        let d = Exponential::new(30.0);
        let m = mean_of(&d, 200_000, 1);
        assert!((m - 30.0).abs() < 0.5, "sample mean {m}");
        assert_eq!(d.mean(), 30.0);
    }

    #[test]
    fn exponential_samples_nonnegative() {
        let d = Exponential::new(0.1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_mean() {
        Exponential::new(0.0);
    }

    #[test]
    fn pareto_mean_and_minimum() {
        let d = Pareto::with_mean(2.5, 30.0);
        assert!((d.mean() - 30.0).abs() < 1e-9);
        let m = mean_of(&d, 400_000, 3);
        assert!((m - 30.0).abs() < 1.0, "sample mean {m}");
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= d.scale());
        }
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn pareto_rejects_shape_below_one() {
        Pareto::with_mean(1.0, 30.0);
    }

    #[test]
    fn fixed_is_constant() {
        let d = Fixed(5.0);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(d.sample(&mut rng), 5.0);
        assert_eq!(d.mean(), 5.0);
    }

    #[test]
    fn dist_kind_builds_matching_mean() {
        for kind in [
            DistKind::Exponential,
            DistKind::Pareto { shape: 2.0 },
            DistKind::Fixed,
        ] {
            let d = kind.build(12.0);
            assert!((d.mean() - 12.0).abs() < 1e-9, "{kind:?}");
        }
    }
}
