//! Dense integer histograms.

use serde::{Deserialize, Serialize};

/// Dense histogram over non-negative integer values.
///
/// Used for degree distributions (Figure 5 of the paper): `bins[d]` is the
/// number of observations equal to `d`.
///
/// # Examples
///
/// ```
/// use veil_metrics::histogram::Histogram;
///
/// let h: Histogram = [1, 1, 2, 5].into_iter().collect();
/// assert_eq!(h.count(1), 2);
/// assert_eq!(h.count(5), 1);
/// assert_eq!(h.total(), 4);
/// assert_eq!(h.max_value(), Some(5));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    bins: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: usize) {
        if value >= self.bins.len() {
            self.bins.resize(value + 1, 0);
        }
        self.bins[value] += 1;
        self.total += 1;
    }

    /// Number of observations equal to `value`.
    pub fn count(&self, value: usize) -> u64 {
        self.bins.get(value).copied().unwrap_or(0)
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether the histogram contains no observations.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Largest observed value, or `None` when empty.
    pub fn max_value(&self) -> Option<usize> {
        self.bins.iter().rposition(|&c| c > 0)
    }

    /// Smallest observed value, or `None` when empty.
    pub fn min_value(&self) -> Option<usize> {
        self.bins.iter().position(|&c| c > 0)
    }

    /// Mean of the observations; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .bins
            .iter()
            .enumerate()
            .map(|(v, &c)| v as u64 * c)
            .sum();
        sum as f64 / self.total as f64
    }

    /// Iterates over `(value, count)` pairs with non-zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v, c))
    }

    /// Nearest-rank `q`-quantile: the smallest observed value whose
    /// cumulative count reaches a fraction `q` of the total.
    ///
    /// Defined for every histogram — it never panics and never produces
    /// NaN. Returns `None` only when the histogram is empty; a
    /// single-sample histogram returns that sample for every `q`. `q` is
    /// clamped to `[0, 1]` (a NaN `q` is treated as `0`, yielding the
    /// minimum).
    pub fn quantile(&self, q: f64) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (v, &c) in self.bins.iter().enumerate() {
            cum += c;
            if c > 0 && cum >= rank {
                return Some(v);
            }
        }
        self.max_value()
    }
}

impl FromIterator<usize> for Histogram {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut h = Self::new();
        for v in iter {
            h.record(v);
        }
        h
    }
}

impl Extend<usize> for Histogram {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.total(), 0);
        assert_eq!(h.max_value(), None);
        assert_eq!(h.min_value(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn record_and_count() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(3);
        h.record(0);
        assert_eq!(h.count(3), 2);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(7), 0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.min_value(), Some(0));
        assert_eq!(h.max_value(), Some(3));
    }

    #[test]
    fn mean_is_weighted() {
        let h: Histogram = [2, 2, 8].into_iter().collect();
        assert!((h.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn iter_skips_empty_bins() {
        let h: Histogram = [0, 4].into_iter().collect();
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(0, 1), (4, 1)]);
    }

    #[test]
    fn quantile_on_empty_is_none_not_panic() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(1.0), None);
    }

    #[test]
    fn quantile_on_single_sample_returns_the_sample() {
        let h: Histogram = [7].into_iter().collect();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(7));
        }
    }

    #[test]
    fn quantile_nearest_rank() {
        let h: Histogram = [1, 2, 3, 4, 5].into_iter().collect();
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.2), Some(1));
        assert_eq!(h.quantile(0.5), Some(3));
        assert_eq!(h.quantile(0.9), Some(5));
        assert_eq!(h.quantile(1.0), Some(5));
    }

    #[test]
    fn quantile_handles_degenerate_q() {
        let h: Histogram = [2, 9].into_iter().collect();
        // Out-of-range and NaN q are clamped, never panic or yield NaN.
        assert_eq!(h.quantile(-3.0), Some(2));
        assert_eq!(h.quantile(42.0), Some(9));
        assert_eq!(h.quantile(f64::NAN), Some(2));
    }
}
