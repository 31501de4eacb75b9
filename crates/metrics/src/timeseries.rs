//! Time-indexed series of measurements.

use serde::{Deserialize, Serialize};

/// A series of `(time, value)` observations with non-decreasing times.
///
/// Used for the convergence experiments of the paper (Figures 8 and 9),
/// where connectivity and link-replacement rates are tracked over simulated
/// shuffle periods.
///
/// # Examples
///
/// ```
/// use veil_metrics::timeseries::TimeSeries;
///
/// let mut ts = TimeSeries::new();
/// ts.push(0.0, 1.0);
/// ts.push(1.0, 3.0);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.last(), Some((1.0, 3.0)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an observation.
    ///
    /// # Panics
    ///
    /// Panics if `time` is smaller than the last recorded time, or if either
    /// coordinate is NaN.
    pub fn push(&mut self, time: f64, value: f64) {
        assert!(!time.is_nan() && !value.is_nan(), "NaN in time series");
        if let Some(&(last, _)) = self.points.last() {
            assert!(time >= last, "time series must be pushed in time order");
        }
        self.points.push((time, value));
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last observation, if any.
    pub fn last(&self) -> Option<(f64, f64)> {
        self.points.last().copied()
    }

    /// Iterates over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.points.iter().copied()
    }

    /// Returns the underlying points as a slice.
    pub fn as_slice(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Mean of the final `k` observations; `None` if the series has fewer.
    pub fn tail_mean(&self, k: usize) -> Option<f64> {
        if self.points.len() < k || k == 0 {
            return None;
        }
        let tail = &self.points[self.points.len() - k..];
        Some(tail.iter().map(|&(_, v)| v).sum::<f64>() / k as f64)
    }

    /// First time at which the value becomes `<= threshold` and stays there
    /// for the rest of the series; `None` if that never happens.
    ///
    /// Used to measure convergence time (e.g. "time until the fraction of
    /// disconnected nodes permanently drops below 1%").
    pub fn settling_time(&self, threshold: f64) -> Option<f64> {
        let mut settle: Option<f64> = None;
        for &(t, v) in &self.points {
            if v <= threshold {
                if settle.is_none() {
                    settle = Some(t);
                }
            } else {
                settle = None;
            }
        }
        settle
    }
}

impl FromIterator<(f64, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        let mut ts = Self::new();
        for (t, v) in iter {
            ts.push(t, v);
        }
        ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read() {
        let ts: TimeSeries = [(0.0, 5.0), (2.0, 7.0)].into_iter().collect();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.last(), Some((2.0, 7.0)));
        assert_eq!(ts.as_slice()[0], (0.0, 5.0));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn rejects_time_going_backwards() {
        let mut ts = TimeSeries::new();
        ts.push(1.0, 0.0);
        ts.push(0.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        let mut ts = TimeSeries::new();
        ts.push(0.0, f64::NAN);
    }

    #[test]
    fn tail_mean() {
        let ts: TimeSeries = [(0.0, 1.0), (1.0, 2.0), (2.0, 6.0)].into_iter().collect();
        assert_eq!(ts.tail_mean(2), Some(4.0));
        assert_eq!(ts.tail_mean(4), None);
        assert_eq!(ts.tail_mean(0), None);
    }

    #[test]
    fn empty_and_single_sample_aggregates_are_defined() {
        let empty = TimeSeries::new();
        assert_eq!(empty.tail_mean(1), None);
        assert_eq!(empty.settling_time(0.5), None);
        let one: TimeSeries = [(1.0, 2.0)].into_iter().collect();
        assert_eq!(one.tail_mean(1), Some(2.0));
        assert_eq!(one.settling_time(5.0), Some(1.0));
    }

    #[test]
    fn settling_time_requires_staying_below() {
        let ts: TimeSeries = [
            (0.0, 1.0),
            (1.0, 0.05),
            (2.0, 0.5),
            (3.0, 0.01),
            (4.0, 0.02),
        ]
        .into_iter()
        .collect();
        assert_eq!(ts.settling_time(0.1), Some(3.0));
        assert_eq!(ts.settling_time(0.001), None);
    }
}
