//! Property-based tests for the statistics primitives.

use proptest::prelude::*;
use veil_metrics::{Histogram, TimeSeries};

proptest! {
    #[test]
    fn histogram_total_and_mean(values in prop::collection::vec(0usize..500, 1..300)) {
        let h: Histogram = values.iter().copied().collect();
        prop_assert_eq!(h.total(), values.len() as u64);
        let naive = values.iter().sum::<usize>() as f64 / values.len() as f64;
        prop_assert!((h.mean() - naive).abs() < 1e-9);
        prop_assert_eq!(h.max_value(), values.iter().copied().max());
        prop_assert_eq!(h.min_value(), values.iter().copied().min());
    }

    #[test]
    fn settling_time_is_a_recorded_instant(
        values in prop::collection::vec(0.0f64..1.0, 1..50),
        threshold in 0.0f64..1.0,
    ) {
        let ts: TimeSeries = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64, v))
            .collect();
        if let Some(t) = ts.settling_time(threshold) {
            prop_assert!(ts.iter().any(|(ot, _)| ot == t));
            // Every point from t onward is below the threshold.
            for (ot, ov) in ts.iter() {
                if ot >= t {
                    prop_assert!(ov <= threshold);
                }
            }
        } else if let Some((_, last)) = ts.last() {
            prop_assert!(last > threshold, "series ending below threshold must settle");
        }
    }
}
