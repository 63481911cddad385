//! Time-series summaries used by the transport experiments.
//!
//! The stabilization experiment needs a handful of scalar summaries of the
//! goodput trajectory: steady-state mean and jitter, convergence time to a
//! band around the target, and a stability index comparing early and late
//! variability.

use serde::{Deserialize, Serialize};

/// A `(time, value)` series with summary helpers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    /// The samples in time order.
    pub samples: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Wrap an existing sample vector (assumed time-ordered).
    pub fn new(samples: Vec<(f64, f64)>) -> Self {
        TimeSeries { samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of all values (0 for an empty series).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|(_, v)| v).sum::<f64>() / self.samples.len() as f64
    }

    /// Population standard deviation of all values.
    pub fn std_dev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let mean = self.mean();
        (self
            .samples
            .iter()
            .map(|(_, v)| (v - mean).powi(2))
            .sum::<f64>()
            / self.samples.len() as f64)
            .sqrt()
    }

    /// Coefficient of variation (std/mean); 0 when the mean is 0.
    pub fn coefficient_of_variation(&self) -> f64 {
        let mean = self.mean();
        if mean.abs() < 1e-12 {
            0.0
        } else {
            self.std_dev() / mean
        }
    }

    /// Restrict to samples with `time >= from`.
    pub fn after(&self, from: f64) -> TimeSeries {
        TimeSeries::new(
            self.samples
                .iter()
                .copied()
                .filter(|(t, _)| *t >= from)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> TimeSeries {
        TimeSeries::new(
            values
                .iter()
                .enumerate()
                .map(|(i, v)| (i as f64, *v))
                .collect(),
        )
    }

    #[test]
    fn empty_series_summaries_are_zero() {
        let s = TimeSeries::default();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.coefficient_of_variation(), 0.0);
    }

    #[test]
    fn mean_and_std() {
        let s = series(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert!((s.coefficient_of_variation() - 0.4).abs() < 1e-12);
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn after_filters_by_time() {
        let s = series(&[1.0, 2.0, 3.0, 4.0]);
        let tail = s.after(2.0);
        assert_eq!(tail.samples, vec![(2.0, 3.0), (3.0, 4.0)]);
    }
}
