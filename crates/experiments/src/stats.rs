//! Statistics shared by the experiments: empirical CDFs and the paper's
//! performance-gain metric.

use serde::Serialize;

/// The paper's performance-gain metric: how much `ours` improves over
/// `baseline`, as a fraction (0.30 = 30 % reduction). Negative when ours
/// is slower.
pub fn gain(baseline: f64, ours: f64) -> f64 {
    if baseline <= 0.0 {
        return 0.0;
    }
    (baseline - ours) / baseline
}

/// An empirical CDF over a sample.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from a sample.
    pub fn new(mut values: Vec<f64>) -> Ecdf {
        values.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        Ecdf { sorted: values }
    }

    /// P(X ≤ x).
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let cnt = self.sorted.partition_point(|v| *v <= x);
        cnt as f64 / self.sorted.len() as f64
    }

    /// P(X ≥ x).
    pub fn fraction_at_least(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let below = self.sorted.partition_point(|v| *v < x);
        (self.sorted.len() - below) as f64 / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_matches_paper_semantics() {
        assert!((gain(10.0, 7.0) - 0.3).abs() < 1e-12, "30% reduction");
        assert!(gain(10.0, 12.0) < 0.0, "slower is negative");
        assert_eq!(gain(0.0, 5.0), 0.0, "degenerate baseline");
    }

    #[test]
    fn ecdf_fractions() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.fraction_at_most(2.0), 0.5);
        assert_eq!(e.fraction_at_most(0.5), 0.0);
        assert_eq!(e.fraction_at_most(10.0), 1.0);
        assert_eq!(e.fraction_at_least(3.0), 0.5);
        assert_eq!(e.fraction_at_least(0.0), 1.0);
    }

    #[test]
    fn empty_ecdf_is_safe() {
        let e = Ecdf::new(vec![]);
        assert_eq!(e.fraction_at_most(1.0), 0.0);
        assert_eq!(e.fraction_at_least(1.0), 0.0);
    }
}
