//! Order statistics over timing samples.

/// Nearest-rank percentile of `sorted` (ascending), `p` in `[0, 1]`.
/// Panics on an empty slice: a workload that produced no sample is a bug.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample vector ascending (timings are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing sample is NaN"));
    v
}

/// Median (mean of the two middle samples for an even count).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Median of an iterator of samples.
pub fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.collect::<Vec<_>>())
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn share(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it — a tail read off fewer samples does not repeat.
/// Falls back to the median when even p90 is unsupported.
pub fn supported_tail(samples: usize) -> f64 {
    // Per mille, so the count beyond the nearest rank is exact.
    [999usize, 990, 950, 900]
        .into_iter()
        .find(|pm| samples - (samples * pm).div_ceil(1000) >= 10)
        .map_or(0.5, |pm| pm as f64 / 1000.0)
}

/// Quartiles by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v.to_vec());
    assert!(s.len() >= 2, "quartiles need two samples");
    let at = |q: f64| {
        let pos = q * (s.len() as f64 + 1.0);
        let lo = (pos.floor() as usize).clamp(1, s.len() - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        s[lo - 1] + (s[lo] - s[lo - 1]) * frac
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Run-to-run spread: interquartile distance as a share of the median.
/// Zero for fewer than two runs (nothing to compare).
pub fn spread(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let (q1, q2, q3) = quartiles(v);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(5), 0.5);
        assert_eq!(supported_tail(99), 0.5);
        assert_eq!(supported_tail(100), 0.90);
        assert_eq!(supported_tail(199), 0.90);
        assert_eq!(supported_tail(200), 0.95);
        assert_eq!(supported_tail(1_000), 0.99);
        assert_eq!(supported_tail(10_000), 0.999);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.5), 5.0);
        assert_eq!(percentile_sorted(&s, 0.9), 9.0);
        assert_eq!(percentile_sorted(&s, 1.0), 10.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[7.0]), 0.0);
    }
}
