//! The statistics every reported number goes through.

/// Sorted copy (total order; the harness never produces NaN).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let v = sorted(values);
    let mid = v.len() / 2;
    match v.len() % 2 {
        1 => v[mid],
        _ => (v[mid - 1] + v[mid]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Nearest-rank percentile: the smallest sample with at least `p` % of
/// the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let v = sorted(values);
    // The epsilon keeps 99.9 % of 10 000 at rank 9 990 despite 0.999's f64 error.
    let rank = ((p / 100.0) * v.len() as f64 - 1e-9).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it (choosing-metrics §1), or `None` below 40 samples,
/// where only the median is reported.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Per-mille integers: 100.0 - 99.9 is not exactly 0.1 in f64.
    [999usize, 990, 950, 900, 750]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10 * 1000)
        .map(|pm| pm as f64 / 10.0)
}

/// (max − min) / median: `--check-repeat`'s stricter measure over five
/// same-seed runs.
pub fn range_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    (v[v.len() - 1] - v[0]) / median(values).abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
    }

    #[test]
    fn range_share_is_max_minus_min_over_median() {
        assert_eq!(range_share(&[10.0, 11.0, 9.0]), 0.2);
    }
}
