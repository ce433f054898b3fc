//! Order statistics used by every workload.

/// Samples a percentile must leave beyond itself before it is reported:
/// a p99 needs at least 1 000 samples.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
///
/// # Panics
///
/// On an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The `q` percentile when at least [`MIN_BEYOND`] samples lie beyond
/// it, `None` otherwise.
pub fn supported_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    (!sorted.is_empty() && beyond(sorted.len(), q) >= MIN_BEYOND).then(|| percentile(sorted, q))
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sorts in place and returns the slice (ascending, NaN last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
