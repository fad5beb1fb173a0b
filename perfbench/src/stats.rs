//! Order statistics for the reported timings.

/// Percentiles a tail may be read at, lowest first.
pub const LADDER: [f64; 3] = [50.0, 90.0, 99.0];

/// Samples that must lie strictly beyond a percentile for it to count as
/// a tail rather than a guess.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// On an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. Returns the value and how many samples lie
/// strictly beyond its rank.
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    (v[rank - 1], v.len() - rank)
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it among `n` samples, or `None` when even the median
/// has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        n.saturating_sub(rank) >= MIN_BEYOND
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_counts_the_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), (99.0, 1));
        assert_eq!(percentile(&v, 90.0), (90.0, 10));
        assert_eq!(percentile(&v, 50.0), (50.0, 50));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 needs 1000 samples (rank 990, 10 beyond); one fewer and p90
        // is the tail (rank 900, 99 beyond).
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        // The rule and the percentile agree on the count beyond.
        for n in [20, 99, 100, 199, 200, 999, 1000, 5000] {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let p = tail_percentile(n).expect("n >= 20");
            assert!(percentile(&v, p).1 >= MIN_BEYOND, "n={n} p={p}");
        }
    }
}
