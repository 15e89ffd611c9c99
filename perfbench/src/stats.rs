//! Order statistics for the benchmark's timings.

/// Minimum number of samples that must lie strictly beyond a reported tail
/// percentile; fewer makes the tail a single unlucky sample, not a figure.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The `q`-th percentile of `samples` (nearest rank, via the server's own
/// load-harness helper), or `None` when fewer than [`MIN_BEYOND_TAIL`]
/// samples lie beyond it.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return None;
    }
    let rank = (q / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    let beyond = sorted.len() - 1 - rank.min(sorted.len() - 1);
    (beyond >= MIN_BEYOND_TAIL).then(|| bsg_server::load::percentile(&sorted, q))
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
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 989 (0-based), 10 beyond — allowed.
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&enough, 99.0), Some(989.0));
        // 999 samples: rank 988, 10 beyond; 900 samples: rank 890, 9 beyond.
        let short: Vec<f64> = (0..900).map(f64::from).collect();
        assert_eq!(tail_percentile(&short, 99.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
        // The median of a small sample is still reportable.
        assert_eq!(tail_percentile(&short, 50.0), Some(450.0));
    }
}
