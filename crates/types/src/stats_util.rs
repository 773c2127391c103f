//! Small statistics helpers shared by the simulator and the figure
//! table: means, percentiles and tail fractions.

/// Geometric mean of a slice of positive values; 0.0 for an empty slice.
///
/// Non-positive entries are clamped to a tiny epsilon so a single degenerate
/// speedup cannot produce NaN.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (sum / values.len() as f64).exp()
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Fraction of samples strictly greater than `threshold`.
pub fn frac_above(samples: &[u64], threshold: u64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let above = samples.iter().filter(|&&s| s > threshold).count();
    above as f64 / samples.len() as f64
}

/// Percentile (0..=100) of a sample set by nearest-rank; 0 for empty input.
pub fn percentile(samples: &[u64], pct: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!(geomean(&[0.0, 1.0]).is_finite());
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn frac_above_counts_strictly() {
        assert_eq!(frac_above(&[1, 2, 3, 4], 2), 0.5);
        assert_eq!(frac_above(&[], 2), 0.0);
        assert_eq!(frac_above(&[5, 6], 10), 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let s = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&s, 50.0), 30);
        assert_eq!(percentile(&s, 100.0), 50);
        assert_eq!(percentile(&s, 1.0), 10);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
