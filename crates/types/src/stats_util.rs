//! Small statistics helpers shared by the simulator and the figure
//! table: ratios, geometric means, and CDF construction.

/// Returns `num / den` as an `f64`, or 0.0 when the denominator is zero.
///
/// # Examples
///
/// ```
/// assert_eq!(hintm_types::stats_util::ratio(1, 4), 0.25);
/// assert_eq!(hintm_types::stats_util::ratio(1, 0), 0.0);
/// ```
#[inline]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

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

/// Builds an empirical CDF from a set of observations.
///
/// Returns `(value, fraction ≤ value)` pairs sorted by value, with one entry
/// per distinct observation. Used to reproduce the paper's Fig. 6
/// transaction-size CDFs.
pub fn cdf(samples: &[u64]) -> Vec<(u64, f64)> {
    if samples.is_empty() {
        return Vec::new();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    let mut out: Vec<(u64, f64)> = Vec::new();
    for (i, v) in sorted.iter().enumerate() {
        let frac = (i + 1) as f64 / n;
        match out.last_mut() {
            Some(last) if last.0 == *v => last.1 = frac,
            _ => out.push((*v, frac)),
        }
    }
    out
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
    fn ratio_handles_zero_denominator() {
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(ratio(5, 10), 0.5);
    }

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
    fn cdf_monotone_and_complete() {
        let c = cdf(&[3, 1, 2, 2]);
        assert_eq!(c, vec![(1, 0.25), (2, 0.75), (3, 1.0)]);
        for w in c.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(c.last().unwrap().1, 1.0);
    }

    #[test]
    fn cdf_empty() {
        assert!(cdf(&[]).is_empty());
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
