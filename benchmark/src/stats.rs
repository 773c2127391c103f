//! Order statistics for timing samples.

/// Percentiles a tail may be reported at, lowest first.
const TAIL_PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a percentile needs beyond it before it is worth reporting.
const SAMPLES_BEYOND: f64 = 10.0;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// First quartile, median and third quartile, by the same "exclusive"
/// method as Python's `statistics.quantiles(xs, n=4)`, so spreads printed
/// here match the ones computed over whole runs.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let data = sorted(xs);
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// The median (the middle quartile).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// The `p`-th percentile with linear interpolation between order
/// statistics (`p` in 0..=100).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let data = sorted(xs);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (data.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    data[lo] + (data[hi] - data[lo]) * (pos - lo as f64)
}

/// The highest of the reportable percentiles that still has at least ten
/// of `n` samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .rev()
        // The tolerance absorbs `100.0 - 99.9` not being exactly 0.1.
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= SAMPLES_BEYOND - 1e-9)
}

/// One line describing a timing: quartiles, the best-supported tail and
/// the sample count.
pub fn describe(xs: &[f64]) -> String {
    if xs.is_empty() {
        return "n=0".to_string();
    }
    let [q1, q2, q3] = quartiles(xs);
    let tail = match tail_percentile(xs.len()) {
        Some(p) => format!(" p{p}={:.4}", percentile(xs, p)),
        None => String::new(),
    };
    format!("q1={q1:.4} median={q2:.4} q3={q3:.4}{tail} n={}", xs.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), [1.25, 2.5, 3.75]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(median(&[1.0, 9.0]), 5.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
