//! Randomized property tests for the statistics helpers (std-only: cases
//! are drawn from the deterministic in-tree generator).

use hintm_types::rng::SmallRng;
use hintm_types::stats_util::{frac_above, geomean, mean, percentile};

fn samples(rng: &mut SmallRng, max: u64, len_range: std::ops::Range<usize>) -> Vec<u64> {
    let n = rng.gen_range(len_range);
    (0..n).map(|_| rng.gen_range(0..max)).collect()
}

#[test]
fn percentile_brackets_the_data() {
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    for _ in 0..200 {
        let s = samples(&mut rng, 1000, 1..200);
        let pct = rng.gen_f64() * 100.0;
        let p = percentile(&s, pct);
        let min = *s.iter().min().unwrap();
        let max = *s.iter().max().unwrap();
        assert!(p >= min && p <= max);
        assert_eq!(percentile(&s, 100.0), max);
    }
}

#[test]
fn frac_above_complements_cdf() {
    let mut rng = SmallRng::seed_from_u64(0xFEED);
    for _ in 0..200 {
        let s = samples(&mut rng, 100, 1..100);
        let t = rng.gen_range(0..100u64);
        let above = frac_above(&s, t);
        let le = s.iter().filter(|&&x| x <= t).count() as f64 / s.len() as f64;
        assert!((above + le - 1.0).abs() < 1e-12);
    }
}

#[test]
fn geomean_between_min_and_max() {
    let mut rng = SmallRng::seed_from_u64(0xDADA);
    for _ in 0..200 {
        let n = rng.gen_range(1..50usize);
        let vals: Vec<f64> = (0..n).map(|_| 0.01 + rng.gen_f64() * 99.99).collect();
        let g = geomean(&vals);
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(g >= min * 0.999 && g <= max * 1.001);
        assert!(g <= mean(&vals) * 1.001, "AM-GM inequality");
    }
}
