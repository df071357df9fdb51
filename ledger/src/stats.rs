//! Order statistics for latency samples and run-to-run spreads.

/// Samples that must lie beyond a reported percentile: a p99 over
/// fewer than 1 000 samples is decided by a handful of ops.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (whole percent, 1..=99), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(xs: &[f64], p: usize) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    let rank = (p * n).div_ceil(100);
    (rank >= 1 && n >= rank + MIN_BEYOND).then(|| v[rank - 1])
}

/// Python's `statistics.quantiles(xs, n=4)` (exclusive method): the
/// three quartile cut points. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Run-to-run spread as the driver takes it: the distance between the
/// first and third quartile as a share of the median.
pub fn quartile_spread(xs: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(xs)?;
    let med = median(xs);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99), Some(990.0));
        assert_eq!(percentile(&xs[..999], 99), None, "only 9 beyond rank 990");
        assert_eq!(percentile(&xs[..40], 50), Some(20.0));
        assert_eq!(percentile(&xs[..40], 90), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartile_spread(&xs), Some(1.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
