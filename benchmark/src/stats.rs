//! Order statistics over timing samples.
//!
//! Percentiles are nearest-rank: the value at rank `ceil(p * n)` of the
//! sorted samples, always one of the samples. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method), so the
//! spread this harness prints is the one the contract's driver computes.

/// Nearest-rank percentile of `sorted` (ascending), `p` in `(0, 1]`.
/// Returns 0 for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy of `samples` (total order; the harness never records NaN).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(samples), p)
}

/// The usual median: the middle sample, or the mean of the middle two.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method (`n >= 2`); a
/// single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |i: usize| -> f64 {
        // Position i*(n+1)/4 in 1-based ranks, clamped to the samples.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median (0 when the
/// median is 0).
pub fn iqr_share(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        // Rank ceil(0.5 * 5) = 3 of five samples, whatever their order.
        assert_eq!(percentile(&[9.0, 1.0, 7.0, 3.0, 5.0], 0.5), 5.0);
        // Rank ceil(0.9 * 4) = 4: with few samples p90 is the maximum.
        assert_eq!(percentile(&[4.0, 2.0, 8.0, 6.0], 0.9), 8.0);
        assert_eq!(percentile(&[42.0], 0.001), 42.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[2.0, 3.0, 1.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
