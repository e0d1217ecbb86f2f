//! Order statistics at full resolution: every sample is kept and sorted, so
//! a percentile is a measured value, never a histogram bucket edge.

/// Sorts a copy of `values` with a total order (NaN last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of already sorted data: the smallest sample
/// such that at least `q` of all samples are at or below it. `q` in
/// `(0, 1]`; `NaN` for empty input.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize; // cast-ok: q in (0,1], n small
    sorted[rank.clamp(1, n) - 1]
}

/// Nearest-rank percentile of unsorted data.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    percentile_sorted(&sorted(values), q)
}

/// The median: the middle sample, or the mean of the two middle samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads computed here match the ones the acceptance rule uses. Needs
/// at least two samples; with fewer both quartiles are the lone sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64; // cast-ok: small integers
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Inter-quartile distance as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    (q3 - q1) / med.abs()
}

/// Arithmetic mean; `NaN` for empty input.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64 // cast-ok: sample count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        // Unsorted input and a single sample.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[7.5], 0.999), 7.5);
        assert!(percentile(&[], 0.5).is_nan());
        // 1000 samples: p99.9 is the 999th, not an interpolation.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.999), 999.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
