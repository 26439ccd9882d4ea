//! The few statistics the ledger reports: medians, the tail-percentile
//! rule for per-batch timings, and the quartile spread the repeatability
//! criterion is stated in.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a measured series"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail of a timing series: the highest percentile that still has at
/// least ten samples beyond it, as `(percentile, value)`. `None` when the
/// series is too short to have one (fewer than eleven samples).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    let n = values.len();
    if n <= BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a measured series"));
    let k = n - BEYOND - 1;
    Some((100.0 * (k + 1) as f64 / n as f64, v[k]))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), so `compare` and the acceptance
/// criterion agree to the last digit. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a measured series"));
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread.
/// 0 when there are too few values to have one.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values).abs(),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        let (pct, value) = tail(&v).unwrap();
        assert_eq!(value, 390.0);
        assert_eq!(pct, 97.5);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        // Eleven samples is the shortest series with a tail: its minimum.
        let short: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&short).unwrap().1, 1.0);
        assert!(tail(&short[..10]).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
