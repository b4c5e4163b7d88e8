//! Median and quartiles of a sample, computed the way Python's
//! `statistics.median` and `statistics.quantiles(values, n=4)` do, so
//! the spreads this benchmark prints can be compared with ones computed
//! outside it.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The least value: of timings of identical work, the one the host
/// disturbed least.
///
/// # Panics
/// Panics on an empty sample.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of an empty sample");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The middle value; the mean of the middle two for an even count.
///
/// # Panics
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First, second and third quartile (the "exclusive" method: cut point
/// `i` sits at position `i·(n+1)/4` of the sorted sample, interpolated
/// linearly between the two neighbours, or extrapolated from the outer
/// two where the position falls outside the sample).
///
/// # Panics
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let v = sorted(values);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// (q3 − q1) ÷ median: the spread the benchmark contract is judged by.
/// Zero for a single value.
pub fn iqr_rel(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_tied_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 5.0, 5.0, 5.0]), 5.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn fastest_is_the_least_value() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[7.0]), 7.0);
    }

    // Expected values are `statistics.quantiles(values, n=4)` from Python.
    #[test]
    fn quartiles_match_the_exclusive_method() {
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    }

    #[test]
    fn tied_samples_have_no_spread() {
        assert_eq!(quartiles(&[2.0, 2.0, 2.0, 2.0]), [2.0, 2.0, 2.0]);
        assert_eq!(iqr_rel(&[2.0, 2.0, 2.0, 2.0]), 0.0);
        assert_eq!(iqr_rel(&[9.0]), 0.0);
        assert_eq!(iqr_rel(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
    }
}
