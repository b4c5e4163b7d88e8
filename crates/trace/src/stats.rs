//! Summary statistics for experiment reporting.

/// Summary of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Summarize a sample set.
///
/// The input need not be sorted (a sorted copy is made internally), but
/// it must be non-empty — an empty sample set has no mean, extrema, or
/// percentiles, and this function's contract is to panic rather than
/// invent them. Callers that cannot statically guarantee non-emptiness
/// should check first (there is deliberately no `try_summarize`: a
/// summary of nothing has no meaningful representation).
///
/// # Panics
/// Panics on an empty input.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summarize of empty sample set");
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Summary {
        n,
        mean,
        stddev: var.sqrt(),
        min: sorted[0],
        max: sorted[n - 1],
        median: percentile_of_sorted(&sorted, 50.0),
        p95: percentile_of_sorted(&sorted, 95.0),
        p99: percentile_of_sorted(&sorted, 99.0),
    }
}

/// Percentile (nearest-rank with linear interpolation) of pre-sorted data.
///
/// **Preconditions:** `sorted` must be non-empty and ascending (NaN-free
/// — sort with `total_cmp` first), and `pct` must lie in `[0, 100]`.
/// `pct = 0` returns the minimum, `pct = 100` the maximum, and a rank
/// landing between two samples interpolates linearly.
///
/// # Panics
/// Panics on empty data or a percentile outside `[0, 100]`.
pub fn percentile_of_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty data");
    assert!(
        (0.0..=100.0).contains(&pct),
        "percentile {pct} out of range"
    );
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_data() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.n, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.stddev - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [0.0, 10.0];
        assert!((percentile_of_sorted(&sorted, 50.0) - 5.0).abs() < 1e-12);
        assert_eq!(percentile_of_sorted(&sorted, 0.0), 0.0);
        assert_eq!(percentile_of_sorted(&sorted, 100.0), 10.0);
    }

    #[test]
    fn percentile_boundaries_pin_extrema() {
        // pct = 0 is the minimum and pct = 100 the maximum, for any
        // sample count — no off-by-one at either rank boundary.
        let sorted = [1.0, 2.0, 4.0, 8.0, 16.0];
        assert_eq!(percentile_of_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_of_sorted(&sorted, 100.0), 16.0);
        // A rank landing exactly between two samples interpolates at the
        // midpoint: 75% of 4 gaps is rank 3.0 → sample 8.0; 62.5% is
        // rank 2.5, halfway between 4.0 and 8.0.
        assert_eq!(percentile_of_sorted(&sorted, 75.0), 8.0);
        assert!((percentile_of_sorted(&sorted, 62.5) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_of_single_element_is_that_element() {
        for pct in [0.0, 37.5, 50.0, 100.0] {
            assert_eq!(percentile_of_sorted(&[42.0], pct), 42.0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_out_of_range_rejected() {
        let _ = percentile_of_sorted(&[1.0], 101.0);
    }

    #[test]
    #[should_panic(expected = "percentile of empty data")]
    fn percentile_of_empty_rejected() {
        let _ = percentile_of_sorted(&[], 50.0);
    }

    #[test]
    fn single_sample() {
        let s = summarize(&[7.0]);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.p95, 7.0);
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rejected() {
        let _ = summarize(&[]);
    }
}
