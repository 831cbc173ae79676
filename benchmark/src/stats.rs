//! Order statistics over timing samples.

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer, and the reading is set by a handful of outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Whether a sample of `n` supports percentile `q` in `[0, 1)`: at
/// least [`MIN_SAMPLES_BEYOND`] samples must rank above it.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - (rank(n, q) + 1) >= MIN_SAMPLES_BEYOND
}

/// Zero-based rank of percentile `q` in a sorted sample of `n`
/// (nearest-rank, rounded up).
fn rank(n: usize, q: f64) -> usize {
    ((n as f64 * q).ceil() as usize).clamp(1, n.max(1)) - 1
}

/// Nearest-rank percentile `q` of `samples`, reordering them in place.
/// `None` when the sample is too small to support `q` (see
/// [`supports`]).
pub fn percentile(samples: &mut [u32], q: f64) -> Option<u32> {
    if samples.is_empty() || !supports(samples.len(), q) {
        return None;
    }
    let k = rank(samples.len(), q);
    Some(*samples.select_nth_unstable(k).1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=10_000).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), Some(5_000));
        assert_eq!(percentile(&mut v, 0.99), Some(9_900));
        assert_eq!(percentile(&mut v, 0.0), Some(1));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1 000 is the 990th value: exactly ten lie beyond it.
        assert!(supports(1_000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(0, 0.5));
        let mut small: Vec<u32> = (0..500).collect();
        assert_eq!(percentile(&mut small, 0.99), None);
        assert!(percentile(&mut small, 0.9).is_some());
        // p99.9 wants 10 000 samples.
        let mut mid: Vec<u32> = (0..9_999).collect();
        assert_eq!(percentile(&mut mid, 0.999), None);
    }
}
