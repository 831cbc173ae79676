//! Fixed-bucket histograms.
//!
//! One global 1–2–5 log ladder covers every series the reproduction
//! records — microseconds of processing up to giga-scale message counts
//! — so histograms from different runs, cells, and threads merge by
//! plain bucket-wise addition and always emit the same bounds.

/// Inclusive upper bounds of the shared 1–2–5 ladder, ascending.
/// Values above the last bound land in an overflow bucket that emits
/// with a `null` bound; values at or below `1e-6` (including zero and
/// negatives) land in the first bucket.
pub const BUCKET_BOUNDS: [f64; 46] = [
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2,
    0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1e3, 2e3, 5e3, 1e4,
    2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7, 2e7, 5e7, 1e8, 2e8, 5e8, 1e9,
];

/// Index into the per-histogram count array for a sample: the first
/// bound `>= v`, with the overflow bucket at `BUCKET_BOUNDS.len()`.
/// A binary search over the ascending ladder.
fn bucket_index(v: f64) -> usize {
    BUCKET_BOUNDS.partition_point(|b| *b < v)
}

/// A fixed-bucket histogram with exact count/sum/min/max sidecars.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// One count per [`BUCKET_BOUNDS`] entry plus the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKET_BOUNDS.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample. Non-finite samples are dropped (NaN/∞ would
    /// poison `sum` and break byte-stable emission).
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = bucket_index(v);
        if let Some(c) = self.counts.get_mut(idx) {
            *c += 1;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record `n` samples of value `v` at once. The result is exactly
    /// that of `n` calls of [`Self::observe`]`(v)` whenever every partial
    /// sum is exact — integer samples whose running sum stays below 2⁵³ —
    /// so a tally of integer samples folds in, in any order, to the
    /// histogram per-sample observes give.
    pub fn observe_n(&mut self, v: f64, n: u64) {
        if n == 0 || !v.is_finite() {
            return;
        }
        let idx = bucket_index(v);
        if let Some(c) = self.counts.get_mut(idx) {
            *c += n;
        }
        self.count += n;
        self.sum += v * n as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Bucket-wise merge (the operation parallel sweeps rely on; it is
    /// commutative but the engine still merges in slot order so `sum`,
    /// a float, accumulates in a fixed order).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.sum / self.count as f64)
    }

    /// The non-empty buckets, ascending; `None` bound = overflow.
    pub fn nonzero_buckets(&self) -> Vec<(Option<f64>, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (BUCKET_BOUNDS.get(i).copied(), *c))
            .collect()
    }

    /// Bucket-interpolated quantile `q ∈ [0, 1]` (`0.5` = p50), `None`
    /// when the histogram is empty or `q` is out of range. See
    /// [`percentile_from_buckets`] for the estimation rule.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        percentile_from_buckets(&self.nonzero_buckets(), self.count, self.min(), self.max(), q)
    }
}

/// Quantile estimate from a sparse `(upper_bound, count)` bucket list —
/// the form histograms take both in [`Histogram::nonzero_buckets`] and
/// in parsed telemetry sidecars ([`crate::sidecar`]), so `sctrace` and
/// in-process callers share one rule.
///
/// The target rank is `q * (count - 1)` (nearest-rank on the sample
/// index line). Within the bucket holding that rank the estimate
/// interpolates linearly between the previous bucket's upper bound (or
/// `min` for the first bucket) and the bucket's own upper bound (or
/// `max` for the overflow bucket, whose bound is `None`), then clamps to
/// the exact `[min, max]` sidecars. Exact for the endpoints `q = 0` and
/// `q = 1`; at most one bucket wide off anywhere else.
pub fn percentile_from_buckets(
    buckets: &[(Option<f64>, u64)],
    count: u64,
    min: Option<f64>,
    max: Option<f64>,
    q: f64,
) -> Option<f64> {
    if count == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let (min, max) = (min?, max?);
    let rank = q * (count - 1) as f64;
    if rank <= 0.0 {
        return Some(min);
    }
    if rank >= (count - 1) as f64 {
        return Some(max);
    }
    let mut seen = 0u64;
    let mut lower = min;
    for (bound, c) in buckets {
        let upper = bound.unwrap_or(max).min(max).max(lower);
        let hi = (seen + c) as f64 - 1.0;
        if rank <= hi {
            // Fraction of this bucket's samples at or below the rank; a
            // single-sample bucket pins the estimate to its upper bound.
            let within = if *c > 1 {
                (rank - seen as f64) / (*c - 1) as f64
            } else {
                1.0
            };
            let est = lower + (upper - lower) * within.clamp(0.0, 1.0);
            return Some(est.clamp(min, max));
        }
        seen += c;
        lower = upper;
    }
    Some(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bounds_are_strictly_ascending() {
        for w in BUCKET_BOUNDS.windows(2) {
            assert!(w[0] < w[1], "{w:?}");
        }
    }

    /// The ladder as first written: a linear scan for the first
    /// inclusive upper bound.
    fn bucket_index_linear(v: f64) -> usize {
        BUCKET_BOUNDS
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(BUCKET_BOUNDS.len())
    }

    /// One sample of every kind the search can get wrong: any finite
    /// bit pattern, an exact bound or its neighbouring float, a value
    /// at or below the first bound (zero and negatives included), and
    /// one past the last.
    fn finite_sample() -> impl Strategy<Value = f64> {
        (0u32..4, any::<u64>(), 0usize..BUCKET_BOUNDS.len(), -1.0f64..1.0).prop_map(
            |(kind, bits, i, x)| match kind {
                0 => f64::from_bits(bits),
                1 => f64::from_bits(BUCKET_BOUNDS[i].to_bits() + bits % 3 - 1),
                2 => 1e-6 * x,
                _ => 1e9 * (1.0 + x.abs()),
            },
        )
    }

    proptest! {
        #[test]
        fn bucket_index_matches_the_linear_scan(v in finite_sample()) {
            if v.is_finite() {
                prop_assert_eq!(bucket_index(v), bucket_index_linear(v), "{}", v);
            }
        }
    }

    proptest! {
        /// A tally of integer samples folded in by `observe_n`, values in
        /// any order, leaves exactly the per-sample `observe` state.
        #[test]
        fn observe_n_equals_n_observes(
            samples in proptest::collection::vec((0u64..5_000, 0u64..300), 0..60),
            order in any::<u64>(),
        ) {
            let mut each = Histogram::new();
            for &(v, n) in &samples {
                for _ in 0..n {
                    each.observe(v as f64);
                }
            }
            // Fold the same multiset in another order: a rotation of
            // the tally, then duplicates split into two folds.
            let k = if samples.is_empty() { 0 } else { (order % samples.len() as u64) as usize };
            let mut folded = Histogram::new();
            for &(v, n) in samples[k..].iter().chain(&samples[..k]) {
                folded.observe_n(v as f64, n / 2);
                folded.observe_n(v as f64, n - n / 2);
            }
            prop_assert_eq!(folded, each);
        }
    }

    #[test]
    fn observe_n_drops_empty_and_non_finite_folds() {
        let mut h = Histogram::new();
        h.observe_n(4.0, 0);
        h.observe_n(f64::NAN, 3);
        h.observe_n(f64::INFINITY, 3);
        assert_eq!(h, Histogram::new());
    }

    #[test]
    fn every_exact_bound_lands_in_its_own_bucket() {
        for (i, b) in BUCKET_BOUNDS.iter().enumerate() {
            assert_eq!(bucket_index(*b), i);
        }
    }

    #[test]
    fn observe_places_samples_on_the_ladder() {
        let mut h = Histogram::new();
        h.observe(0.15); // → bucket 0.2
        h.observe(0.2); // inclusive upper bound → bucket 0.2
        h.observe(3.0); // → bucket 5.0
        assert_eq!(h.count(), 3);
        assert_eq!(
            h.nonzero_buckets(),
            vec![(Some(0.2), 2), (Some(5.0), 1)]
        );
        assert_eq!(h.min(), Some(0.15));
        assert_eq!(h.max(), Some(3.0));
    }

    #[test]
    fn extremes_land_in_edge_buckets() {
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(-5.0);
        h.observe(2e12);
        assert_eq!(
            h.nonzero_buckets(),
            vec![(Some(1e-6), 2), (None, 1)]
        );
    }

    #[test]
    fn non_finite_samples_dropped() {
        let mut h = Histogram::new();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn merge_matches_sequential_observation() {
        let samples = [0.001, 0.4, 7.0, 7.0, 900.0, 1e10];
        let mut whole = Histogram::new();
        for s in samples {
            whole.observe(s);
        }
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, s) in samples.iter().enumerate() {
            if i % 2 == 0 {
                left.observe(*s);
            } else {
                right.observe(*s);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn percentile_endpoints_are_exact() {
        let mut h = Histogram::new();
        for v in [3.0, 7.0, 42.0, 180.0] {
            h.observe(v);
        }
        assert_eq!(h.percentile(0.0), Some(3.0));
        assert_eq!(h.percentile(1.0), Some(180.0));
    }

    #[test]
    fn percentile_interpolates_within_a_bucket() {
        let mut h = Histogram::new();
        // 100 samples all in the (0.5, 1.0] bucket.
        for i in 0..100 {
            h.observe(0.51 + 0.0049 * i as f64);
        }
        let p50 = h.percentile(0.5);
        // Interpolated between min (bucket entry) and the 1.0 bound.
        assert!(p50.is_some());
        if let Some(p) = p50 {
            assert!((0.51..=1.0).contains(&p), "{p}");
        }
        let p95 = h.percentile(0.95);
        assert!(p95 >= p50, "{p95:?} vs {p50:?}");
    }

    #[test]
    fn percentile_single_sample_and_empty() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(0.5), None);
        h.observe(30.0);
        assert_eq!(h.percentile(0.0), Some(30.0));
        assert_eq!(h.percentile(0.5), Some(30.0));
        assert_eq!(h.percentile(0.99), Some(30.0));
    }

    #[test]
    fn percentile_rejects_out_of_range_q() {
        let mut h = Histogram::new();
        h.observe(1.0);
        assert_eq!(h.percentile(-0.1), None);
        assert_eq!(h.percentile(1.5), None);
        assert_eq!(h.percentile(f64::NAN), None);
    }

    #[test]
    fn percentile_overflow_bucket_clamps_to_max() {
        let mut h = Histogram::new();
        h.observe(1.0);
        for _ in 0..9 {
            h.observe(5e9); // overflow bucket (bound = null)
        }
        // The overflow bucket's missing bound substitutes the exact max,
        // so estimates inside it stay within [last bound, max].
        let p95 = h.percentile(0.95);
        assert!(p95 > Some(1e9) && p95 <= Some(5e9), "{p95:?}");
        assert_eq!(h.percentile(1.0), Some(5e9));
    }

    #[test]
    fn percentile_is_monotone_in_q() {
        let mut h = Histogram::new();
        for v in [0.002, 0.4, 0.4, 3.0, 18.0, 95.0, 400.0, 2.5e3, 8e4, 2e12] {
            h.observe(v);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
        let mut prev = f64::NEG_INFINITY;
        for q in qs {
            if let Some(p) = h.percentile(q) {
                assert!(p >= prev, "p({q}) = {p} < {prev}");
                prev = p;
            }
        }
        assert_eq!(h.percentile(1.0), Some(2e12));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = Histogram::new();
        h.observe(1.0);
        let before = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, before);
    }
}
