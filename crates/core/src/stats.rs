//! Online statistics used by the benchmark harnesses.

/// Streaming mean/variance/min/max via Welford's algorithm.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Fold in one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Combine another accumulator into this one (Chan et al.'s parallel
    /// variance update), so per-node accumulators can be merged into a
    /// cluster-wide summary. The result matches pushing every sample into
    /// a single accumulator.
    pub fn merge(&mut self, other: &Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        self.mean += d * other.n as f64 / n as f64;
        self.m2 += other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest sample, or `NaN` when empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest sample, or `NaN` when empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

/// Harmonic mean of a slice of positive rates — Graph500 reports the
/// harmonic mean of TEPS across search roots.
pub fn harmonic_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let denom: f64 = xs.iter().map(|&x| 1.0 / x).sum();
    xs.len() as f64 / denom
}

/// Histogram over power-of-two buckets; bucket `i` counts samples in
/// `[2^i, 2^(i+1))` with bucket 0 also catching zero.
#[derive(Debug, Clone)]
pub struct Log2Histogram {
    buckets: Vec<u64>,
    total: u64,
}

impl Log2Histogram {
    /// Histogram with `buckets` power-of-two buckets; samples beyond the
    /// last bucket clamp into it.
    pub fn new(buckets: usize) -> Self {
        Self { buckets: vec![0; buckets.max(1)], total: 0 }
    }

    /// Count one sample.
    #[inline]
    pub fn push(&mut self, x: u64) {
        let idx = if x <= 1 { 0 } else { (63 - x.leading_zeros()) as usize };
        let idx = idx.min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.total += 1;
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The smallest `x` such that at least `q` (0..=1) of samples are
    /// `< 2^x` — a coarse quantile in log₂ space.
    ///
    /// Returns the sentinel `usize::MAX` on an empty histogram: an empty
    /// histogram has no quantiles, and the old behavior (returning bucket
    /// 0) was indistinguishable from "all samples were tiny".
    pub fn quantile_log2(&self, q: f64) -> usize {
        if self.total == 0 {
            return usize::MAX;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return i;
            }
        }
        self.buckets.len() - 1
    }

    /// Fold another histogram into this one. Buckets beyond this
    /// histogram's depth clamp into its last bucket, mirroring
    /// [`Log2Histogram::push`]'s clamping.
    pub fn merge(&mut self, other: &Self) {
        let last = self.buckets.len() - 1;
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i.min(last)] += c;
        }
        self.total += other.total;
    }

    /// The samples counted since `prev`, as a histogram of the same depth:
    /// `self` minus `prev`, bucket by bucket. `prev` must be an earlier
    /// state of the same monotonically-growing histogram — pushes only add
    /// counts, so every bucket of `prev` is a lower bound. That invariant
    /// is debug-asserted; release builds saturate instead of wrapping, so
    /// a violated precondition can never send per-interval quantiles
    /// negative (they clamp to empty).
    pub fn delta(&self, prev: &Self) -> Self {
        debug_assert_eq!(
            self.buckets.len(),
            prev.buckets.len(),
            "delta requires histograms of the same depth"
        );
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(prev.buckets.iter().chain(std::iter::repeat(&0)))
            .map(|(&now, &was)| {
                debug_assert!(was <= now, "histogram bucket shrank: {was} -> {now}");
                now.saturating_sub(was)
            })
            .collect();
        let total = buckets.iter().sum();
        Self { buckets, total }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_closed_form() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4.0; sample variance = 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_nan());
    }

    #[test]
    fn harmonic_mean_known_values() {
        assert!((harmonic_mean(&[1.0, 2.0, 4.0]) - 12.0 / 7.0).abs() < 1e-12);
        assert!((harmonic_mean(&[5.0]) - 5.0).abs() < 1e-12);
        assert!(harmonic_mean(&[]).is_nan());
        // Harmonic mean is dominated by the slowest sample.
        assert!(harmonic_mean(&[100.0, 0.01]) < 0.03);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Log2Histogram::new(8);
        for x in [0, 1, 2, 3, 4, 8, 1000, u64::MAX] {
            h.push(x);
        }
        assert_eq!(h.total(), 8);
        assert_eq!(h.buckets()[0], 2); // 0 and 1
        assert_eq!(h.buckets()[1], 2); // 2 and 3
        assert_eq!(h.buckets()[2], 1); // 4
        assert_eq!(h.buckets()[3], 1); // 8
        assert_eq!(h.buckets()[7], 2); // clamped large values
        assert_eq!(h.quantile_log2(0.25), 0);
        assert_eq!(h.quantile_log2(1.0), 7);
    }

    #[test]
    fn empty_histogram_quantile_is_a_sentinel() {
        // Regression: an empty histogram used to answer 0, which looked
        // exactly like "every sample was < 2".
        let h = Log2Histogram::new(8);
        assert_eq!(h.quantile_log2(0.5), usize::MAX);
        assert_eq!(h.quantile_log2(1.0), usize::MAX);
    }

    #[test]
    fn histogram_merge_matches_combined_pushes() {
        let mut a = Log2Histogram::new(8);
        let mut b = Log2Histogram::new(8);
        let mut combined = Log2Histogram::new(8);
        for x in [0, 3, 9, 100] {
            a.push(x);
            combined.push(x);
        }
        for x in [1, 7, 5000] {
            b.push(x);
            combined.push(x);
        }
        a.merge(&b);
        assert_eq!(a.buckets(), combined.buckets());
        assert_eq!(a.total(), combined.total());
    }

    #[test]
    fn histogram_merge_clamps_deeper_tails() {
        let mut wide = Log2Histogram::new(16);
        wide.push(40_000); // bucket 15
        wide.push(2);
        let mut narrow = Log2Histogram::new(4);
        narrow.merge(&wide);
        assert_eq!(narrow.total(), 2);
        assert_eq!(narrow.buckets()[1], 1); // the 2
        assert_eq!(narrow.buckets()[3], 1); // clamped tail
    }

    #[test]
    fn histogram_delta_isolates_the_interval() {
        let mut h = Log2Histogram::new(8);
        for x in [1, 5, 900] {
            h.push(x);
        }
        let at_boundary = h.clone();
        for x in [2, 5, 70_000] {
            h.push(x);
        }
        let d = h.delta(&at_boundary);
        let mut expect = Log2Histogram::new(8);
        for x in [2, 5, 70_000] {
            expect.push(x);
        }
        assert_eq!(d.buckets(), expect.buckets());
        assert_eq!(d.total(), 3);
        // Quantiles of the interval delta are well-defined and can never
        // go negative: an idle interval is simply empty.
        assert_eq!(h.delta(&h).total(), 0);
        assert_eq!(h.delta(&h).quantile_log2(0.5), usize::MAX);
    }

    #[test]
    fn online_stats_merge_matches_single_stream() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut whole = OnlineStats::new();
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for (i, &x) in xs.iter().enumerate() {
            whole.push(x);
            if i < 3 {
                left.push(x)
            } else {
                right.push(x)
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.variance() - whole.variance()).abs() < 1e-12);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
        // Merging an empty accumulator is a no-op in both directions.
        let empty = OnlineStats::new();
        let before = left.mean();
        left.merge(&empty);
        assert_eq!(left.mean(), before);
        let mut fresh = OnlineStats::new();
        fresh.merge(&left);
        assert_eq!(fresh.count(), left.count());
    }
}
