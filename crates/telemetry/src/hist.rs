//! Fixed-bucket histograms with quantile queries.
//!
//! The bucket layout is chosen at construction time ([`Histogram::linear`]
//! or [`Histogram::exponential`]) and never changes, so recording is a
//! branchless-ish binary search plus one counter increment, and two
//! histograms with the same layout [`merge`](Histogram::merge) by adding
//! counts. Quantiles interpolate linearly within the containing bucket,
//! which is the usual fixed-bucket trade-off: cheap and mergeable, with
//! error bounded by bucket width.

/// Error returned by [`Histogram::merge`] when the two histograms were
/// built with different bucket layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutMismatch;

impl std::fmt::Display for LayoutMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("can only merge histograms with identical bucket layouts")
    }
}

impl std::error::Error for LayoutMismatch {}

/// A histogram over `f64` samples with immutable bucket bounds.
///
/// Bucket `i` covers `[bound[i-1], bound[i])` (with an implicit lower
/// edge at `min` for `i == 0`); samples at or above the last bound land
/// in a dedicated overflow bucket, samples below `min` in an underflow
/// bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive lower edge of the first bucket.
    min: f64,
    /// Strictly increasing upper bounds, one per regular bucket.
    bounds: Vec<f64>,
    /// One count per regular bucket.
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    sum: f64,
}

impl Histogram {
    /// A histogram with explicit bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, not strictly increasing, or does not
    /// start above `min`.
    pub fn with_bounds(min: f64, bounds: Vec<f64>) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        let mut prev = min;
        for &b in &bounds {
            assert!(b > prev, "histogram bounds must be strictly increasing");
            prev = b;
        }
        let counts = vec![0; bounds.len()];
        Histogram { min, bounds, counts, underflow: 0, overflow: 0, sum: 0.0 }
    }

    /// `buckets` equal-width buckets covering `[min, max)`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0` or `max <= min`.
    pub fn linear(min: f64, max: f64, buckets: usize) -> Histogram {
        assert!(buckets > 0 && max > min, "invalid linear histogram layout");
        let width = (max - min) / buckets as f64;
        let bounds = (1..=buckets).map(|i| min + width * i as f64).collect();
        Histogram::with_bounds(min, bounds)
    }

    /// `buckets` buckets whose widths grow by `factor`, starting at
    /// `[0, first)`. Good for latencies spanning orders of magnitude.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0`, `first <= 0`, or `factor <= 1`.
    pub fn exponential(first: f64, factor: f64, buckets: usize) -> Histogram {
        assert!(buckets > 0 && first > 0.0 && factor > 1.0, "invalid exponential histogram layout");
        let mut bounds = Vec::with_capacity(buckets);
        let mut edge = first;
        for _ in 0..buckets {
            bounds.push(edge);
            edge *= factor;
        }
        Histogram::with_bounds(0.0, bounds)
    }

    /// Record one sample. Non-finite samples are ignored.
    pub fn record(&mut self, sample: f64) {
        if !sample.is_finite() {
            return;
        }
        self.sum += sample;
        if sample < self.min {
            self.underflow += 1;
        } else {
            // partition_point: first bucket whose upper bound exceeds the sample.
            let idx = self.bounds.partition_point(|&b| b <= sample);
            if idx == self.bounds.len() {
                self.overflow += 1;
            } else {
                self.counts[idx] += 1;
            }
        }
    }

    /// Total recorded samples, including under/overflow.
    pub fn count(&self) -> u64 {
        self.underflow + self.overflow + self.counts.iter().sum::<u64>()
    }

    /// Mean of all recorded samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        if n > 0 {
            Some(self.sum / n as f64)
        } else {
            None
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), linearly interpolated within
    /// the containing bucket. `None` when the histogram is empty.
    ///
    /// # Out-of-range samples
    ///
    /// Samples outside the bucket layout are *counted* but their values
    /// are not retained, so quantiles that land in the underflow bucket
    /// clamp to `min` and quantiles that land in the overflow bucket
    /// clamp to the last bound. In particular, a histogram holding
    /// **only** overflow samples answers every quantile — `q = 0`
    /// through `q = 1` — with the last bound, regardless of how far
    /// above it the samples actually were. Reading `p99 == last bound`
    /// together with a non-zero [`overflow`](Histogram::overflow) count
    /// therefore means "at least this much", not an exact estimate; size
    /// the layout so the tail you care about lands in a real bucket.
    ///
    /// ```
    /// use cannikin_telemetry::Histogram;
    ///
    /// let mut h = Histogram::linear(0.0, 10.0, 4);
    /// for _ in 0..5 {
    ///     h.record(1e6); // far beyond the last bound
    /// }
    /// assert_eq!(h.overflow(), 5);
    /// // Every quantile of an overflow-only histogram clamps to the
    /// // last bound (10.0) — the true magnitudes are not recoverable.
    /// assert_eq!(h.quantile(0.0), Some(10.0));
    /// assert_eq!(h.quantile(0.5), Some(10.0));
    /// assert_eq!(h.quantile(1.0), Some(10.0));
    /// // The mirror case: underflow-only histograms clamp to `min`.
    /// let mut low = Histogram::linear(5.0, 10.0, 4);
    /// low.record(-3.0);
    /// assert_eq!(low.quantile(0.5), Some(5.0));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let total = self.count();
        if total == 0 {
            return None;
        }
        // Rank of the requested quantile, 1-based; q=0 maps to rank 1.
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        if rank <= seen {
            return Some(self.min);
        }
        let mut lower = self.min;
        for (i, &count) in self.counts.iter().enumerate() {
            let upper = self.bounds[i];
            if count > 0 && rank <= seen + count {
                let into = (rank - seen) as f64 / count as f64;
                return Some(lower + (upper - lower) * into);
            }
            seen += count;
            lower = upper;
        }
        Some(*self.bounds.last().expect("non-empty bounds"))
    }

    /// Add another histogram's counts into this one.
    ///
    /// Merging is only meaningful bucket-by-bucket, so the two layouts
    /// (`min` and every bound) must be identical; otherwise `self` is left
    /// untouched and a [`LayoutMismatch`] is returned.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), LayoutMismatch> {
        if self.min != other.min || self.bounds != other.bounds {
            return Err(LayoutMismatch);
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.sum += other.sum;
        Ok(())
    }

    /// Samples that fell at or above the last bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Samples that fell below `min`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_layout_places_samples() {
        let mut h = Histogram::linear(0.0, 10.0, 10);
        for s in [0.0, 0.5, 3.3, 9.99] {
            h.record(s);
        }
        h.record(-1.0); // underflow
        h.record(10.0); // at the top bound → overflow
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 6);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::linear(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        // Uniform data: quantile ≈ value, within one bucket width.
        for q in [0.1, 0.25, 0.5, 0.9, 0.99] {
            let got = h.quantile(q).unwrap();
            assert!((got - q * 100.0).abs() <= 1.0, "q={q} got={got}");
        }
        assert_eq!(h.quantile(0.0).unwrap(), 1.0); // rank 1 → first bucket's top
        assert_eq!(h.quantile(1.0).unwrap(), 100.0);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::exponential(1e-6, 2.0, 24);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn merge_adds_counts_and_preserves_quantiles() {
        let mut a = Histogram::linear(0.0, 10.0, 20);
        let mut b = Histogram::linear(0.0, 10.0, 20);
        for i in 0..50 {
            a.record(i as f64 % 5.0);
            b.record(5.0 + i as f64 % 5.0);
        }
        let a_only_median = a.quantile(0.5).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.count(), 100);
        let merged_median = a.quantile(0.5).unwrap();
        assert!(merged_median > a_only_median, "merge should pull the median up");
        let mean = a.mean().unwrap();
        assert!((mean - 4.5).abs() < 1e-9, "mean={mean}");
    }

    #[test]
    fn merging_mismatched_layouts_is_rejected() {
        let mut a = Histogram::linear(0.0, 10.0, 10);
        a.record(1.0);
        let snapshot = a.clone();
        // Different bounds.
        assert_eq!(a.merge(&Histogram::linear(0.0, 20.0, 10)), Err(LayoutMismatch));
        // Same bounds, different min.
        assert_eq!(a.merge(&Histogram::with_bounds(-1.0, (1..=10).map(f64::from).collect())), Err(LayoutMismatch));
        // Different bucket count.
        assert_eq!(a.merge(&Histogram::linear(0.0, 10.0, 5)), Err(LayoutMismatch));
        assert_eq!(a, snapshot, "failed merge must leave the target untouched");
    }

    #[test]
    fn merging_empty_histograms_is_a_noop() {
        let mut a = Histogram::linear(0.0, 10.0, 10);
        a.record(3.0);
        let before = a.clone();
        a.merge(&Histogram::linear(0.0, 10.0, 10)).unwrap();
        assert_eq!(a, before);
        // Empty ← non-empty adopts the source's contents.
        let mut empty = Histogram::linear(0.0, 10.0, 10);
        empty.merge(&a).unwrap();
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.quantile(0.5), a.quantile(0.5));
    }

    #[test]
    fn single_bucket_histogram_quantiles_are_monotone() {
        let mut h = Histogram::with_bounds(0.0, vec![10.0]);
        for s in [1.0, 5.0, 9.0] {
            h.record(s);
        }
        let qs: Vec<f64> =
            [0.0, 0.25, 0.5, 0.75, 1.0].iter().map(|&q| h.quantile(q).unwrap()).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "quantiles must be monotone: {qs:?}");
        assert!(qs.iter().all(|&v| (0.0..=10.0).contains(&v)));
    }

    #[test]
    fn overflow_only_histogram_clamps_quantiles_to_last_bound() {
        let mut h = Histogram::linear(0.0, 10.0, 4);
        for _ in 0..5 {
            h.record(100.0);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.overflow(), 5);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q).unwrap(), 10.0, "overflow-only clamps to last bound");
        }
        // Merging two overflow-only histograms keeps the clamp and the counts.
        let mut other = Histogram::linear(0.0, 10.0, 4);
        other.record(50.0);
        h.merge(&other).unwrap();
        assert_eq!(h.overflow(), 6);
        assert_eq!(h.quantile(0.5).unwrap(), 10.0);
    }

    #[test]
    fn underflow_only_histogram_clamps_quantiles_to_min() {
        let mut h = Histogram::linear(5.0, 10.0, 4);
        h.record(1.0);
        h.record(2.0);
        assert_eq!(h.underflow(), 2);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q).unwrap(), 5.0, "underflow-only clamps to min");
        }
    }

    #[test]
    fn exponential_layout_covers_wide_ranges() {
        let mut h = Histogram::exponential(1e-6, 4.0, 16);
        h.record(1e-7);
        h.record(1e-3);
        h.record(0.5);
        assert_eq!(h.count(), 3);
        assert_eq!(h.overflow(), 0);
        let p100 = h.quantile(1.0).unwrap();
        assert!(p100 >= 0.5, "p100={p100}");
    }
}
