//! Statistics helpers used by the metric collectors.
//!
//! The evaluation reports means, 99th percentiles, ratios and distributions
//! (PDF/CDF plots). [`Summary`] is an online (Welford) accumulator,
//! [`Percentiles`] computes exact order statistics, and [`Histogram`] bins
//! values for the figure-style outputs.

/// Online summary statistics (count, mean, min, max), the mean updated
/// incrementally as in Welford's algorithm.
///
/// # Example
///
/// ```
/// use slimstart_simcore::stats::Summary;
///
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "Summary::record: non-finite observation");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Merges another summary into this one (the parallel Welford combine
    /// of the means).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

/// Exact percentile computation over a stored sample.
///
/// Stores all observations; appropriate for the experiment scales used here
/// (hundreds to tens of thousands of invocations).
///
/// # Example
///
/// ```
/// use slimstart_simcore::stats::Percentiles;
///
/// let p: Percentiles = (1..=100).map(|i| i as f64).collect();
/// assert_eq!(p.quantile(0.99), Some(99.0)); // nearest rank
/// assert_eq!(p.quantile(0.5), Some(50.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    values: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty collection.
    fn new() -> Self {
        Percentiles {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "Percentiles::record: non-finite observation");
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
            self.sorted = true;
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) using the nearest-rank method.
    ///
    /// Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.clone();
        sorted.ensure_sorted();
        let n = sorted.values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(sorted.values[rank - 1])
    }

    /// The 99th percentile, the paper's tail-latency metric.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// The median.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// Read access to the recorded values (unspecified order).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl Extend<f64> for Percentiles {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

impl FromIterator<f64> for Percentiles {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut p = Percentiles::new();
        p.extend(iter);
        p
    }
}

/// A fixed-width histogram over `[lo, hi)` used for PDF/CDF figure outputs.
///
/// Out-of-range observations clamp into the first/last bin so that mass is
/// never silently dropped.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "Histogram requires at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "Histogram requires finite lo < hi"
        );
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Records one observation (clamping into range).
    pub fn record(&mut self, x: f64) {
        let bins = self.counts.len();
        let idx = if x <= self.lo {
            0
        } else if x >= self.hi {
            bins - 1
        } else {
            (((x - self.lo) / (self.hi - self.lo)) * bins as f64) as usize
        };
        self.counts[idx.min(bins - 1)] += 1;
        self.total += 1;
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Normalized bin densities (the figure-style PDF). Empty histogram
    /// yields all zeros.
    pub fn pdf(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|c| *c as f64 / self.total as f64)
            .collect()
    }

    /// Cumulative distribution per bin (last element is 1.0 when non-empty).
    pub fn cdf(&self) -> Vec<f64> {
        let pdf = self.pdf();
        let mut acc = 0.0;
        pdf.iter()
            .map(|p| {
                acc += p;
                acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mean_min_max() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn summary_empty_behaviour() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn summary_merge_matches_sequential() {
        let all: Summary = (0..100).map(|i| i as f64).collect();
        let mut left: Summary = (0..40).map(|i| i as f64).collect();
        let right: Summary = (40..100).map(|i| i as f64).collect();
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_with_empty_is_identity() {
        let mut s: Summary = [1.0, 2.0].into_iter().collect();
        s.merge(&Summary::new());
        assert_eq!(s.count(), 2);
        let mut e = Summary::new();
        e.merge(&s);
        assert_eq!(e.count(), 2);
        assert!((e.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn summary_rejects_nan() {
        Summary::new().record(f64::NAN);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let p: Percentiles = (1..=100).map(|i| i as f64).collect();
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(p.quantile(0.01), Some(1.0));
        assert_eq!(p.quantile(0.5), Some(50.0));
        assert_eq!(p.p99(), Some(99.0));
        assert_eq!(p.quantile(1.0), Some(100.0));
    }

    #[test]
    fn percentiles_single_value() {
        let p: Percentiles = [42.0].into_iter().collect();
        assert_eq!(p.median(), Some(42.0));
        assert_eq!(p.p99(), Some(42.0));
        assert_eq!(p.mean(), Some(42.0));
    }

    #[test]
    fn percentiles_empty_returns_none() {
        let p = Percentiles::new();
        assert_eq!(p.median(), None);
        assert_eq!(p.mean(), None);
        assert!(p.is_empty());
    }

    #[test]
    fn percentiles_unsorted_input() {
        let p: Percentiles = [5.0, 1.0, 3.0, 2.0, 4.0].into_iter().collect();
        assert_eq!(p.median(), Some(3.0));
        assert_eq!(p.len(), 5);
    }

    #[test]
    #[should_panic(expected = "[0, 1]")]
    fn percentiles_quantile_range_checked() {
        let p: Percentiles = [1.0].into_iter().collect();
        p.quantile(1.5);
    }

    #[test]
    fn histogram_pdf_cdf() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [1.0, 1.5, 3.0, 9.0] {
            h.record(x);
        }
        let pdf = h.pdf();
        assert!((pdf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((pdf[0] - 0.5).abs() < 1e-12);
        let cdf = h.cdf();
        assert!((cdf[4] - 1.0).abs() < 1e-12);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1] + 1e-12));
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.record(-5.0);
        h.record(5.0);
        assert_eq!(h.counts(), &[1, 1]);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn histogram_empty_pdf_is_zero() {
        let h = Histogram::new(0.0, 1.0, 3);
        assert_eq!(h.pdf(), vec![0.0, 0.0, 0.0]);
    }
}
