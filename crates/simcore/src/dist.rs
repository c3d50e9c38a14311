//! Probability distributions used by the workload and application models.
//!
//! All samplers are self-contained (no `rand_distr` dependency) and draw from
//! a [`SimRng`], keeping the whole simulation deterministic from one seed.
//!
//! * [`Zipf`] — skewed handler-popularity and library-size distributions
//!   (the paper's §II-C observation that a few entry points dominate).
//! * [`Exponential`] — Poisson inter-arrival times for invocation streams.
//! * [`LogNormal`] — module initialization cost spread.
//! * [`Pareto`] — heavy-tailed module counts.
//! * [`Empirical`] — weighted discrete choice (handler selection).

use std::fmt;

use crate::rng::SimRng;

/// Error produced when a distribution is constructed with invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidDistribution {
    what: &'static str,
}

impl InvalidDistribution {
    fn new(what: &'static str) -> Self {
        InvalidDistribution { what }
    }
}

impl fmt::Display for InvalidDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameters: {}", self.what)
    }
}

impl std::error::Error for InvalidDistribution {}

/// Zipf distribution over ranks `0..n` with exponent `s`.
///
/// Rank `k` (0-based) has probability proportional to `1 / (k+1)^s`.
/// Sampling uses the precomputed CDF with binary search, O(log n).
///
/// # Example
///
/// ```
/// use slimstart_simcore::{rng::SimRng, dist::Zipf};
///
/// let zipf = Zipf::new(100, 1.2)?;
/// let mut rng = SimRng::seed_from(1);
/// let mut counts = [0u32; 100];
/// for _ in 0..10_000 {
///     counts[zipf.sample(&mut rng)] += 1;
/// }
/// assert!(counts[0] > counts[50]); // rank 0 dominates
/// # Ok::<(), slimstart_simcore::dist::InvalidDistribution>(())
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// # Errors
    ///
    /// Returns an error when `n` is zero or `s` is negative or not finite.
    pub fn new(n: usize, s: f64) -> Result<Self, InvalidDistribution> {
        if n == 0 {
            return Err(InvalidDistribution::new("Zipf requires n >= 1"));
        }
        if !s.is_finite() || s < 0.0 {
            return Err(InvalidDistribution::new(
                "Zipf requires a finite, non-negative exponent",
            ));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Ok(Zipf { cdf })
    }

    /// Number of ranks.
    fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the support is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability mass of rank `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn pmf(&self, k: usize) -> f64 {
        let hi = self.cdf[k];
        let lo = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        hi - lo
    }

    /// Draws a rank in `0..n`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.next_f64();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("finite CDF"))
        {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// The normalized weights (PMF) as a vector, rank-ordered.
    pub fn weights(&self) -> Vec<f64> {
        (0..self.len()).map(|k| self.pmf(k)).collect()
    }
}

/// Exponential distribution with a given mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with mean `mean`.
    ///
    /// # Errors
    ///
    /// Returns an error when `mean` is not finite or not positive.
    pub fn new(mean: f64) -> Result<Self, InvalidDistribution> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(InvalidDistribution::new(
                "Exponential requires a finite, positive mean",
            ));
        }
        Ok(Exponential { mean })
    }

    /// The configured mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws a sample by inverse-CDF transform.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        // 1 - u avoids ln(0).
        -self.mean * (1.0 - rng.next_f64()).ln()
    }
}

/// Log-normal distribution parameterized by the underlying normal's
/// `mu`/`sigma`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with underlying normal parameters `mu`, `sigma`.
    ///
    /// # Errors
    ///
    /// Returns an error when parameters are not finite or `sigma` is negative.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, InvalidDistribution> {
        if !mu.is_finite() || !sigma.is_finite() || sigma < 0.0 {
            return Err(InvalidDistribution::new(
                "LogNormal requires finite mu and non-negative sigma",
            ));
        }
        Ok(LogNormal { mu, sigma })
    }

    /// Draws a sample via Box–Muller.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let u1 = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = rng.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp()
    }
}

/// Pareto (type I) distribution with scale `x_min` and shape `alpha`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Errors
    ///
    /// Returns an error when `x_min` or `alpha` is not finite and positive.
    pub fn new(x_min: f64, alpha: f64) -> Result<Self, InvalidDistribution> {
        if !x_min.is_finite() || x_min <= 0.0 || !alpha.is_finite() || alpha <= 0.0 {
            return Err(InvalidDistribution::new(
                "Pareto requires positive, finite x_min and alpha",
            ));
        }
        Ok(Pareto { x_min, alpha })
    }

    /// Draws a sample by inverse-CDF transform. Always `>= x_min`.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = 1.0 - rng.next_f64();
        self.x_min / u.powf(1.0 / self.alpha)
    }
}

/// A discrete distribution over `0..n` with explicit non-negative weights.
///
/// Used for handler selection given a workload mix.
#[derive(Debug, Clone)]
pub struct Empirical {
    cdf: Vec<f64>,
}

impl Empirical {
    /// Creates an empirical distribution from weights.
    ///
    /// Weights are normalized internally; they need not sum to one.
    ///
    /// # Errors
    ///
    /// Returns an error when `weights` is empty, contains a negative or
    /// non-finite value, or sums to zero.
    pub fn new(weights: &[f64]) -> Result<Self, InvalidDistribution> {
        if weights.is_empty() {
            return Err(InvalidDistribution::new("Empirical requires weights"));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(InvalidDistribution::new(
                "Empirical weights must be finite and non-negative",
            ));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(InvalidDistribution::new(
                "Empirical weights must not all be zero",
            ));
        }
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in weights {
            acc += w / total;
            cdf.push(acc);
        }
        Ok(Empirical { cdf })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the support is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability mass of category `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn pmf(&self, k: usize) -> f64 {
        let hi = self.cdf[k];
        let lo = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        hi - lo
    }

    /// Draws a category in `0..n`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.next_f64();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("finite CDF"))
        {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(4242)
    }

    #[test]
    fn zipf_rejects_bad_parameters() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(3, -1.0).is_err());
        assert!(Zipf::new(3, f64::NAN).is_err());
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(57, 0.9).unwrap();
        let total: f64 = (0..z.len()).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total = {total}");
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let z = Zipf::new(20, 1.5).unwrap();
        let mut r = rng();
        let mut counts = [0u32; 20];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[10]);
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let z = Zipf::new(4, 0.0).unwrap();
        for k in 0..4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_single_rank_always_zero() {
        let z = Zipf::new(1, 2.0).unwrap();
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(z.sample(&mut r), 0);
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let e = Exponential::new(10.0).unwrap();
        let mut r = rng();
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| e.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.3, "mean = {mean}");
    }

    #[test]
    fn exponential_rejects_bad_mean() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::INFINITY).is_err());
    }

    #[test]
    fn lognormal_is_positive_and_median_tracks() {
        let ln = LogNormal::new(5.0f64.ln(), 0.5).unwrap();
        let mut r = rng();
        let mut samples: Vec<f64> = (0..9_999).map(|_| ln.sample(&mut r)).collect();
        assert!(samples.iter().all(|x| *x > 0.0));
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 5.0).abs() < 0.5, "median = {median}");
    }

    #[test]
    fn lognormal_zero_sigma_is_constant() {
        let ln = LogNormal::new(3.0f64.ln(), 0.0).unwrap();
        let mut r = rng();
        for _ in 0..10 {
            assert!((ln.sample(&mut r) - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn pareto_respects_scale() {
        let p = Pareto::new(2.0, 1.5).unwrap();
        let mut r = rng();
        for _ in 0..1000 {
            assert!(p.sample(&mut r) >= 2.0);
        }
    }

    #[test]
    fn pareto_rejects_bad_parameters() {
        assert!(Pareto::new(0.0, 1.0).is_err());
        assert!(Pareto::new(1.0, 0.0).is_err());
    }

    #[test]
    fn empirical_matches_weights() {
        let e = Empirical::new(&[8.0, 1.0, 1.0]).unwrap();
        let mut r = rng();
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            counts[e.sample(&mut r)] += 1;
        }
        assert!(counts[0] > 7_000, "counts = {counts:?}");
        assert!((e.pmf(0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empirical_rejects_degenerate_weights() {
        assert!(Empirical::new(&[]).is_err());
        assert!(Empirical::new(&[0.0, 0.0]).is_err());
        assert!(Empirical::new(&[1.0, -1.0]).is_err());
        assert!(Empirical::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn empirical_zero_weight_category_never_sampled() {
        let e = Empirical::new(&[1.0, 0.0, 1.0]).unwrap();
        let mut r = rng();
        for _ in 0..5_000 {
            assert_ne!(e.sample(&mut r), 1);
        }
    }

    #[test]
    fn error_type_displays() {
        let err = Zipf::new(0, 1.0).unwrap_err();
        assert!(err.to_string().contains("Zipf"));
    }
}
