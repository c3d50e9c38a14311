//! Synthetic production trace, calibrated to the paper's §II-C statistics.
//!
//! The paper studies Azure production traces (its reference 4) covering 119
//! applications over two weeks and reports (Fig. 3):
//!
//! 1. 54 % of applications have more than one entry function;
//! 2. the top few handlers account for over 80 % of cumulative invocations.
//!
//! Fig. 10 additionally shows workload *shift* episodes around hours 144 and
//! 228 where many applications' entry-point mixes change at once. The
//! generator below reproduces those distributional properties
//! deterministically from a seed; the adaptive-profiling experiments consume
//! the resulting per-window invocation counts.

use slimstart_simcore::dist::Zipf;
use slimstart_simcore::rng::SimRng;
use slimstart_simcore::time::SimDuration;

/// Configuration of the synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Number of applications (paper: 119).
    pub apps: usize,
    /// Trace length in days (paper: 14).
    pub days: usize,
    /// Aggregation window (paper: 12 hours).
    pub window: SimDuration,
    /// Probability an app has a single entry point (paper: 46 %).
    pub single_handler_prob: f64,
    /// Zipf exponent of per-app handler popularity.
    pub popularity_skew: f64,
    /// Hours at which global workload-shift episodes occur.
    pub shift_hours: [u64; 2],
    /// Fraction of apps whose mix changes during a shift episode.
    pub shift_fraction: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            apps: 119,
            days: 14,
            window: SimDuration::from_hours(12),
            single_handler_prob: 0.46,
            popularity_skew: 1.6,
            shift_hours: [144, 228],
            shift_fraction: 0.55,
        }
    }
}

/// One traced application: its entry points and per-window invocation
/// counts.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceApp {
    /// Number of entry functions.
    pub handler_count: usize,
    /// Per-window, per-handler invocation counts:
    /// `counts[window][handler]`.
    pub counts: Vec<Vec<u64>>,
}

impl TraceApp {
    /// Total invocations per handler across the whole trace.
    pub fn totals(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.handler_count];
        for window in &self.counts {
            for (t, c) in totals.iter_mut().zip(window) {
                *t += c;
            }
        }
        totals
    }

    /// Invocation probabilities `p_i(t)` for window `t` (Eq. 5). Returns
    /// `None` if the window saw no invocations.
    fn probabilities(&self, window: usize) -> Option<Vec<f64>> {
        let counts = self.counts.get(window)?;
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        Some(counts.iter().map(|c| *c as f64 / total as f64).collect())
    }

    /// Aggregate probability change `Σ_i |Δp_i(t)|` between windows `t-1`
    /// and `t` (Eqs. 6–7). Returns 0 when either window is empty.
    pub fn delta_p(&self, window: usize) -> f64 {
        if window == 0 {
            return 0.0;
        }
        match (self.probabilities(window - 1), self.probabilities(window)) {
            (Some(prev), Some(cur)) => prev.iter().zip(&cur).map(|(a, b)| (a - b).abs()).sum(),
            _ => 0.0,
        }
    }
}

/// The synthesized production trace.
///
/// # Example
///
/// ```
/// use slimstart_workload::trace::{ProductionTrace, TraceConfig};
///
/// let trace = ProductionTrace::generate(TraceConfig::default(), 2026);
/// assert_eq!(trace.apps().len(), 119);
/// // Observation 3: a majority of apps expose more than one entry point…
/// assert!(trace.multi_handler_fraction() > 0.45);
/// // …and the top handlers dominate invocations.
/// assert!(trace.invocation_cdf_by_rank()[2] > 0.8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProductionTrace {
    config: TraceConfig,
    apps: Vec<TraceApp>,
}

impl ProductionTrace {
    /// Generates a trace deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the config is degenerate (zero apps, days or window).
    pub fn generate(config: TraceConfig, seed: u64) -> Self {
        assert!(
            config.apps > 0 && config.days > 0,
            "degenerate trace config"
        );
        assert!(!config.window.is_zero(), "window must be positive");
        let mut rng = SimRng::seed_from(seed);
        let windows_total =
            (config.days as u64 * 24 * 3_600_000_000 / config.window.as_micros()) as usize;
        let shift_windows: Vec<usize> = config
            .shift_hours
            .iter()
            .map(|h| (h * 3_600_000_000 / config.window.as_micros()) as usize)
            .collect();

        let mut apps = Vec::with_capacity(config.apps);
        for _ in 0..config.apps {
            let handler_count = if rng.chance(config.single_handler_prob) {
                1
            } else {
                // 2..=20, skewed toward small counts.
                2 + Zipf::new(19, 1.2).expect("valid").sample(&mut rng)
            };
            let zipf = Zipf::new(handler_count, config.popularity_skew).expect("valid");
            let mut weights = zipf.weights();
            // Per-app request volume (requests per window), heavy-tailed.
            let volume = 2_000.0 * (1.0 + rng.next_f64() * 40.0);
            let drifts_in_shifts = rng.chance(config.shift_fraction);
            let noisy = rng.chance(0.05); // a few apps drift continuously

            let mut counts = Vec::with_capacity(windows_total);
            for w in 0..windows_total {
                if drifts_in_shifts && shift_windows.contains(&w) {
                    // Episode: rotate popularity (a different handler
                    // becomes dominant).
                    weights.rotate_right(1);
                }
                if noisy && w % 3 == 0 {
                    rng.shuffle(&mut weights);
                }
                let window_counts: Vec<u64> = weights
                    .iter()
                    .map(|p| {
                        // Small multiplicative noise keeps Δp above zero
                        // even for stable apps.
                        let noise = 0.9995 + 0.001 * rng.next_f64();
                        (volume * p * noise).round() as u64
                    })
                    .collect();
                counts.push(window_counts);
            }
            apps.push(TraceApp {
                handler_count,
                counts,
            });
        }
        ProductionTrace { config, apps }
    }

    /// The configuration used.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// The traced applications.
    pub fn apps(&self) -> &[TraceApp] {
        &self.apps
    }

    /// Number of aggregation windows.
    pub fn window_count(&self) -> usize {
        self.apps.first().map_or(0, |a| a.counts.len())
    }

    /// Fig. 3(1): the PDF of applications by handler count, as
    /// `(handler_count, fraction_of_apps)` pairs in ascending count order.
    pub fn handler_count_pdf(&self) -> Vec<(usize, f64)> {
        let max = self.apps.iter().map(|a| a.handler_count).max().unwrap_or(0);
        let mut counts = vec![0usize; max + 1];
        for app in &self.apps {
            counts[app.handler_count] += 1;
        }
        counts
            .into_iter()
            .enumerate()
            .filter(|(_, c)| *c > 0)
            .map(|(k, c)| (k, c as f64 / self.apps.len() as f64))
            .collect()
    }

    /// Fraction of applications with more than one entry function
    /// (paper: 54 %).
    pub fn multi_handler_fraction(&self) -> f64 {
        self.apps.iter().filter(|a| a.handler_count > 1).count() as f64 / self.apps.len() as f64
    }

    /// Fig. 3(2): the mean CDF of invocations by handler rank. Element `k`
    /// is the average (over apps) cumulative share of the `k+1` most-invoked
    /// handlers.
    pub fn invocation_cdf_by_rank(&self) -> Vec<f64> {
        let max_rank = self.apps.iter().map(|a| a.handler_count).max().unwrap_or(0);
        let mut acc = vec![0.0f64; max_rank];
        for app in &self.apps {
            let mut totals = app.totals();
            totals.sort_unstable_by(|a, b| b.cmp(a));
            let total: u64 = totals.iter().sum();
            let mut cum = 0.0;
            for (rank, slot) in acc.iter_mut().enumerate() {
                if total > 0 {
                    if let Some(c) = totals.get(rank) {
                        cum += *c as f64 / total as f64;
                    }
                }
                *slot += cum.min(1.0);
            }
        }
        acc.iter().map(|v| v / self.apps.len() as f64).collect()
    }

    /// Fig. 10: per window, the mean `Σ|Δp_i(t)|` across apps and the
    /// fraction of apps exceeding `epsilon`.
    pub fn delta_p_timeline(&self, epsilon: f64) -> Vec<(f64, f64)> {
        let windows = self.window_count();
        (0..windows)
            .map(|w| {
                let deltas: Vec<f64> = self.apps.iter().map(|a| a.delta_p(w)).collect();
                let mean = deltas.iter().sum::<f64>() / deltas.len().max(1) as f64;
                let exceeding =
                    deltas.iter().filter(|d| **d > epsilon).count() as f64 / deltas.len() as f64;
                (mean, exceeding)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> ProductionTrace {
        ProductionTrace::generate(TraceConfig::default(), 2026)
    }

    #[test]
    fn dimensions_match_config() {
        let t = trace();
        assert_eq!(t.apps().len(), 119);
        assert_eq!(t.window_count(), 28); // 14 days / 12 h
    }

    #[test]
    fn multi_handler_fraction_near_54_pct() {
        let f = trace().multi_handler_fraction();
        assert!((0.44..0.64).contains(&f), "fraction = {f}");
    }

    #[test]
    fn handler_count_pdf_sums_to_one() {
        let pdf = trace().handler_count_pdf();
        let total: f64 = pdf.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(pdf.iter().all(|(k, _)| (1..=21).contains(k)));
    }

    #[test]
    fn top_handlers_dominate_invocations() {
        let cdf = trace().invocation_cdf_by_rank();
        // Paper: the top few handlers account for over 80 % of invocations.
        assert!(cdf[0] > 0.6, "top-1 share = {}", cdf[0]);
        assert!(
            cdf[2.min(cdf.len() - 1)] > 0.8,
            "top-3 share = {:?}",
            &cdf[..3]
        );
        // CDF is monotone and bounded.
        assert!(cdf.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        assert!(cdf.last().is_some_and(|v| (*v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn shift_windows_spike_delta_p() {
        let t = trace();
        let timeline = t.delta_p_timeline(0.002);
        // Windows at hours 144 and 228 → indices 12 and 19.
        let spike_a = timeline[12].1;
        let spike_b = timeline[19].1;
        let stable: f64 = timeline
            .iter()
            .enumerate()
            .filter(|(i, _)| ![0, 12, 19].contains(i))
            .map(|(_, (_, frac))| *frac)
            .sum::<f64>()
            / (timeline.len() - 3) as f64;
        assert!(spike_a > stable + 0.1, "spike {spike_a} vs stable {stable}");
        assert!(spike_b > stable + 0.1);
    }

    #[test]
    fn delta_p_is_zero_for_first_window() {
        let t = trace();
        for app in t.apps() {
            assert_eq!(app.delta_p(0), 0.0);
        }
    }

    #[test]
    fn probabilities_normalize() {
        let t = trace();
        let app = &t.apps()[0];
        let p = app.probabilities(1).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = ProductionTrace::generate(TraceConfig::default(), 5);
        let b = ProductionTrace::generate(TraceConfig::default(), 5);
        assert_eq!(a, b);
        let c = ProductionTrace::generate(TraceConfig::default(), 6);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn rejects_zero_apps() {
        let cfg = TraceConfig {
            apps: 0,
            ..TraceConfig::default()
        };
        ProductionTrace::generate(cfg, 1);
    }
}
