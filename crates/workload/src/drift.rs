//! Time-varying workloads: handler mixes that shift over time.
//!
//! The paper's adaptive mechanism (§IV-C) exists because production
//! workloads drift: the entry-point mix at deployment time is not the mix a
//! week later. A [`DriftSchedule`] generates an invocation stream whose
//! handler weights change at scheduled episodes, which is what the adaptive
//! experiments and the CI/CD example feed to SlimStart.

use std::fmt;

use slimstart_appmodel::Application;
use slimstart_platform::invocation::Invocation;
use slimstart_simcore::dist::Empirical;
use slimstart_simcore::rng::SimRng;
use slimstart_simcore::time::{SimDuration, SimTime};

use crate::generator::WorkloadError;

/// One change of the handler mix.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftEpisode {
    /// When the new mix takes effect.
    pub at: SimTime,
    /// New weights, one per handler named in the schedule.
    pub weights: Vec<f64>,
}

/// A piecewise-constant handler mix over time.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSchedule {
    /// Handler names the weight vectors refer to.
    pub handlers: Vec<String>,
    /// Initial weights.
    pub initial_weights: Vec<f64>,
    /// Mix changes, sorted by time.
    pub episodes: Vec<DriftEpisode>,
}

impl fmt::Display for DriftSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "drift schedule over {} handlers with {} episode(s)",
            self.handlers.len(),
            self.episodes.len()
        )
    }
}

impl DriftSchedule {
    /// Creates a schedule with no drift.
    ///
    /// # Panics
    ///
    /// Panics if `handlers` and `weights` differ in length.
    pub fn constant(handlers: Vec<String>, weights: Vec<f64>) -> Self {
        assert_eq!(
            handlers.len(),
            weights.len(),
            "one weight per handler required"
        );
        DriftSchedule {
            handlers,
            initial_weights: weights,
            episodes: Vec::new(),
        }
    }

    /// Adds an episode; episodes must be added in time order.
    ///
    /// # Panics
    ///
    /// Panics if `weights` has the wrong arity or `at` precedes the previous
    /// episode.
    pub fn with_episode(mut self, at: SimTime, weights: Vec<f64>) -> Self {
        assert_eq!(
            weights.len(),
            self.handlers.len(),
            "one weight per handler required"
        );
        if let Some(last) = self.episodes.last() {
            assert!(at >= last.at, "episodes must be in time order");
        }
        self.episodes.push(DriftEpisode { at, weights });
        self
    }

    /// The weights in effect at `t`.
    fn weights_at(&self, t: SimTime) -> &[f64] {
        let mut current = &self.initial_weights;
        for ep in &self.episodes {
            if ep.at <= t {
                current = &ep.weights;
            } else {
                break;
            }
        }
        current
    }

    /// Generates a closed-loop invocation stream of `count` requests spaced
    /// `gap` apart, with the handler drawn from the mix in effect at each
    /// arrival.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown handlers or degenerate weights.
    pub fn generate(
        &self,
        app: &Application,
        count: usize,
        gap: SimDuration,
        seed: u64,
    ) -> Result<Vec<Invocation>, WorkloadError> {
        let mut rng = SimRng::seed_from(seed);
        let ids: Vec<_> = self
            .handlers
            .iter()
            .map(|name| {
                app.handler_by_name(name)
                    .ok_or_else(|| WorkloadError::UnknownHandler(name.clone()))
            })
            .collect::<Result<_, _>>()?;
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let at = SimTime::ZERO + gap * i as u64;
            let weights = self.weights_at(at);
            if weights.iter().all(|w| *w <= 0.0) {
                return Err(WorkloadError::AllWeightsZero);
            }
            let mix = Empirical::new(weights)
                .map_err(|_| WorkloadError::InvalidArrival("drift weights"))?;
            out.push(Invocation {
                at,
                handler: ids[mix.sample(&mut rng)],
                seed: rng.next_u64(),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::app::AppBuilder;

    fn app() -> Application {
        let mut b = AppBuilder::new("t");
        let m = b.add_app_module("handler", SimDuration::ZERO, 0);
        let f = b.add_function("main", m, 1, vec![]);
        let g = b.add_function("admin", m, 9, vec![]);
        b.add_handler("main", f);
        b.add_handler("admin", g);
        b.finish().unwrap()
    }

    fn schedule() -> DriftSchedule {
        DriftSchedule::constant(vec!["main".into(), "admin".into()], vec![1.0, 0.0])
            .with_episode(SimTime::from_secs(50), vec![0.0, 1.0])
    }

    #[test]
    fn weights_switch_at_episode() {
        let s = schedule();
        assert_eq!(s.weights_at(SimTime::ZERO), &[1.0, 0.0]);
        assert_eq!(s.weights_at(SimTime::from_secs(49)), &[1.0, 0.0]);
        assert_eq!(s.weights_at(SimTime::from_secs(50)), &[0.0, 1.0]);
    }

    #[test]
    fn generated_stream_reflects_drift() {
        let app = app();
        let s = schedule();
        let invs = s.generate(&app, 100, SimDuration::from_secs(1), 7).unwrap();
        let main = app.handler_by_name("main").unwrap();
        let admin = app.handler_by_name("admin").unwrap();
        // First 50 requests hit main, rest hit admin.
        assert!(invs[..50].iter().all(|i| i.handler == main));
        assert!(invs[50..].iter().all(|i| i.handler == admin));
    }

    #[test]
    fn constant_schedule_never_changes() {
        let s = DriftSchedule::constant(vec!["main".into()], vec![1.0]);
        assert_eq!(s.weights_at(SimTime::from_secs(1_000_000)), &[1.0]);
        assert_eq!(s.episodes.len(), 0);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_episodes_panic() {
        DriftSchedule::constant(vec!["main".into()], vec![1.0])
            .with_episode(SimTime::from_secs(10), vec![0.5])
            .with_episode(SimTime::from_secs(5), vec![0.5]);
    }

    #[test]
    #[should_panic(expected = "one weight per handler")]
    fn arity_mismatch_panics() {
        DriftSchedule::constant(vec!["main".into()], vec![1.0, 2.0]);
    }

    #[test]
    fn unknown_handler_in_schedule_errors() {
        let s = DriftSchedule::constant(vec!["nope".into()], vec![1.0]);
        assert!(matches!(
            s.generate(&app(), 1, SimDuration::from_secs(1), 1),
            Err(WorkloadError::UnknownHandler(_))
        ));
    }

    #[test]
    fn display_is_informative() {
        assert!(schedule().to_string().contains("1 episode"));
    }
}
