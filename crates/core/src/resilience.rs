//! Retry/backoff policy and graceful-degradation bookkeeping for the
//! pipeline's fault handling.
//!
//! When a [`ChaosPlan`] injects
//! faults, the pipeline does what a production CI/CD loop would: retries
//! profile collection and redeploys with exponential backoff on the
//! **virtual** clock (backoff delays are simulated time, not wall time),
//! and degrades gracefully instead of aborting. The degradation ladder:
//!
//! 1. [`DegradationLevel::None`] — faults (if any) were absorbed by
//!    retries; the pipeline shipped the full profile-guided optimization.
//! 2. [`DegradationLevel::Conservative`] — the profile arrived truncated
//!    or not at all, so the optimizer fell back to deferring only
//!    statically-verified never-used libraries (no profile trust needed).
//! 3. [`DegradationLevel::RolledBack`] — the redeploy kept failing past
//!    the retry budget, so the baseline artifact stayed deployed (the same
//!    rollback path a below-gate app takes).

use slimstart_platform::chaos::ChaosPlan;
use slimstart_simcore::time::SimDuration;

/// Retry budget and exponential-backoff shape, on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts before giving up (first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: SimDuration,
    /// Per-retry delay multiplier.
    pub multiplier: f64,
    /// Ceiling on a single backoff delay.
    pub max_delay: SimDuration,
    /// Virtual time spent detecting one failed attempt (upload timeout,
    /// deploy health-check window) — charged per retry on top of backoff.
    pub attempt_timeout: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: SimDuration::from_millis(200),
            multiplier: 2.0,
            max_delay: SimDuration::from_secs(10),
            attempt_timeout: SimDuration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based), with half-jitter:
    /// `min(max_delay, base · multiplier^(attempt-1)) · (½ + ½·jitter)`,
    /// `jitter ∈ [0, 1)` drawn from the chaos stream so backoff schedules
    /// replay deterministically per seed.
    pub fn backoff_delay(&self, attempt: u32, jitter: f64) -> SimDuration {
        let exponent = attempt.saturating_sub(1).min(30);
        let raw = self
            .base_delay
            .mul_f64(self.multiplier.max(1.0).powi(exponent as i32))
            .min(self.max_delay);
        raw.mul_f64(0.5 + 0.5 * jitter.clamp(0.0, 1.0))
    }
}

/// How far the pipeline had to fall down the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationLevel {
    /// Full profile-guided optimization shipped.
    None,
    /// Degraded profile: only statically-safe deferrals shipped.
    Conservative,
    /// Redeploy abandoned; baseline artifact kept.
    RolledBack,
}

impl DegradationLevel {
    /// Stable label used in JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            DegradationLevel::None => "none",
            DegradationLevel::Conservative => "conservative",
            DegradationLevel::RolledBack => "rolled-back",
        }
    }
}

/// Mutable per-run fault-handling journal, kept on the pipeline context.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceLog {
    /// Profile collections re-run after an upload loss.
    pub profile_retries: u32,
    /// Redeploy attempts re-tried after a transient failure.
    pub deploy_retries: u32,
    /// Total virtual time spent in attempt timeouts + backoff.
    pub backoff: SimDuration,
    /// The surviving profile is a truncated prefix.
    pub profile_truncated: bool,
    /// No profile survived at all (every upload lost).
    pub profile_missing: bool,
    /// Redeploy abandoned after exhausting the retry budget.
    pub deploy_rolled_back: bool,
}

impl ResilienceLog {
    /// Whether the optimizer must distrust the profile.
    pub fn profile_degraded(&self) -> bool {
        self.profile_truncated || self.profile_missing
    }

    /// The rung of the degradation ladder this run landed on.
    fn degradation(&self) -> DegradationLevel {
        if self.deploy_rolled_back {
            DegradationLevel::RolledBack
        } else if self.profile_degraded() {
            DegradationLevel::Conservative
        } else {
            DegradationLevel::None
        }
    }
}

/// Fault-handling summary carried on a
/// [`PipelineOutcome`](crate::pipeline::PipelineOutcome).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceOutcome {
    /// Whether a live chaos plan was attached to this run.
    pub chaos_enabled: bool,
    /// Faults the chaos plan injected (all kinds).
    pub faults_injected: u64,
    /// Profile collections re-run after upload loss.
    pub profile_retries: u32,
    /// Redeploys re-tried after transient failure.
    pub deploy_retries: u32,
    /// Virtual milliseconds spent in timeouts + backoff.
    pub backoff_ms: f64,
    /// Final rung of the degradation ladder.
    pub degradation: DegradationLevel,
    /// Faults were injected yet the full optimization still shipped.
    pub recovered: bool,
}

impl ResilienceOutcome {
    /// The outcome of a run with chaos disabled: nothing injected, nothing
    /// retried, nothing degraded.
    fn passthrough() -> Self {
        ResilienceOutcome {
            chaos_enabled: false,
            faults_injected: 0,
            profile_retries: 0,
            deploy_retries: 0,
            backoff_ms: 0.0,
            degradation: DegradationLevel::None,
            recovered: false,
        }
    }

    /// Summarizes a finished run from the plan's injection counters and the
    /// context's journal.
    pub fn from_parts(chaos: &ChaosPlan, log: &ResilienceLog) -> Self {
        if !chaos.is_enabled() {
            return ResilienceOutcome::passthrough();
        }
        let faults_injected = chaos.total_injected();
        let degradation = log.degradation();
        ResilienceOutcome {
            chaos_enabled: true,
            faults_injected,
            profile_retries: log.profile_retries,
            deploy_retries: log.deploy_retries,
            backoff_ms: log.backoff.as_millis_f64(),
            degradation,
            recovered: faults_injected > 0 && degradation == DegradationLevel::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_platform::chaos::ChaosConfig;

    #[test]
    fn backoff_doubles_then_caps() {
        let policy = RetryPolicy::default();
        // jitter 1.0 → full delay.
        assert_eq!(policy.backoff_delay(1, 1.0), SimDuration::from_millis(200));
        assert_eq!(policy.backoff_delay(2, 1.0), SimDuration::from_millis(400));
        assert_eq!(policy.backoff_delay(30, 1.0), SimDuration::from_secs(10));
    }

    #[test]
    fn jitter_halves_at_zero() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff_delay(1, 0.0), SimDuration::from_millis(100));
    }

    #[test]
    fn degradation_ladder_orders_and_prefers_worst() {
        assert!(DegradationLevel::None < DegradationLevel::Conservative);
        assert!(DegradationLevel::Conservative < DegradationLevel::RolledBack);
        let log = ResilienceLog {
            profile_truncated: true,
            deploy_rolled_back: true,
            ..ResilienceLog::default()
        };
        assert_eq!(log.degradation(), DegradationLevel::RolledBack);
    }

    #[test]
    fn outcome_marks_recovery_only_with_faults_and_no_degradation() {
        let plan = ChaosPlan::from_seed(ChaosConfig::uniform(1.0), 3);
        assert!(plan.deploy_fails()); // inject one fault
        let clean = ResilienceLog::default();
        let out = ResilienceOutcome::from_parts(&plan, &clean);
        assert!(out.recovered);

        let degraded = ResilienceLog {
            profile_missing: true,
            ..ResilienceLog::default()
        };
        let out = ResilienceOutcome::from_parts(&plan, &degraded);
        assert!(!out.recovered);
        assert_eq!(out.degradation, DegradationLevel::Conservative);
    }

    #[test]
    fn disabled_plan_yields_passthrough_outcome() {
        let plan = ChaosPlan::none();
        let log = ResilienceLog::default();
        assert_eq!(
            ResilienceOutcome::from_parts(&plan, &log),
            ResilienceOutcome::passthrough()
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(DegradationLevel::None.label(), "none");
        assert_eq!(DegradationLevel::Conservative.label(), "conservative");
        assert_eq!(DegradationLevel::RolledBack.label(), "rolled-back");
    }
}
