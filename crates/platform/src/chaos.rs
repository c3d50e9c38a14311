//! Deterministic platform fault injection.
//!
//! Production serverless platforms fail in mundane, constant ways: sandboxes
//! crash while initializing, profiler agents drop out, uploads vanish,
//! deploys bounce, and keep-alive capacity is reclaimed in storms. A
//! [`ChaosPlan`] injects exactly those faults into the simulator — from its
//! **own** seeded [`SimRng`] stream, split off the experiment seed with
//! [`SimRng::split_seed`](slimstart_simcore::rng::SimRng::split_seed), so
//! that enabling chaos never perturbs the workload, jitter, or sampling
//! streams of the main simulation. Identical (config, seed) pairs replay
//! identical fault schedules, which is what makes chaos sweeps assertable.
//!
//! [`ChaosPlan::none`] is a true passthrough: the disabled plan carries no
//! RNG state at all, every hook returns immediately without locking, and no
//! platform or pipeline behavior changes — reports stay byte-identical
//! (locked down by `tests/golden_reports.rs`).

use std::fmt;
use std::sync::Mutex;

use slimstart_simcore::rng::SimRng;

/// The kinds of fault a [`ChaosPlan`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A container sandbox crashes while initializing; the platform retries
    /// with a fresh one and the request pays the wasted provision time.
    CrashDuringInit,
    /// A container's profiler attachment fails for the container's whole
    /// lifetime — a sampler dropout window contributing zero samples.
    SamplerDropout,
    /// A profile upload to the collector service is lost in flight.
    UploadLoss,
    /// A profile upload arrives truncated: only a prefix of the samples
    /// survives.
    UploadTruncation,
    /// A redeploy attempt fails transiently.
    DeployFailure,
    /// A keep-alive reclamation storm: every idle container is reclaimed
    /// at once, forcing the subsequent requests to cold-start.
    ReclamationStorm,
}

impl FaultKind {
    /// Every fault kind, in counter order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::CrashDuringInit,
        FaultKind::SamplerDropout,
        FaultKind::UploadLoss,
        FaultKind::UploadTruncation,
        FaultKind::DeployFailure,
        FaultKind::ReclamationStorm,
    ];

    /// Stable human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::CrashDuringInit => "crash-during-init",
            FaultKind::SamplerDropout => "sampler-dropout",
            FaultKind::UploadLoss => "upload-loss",
            FaultKind::UploadTruncation => "upload-truncation",
            FaultKind::DeployFailure => "deploy-failure",
            FaultKind::ReclamationStorm => "reclamation-storm",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultKind::CrashDuringInit => 0,
            FaultKind::SamplerDropout => 1,
            FaultKind::UploadLoss => 2,
            FaultKind::UploadTruncation => 3,
            FaultKind::DeployFailure => 4,
            FaultKind::ReclamationStorm => 5,
        }
    }
}

/// Per-fault injection probabilities, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Probability a cold-starting sandbox crashes mid-init (per attempt).
    pub crash_during_init: f64,
    /// Probability a new container's sampler attachment drops out.
    pub sampler_dropout: f64,
    /// Probability a profile upload is lost (per collection attempt).
    pub upload_loss: f64,
    /// Probability a surviving profile upload arrives truncated.
    pub upload_truncation: f64,
    /// Probability a redeploy attempt fails transiently.
    pub deploy_failure: f64,
    /// Probability a dispatch triggers a keep-alive reclamation storm.
    pub reclamation_storm: f64,
}

impl ChaosConfig {
    /// All rates zero — injects nothing.
    pub const DISABLED: ChaosConfig = ChaosConfig {
        crash_during_init: 0.0,
        sampler_dropout: 0.0,
        upload_loss: 0.0,
        upload_truncation: 0.0,
        deploy_failure: 0.0,
        reclamation_storm: 0.0,
    };

    /// Every fault at the same rate (clamped to `[0, 1]`) — the
    /// `slimstart chaos --fault-rate` knob.
    pub fn uniform(rate: f64) -> Self {
        let r = if rate.is_finite() {
            rate.clamp(0.0, 1.0)
        } else {
            0.0
        };
        ChaosConfig {
            crash_during_init: r,
            sampler_dropout: r,
            upload_loss: r,
            upload_truncation: r,
            deploy_failure: r,
            reclamation_storm: r,
        }
    }

    /// Whether every rate is zero.
    pub fn is_disabled(&self) -> bool {
        self.rate(FaultKind::CrashDuringInit) <= 0.0
            && self.rate(FaultKind::SamplerDropout) <= 0.0
            && self.rate(FaultKind::UploadLoss) <= 0.0
            && self.rate(FaultKind::UploadTruncation) <= 0.0
            && self.rate(FaultKind::DeployFailure) <= 0.0
            && self.rate(FaultKind::ReclamationStorm) <= 0.0
    }

    /// The configured rate for one fault kind.
    fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::CrashDuringInit => self.crash_during_init,
            FaultKind::SamplerDropout => self.sampler_dropout,
            FaultKind::UploadLoss => self.upload_loss,
            FaultKind::UploadTruncation => self.upload_truncation,
            FaultKind::DeployFailure => self.deploy_failure,
            FaultKind::ReclamationStorm => self.reclamation_storm,
        }
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig::DISABLED
    }
}

/// Counts of injected faults, by [`FaultKind`] counter order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Injection counts indexed like [`FaultKind::ALL`].
    pub injected: [u64; 6],
}

impl ChaosStats {
    /// Injections of one kind.
    pub fn of(&self, kind: FaultKind) -> u64 {
        self.injected[kind.index()]
    }

    /// Total injections across every kind.
    fn total(&self) -> u64 {
        self.injected.iter().sum()
    }
}

struct ChaosState {
    rng: SimRng,
    stats: ChaosStats,
}

/// A deterministic fault-injection schedule.
///
/// Shared (`Arc`) between the pipeline stages and the platform runs of one
/// application, so one chaos stream covers the whole CI/CD cycle; the fleet
/// orchestrator builds one plan per application from a per-app chaos seed.
/// All hooks take `&self` (the RNG sits behind a mutex) because stage and
/// platform code only hold shared references to their configs; within one
/// pipeline run the draw order is sequential and therefore reproducible.
pub struct ChaosPlan {
    config: ChaosConfig,
    // `None` = disabled: hooks return without locking anything, making
    // `ChaosPlan::none()` a zero-overhead passthrough.
    state: Option<Mutex<ChaosState>>,
}

impl ChaosPlan {
    /// The passthrough plan: injects nothing, draws nothing.
    pub fn none() -> Self {
        ChaosPlan {
            config: ChaosConfig::DISABLED,
            state: None,
        }
    }

    /// A plan injecting per `config` from a dedicated stream seeded with
    /// `seed` (split the seed from the experiment stream with
    /// [`SimRng::split_seed`]). A fully-zero config collapses to
    /// [`ChaosPlan::none`].
    pub fn from_seed(config: ChaosConfig, seed: u64) -> Self {
        if config.is_disabled() {
            return ChaosPlan::none();
        }
        ChaosPlan {
            config,
            state: Some(Mutex::new(ChaosState {
                rng: SimRng::seed_from(seed),
                stats: ChaosStats::default(),
            })),
        }
    }

    /// Whether this plan can inject anything.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// The configured rates.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// Draws one injection decision for `kind`, counting hits.
    fn inject(&self, kind: FaultKind) -> bool {
        let Some(state) = &self.state else {
            return false;
        };
        let mut s = state.lock().unwrap_or_else(|e| e.into_inner());
        let hit = s.rng.chance(self.config.rate(kind));
        if hit {
            s.stats.injected[kind.index()] += 1;
        }
        hit
    }

    /// Platform hook: should this cold-start attempt crash mid-init?
    pub fn crash_during_init(&self) -> bool {
        self.inject(FaultKind::CrashDuringInit)
    }

    /// Platform hook: does this container's sampler drop out?
    pub fn sampler_dropout(&self) -> bool {
        self.inject(FaultKind::SamplerDropout)
    }

    /// Pipeline hook: is this profile upload lost in flight?
    pub fn upload_lost(&self) -> bool {
        self.inject(FaultKind::UploadLoss)
    }

    /// Pipeline hook: does this profile upload arrive truncated? Returns
    /// the surviving prefix fraction, in `[0.25, 0.85)`.
    pub fn upload_truncation(&self) -> Option<f64> {
        let Some(state) = &self.state else {
            return None;
        };
        let mut s = state.lock().unwrap_or_else(|e| e.into_inner());
        if !s.rng.chance(self.config.rate(FaultKind::UploadTruncation)) {
            return None;
        }
        s.stats.injected[FaultKind::UploadTruncation.index()] += 1;
        Some(s.rng.uniform(0.25, 0.85))
    }

    /// Pipeline hook: does this redeploy attempt fail?
    pub fn deploy_fails(&self) -> bool {
        self.inject(FaultKind::DeployFailure)
    }

    /// Platform hook: does this dispatch trigger a reclamation storm?
    pub fn reclamation_storm(&self) -> bool {
        self.inject(FaultKind::ReclamationStorm)
    }

    /// A jitter draw in `[0, 1)` from the chaos stream, for retry backoff.
    /// The disabled plan returns a fixed midpoint without drawing.
    pub fn backoff_jitter(&self) -> f64 {
        match &self.state {
            Some(state) => state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .rng
                .next_f64(),
            None => 0.5,
        }
    }

    /// Snapshot of the injection counters.
    fn stats(&self) -> ChaosStats {
        match &self.state {
            Some(state) => state.lock().unwrap_or_else(|e| e.into_inner()).stats,
            None => ChaosStats::default(),
        }
    }

    /// Total faults injected so far.
    pub fn total_injected(&self) -> u64 {
        self.stats().total()
    }
}

impl fmt::Debug for ChaosPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosPlan")
            .field("enabled", &self.is_enabled())
            .field("config", &self.config)
            .field("injected", &self.stats().total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_on(rate: f64) -> ChaosPlan {
        ChaosPlan::from_seed(ChaosConfig::uniform(rate), 7)
    }

    #[test]
    fn none_is_disabled_and_injects_nothing() {
        let plan = ChaosPlan::none();
        assert!(!plan.is_enabled());
        for kind in FaultKind::ALL {
            assert!(!plan.inject(kind));
        }
        assert_eq!(plan.upload_truncation(), None);
        assert_eq!(plan.backoff_jitter(), 0.5);
        assert_eq!(plan.total_injected(), 0);
    }

    #[test]
    fn zero_config_collapses_to_passthrough() {
        let plan = ChaosPlan::from_seed(ChaosConfig::DISABLED, 3);
        assert!(!plan.is_enabled());
    }

    #[test]
    fn certain_rate_always_injects_and_counts() {
        let plan = all_on(1.0);
        for _ in 0..5 {
            assert!(plan.crash_during_init());
            assert!(plan.deploy_fails());
        }
        assert_eq!(plan.stats().of(FaultKind::CrashDuringInit), 5);
        assert_eq!(plan.stats().of(FaultKind::DeployFailure), 5);
        assert_eq!(plan.total_injected(), 10);
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let draw = || {
            let plan = all_on(0.4);
            (0..64)
                .map(|_| plan.inject(FaultKind::UploadLoss))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw());
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<bool> = {
            let p = ChaosPlan::from_seed(ChaosConfig::uniform(0.5), 1);
            (0..64).map(|_| p.deploy_fails()).collect()
        };
        let b: Vec<bool> = {
            let p = ChaosPlan::from_seed(ChaosConfig::uniform(0.5), 2);
            (0..64).map(|_| p.deploy_fails()).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn truncation_returns_prefix_fraction_in_band() {
        let plan = all_on(1.0);
        for _ in 0..32 {
            let keep = plan.upload_truncation().expect("rate 1.0 always truncates");
            assert!((0.25..0.85).contains(&keep), "keep = {keep}");
        }
    }

    #[test]
    fn uniform_clamps_rates() {
        assert_eq!(ChaosConfig::uniform(7.0).deploy_failure, 1.0);
        assert_eq!(ChaosConfig::uniform(-1.0).deploy_failure, 0.0);
        assert!(ChaosConfig::uniform(f64::NAN).is_disabled());
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = FaultKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 6);
        assert!(labels.contains(&"reclamation-storm"));
    }
}
