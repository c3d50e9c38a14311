//! The CI/CD pipeline driver (paper §III, Fig. 4 and §V-b methodology).
//!
//! One [`Pipeline::run`] performs the paper's full evaluation cycle for one
//! application:
//!
//! 1. **Baseline** — deploy the unmodified application and measure it under
//!    the evaluation workload (500 cold starts by default);
//! 2. **Gate** — applications whose library-initialization share of
//!    end-to-end time is ≤ 10 % are excluded from optimization;
//! 3. **Profile** — redeploy with the sampler attached and collect samples
//!    plus exact init times (the profiled run also yields Fig. 9's overhead
//!    ratio);
//! 4. **Analyze** — build the CCT, the hierarchical init breakdown and the
//!    utilization metric; detect inefficiencies;
//! 5. **Optimize** — rewrite flagged global imports into deferred imports;
//! 6. **Pre-deployment gate** — run the [`slimstart_analyzer`] pass
//!    framework over the artifact about to ship; error-severity findings
//!    (an unsafe deployed deferral) roll the deployment back to baseline;
//! 7. **Redeploy & measure** — run the optimized application and compute
//!    speedups.
//!
//! Each step is a [`crate::stage::Stage`] composed by a
//! [`crate::stage::StageEngine`]; `Pipeline::run` drives the canonical
//! composition and packages the resulting context into a
//! [`PipelineOutcome`]. Alternate compositions (a strict gate, FaaSLight's
//! strip pass as the optimize stage, …) go through
//! [`Pipeline::run_with_engine`].

use std::fmt;
use std::sync::Arc;

use slimstart_appmodel::Application;
use slimstart_platform::chaos::{ChaosConfig, ChaosPlan};
use slimstart_platform::metrics::{AppMetrics, Speedup};
use slimstart_platform::platform::PlatformConfig;
use slimstart_pyrt::RuntimeFault;
use slimstart_simcore::rng::SimRng;
use slimstart_workload::generator::WorkloadError;

use crate::cct::Cct;
use crate::config::{DetectorConfig, SamplerConfig};
use crate::detect::InefficiencyReport;
use crate::optimizer::OptimizationOutcome;
use crate::profile::lock;
use crate::resilience::{ResilienceOutcome, RetryPolicy};
use crate::stage::{GateDecision, PipelineCtx, StageEngine};
use crate::utilization::Utilization;

/// Tag XORed into the experiment seed to root the chaos stream, keeping it
/// disjoint from the workload stream (`seed`) and the per-stage platform
/// streams (`seed ^ 0x1..0x3`).
const CHAOS_STREAM_TAG: u64 = 0x5EED_CA05;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Platform parameters for every deployment.
    pub platform: PlatformConfig,
    /// Profiler parameters for the profiling deployment.
    pub sampler: SamplerConfig,
    /// Detector thresholds.
    pub detector: DetectorConfig,
    /// Cold starts per measurement run (paper: 500).
    pub cold_starts: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Ship profile batches over the asynchronous collector channel
    /// (the paper's production transport, §IV-D) instead of the in-process
    /// store. Results are identical; the collector also reports wire bytes.
    pub async_collector: bool,
    /// Fault-injection schedule shared by every deployment of this run.
    /// Defaults to [`ChaosPlan::none`], a zero-overhead passthrough.
    pub chaos: Arc<ChaosPlan>,
    /// Retry budget and backoff shape for profile collection and redeploys.
    pub retry: RetryPolicy,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            platform: PlatformConfig::default(),
            sampler: SamplerConfig::default(),
            detector: DetectorConfig::default(),
            cold_starts: 500,
            seed: 0xC0FFEE,
            async_collector: false,
            chaos: Arc::new(ChaosPlan::none()),
            retry: RetryPolicy::default(),
        }
    }
}

impl PipelineConfig {
    /// Sets the platform parameters.
    #[must_use]
    pub fn with_platform(mut self, platform: PlatformConfig) -> Self {
        self.platform = platform;
        self
    }

    /// Sets the profiler parameters.
    #[must_use]
    pub fn with_sampler(mut self, sampler: SamplerConfig) -> Self {
        self.sampler = sampler;
        self
    }

    /// Sets the number of cold starts per measurement run.
    #[must_use]
    pub fn with_cold_starts(mut self, cold_starts: usize) -> Self {
        self.cold_starts = cold_starts;
        self
    }

    /// Sets the experiment seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Ships profile batches over the asynchronous collector channel.
    #[must_use]
    pub fn with_async_collector(mut self, enabled: bool) -> Self {
        self.async_collector = enabled;
        self
    }

    /// Enables fault injection per `config`, rooting the chaos stream off
    /// the **current** experiment seed (call after [`Self::with_seed`]).
    /// A fully-zero config keeps the passthrough plan.
    #[must_use]
    pub fn with_chaos(mut self, config: ChaosConfig) -> Self {
        let chaos_seed = SimRng::seed_from(self.seed ^ CHAOS_STREAM_TAG).split_seed();
        self.chaos = Arc::new(ChaosPlan::from_seed(config, chaos_seed));
        self
    }

    /// Installs an already-seeded chaos plan (the fleet orchestrator builds
    /// one per application from its own split seed stream).
    #[must_use]
    pub fn with_chaos_plan(mut self, chaos: Arc<ChaosPlan>) -> Self {
        self.chaos = chaos;
        self
    }
}

/// Errors from a pipeline run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PipelineError {
    /// The workload could not be resolved against the application.
    Workload(WorkloadError),
    /// The application faulted (an unsafe optimization would surface here).
    Fault(RuntimeFault),
    /// A custom stage composition ended without producing the stage
    /// product named here (e.g. halted early, or a required stage was
    /// removed), so no [`PipelineOutcome`] can be formed.
    Incomplete(&'static str),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Workload(e) => write!(f, "workload error: {e}"),
            PipelineError::Fault(e) => write!(f, "runtime fault: {e}"),
            PipelineError::Incomplete(what) => {
                write!(f, "stage composition left `{what}` unproduced")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<WorkloadError> for PipelineError {
    fn from(e: WorkloadError) -> Self {
        PipelineError::Workload(e)
    }
}

impl From<RuntimeFault> for PipelineError {
    fn from(e: RuntimeFault) -> Self {
        PipelineError::Fault(e)
    }
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// Metrics of the unmodified application.
    pub baseline: AppMetrics,
    /// The observational gate verdict from baseline measurements.
    pub gate: GateDecision,
    /// Metrics of the profiled (sampler-attached) run — its e2e inflation
    /// over the baseline is the profiler overhead (Fig. 9).
    pub profiled: AppMetrics,
    /// The detection report.
    pub report: InefficiencyReport,
    /// The code transformation, when the gate passed and findings existed.
    /// `None` (with the baseline redeployed) when the pre-deployment
    /// analyzer gate rejected the optimized artifact.
    pub optimization: Option<OptimizationOutcome>,
    /// The pre-deployment static-analysis report over the artifact that was
    /// about to ship (before any rollback), fed with profile-observed
    /// usage. Error-severity diagnostics here caused a rollback.
    pub pre_deploy: slimstart_analyzer::AnalysisReport,
    /// The application that ended up deployed (optimized, or the original
    /// when gated out).
    pub final_app: Arc<Application>,
    /// Metrics of the final deployment.
    pub optimized: AppMetrics,
    /// Speedups of optimized over baseline (Table II row).
    pub speedup: Speedup,
    /// The calling-context tree built from the profile.
    pub cct: Cct,
    /// Fault-handling summary: what chaos injected, what the retries
    /// absorbed, and where on the degradation ladder the run landed.
    pub resilience: ResilienceOutcome,
    /// The anti-pattern auto-fix journal — fixes applied with their
    /// measured speedup proof, fixes rejected with reasons. `None` unless
    /// the composition ran an [`AutoFixStage`](crate::autofix::AutoFixStage).
    pub autofix: Option<crate::autofix::AutoFixOutcome>,
}

impl PipelineOutcome {
    /// Profiler overhead ratio: profiled e2e / baseline e2e (Fig. 9).
    pub fn profiler_overhead(&self) -> f64 {
        if self.baseline.mean_e2e_ms == 0.0 {
            0.0
        } else {
            self.profiled.mean_e2e_ms / self.baseline.mean_e2e_ms
        }
    }

    /// Whether the application was optimized at all.
    pub fn optimized_anything(&self) -> bool {
        self.optimization
            .as_ref()
            .is_some_and(|o| !o.edits.is_empty())
    }

    /// Packages a completed stage context into an outcome.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Incomplete`] naming the first missing
    /// stage product when the composition did not run the full cycle.
    fn from_ctx(ctx: PipelineCtx) -> Result<Self, PipelineError> {
        let final_app = ctx.final_app();
        let resilience = ResilienceOutcome::from_parts(&ctx.chaos, &ctx.resilience);
        Ok(PipelineOutcome {
            baseline: ctx.baseline.ok_or(PipelineError::Incomplete("baseline"))?,
            gate: ctx.gate.ok_or(PipelineError::Incomplete("gate"))?,
            profiled: ctx.profiled.ok_or(PipelineError::Incomplete("profiled"))?,
            report: ctx.report.ok_or(PipelineError::Incomplete("report"))?,
            optimization: ctx.optimization,
            pre_deploy: ctx
                .pre_deploy
                .ok_or(PipelineError::Incomplete("pre_deploy"))?,
            final_app,
            optimized: ctx
                .optimized
                .ok_or(PipelineError::Incomplete("optimized"))?,
            speedup: ctx.speedup.ok_or(PipelineError::Incomplete("speedup"))?,
            cct: ctx.cct.ok_or(PipelineError::Incomplete("cct"))?,
            resilience,
            autofix: ctx.autofix,
        })
    }
}

/// The pipeline driver.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the full cycle for `app` under the handler `mix`.
    ///
    /// # Errors
    ///
    /// Returns an error for unresolvable workloads or runtime faults.
    pub fn run(
        &self,
        app: &Application,
        mix: &[(String, f64)],
    ) -> Result<PipelineOutcome, PipelineError> {
        self.run_with_engine(&StageEngine::canonical(&self.config), app, mix)
    }

    /// Runs an arbitrary stage composition for `app` under the handler
    /// `mix` and packages the result.
    ///
    /// # Errors
    ///
    /// Returns an error for unresolvable workloads, runtime faults, or a
    /// composition that did not produce a complete outcome.
    pub fn run_with_engine(
        &self,
        engine: &StageEngine,
        app: &Application,
        mix: &[(String, f64)],
    ) -> Result<PipelineOutcome, PipelineError> {
        let mut ctx = PipelineCtx::new(self.config.clone(), app, mix)?;
        engine.run(&mut ctx)?;
        PipelineOutcome::from_ctx(ctx)
    }

    /// Runs only the profiling deployment for `app` under `mix` and returns
    /// the utilization metric — what `slimstart lint` feeds the analyzer's
    /// over-approximation auditor without paying for baseline and optimized
    /// measurement runs.
    ///
    /// # Errors
    ///
    /// Returns an error for unresolvable workloads or runtime faults.
    pub fn profile_usage(
        &self,
        app: &Application,
        mix: &[(String, f64)],
    ) -> Result<Utilization, PipelineError> {
        let mut ctx = PipelineCtx::new(self.config.clone(), app, mix)?;
        StageEngine::new()
            .then(crate::stage::ProfileStage)
            .run(&mut ctx)?;
        let store = lock(
            ctx.profile_store
                .as_ref()
                .expect("ProfileStage fills the store"),
        );
        Ok(Utilization::from_samples(&store.paths, &store.samples, app))
    }

    /// Runs the CI/CD loop iteratively: each round profiles the previous
    /// round's deployment and applies any newly found optimizations,
    /// stopping at a fixpoint (a round with no code edits) or after
    /// `max_rounds`. Returns the outcome of every round, in order.
    ///
    /// A single round normally converges (the optimizer defers every
    /// deferrable finding at once); the iterative form matters when
    /// detector thresholds are tightened between rounds or when deferred
    /// loads shift utilization enough to expose second-order findings.
    ///
    /// # Errors
    ///
    /// Propagates the first round error.
    ///
    /// # Panics
    ///
    /// Panics if `max_rounds` is zero.
    pub fn run_iterative(
        &self,
        app: &Application,
        mix: &[(String, f64)],
        max_rounds: usize,
    ) -> Result<Vec<PipelineOutcome>, PipelineError> {
        assert!(max_rounds > 0, "need at least one round");
        let mut rounds = Vec::new();
        let mut current: Arc<Application> = Arc::new(app.clone());
        for _ in 0..max_rounds {
            let outcome = self.run(&current, mix)?;
            let changed = outcome.optimized_anything();
            current = Arc::clone(&outcome.final_app);
            rounds.push(outcome);
            if !changed {
                break;
            }
        }
        Ok(rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::catalog::by_code;

    fn quick_config() -> PipelineConfig {
        PipelineConfig::default()
            .with_cold_starts(40)
            .with_platform(PlatformConfig::default().without_jitter())
    }

    #[test]
    fn graph_bfs_end_to_end_speedup() {
        let entry = by_code("R-GB").unwrap();
        let built = entry.build(11).unwrap();
        let pipeline = Pipeline::new(quick_config());
        let out = pipeline.run(&built.app, &entry.workload_weights()).unwrap();
        assert!(out.report.gate_passed);
        assert!(out.gate.passed, "observational gate agrees");
        assert!(out.optimized_anything());
        // Paper reports 1.71× init / 1.66× e2e for R-GB; the platform's
        // fixed provision+runtime costs dilute it slightly — accept a band.
        assert!(
            out.speedup.init > 1.35 && out.speedup.init < 2.1,
            "init speedup = {:.2}",
            out.speedup.init
        );
        assert!(
            out.speedup.e2e > 1.3,
            "e2e speedup = {:.2}",
            out.speedup.e2e
        );
        assert!(out.speedup.mem > 1.0);
        // The drawing package must be among the deferred ones.
        let opt = out.optimization.as_ref().unwrap();
        assert!(opt.deferred_packages.iter().any(|p| p == "igraph.drawing"));
    }

    #[test]
    fn trivial_app_is_gated_out() {
        let entry = by_code("FWB-FLT").unwrap();
        let built = entry.build(11).unwrap();
        let pipeline = Pipeline::new(quick_config());
        let out = pipeline.run(&built.app, &entry.workload_weights()).unwrap();
        assert!(!out.report.gate_passed);
        assert!(!out.gate.passed, "observational gate agrees");
        assert!(out.optimization.is_none());
        assert_eq!(out.speedup.e2e, 1.0);
        assert_eq!(out.speedup.init, 1.0);
    }

    #[test]
    fn profiler_overhead_is_bounded() {
        let entry = by_code("R-GB").unwrap();
        let built = entry.build(11).unwrap();
        let pipeline = Pipeline::new(quick_config());
        let out = pipeline.run(&built.app, &entry.workload_weights()).unwrap();
        let ratio = out.profiler_overhead();
        assert!(ratio > 1.0, "profiling must cost something: {ratio}");
        assert!(ratio < 1.10, "overhead above 10%: {ratio}");
    }

    #[test]
    fn side_effectful_packages_survive_optimization() {
        let entry = by_code("R-GB").unwrap();
        let built = entry.build(11).unwrap();
        let pipeline = Pipeline::new(quick_config());
        let out = pipeline.run(&built.app, &entry.workload_weights()).unwrap();
        let opt = out.optimization.as_ref().unwrap();
        assert!(opt.skipped.iter().any(|(p, _)| p == "igraph.plugins"));
        // The plugins package stays eagerly imported in the final app.
        let root = out.final_app.module_by_name("igraph").unwrap();
        let plugins = out.final_app.module_by_name("igraph.plugins").unwrap();
        let decl = out
            .final_app
            .imports_of(root)
            .iter()
            .find(|d| d.target == plugins)
            .unwrap();
        assert!(decl.mode.is_global());
    }

    #[test]
    fn deterministic_outcomes() {
        let entry = by_code("R-GB").unwrap();
        let built = entry.build(11).unwrap();
        let pipeline = Pipeline::new(quick_config());
        let a = pipeline.run(&built.app, &entry.workload_weights()).unwrap();
        let b = pipeline.run(&built.app, &entry.workload_weights()).unwrap();
        assert_eq!(a.speedup, b.speedup);
        assert_eq!(a.baseline, b.baseline);
    }

    #[test]
    fn builder_setters_set_their_fields() {
        let cfg = PipelineConfig::default()
            .with_platform(PlatformConfig::default().without_jitter())
            .with_sampler(crate::config::SamplerConfig::default())
            .with_cold_starts(77)
            .with_seed(123)
            .with_async_collector(true)
            .with_chaos(ChaosConfig::uniform(0.5));
        assert_eq!(cfg.cold_starts, 77);
        assert_eq!(cfg.seed, 123);
        assert!(cfg.async_collector);
        assert!(cfg.chaos.is_enabled());
        // Zero-rate config keeps the passthrough plan.
        let quiet = PipelineConfig::default().with_chaos(ChaosConfig::DISABLED);
        assert!(!quiet.chaos.is_enabled());
    }

    #[test]
    fn chaos_stream_seed_follows_the_experiment_seed() {
        let a = PipelineConfig::default()
            .with_seed(1)
            .with_chaos(ChaosConfig::uniform(0.5));
        let b = PipelineConfig::default()
            .with_seed(2)
            .with_chaos(ChaosConfig::uniform(0.5));
        let draws = |cfg: &PipelineConfig| -> Vec<bool> {
            (0..64).map(|_| cfg.chaos.deploy_fails()).collect()
        };
        assert_ne!(draws(&a), draws(&b), "chaos stream must track the seed");
    }

    #[test]
    fn incomplete_composition_is_reported() {
        let entry = by_code("FWB-FLT").unwrap();
        let built = entry.build(11).unwrap();
        let pipeline = Pipeline::new(quick_config());
        // Baseline alone cannot form an outcome.
        let engine = StageEngine::new().then(crate::stage::BaselineStage);
        let err = pipeline
            .run_with_engine(&engine, &built.app, &entry.workload_weights())
            .unwrap_err();
        assert!(matches!(err, PipelineError::Incomplete("gate")));
    }
}
