//! The stage-based pipeline engine.
//!
//! [`crate::pipeline::Pipeline::run`] used to be one monolithic function
//! walking the paper's seven steps (§III Fig. 4). This module decomposes
//! it into composable [`Stage`]s over a shared [`PipelineCtx`]:
//!
//! ```text
//! baseline-measure → gate → profile → analyze → optimize
//!                  → pre-deploy-verify → redeploy-measure
//! ```
//!
//! Each stage reads the products of its predecessors from the context and
//! deposits its own, so a [`StageEngine`] can compose, skip, or swap
//! stages — e.g. replace the profile-guided [`OptimizeStage`] with
//! FaaSLight's static strip pass (`slimstart_faaslight::StripStage`)
//! while keeping the measurement and pre-deployment verification stages
//! identical, for apples-to-apples baseline comparisons.
//!
//! The canonical composition ([`StageEngine::canonical`]) reproduces the
//! monolith byte-for-byte: stage boundaries do not change which seeds are
//! used where (baseline `seed ^ 0x1`, profiling `seed ^ 0x2`, redeploy
//! `seed ^ 0x3`) or how workloads are regenerated for the final artifact.

use std::fmt;
use std::sync::{Arc, Mutex};

use slimstart_analyzer::ModuleIndex;
use slimstart_appmodel::Application;
use slimstart_platform::chaos::ChaosPlan;
use slimstart_platform::invocation::Invocation;
use slimstart_platform::metrics::{AppMetrics, Speedup};
use slimstart_platform::platform::{Platform, PlatformConfig};
use slimstart_simcore::time::SimDuration;
use slimstart_workload::generator::generate;
use slimstart_workload::spec::WorkloadSpec;

use crate::cct::Cct;
use crate::collector::AsyncCollector;
use crate::detect::{detect_with_index, InefficiencyReport};
use crate::initprof::InitBreakdown;
use crate::optimizer::{
    optimize_conservative_with_index, optimize_with_index, OptimizationOutcome,
};
use crate::pipeline::{PipelineConfig, PipelineError};
use crate::profile::{lock, ProfileStore};
use crate::resilience::ResilienceLog;
use crate::sampler::SamplerAttachment;
use crate::utilization::Utilization;

/// The gate verdict taken from baseline measurements (paper step 2).
///
/// The observational gate records the baseline init share against the
/// configured threshold. The *authoritative* optimization gate remains the
/// profile-informed one computed by [`detect`](crate::detect::detect) (the
/// paper gates on the breakdown's init share), so that composing the engine
/// differently cannot silently change which applications get optimized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateDecision {
    /// Baseline library-init share of end-to-end time.
    pub init_ratio: f64,
    /// The configured gate threshold (paper: 10 %).
    pub threshold: f64,
    /// Whether the baseline share clears the threshold.
    pub passed: bool,
}

/// What a stage tells the engine to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageStatus {
    /// Proceed to the next stage.
    Continue,
    /// Stop the run here (e.g. a strict gate); the reason is recorded.
    Halt(&'static str),
}

/// One record of a stage the engine executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageRecord {
    /// The stage's [`Stage::name`].
    pub name: &'static str,
    /// Its resulting status.
    pub status: StageStatus,
}

/// Shared state threaded through the stages of one pipeline run.
///
/// Constructed once per run with the immutable inputs (config, app,
/// workload); every field below the inputs is a stage product that starts
/// out `None` and is filled in by the stage that owns it.
pub struct PipelineCtx {
    /// The pipeline configuration (seeds, platform, detector thresholds).
    pub config: PipelineConfig,
    /// The unmodified application under test.
    pub app: Arc<Application>,
    /// The workload specification derived from the handler mix.
    pub spec: WorkloadSpec,
    /// The invocation stream used by the baseline and profiling runs.
    pub invocations: Vec<Invocation>,
    /// The run's fault-injection schedule (shared with every platform
    /// deployment); [`ChaosPlan::none`] in normal operation.
    pub chaos: Arc<ChaosPlan>,
    /// Fault-handling journal the stages write as they retry and degrade.
    pub resilience: ResilienceLog,

    /// Baseline metrics ([`BaselineStage`]).
    pub baseline: Option<AppMetrics>,
    /// Observational gate verdict ([`GateStage`]).
    pub gate: Option<GateDecision>,
    /// Profiled-run metrics ([`ProfileStage`]).
    pub profiled: Option<AppMetrics>,
    /// The profile store filled by the sampler ([`ProfileStage`]).
    pub profile_store: Option<Arc<Mutex<ProfileStore>>>,
    /// Cold starts observed during profiling ([`ProfileStage`]).
    pub profiled_cold_starts: u64,
    /// Utilization metric over the profile ([`AnalyzeStage`]).
    pub utilization: Option<Utilization>,
    /// The detection report ([`AnalyzeStage`]).
    pub report: Option<InefficiencyReport>,
    /// The unmodified application's module index, when the detector built
    /// one: [`AnalyzeStage`] keeps it when the gate passes, and
    /// [`OptimizeStage`] takes it.
    pub index: Option<ModuleIndex>,
    /// The calling-context tree ([`AnalyzeStage`]).
    pub cct: Option<Cct>,
    /// The code transformation, when one was produced ([`OptimizeStage`]).
    pub optimization: Option<OptimizationOutcome>,
    /// The candidate artifact to deploy, when an optimize-type stage
    /// produced one that differs from the baseline.
    pub candidate: Option<Arc<Application>>,
    /// Whether the candidate must be redeployed and re-measured (set by
    /// optimize-type stages, cleared by a pre-deployment rollback).
    pub redeploy: bool,
    /// The pre-deployment analysis report ([`PreDeployStage`]).
    pub pre_deploy: Option<slimstart_analyzer::AnalysisReport>,
    /// Final-deployment metrics ([`MeasureStage`]).
    pub optimized: Option<AppMetrics>,
    /// Speedups of the final deployment over baseline ([`MeasureStage`]).
    pub speedup: Option<Speedup>,
    /// The anti-pattern auto-fix journal, when the composition includes an
    /// [`AutoFixStage`](crate::autofix::AutoFixStage).
    pub autofix: Option<crate::autofix::AutoFixOutcome>,
}

impl PipelineCtx {
    /// Prepares a context: resolves the handler mix into a concrete
    /// invocation stream with the experiment seed.
    ///
    /// # Errors
    ///
    /// Returns an error when the workload cannot be resolved against the
    /// application.
    pub fn new(
        config: PipelineConfig,
        app: &Application,
        mix: &[(String, f64)],
    ) -> Result<Self, PipelineError> {
        let spec = WorkloadSpec::cold_starts_with_mix(mix, config.cold_starts);
        let invocations = generate(&spec, app, config.seed)?;
        let chaos = Arc::clone(&config.chaos);
        Ok(PipelineCtx {
            config,
            app: Arc::new(app.clone()),
            spec,
            invocations,
            chaos,
            resilience: ResilienceLog::default(),
            baseline: None,
            gate: None,
            profiled: None,
            profile_store: None,
            profiled_cold_starts: 0,
            utilization: None,
            report: None,
            index: None,
            cct: None,
            optimization: None,
            candidate: None,
            redeploy: false,
            pre_deploy: None,
            optimized: None,
            speedup: None,
            autofix: None,
        })
    }

    /// The artifact that ends up deployed: the candidate when an
    /// optimization survived pre-deployment verification, else the
    /// unmodified application.
    pub fn final_app(&self) -> Arc<Application> {
        self.candidate
            .clone()
            .unwrap_or_else(|| Arc::clone(&self.app))
    }
}

impl fmt::Debug for PipelineCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelineCtx")
            .field("app", &self.app.name())
            .field("invocations", &self.invocations.len())
            .field("baseline", &self.baseline.is_some())
            .field("gate", &self.gate)
            .field("profiled", &self.profiled.is_some())
            .field("report", &self.report.is_some())
            .field("optimization", &self.optimization.is_some())
            .field("redeploy", &self.redeploy)
            .field("speedup", &self.speedup)
            .finish()
    }
}

/// One composable unit of pipeline work.
///
/// Stages are shared across worker threads by the fleet orchestrator, so
/// they must be `Send + Sync`; all per-run mutable state lives in the
/// [`PipelineCtx`].
pub trait Stage: Send + Sync {
    /// A stable identifier, used by [`StageEngine::replace`] /
    /// [`StageEngine::without`] and in [`StageRecord`]s.
    fn name(&self) -> &'static str;

    /// Executes the stage against the shared context.
    ///
    /// # Errors
    ///
    /// Returns an error for unresolvable workloads or runtime faults;
    /// the engine aborts the run on the first error.
    fn run(&self, ctx: &mut PipelineCtx) -> Result<StageStatus, PipelineError>;
}

// ---------------------------------------------------------------- stages

/// The platform configuration for one deployment of this run: the
/// configured platform, plus the run's chaos plan when it is live (the
/// passthrough plan is not attached, keeping the disabled path identical
/// to a config that never heard of chaos).
pub(crate) fn deployment_platform(ctx: &PipelineCtx) -> PlatformConfig {
    let base = ctx.config.platform.clone();
    if ctx.chaos.is_enabled() {
        base.with_chaos(Arc::clone(&ctx.chaos))
    } else {
        base
    }
}

/// Step 1: deploy the unmodified application and measure it.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselineStage;

impl Stage for BaselineStage {
    fn name(&self) -> &'static str {
        "baseline-measure"
    }

    fn run(&self, ctx: &mut PipelineCtx) -> Result<StageStatus, PipelineError> {
        let mut platform = Platform::new(
            Arc::clone(&ctx.app),
            deployment_platform(ctx),
            ctx.config.seed ^ 0x1,
        );
        ctx.baseline = Some(AppMetrics::aggregate(platform.run(&ctx.invocations)?));
        Ok(StageStatus::Continue)
    }
}

/// Step 2: the 10 % init-share gate, from baseline measurements.
///
/// Non-strict by default: it records the [`GateDecision`] and continues,
/// leaving the authoritative optimization decision to the detector's
/// profile-informed gate — exactly the monolith's behavior. In strict
/// mode the engine halts early for below-gate applications, skipping the
/// profiling deployment entirely (useful for fleet sweeps where trivial
/// apps shouldn't pay for profiling).
#[derive(Debug, Clone, Copy)]
pub struct GateStage {
    /// Init-share threshold (paper: 0.10).
    pub threshold: f64,
    /// Halt below-gate runs instead of continuing observationally.
    pub strict: bool,
}

impl Default for GateStage {
    fn default() -> Self {
        GateStage {
            threshold: 0.10,
            strict: false,
        }
    }
}

impl Stage for GateStage {
    fn name(&self) -> &'static str {
        "gate"
    }

    fn run(&self, ctx: &mut PipelineCtx) -> Result<StageStatus, PipelineError> {
        let baseline = ctx
            .baseline
            .as_ref()
            .expect("GateStage requires BaselineStage");
        let init_ratio = baseline.init_ratio();
        let passed = init_ratio > self.threshold;
        ctx.gate = Some(GateDecision {
            init_ratio,
            threshold: self.threshold,
            passed,
        });
        if self.strict && !passed {
            return Ok(StageStatus::Halt("below init-share gate"));
        }
        Ok(StageStatus::Continue)
    }
}

/// Step 3: redeploy with the sampler attached and collect the profile.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProfileStage;

impl Stage for ProfileStage {
    fn name(&self) -> &'static str {
        "profile"
    }

    fn run(&self, ctx: &mut PipelineCtx) -> Result<StageStatus, PipelineError> {
        let sampler_cfg = ctx.config.sampler;
        let async_collector = ctx.config.async_collector;
        let seed = ctx.config.seed ^ 0x2;
        let policy = ctx.config.retry;
        let chaos = Arc::clone(&ctx.chaos);
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            // The sampler either writes straight into the shared store or
            // ships encoded batches to the asynchronous collector, which
            // drains them off the critical path. Each collection attempt
            // gets a fresh store (a lost upload loses the whole payload).
            let store = ProfileStore::shared();
            let mut collector = if async_collector {
                Some(AsyncCollector::start_with_store(Arc::clone(&store)))
            } else {
                None
            };
            let profiled_cfg = match &collector {
                Some(c) => {
                    let sender = c.sender();
                    deployment_platform(ctx).with_observer_factory(Arc::new(move || {
                        Box::new(SamplerAttachment::with_transport(
                            sampler_cfg,
                            sender.clone(),
                        ))
                    }))
                }
                None => {
                    let store_for_factory = Arc::clone(&store);
                    deployment_platform(ctx).with_observer_factory(Arc::new(move || {
                        Box::new(SamplerAttachment::new(
                            sampler_cfg,
                            Arc::clone(&store_for_factory),
                        ))
                    }))
                }
            };
            let mut platform = Platform::new(Arc::clone(&ctx.app), profiled_cfg, seed);
            let records = platform.run(&ctx.invocations)?.to_vec();
            if let Some(c) = collector.as_mut() {
                // Wait until every in-flight batch is decoded into the store.
                c.finish();
            }

            if chaos.upload_lost() {
                if attempt < policy.max_attempts {
                    // Chaos: the profile upload vanished in flight. The
                    // attempt timeout is the virtual time spent detecting
                    // the loss; back off, then re-collect (same platform
                    // seed — the chaos stream advancing is what makes the
                    // retry encounter different faults).
                    ctx.resilience.profile_retries += 1;
                    ctx.resilience.backoff += policy.attempt_timeout
                        + policy.backoff_delay(attempt, chaos.backoff_jitter());
                    continue;
                }
                // Retry budget exhausted: no profile survived. Ship empty
                // data and degrade instead of aborting the cycle.
                let mut s = lock(&store);
                s.samples.clear();
                s.init_micros_by_module.clear();
                drop(s);
                ctx.resilience.profile_missing = true;
            } else if let Some(keep) = chaos.upload_truncation() {
                // Chaos: the upload survived but only a prefix arrived.
                let mut s = lock(&store);
                let surviving = (s.samples.len() as f64 * keep).floor() as usize;
                s.samples.truncate(surviving);
                drop(s);
                ctx.resilience.profile_truncated = true;
            }

            ctx.profiled_cold_starts = records.iter().filter(|r| r.cold).count() as u64;
            ctx.profiled = Some(AppMetrics::aggregate(&records));
            ctx.profile_store = Some(store);
            return Ok(StageStatus::Continue);
        }
    }
}

/// Step 4: build the init breakdown, utilization and CCT; detect
/// inefficiencies.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyzeStage;

impl Stage for AnalyzeStage {
    fn name(&self) -> &'static str {
        "analyze"
    }

    fn run(&self, ctx: &mut PipelineCtx) -> Result<StageStatus, PipelineError> {
        let baseline = ctx
            .baseline
            .as_ref()
            .expect("AnalyzeStage requires BaselineStage");
        let store = lock(
            ctx.profile_store
                .as_ref()
                .expect("AnalyzeStage requires ProfileStage"),
        );
        let breakdown = InitBreakdown::from_store(
            &store,
            &ctx.app,
            ctx.profiled_cold_starts.max(1),
            SimDuration::from_millis_f64(baseline.mean_e2e_ms),
        );
        let utilization = Utilization::from_samples(&store.paths, &store.samples, &ctx.app);
        let (report, index) =
            detect_with_index(&ctx.app, &breakdown, &utilization, &ctx.config.detector);
        ctx.report = Some(report);
        ctx.index = index;
        ctx.cct = Some(Cct::from_samples(&store.paths, &store.samples));
        drop(store);
        ctx.utilization = Some(utilization);
        Ok(StageStatus::Continue)
    }
}

/// Step 5: rewrite flagged global imports into deferred imports (the
/// paper's profile-guided optimizer).
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimizeStage;

impl Stage for OptimizeStage {
    fn name(&self) -> &'static str {
        "optimize"
    }

    fn run(&self, ctx: &mut PipelineCtx) -> Result<StageStatus, PipelineError> {
        if ctx.resilience.profile_degraded() {
            // The profile arrived truncated or not at all, so its findings
            // cannot be trusted (a rarely-used package may just have lost
            // its samples). Degrade to conservative mode: defer only
            // packages the static analyzer proves never used, gated on the
            // baseline (profile-free) decision instead of the detector's
            // profile-informed gate.
            let gate_ok = match ctx.gate {
                Some(g) => g.passed,
                None => true,
            };
            if gate_ok {
                let index = ctx
                    .index
                    .take()
                    .unwrap_or_else(|| ModuleIndex::build(&ctx.app));
                let outcome = optimize_conservative_with_index(&ctx.app, &index);
                if !outcome.edits.is_empty() {
                    ctx.candidate = Some(Arc::new(outcome.app.clone()));
                    ctx.redeploy = true;
                    ctx.optimization = Some(outcome);
                }
            }
            return Ok(StageStatus::Continue);
        }
        let report = ctx
            .report
            .as_ref()
            .expect("OptimizeStage requires AnalyzeStage");
        if report.gate_passed && !report.findings.is_empty() {
            let index = ctx
                .index
                .take()
                .unwrap_or_else(|| ModuleIndex::build(&ctx.app));
            let outcome = optimize_with_index(&ctx.app, &index, report);
            ctx.candidate = Some(Arc::new(outcome.app.clone()));
            ctx.redeploy = !outcome.edits.is_empty();
            ctx.optimization = Some(outcome);
        }
        Ok(StageStatus::Continue)
    }
}

/// Step 6: the pre-deployment gate — run the static-analysis framework
/// over the artifact about to ship, fed with profile-observed usage.
/// Error-severity findings roll the deployment back to baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct PreDeployStage;

impl Stage for PreDeployStage {
    fn name(&self) -> &'static str {
        "pre-deploy-verify"
    }

    fn run(&self, ctx: &mut PipelineCtx) -> Result<StageStatus, PipelineError> {
        let observed = ctx.utilization.as_ref().map(|u| u.to_observed());
        let final_app = ctx.final_app();
        let report = slimstart_analyzer::Analyzer::with_default_passes()
            .analyze(&final_app, observed.as_ref());
        let unsafe_candidate = report.has_errors() && ctx.candidate.is_some();
        ctx.pre_deploy = Some(report);
        if unsafe_candidate {
            // Roll back: ship the baseline instead of the unsafe artifact.
            ctx.optimization = None;
            ctx.candidate = None;
            ctx.redeploy = false;
        }
        Ok(StageStatus::Continue)
    }
}

/// Step 7: redeploy the final artifact (when it differs from baseline)
/// and compute speedups.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeasureStage;

impl Stage for MeasureStage {
    fn name(&self) -> &'static str {
        "redeploy-measure"
    }

    fn run(&self, ctx: &mut PipelineCtx) -> Result<StageStatus, PipelineError> {
        let baseline = ctx
            .baseline
            .as_ref()
            .expect("MeasureStage requires BaselineStage")
            .clone();
        if ctx.redeploy {
            // Chaos: redeploys can fail transiently. Retry with backoff;
            // when the budget is exhausted, roll back to the baseline
            // artifact — the same rollback path the pre-deployment gate
            // takes — and record the degradation.
            let policy = ctx.config.retry;
            let chaos = Arc::clone(&ctx.chaos);
            let mut failures: u32 = 0;
            while chaos.deploy_fails() {
                failures += 1;
                if failures >= policy.max_attempts {
                    ctx.optimization = None;
                    ctx.candidate = None;
                    ctx.redeploy = false;
                    ctx.resilience.deploy_rolled_back = true;
                    break;
                }
                ctx.resilience.deploy_retries += 1;
                ctx.resilience.backoff +=
                    policy.attempt_timeout + policy.backoff_delay(failures, chaos.backoff_jitter());
            }
        }
        let optimized = if ctx.redeploy {
            let cfg = &ctx.config;
            let final_app = ctx.final_app();
            let mut platform = Platform::new(
                Arc::clone(&final_app),
                deployment_platform(ctx),
                cfg.seed ^ 0x3,
            );
            // The optimized artifact has different module identities, so
            // its invocation stream is regenerated (same seed: identical
            // arrival pattern).
            let invocations = generate(&ctx.spec, &final_app, cfg.seed)?;
            AppMetrics::aggregate(platform.run(&invocations)?)
        } else {
            baseline.clone()
        };
        ctx.speedup = Some(Speedup::between(&baseline, &optimized));
        ctx.optimized = Some(optimized);
        Ok(StageStatus::Continue)
    }
}

// ---------------------------------------------------------------- engine

/// An ordered composition of [`Stage`]s.
pub struct StageEngine {
    stages: Vec<Box<dyn Stage>>,
}

impl StageEngine {
    /// An empty engine; push stages with [`StageEngine::then`].
    pub fn new() -> Self {
        StageEngine { stages: Vec::new() }
    }

    /// The paper's canonical seven-stage composition, with thresholds
    /// taken from `config`.
    pub fn canonical(config: &PipelineConfig) -> Self {
        StageEngine::new()
            .then(BaselineStage)
            .then(GateStage {
                threshold: config.detector.gate_threshold,
                strict: false,
            })
            .then(ProfileStage)
            .then(AnalyzeStage)
            .then(OptimizeStage)
            .then(PreDeployStage)
            .then(MeasureStage)
    }

    /// Appends a stage.
    #[must_use]
    pub fn then(mut self, stage: impl Stage + 'static) -> Self {
        self.stages.push(Box::new(stage));
        self
    }

    /// Replaces the (first) stage named `name` with `stage`.
    ///
    /// # Panics
    ///
    /// Panics if no stage has that name — a composition typo, not a
    /// runtime condition.
    #[must_use]
    pub fn replace(mut self, name: &str, stage: impl Stage + 'static) -> Self {
        let i = self
            .position(name)
            .unwrap_or_else(|| panic!("no stage named `{name}` to replace"));
        self.stages[i] = Box::new(stage);
        self
    }

    /// Removes the (first) stage named `name`, if present.
    #[must_use]
    pub fn without(mut self, name: &str) -> Self {
        if let Some(i) = self.position(name) {
            self.stages.remove(i);
        }
        self
    }

    /// The names of the composed stages, in execution order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    fn position(&self, name: &str) -> Option<usize> {
        self.stages.iter().position(|s| s.name() == name)
    }

    /// Runs the stages in order against `ctx`, stopping at the first
    /// [`StageStatus::Halt`] or error. Returns one record per executed
    /// stage.
    ///
    /// # Errors
    ///
    /// Propagates the first stage error.
    pub fn run(&self, ctx: &mut PipelineCtx) -> Result<Vec<StageRecord>, PipelineError> {
        let mut records = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            let status = stage.run(ctx)?;
            records.push(StageRecord {
                name: stage.name(),
                status,
            });
            if matches!(status, StageStatus::Halt(_)) {
                break;
            }
        }
        Ok(records)
    }
}

impl Default for StageEngine {
    fn default() -> Self {
        StageEngine::new()
    }
}

impl fmt::Debug for StageEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StageEngine")
            .field("stages", &self.stage_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::catalog::by_code;
    use slimstart_platform::platform::PlatformConfig;

    fn quick_config() -> PipelineConfig {
        PipelineConfig {
            cold_starts: 30,
            platform: PlatformConfig::default().without_jitter(),
            ..PipelineConfig::default()
        }
    }

    fn ctx_for(code: &str) -> PipelineCtx {
        let entry = by_code(code).unwrap();
        let built = entry.build(11).unwrap();
        PipelineCtx::new(quick_config(), &built.app, &entry.workload_weights()).unwrap()
    }

    #[test]
    fn canonical_engine_fills_every_product() {
        let mut ctx = ctx_for("R-GB");
        let records = StageEngine::canonical(&ctx.config).run(&mut ctx).unwrap();
        assert_eq!(records.len(), 7);
        assert!(records.iter().all(|r| r.status == StageStatus::Continue));
        assert!(ctx.baseline.is_some());
        assert!(ctx.gate.is_some());
        assert!(ctx.profiled.is_some());
        assert!(ctx.report.is_some());
        assert!(ctx.cct.is_some());
        assert!(ctx.pre_deploy.is_some());
        assert!(ctx.speedup.is_some());
    }

    #[test]
    fn strict_gate_halts_trivial_apps_before_profiling() {
        let mut ctx = ctx_for("FWB-FLT");
        let engine = StageEngine::canonical(&ctx.config).replace(
            "gate",
            GateStage {
                threshold: 0.10,
                strict: true,
            },
        );
        let records = engine.run(&mut ctx).unwrap();
        assert_eq!(records.len(), 2, "halted at the gate");
        assert!(matches!(records[1].status, StageStatus::Halt(_)));
        assert!(ctx.profiled.is_none(), "profiling was skipped");
        assert!(!ctx.gate.unwrap().passed);
    }

    #[test]
    fn gate_decision_matches_detector_gate() {
        // The observational gate and the profile-informed detector gate
        // agree on clear-cut catalog apps (wide margins on both sides).
        for code in ["R-GB", "FWB-FLT"] {
            let mut ctx = ctx_for(code);
            StageEngine::canonical(&ctx.config).run(&mut ctx).unwrap();
            assert_eq!(
                ctx.gate.unwrap().passed,
                ctx.report.as_ref().unwrap().gate_passed,
                "{code}: gates disagree"
            );
        }
    }

    #[test]
    fn without_and_replace_edit_composition() {
        let engine = StageEngine::canonical(&PipelineConfig::default())
            .without("pre-deploy-verify")
            .then(MeasureStage);
        let names = engine.stage_names();
        assert!(!names.contains(&"pre-deploy-verify"));
        assert_eq!(
            names.iter().filter(|n| **n == "redeploy-measure").count(),
            2
        );
    }

    #[test]
    #[should_panic(expected = "no stage named")]
    fn replace_unknown_stage_panics() {
        let _ = StageEngine::new().replace("nonexistent", MeasureStage);
    }
}
