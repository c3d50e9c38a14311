//! # slimstart-core
//!
//! SLIMSTART itself: a profile-guided optimization tool that identifies and
//! mitigates workload-dependent library-loading inefficiencies in serverless
//! applications (ICDCS 2025 reproduction).
//!
//! The crate implements the paper's three components:
//!
//! 1. **Dynamic profiler** — the attachable [`sampler`] captures call-path
//!    samples with bounded overhead; [`cct`] organizes them into a Calling
//!    Context Tree with bottom-up sample escalation; [`initprof`] provides
//!    the hierarchical initialization-overhead breakdown (Eqs. 1–3) and
//!    [`utilization`] the U(L) metric (Eq. 4).
//! 2. **Automated code optimizer** — [`detect()`](detect()) flags unused / rarely-used
//!    packages (2 % threshold) behind the 10 % init-share gate, and
//!    [`optimizer`] rewrites their global imports into deferred imports,
//!    with a side-effect safety check. [`report`] renders Table IV/V-style
//!    reports with reconstructed call paths.
//! 3. **Adaptive mechanism** — [`adaptive`] tracks per-window handler
//!    invocation probabilities and re-triggers profiling when
//!    `Σ|Δp_i(t)| > ε` (Eqs. 5–7).
//!
//! [`pipeline`] ties everything into the CI/CD loop the paper deploys:
//! baseline → gate → profile → detect → optimize → redeploy → measure.
//! Each step is a composable [`stage::Stage`]; [`stage::StageEngine`]
//! lets callers skip, swap, or extend stages (e.g. FaaSLight's strip pass
//! as an alternate optimize stage) and the fleet orchestrator
//! (`slimstart-fleet`) runs many applications' engines in parallel.
//!
//! # Example
//!
//! ```
//! use slimstart_core::pipeline::{Pipeline, PipelineConfig};
//! use slimstart_appmodel::catalog::by_code;
//!
//! let entry = by_code("R-GB").expect("catalog entry");
//! let built = entry.build(7)?;
//! let config = PipelineConfig::default().with_cold_starts(25); // keep the doctest fast
//! let outcome = Pipeline::new(config).run(&built.app, &entry.workload_weights())?;
//! assert!(outcome.speedup.init > 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod adaptive;
pub mod autofix;
pub mod cct;
pub mod collector;
pub mod config;
pub mod detect;
pub mod export;
pub mod history;
pub mod initprof;
pub mod optimizer;
pub mod pipeline;
pub mod profile;
pub mod report;
pub mod resilience;
pub mod sampler;
pub mod stage;
pub mod utilization;
pub mod wire;

pub use adaptive::{AdaptiveDecision, AdaptiveMonitor};
pub use autofix::{AutoFixOutcome, AutoFixStage};
pub use cct::Cct;
pub use collector::{AsyncCollector, BatchSender, CollectorStats};
pub use config::{AdaptiveConfig, DetectorConfig, SamplerConfig};
pub use detect::{detect, InefficiencyReport};
pub use history::ProfileHistory;
pub use initprof::InitBreakdown;
pub use optimizer::{optimize, optimize_conservative, OptimizationOutcome};
pub use pipeline::{Pipeline, PipelineConfig, PipelineError, PipelineOutcome};
pub use profile::{PathId, PathTable, ProfileStore, SampleRecord};
pub use resilience::{DegradationLevel, ResilienceLog, ResilienceOutcome, RetryPolicy};
pub use sampler::{PathCursor, SamplerAttachment};
pub use stage::{
    AnalyzeStage, BaselineStage, GateDecision, GateStage, MeasureStage, OptimizeStage, PipelineCtx,
    PreDeployStage, ProfileStage, Stage, StageEngine, StageRecord, StageStatus,
};
pub use utilization::Utilization;
pub use wire::{ProfileBatch, WireError};

#[cfg(test)]
mod thread_safety {
    //! The fleet orchestrator moves pipeline configurations into worker
    //! threads and ships outcomes back; these assertions pin the
    //! Send/Sync contract for everything that crosses that boundary.

    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_send<T: Send>() {}

    #[test]
    fn fleet_shared_types_are_send_and_sync() {
        assert_send_sync::<PipelineConfig>();
        assert_send_sync::<Pipeline>();
        assert_send_sync::<StageEngine>();
        assert_send_sync::<GateDecision>();
        assert_send_sync::<RetryPolicy>();
        assert_send_sync::<ResilienceOutcome>();
    }

    #[test]
    fn pipeline_products_can_move_across_threads() {
        assert_send::<PipelineOutcome>();
        assert_send::<PipelineCtx>();
        assert_send::<PipelineError>();
    }
}
