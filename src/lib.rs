//! # slimstart
//!
//! A complete reproduction of **"Efficient Serverless Cold Start: Reducing
//! Library Loading Overhead by Profile-guided Optimization"** (SLIMSTART,
//! ICDCS 2025) as a Rust workspace, built on a deterministic serverless
//! simulation substrate.
//!
//! This facade crate re-exports the member crates:
//!
//! * [`simcore`] — virtual time, seeded RNG, distributions, statistics;
//! * [`appmodel`] — applications, libraries, modules, imports, the
//!   22-application catalog;
//! * [`pyrt`] — the Python-like module loader + interpreter;
//! * [`platform`] — the serverless platform (containers, keep-alive,
//!   cold/warm starts, metrics);
//! * [`workload`] — invocation streams, drift, production-trace synthesis;
//! * [`core`] — SLIMSTART itself (profiler, CCT, detector, optimizer,
//!   adaptive mechanism, CI/CD pipeline);
//! * [`faaslight`] — the static-analysis baseline;
//! * [`analyzer`] — the static-analysis pass framework (deferral-safety
//!   verifier, import lints, over-approximation auditor);
//! * [`fleet`] — the parallel fleet orchestrator (deterministic fan-out of
//!   N applications across a worker pool, aggregated [`FleetReport`]);
//! * [`bench`] — the experiment harness (one target per paper table or
//!   figure).
//!
//! The CI/CD pipeline itself is a composition of [`Stage`]s over a shared
//! [`PipelineCtx`](slimstart_core::stage::PipelineCtx); see [`stages`] for
//! cross-crate adapters such as the FaaSLight strip stage.
//!
//! [`FleetReport`]: slimstart_fleet::FleetReport
//! [`Stage`]: slimstart_core::stage::Stage
//!
//! # Quickstart
//!
//! ```
//! use slimstart::prelude::*;
//!
//! // Pick a benchmark application from the paper's catalog…
//! let entry = slimstart::appmodel::catalog::by_code("R-GB").expect("exists");
//! let built = entry.build(7)?;
//!
//! // …and run the full profile → detect → optimize → re-measure cycle.
//! let mut config = PipelineConfig::default();
//! config.cold_starts = 25;
//! let outcome = Pipeline::new(config).run(&built.app, &entry.workload_weights())?;
//! assert!(outcome.speedup.init > 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use slimstart_analyzer as analyzer;
pub use slimstart_appmodel as appmodel;
pub use slimstart_bench as bench;
pub use slimstart_core as core;
pub use slimstart_faaslight as faaslight;
pub use slimstart_fleet as fleet;
pub use slimstart_platform as platform;
pub use slimstart_pyrt as pyrt;
pub use slimstart_simcore as simcore;
pub use slimstart_workload as workload;

pub mod stages;

/// The most commonly used items, for `use slimstart::prelude::*`.
pub mod prelude {
    pub use slimstart_analyzer::{AnalysisReport, Analyzer, Severity};
    pub use slimstart_appmodel::{AppBuilder, Application, ImportMode};
    pub use slimstart_core::pipeline::{Pipeline, PipelineConfig, PipelineOutcome};
    pub use slimstart_core::{AdaptiveConfig, AdaptiveMonitor, Cct, DetectorConfig, SamplerConfig};
    pub use slimstart_core::{Stage, StageEngine, StageStatus};
    pub use slimstart_fleet::{FleetConfig, FleetOrchestrator, FleetReport};
    pub use slimstart_platform::{AppMetrics, Platform, PlatformConfig};
    pub use slimstart_simcore::{SimDuration, SimRng, SimTime};
    pub use slimstart_workload::{ProductionTrace, TraceConfig, WorkloadSpec};
}
