//! Shared experiment runners.

use slimstart_appmodel::catalog::CatalogApp;
use slimstart_core::pipeline::{Pipeline, PipelineConfig, PipelineOutcome};
use slimstart_fleet::orchestrator::mean_speedup;
use slimstart_fleet::{FleetConfig, FleetOrchestrator, FleetReport, FleetRunStats};
use slimstart_platform::metrics::Speedup;

/// Cold starts per measurement run (`SLIMSTART_COLD_STARTS`, default 500 —
/// the paper's methodology).
pub fn cold_starts() -> usize {
    std::env::var("SLIMSTART_COLD_STARTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500)
}

/// Experiment seed (`SLIMSTART_SEED`, default 2025).
pub fn seed() -> u64 {
    std::env::var("SLIMSTART_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2025)
}

/// Iterative measurement runs to average (`SLIMSTART_RUNS`, default 1;
/// the paper's methodology averages five).
pub fn runs() -> usize {
    std::env::var("SLIMSTART_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|n| *n > 0)
        .unwrap_or(1)
}

/// Fleet worker threads (`SLIMSTART_THREADS`, default: the machine's
/// available parallelism). Thread count never changes results — only how
/// fast they arrive.
pub fn threads() -> usize {
    std::env::var("SLIMSTART_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|n| *n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Runs the fleet orchestrator over `apps` applications with every
/// `SLIMSTART_*` environment knob honored (`SLIMSTART_COLD_STARTS`,
/// `SLIMSTART_SEED`, `SLIMSTART_RUNS`, `SLIMSTART_THREADS`).
///
/// # Panics
///
/// Panics on blueprint or pipeline failure — experiment harnesses treat
/// those as fatal.
pub fn run_fleet(apps: usize) -> (FleetReport, FleetRunStats) {
    let config = FleetConfig::default()
        .with_apps(apps)
        .with_threads(threads())
        .with_seed(seed())
        .with_cold_starts(cold_starts())
        .with_runs(runs());
    FleetOrchestrator::new(config)
        .run()
        .unwrap_or_else(|e| panic!("fleet run failed: {e}"))
}

/// One catalog app's pipeline outcome plus its identity.
#[derive(Debug)]
pub struct ExperimentRun {
    /// The catalog entry.
    pub entry: CatalogApp,
    /// The full pipeline outcome.
    pub outcome: PipelineOutcome,
}

/// Runs the full SlimStart pipeline for one catalog application.
///
/// # Panics
///
/// Panics on workload errors or runtime faults — experiment harnesses treat
/// those as fatal.
pub fn run_catalog_app(entry: &CatalogApp, cold_starts: usize, seed: u64) -> ExperimentRun {
    let built = entry
        .build(seed)
        .unwrap_or_else(|e| panic!("{}: blueprint failed: {e}", entry.code));
    let config = PipelineConfig {
        cold_starts,
        seed,
        ..PipelineConfig::default()
    };
    let outcome = Pipeline::new(config)
        .run(&built.app, &entry.workload_weights())
        .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", entry.code));
    ExperimentRun {
        entry: entry.clone(),
        outcome,
    }
}

/// Runs the pipeline `runs` times with derived seeds and returns the last
/// run plus the field-wise mean speedup — the paper's "results are averaged
/// over five iterative runs" methodology.
///
/// # Panics
///
/// Panics if `runs` is zero, or on pipeline failure.
pub fn run_catalog_app_averaged(
    entry: &CatalogApp,
    cold_starts: usize,
    base_seed: u64,
    runs: usize,
) -> (ExperimentRun, Speedup) {
    assert!(runs > 0, "need at least one run");
    let mut speedups: Vec<Speedup> = Vec::with_capacity(runs);
    let mut last = None;
    for i in 0..runs {
        let run = run_catalog_app(entry, cold_starts, base_seed.wrapping_add(i as u64 * 7919));
        speedups.push(run.outcome.speedup);
        last = Some(run);
    }
    (last.expect("runs > 0"), mean_speedup(&speedups))
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::catalog::by_code;

    #[test]
    fn env_defaults() {
        // Not set in the test environment.
        assert_eq!(cold_starts(), 500);
        assert_eq!(seed(), 2025);
    }

    #[test]
    fn runs_a_catalog_entry() {
        let entry = by_code("R-GB").unwrap();
        let run = run_catalog_app(&entry, 20, 1);
        assert_eq!(run.entry.code, "R-GB");
        assert!(run.outcome.speedup.init > 1.0);
    }

    #[test]
    fn averaging_across_runs() {
        let entry = by_code("R-GB").unwrap();
        let (last, mean) = run_catalog_app_averaged(&entry, 15, 1, 2);
        assert_eq!(last.entry.code, "R-GB");
        assert!(mean.load > 1.0);
        assert!(mean.e2e > 1.0);
    }
}
