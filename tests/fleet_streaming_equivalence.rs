//! Differential test: the streaming fleet path must be observationally
//! indistinguishable from the retained-everything oracle.
//!
//! [`FleetOrchestrator::run_population`] folds each finished app into a
//! constant-memory [`FleetAggregator`] per worker, in whatever order the
//! workers claim chunks, and merges the partials after they join.
//! [`reference_report`] is the simple oracle: run every app sequentially
//! ([`FleetOrchestrator::run_records`]), keep the full `Vec<AppRecord>`,
//! summarize at the end. For every population the two must serialize to
//! byte-identical JSON — the streaming path is only allowed to change
//! *how much memory the summary costs*, never a single byte of what it
//! says.
//!
//! Populations are randomized (sizes, thread counts, chaos on/off) from a
//! fixed sweep seed, plus the degenerate cells a randomized sweep can
//! miss: the empty fleet, the 1-app fleet, the first fleet big enough to
//! truncate the detail window, and real-catalog cells with chaos off and
//! on.
//!
//! [`FleetAggregator`]: slimstart::fleet::FleetAggregator

use slimstart::appmodel::catalog::{fleet_population, light_population, CatalogApp};
use slimstart::fleet::report::{seed_digest_term, DETAIL_ROWS};
use slimstart::fleet::{
    AppRecord, FixedHistogram, FleetChaosSummary, FleetConfig, FleetOrchestrator, FleetReport,
    FleetSnapshotSummary, FleetZygoteSummary, SpeedupDistribution,
};
use slimstart::platform::chaos::ChaosConfig;
use slimstart::platform::PlatformConfig;
use slimstart::simcore::SimRng;
use slimstart_core::pipeline::PipelineConfig;

fn config(apps: usize, threads: usize, seed: u64) -> FleetConfig {
    FleetConfig::default()
        .with_apps(apps)
        .with_threads(threads)
        .with_seed(seed)
        .with_cold_starts(2)
        .with_pipeline(
            PipelineConfig::default().with_platform(PlatformConfig::default().without_jitter()),
        )
}

/// The retained aggregation path: collect every row, summarize in one
/// pass — deliberately the dumbest possible implementation.
fn reference_report(
    seed: u64,
    cold_starts: usize,
    runs: usize,
    apps: Vec<AppRecord>,
) -> FleetReport {
    let mut init = FixedHistogram::new();
    let mut e2e = FixedHistogram::new();
    let mut mem = FixedHistogram::new();
    for a in &apps {
        init.record(a.speedup.init);
        e2e.record(a.speedup.e2e);
        mem.record(a.speedup.mem);
    }
    let seed_digest = apps
        .iter()
        .fold(0u64, |d, a| d ^ seed_digest_term(a.index, a.seed));
    let detail_truncated = apps.len() > DETAIL_ROWS;
    FleetReport {
        seed,
        cold_starts,
        runs,
        fleet_size: apps.len(),
        seed_digest,
        gate_passed_count: apps.iter().filter(|a| a.gate_passed).count(),
        optimized_count: apps.iter().filter(|a| a.optimized).count(),
        rolled_back_count: apps.iter().filter(|a| a.rolled_back).count(),
        findings_total: apps.iter().map(|a| a.findings).sum(),
        deferred_total: apps.iter().map(|a| a.deferred).sum(),
        analyzer_warnings_total: apps.iter().map(|a| a.analyzer_warnings).sum(),
        init_speedup: SpeedupDistribution::from_histogram(&init),
        e2e_speedup: SpeedupDistribution::from_histogram(&e2e),
        mem_reduction: SpeedupDistribution::from_histogram(&mem),
        chaos: chaos_from_records(&apps),
        snapshots: snapshots_from_records(&apps),
        zygotes: zygotes_from_records(&apps),
        init_hist: init,
        e2e_hist: e2e,
        mem_hist: mem,
        detail: apps.into_iter().take(DETAIL_ROWS).collect(),
        detail_truncated,
    }
}

/// Aggregates the per-app chaos rows; `None` when no row carries one.
fn chaos_from_records(apps: &[AppRecord]) -> Option<FleetChaosSummary> {
    if apps.iter().all(|a| a.chaos.is_none()) {
        return None;
    }
    let rows = || apps.iter().filter_map(|a| a.chaos.as_ref());
    Some(FleetChaosSummary {
        faulted: rows().filter(|c| c.faults > 0).count(),
        recovered: rows().filter(|c| c.recovered).count(),
        degraded: rows().filter(|c| c.degraded()).count(),
        failed: rows().filter(|c| c.failed()).count(),
        faults_total: rows().map(|c| c.faults).sum(),
    })
}

/// Aggregates the per-app snapshot rows; `None` when no row carries one.
fn snapshots_from_records(apps: &[AppRecord]) -> Option<FleetSnapshotSummary> {
    if apps.iter().all(|a| a.snapshot.is_none()) {
        return None;
    }
    let mut summary = FleetSnapshotSummary::default();
    for snap in apps.iter().filter_map(|a| a.snapshot.as_ref()) {
        summary.fold(snap);
    }
    Some(summary)
}

/// Aggregates the per-app zygote rows; `None` when no row carries one.
fn zygotes_from_records(apps: &[AppRecord]) -> Option<FleetZygoteSummary> {
    if apps.iter().all(|a| a.zygote.is_none()) {
        return None;
    }
    let mut summary = FleetZygoteSummary::default();
    for zygote in apps.iter().filter_map(|a| a.zygote.as_ref()) {
        summary.fold(zygote);
    }
    Some(summary)
}

/// Runs the same configuration through both paths and asserts the JSON
/// (and the rendered text table, which shares the detail window) agree
/// byte for byte.
fn assert_paths_agree(config: FleetConfig, population: &[CatalogApp]) -> FleetReport {
    let orchestrator = FleetOrchestrator::new(config.clone());
    let (streamed, _) = orchestrator
        .run_population(population)
        .expect("streaming fleet runs");
    let records = orchestrator.run_records(population).expect("oracle runs");
    let oracle = reference_report(config.seed, config.cold_starts, config.runs, records);
    assert_eq!(
        streamed.to_json(),
        oracle.to_json(),
        "streaming JSON diverged from the retained oracle ({} apps, {} threads)",
        population.len(),
        config.threads
    );
    assert_eq!(streamed.render_text(), oracle.render_text());
    streamed
}

#[test]
fn randomized_populations_match_the_retained_oracle() {
    let mut sweep = SimRng::seed_from(0xD1FF_E2E2);
    for trial in 0..6u64 {
        let apps = 1 + sweep.next_below(120);
        let threads = 1 + sweep.next_below(8);
        let seed = sweep.split_seed();
        let mut cfg = config(apps, threads, seed);
        // Alternate chaos on/off so both aggregation shapes are swept.
        if trial % 2 == 1 {
            cfg = cfg.with_chaos(ChaosConfig::uniform(0.2));
        }
        let report = assert_paths_agree(cfg, &light_population(apps));
        assert_eq!(report.fleet_size, apps, "trial {trial}");
    }
}

#[test]
fn empty_fleet_matches_the_retained_oracle() {
    let report = assert_paths_agree(config(0, 4, 2025), &[]);
    assert_eq!(report.fleet_size, 0);
    assert!(!report.detail_truncated);
    assert!(report.detail.is_empty());
    // Degenerate distributions serialize as zeros, not NaN/null garbage.
    assert!(!report.to_json().contains("NaN"));
}

#[test]
fn single_app_fleet_matches_the_retained_oracle() {
    let report = assert_paths_agree(config(1, 8, 2025), &light_population(1));
    assert_eq!(report.fleet_size, 1);
    assert_eq!(report.detail.len(), 1);
    // With one sample every quantile collapses onto the one observation,
    // exactly as the oracle's histogram reports it.
    let init = &report.init_speedup;
    assert_eq!(init.min, init.max);
    assert_eq!(init.median, init.min);
}

#[test]
fn detail_truncating_fleet_matches_the_retained_oracle() {
    // First size past the detail window: the streaming path must cap its
    // detail rows at the same boundary the oracle does.
    let report = assert_paths_agree(config(33, 3, 2025), &light_population(33));
    assert!(report.detail_truncated);
    assert_eq!(report.detail.len(), 32);
}

#[test]
fn catalog_population_without_chaos_matches_the_retained_oracle() {
    // The full pipeline on real catalog entries, chaos off: profiling
    // deployments, analyzer findings and optimizations, with no fault
    // summary in either path.
    let report = assert_paths_agree(config(6, 3, 7), &fleet_population(6));
    assert!(report.chaos.is_none());
    assert_eq!(report.detail.len(), 6);
}

#[test]
fn catalog_population_with_chaos_matches_the_retained_oracle() {
    // The real catalog entries (not the light fixtures) exercise the full
    // pipeline — profiling deployments, analyzer findings, rollback
    // ladders — under fault injection.
    let cfg = config(5, 4, 2025).with_chaos(ChaosConfig::uniform(0.2));
    let report = assert_paths_agree(cfg, &fleet_population(5));
    assert!(
        report.chaos.is_some(),
        "chaos summary must survive both paths"
    );
}
