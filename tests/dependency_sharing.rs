//! Per-node live dependency sharing: integration contract for the zygote
//! pool (PR 10).
//!
//! Four properties are pinned here:
//!
//! 1. **Determinism.** A zygote-enabled fleet serializes byte-identically
//!    across 1/2/4 worker threads — the pool is planned sequentially up
//!    front from the run-0 builds, so the work-stealing scheduler can
//!    never perturb which zygote an app forks from.
//! 2. **Passthrough.** With zygotes disabled the report keeps the v3
//!    schema and matches the committed PR 9 golden byte-for-byte: no
//!    `zygote` keys leak, no golden re-bless was needed.
//! 3. **Benefit.** Sharing the node's hottest closure strictly lowers the
//!    fleet's summed baseline cold-init time versus the same fleet without
//!    a pool.
//! 4. **Grid.** A Table-3-style grid over the heavy catalog — baseline,
//!    deferral alone, sharing alone, both combined — where deferral never
//!    raises the mean, sharing lowers it, sharing plus deferral strictly
//!    beats deferral alone on mean and p99, only the shared cells fork,
//!    and a same-seed rerun of both extremes is identical.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use slimstart::appmodel::catalog::{fleet_population, light_population};
use slimstart::appmodel::Application;
use slimstart::fleet::{FleetConfig, FleetOrchestrator, FleetReport, NodeZygotePool, ZygotePlan};
use slimstart::platform::chaos::ChaosConfig;
use slimstart::platform::{Invocation, Platform, PlatformConfig};
use slimstart::pyrt::zygote::{ZygoteCounters, ZygoteImage};
use slimstart::simcore::time::SimTime;
use slimstart_core::pipeline::{Pipeline, PipelineConfig};

fn base_config(threads: usize) -> FleetConfig {
    FleetConfig::default()
        .with_apps(6)
        .with_threads(threads)
        .with_seed(2025)
        .with_cold_starts(10)
        .with_pipeline(
            PipelineConfig::default().with_platform(PlatformConfig::default().without_jitter()),
        )
}

fn run_catalog(config: FleetConfig) -> FleetReport {
    let (report, _) = FleetOrchestrator::new(config).run().expect("fleet runs");
    report
}

#[test]
fn zygote_fleet_json_is_byte_identical_across_1_2_4_threads() {
    let baseline = run_catalog(base_config(1).with_zygote_pool(NodeZygotePool::default_geometry()));
    let json = baseline.to_json();
    assert!(
        json.contains("\"schema\":\"slimstart-fleet-report/v4\""),
        "zygote-enabled reports must carry the v4 schema"
    );
    let summary = baseline.zygotes.expect("zygote summary present");
    assert!(summary.forks > 0, "cold starts must fork from zygotes");
    assert!(
        summary.forked_loads > 0,
        "forks must acquire resident modules"
    );
    for threads in [2, 4] {
        let report =
            run_catalog(base_config(threads).with_zygote_pool(NodeZygotePool::default_geometry()));
        assert_eq!(
            json,
            report.to_json(),
            "zygote report bytes moved between 1 and {threads} threads"
        );
    }
}

#[test]
fn zygote_chaos_fleet_is_byte_identical_across_worker_counts() {
    // Fault injection and dependency sharing compose: chaos draws from
    // per-app streams split up front, and the zygote plan is fixed before
    // any worker starts, so neither perturbs the other across schedules.
    let chaotic = |threads: usize| {
        let config = base_config(threads)
            .with_apps(5)
            .with_chaos(ChaosConfig::uniform(0.2))
            .with_zygote_pool(NodeZygotePool::default_geometry());
        run_catalog(config)
    };
    let sequential = chaotic(1);
    let json = sequential.to_json();
    assert_eq!(json, chaotic(4).to_json());
    assert!(json.contains("\"chaos\""), "chaos summary must be present");
    assert!(
        json.contains("\"zygotes\""),
        "zygote summary must be present"
    );
}

#[test]
fn zygote_disabled_fleet_matches_the_committed_v3_golden() {
    // The exact configuration behind tests/golden/fleet_report.json —
    // proving the zygote subsystem is a strict passthrough when disabled,
    // against the artifact committed before it existed.
    let config = FleetConfig::default()
        .with_apps(4)
        .with_threads(2)
        .with_seed(2025)
        .with_cold_starts(10)
        .with_pipeline(
            PipelineConfig::default().with_platform(PlatformConfig::default().without_jitter()),
        );
    let json = run_catalog(config).to_json();
    assert!(json.contains("\"schema\":\"slimstart-fleet-report/v3\""));
    assert!(
        !json.contains("zygote"),
        "no zygote keys may leak when disabled"
    );
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fleet_report.json");
    let expected = fs::read_to_string(golden).expect("committed golden");
    assert_eq!(
        expected, json,
        "disabled zygotes must not move report bytes"
    );
}

#[test]
fn sharing_strictly_lowers_summed_baseline_cold_init() {
    // Table-3 direction at fleet granularity: resident modules acquired at
    // fork cost must pull every app's baseline cold init down. The light
    // fixtures share their library closure, so a single zygote per node
    // covers the whole population.
    let run_light = |zygote: Option<NodeZygotePool>| {
        let mut config = base_config(2).with_apps(12).with_cold_starts(5);
        if let Some(pool) = zygote {
            config = config.with_zygote_pool(pool);
        }
        let population = light_population(config.apps);
        let (report, _) = FleetOrchestrator::new(config)
            .run_population(&population)
            .expect("light fleet runs");
        report
    };
    let unshared = run_light(None);
    let shared = run_light(Some(NodeZygotePool::default_geometry()));
    let sum = |r: &FleetReport| -> f64 { r.detail.iter().map(|a| a.baseline_init_ms).sum() };
    assert!(
        sum(&shared) < sum(&unshared),
        "sharing must lower summed baseline cold init ({} >= {})",
        sum(&shared),
        sum(&unshared)
    );
}

/// One cell of the dependency-sharing grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SharingCell {
    /// Mean cold-start init latency across every app, microseconds.
    mean_cold_us: u64,
    /// p99 cold-start init latency, microseconds.
    p99_cold_us: u64,
    /// Cold starts that forked from a zygote (0 for unshared cells).
    forks: u64,
    /// Module loads acquired at fork cost (0 for unshared cells).
    forked_loads: u64,
}

/// Runs one cell of the sharing grid: every app gets its own platform
/// (snapshots and jitter off, so only load costs move the numbers),
/// optionally forking each cold start from its planned node zygote.
/// Returns the cell's aggregate cold-start latencies and fork counters.
fn sharing_cell(
    apps: &[(usize, Arc<Application>)],
    plan: Option<&ZygotePlan>,
    seed: u64,
    cold_starts: usize,
) -> SharingCell {
    let counters = Arc::new(ZygoteCounters::default());
    let mut cold_us: Vec<u64> = Vec::with_capacity(apps.len() * cold_starts);
    for &(index, ref app) in apps {
        let mut cfg = PlatformConfig::default()
            .without_jitter()
            .without_snapshots();
        if let Some(spec) = plan.and_then(|p| p.spec(index)) {
            cfg = cfg.with_zygote(Arc::new(ZygoteImage::for_app(
                app,
                &spec.ranked,
                spec.resident_prefix,
                plan.expect("spec implies plan").fork_cost(),
                Arc::clone(&counters),
            )));
        }
        let app_seed = seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut platform = Platform::new(Arc::clone(app), cfg, app_seed);
        let handler = app
            .handler_by_name("handler")
            .expect("catalog handler exists");
        let invocations: Vec<Invocation> = (0..cold_starts)
            .map(|k| Invocation {
                at: SimTime::from_millis(k as u64 * 11 * 60 * 1000),
                handler,
                seed: k as u64 + 1,
            })
            .collect();
        let records = platform
            .run(&invocations)
            .expect("sharing run is fault-free");
        cold_us.extend(
            records
                .iter()
                .filter(|r| r.cold)
                .map(|r| r.init_latency.as_micros()),
        );
    }
    cold_us.sort_unstable();
    let (mean_cold_us, p99_cold_us) = if cold_us.is_empty() {
        (0, 0)
    } else {
        (
            cold_us.iter().sum::<u64>() / cold_us.len() as u64,
            cold_us[(cold_us.len() - 1) * 99 / 100],
        )
    };
    SharingCell {
        mean_cold_us,
        p99_cold_us,
        forks: counters.forks(),
        forked_loads: counters.forked_loads(),
    }
}

#[test]
fn dependency_sharing_grid_shows_combined_wins() {
    // Each catalog app is built once and pushed through the full pipeline
    // once: its shipped deployment is the "deferral" variant, its
    // unoptimized input the "baseline". A node zygote plan is drawn over
    // the baseline population, then every variant's cold starts are
    // measured with and without forking.
    let (seed, cold_starts) = (2025, 6);
    let population = fleet_population(8);
    let mut baseline_owned: Vec<(usize, Application)> = Vec::with_capacity(population.len());
    let mut deferral: Vec<(usize, Arc<Application>)> = Vec::with_capacity(population.len());
    for (i, entry) in population.iter().enumerate() {
        let app_seed = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let built = entry.build(app_seed).expect("catalog app builds");
        let pipeline_cfg = PipelineConfig::default()
            .with_seed(app_seed)
            .with_cold_starts(10)
            .with_platform(PlatformConfig::default().without_jitter());
        let outcome = Pipeline::new(pipeline_cfg)
            .run(&built.app, &entry.workload_weights())
            .expect("pipeline run succeeds");
        deferral.push((i, outcome.final_app));
        baseline_owned.push((i, built.app));
    }
    let plan = NodeZygotePool::default_geometry().plan(&baseline_owned);
    let baseline: Vec<(usize, Arc<Application>)> = baseline_owned
        .into_iter()
        .map(|(i, app)| (i, Arc::new(app)))
        .collect();

    let baseline_cell = sharing_cell(&baseline, None, seed, cold_starts);
    let deferral_cell = sharing_cell(&deferral, None, seed, cold_starts);
    let sharing = sharing_cell(&baseline, Some(&plan), seed, cold_starts);
    let both = sharing_cell(&deferral, Some(&plan), seed, cold_starts);

    assert!(sharing.forks > 0, "shared cells fork: {sharing:?}");
    assert!(sharing.forked_loads > 0, "resident modules acquired");
    assert_eq!(baseline_cell.forks, 0);
    assert_eq!(deferral_cell.forks, 0);
    assert!(deferral_cell.mean_cold_us <= baseline_cell.mean_cold_us);
    assert!(
        sharing.mean_cold_us < baseline_cell.mean_cold_us,
        "sharing alone must beat baseline: {sharing:?} vs {baseline_cell:?}"
    );
    assert!(
        both.mean_cold_us < deferral_cell.mean_cold_us
            && both.p99_cold_us < deferral_cell.p99_cold_us,
        "sharing+deferral must strictly beat deferral alone: {both:?} vs {deferral_cell:?}"
    );
    // Both extremes reproduce under the same seed.
    assert_eq!(
        sharing_cell(&baseline, None, seed, cold_starts),
        baseline_cell
    );
    assert_eq!(
        sharing_cell(&deferral, Some(&plan), seed, cold_starts),
        both
    );
}
