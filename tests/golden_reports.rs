//! Golden-file conformance for every serialized report surface.
//!
//! With chaos disabled, nothing in this PR-stream may perturb a single
//! byte of the paper-facing artifacts: the fleet text table (Table 2
//! style), the FaaSLight comparison outcome (Table 3 style), the fleet
//! JSON (plain, and under each node-pool snapshot restore shape), the
//! per-app pipeline JSON (R-GB, and FWB-CML, whose detector findings tie
//! on init time) and the `slimstart lint --json` report of R-GB. Each test
//! renders the artifact at a pinned
//! (seed, cold-starts) configuration and diffs it against a committed
//! golden under `tests/golden/`.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! SLIMSTART_BLESS=1 cargo test --test golden_reports
//! ```
//!
//! and review the resulting diff like any other code change.

use std::fs;
use std::path::PathBuf;

use slimstart::analyzer::{Analyzer, AntipatternConfig, RuntimeProfile};
use slimstart::appmodel::catalog::by_code;
use slimstart::core::export::outcome_to_json;
use slimstart::core::pipeline::{Pipeline, PipelineConfig, PipelineOutcome};
use slimstart::core::stage::StageEngine;
use slimstart::fleet::{
    FleetConfig, FleetOrchestrator, FleetReport, NodeSnapshotPool, NodeZygotePool,
};
use slimstart::platform::chaos::ChaosConfig;
use slimstart::platform::PlatformConfig;
use slimstart::pyrt::zygote::DEFAULT_FORK_COST;
use slimstart::simcore::time::SimDuration;
use slimstart::stages::StripStage;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Diffs `actual` against the committed golden, or rewrites the golden
/// when `SLIMSTART_BLESS=1` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("SLIMSTART_BLESS").as_deref() == Ok("1") {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden `{name}` — regenerate with \
             SLIMSTART_BLESS=1 cargo test --test golden_reports"
        )
    });
    assert_eq!(
        expected, actual,
        "`{name}` drifted from its golden; if the change is intentional, \
         re-bless with SLIMSTART_BLESS=1 and review the diff"
    );
}

fn pinned_pipeline_config(seed: u64) -> PipelineConfig {
    PipelineConfig::default()
        .with_cold_starts(25)
        .with_platform(PlatformConfig::default().without_jitter())
        .with_seed(seed)
}

fn run_rgb(config: PipelineConfig) -> PipelineOutcome {
    let entry = by_code("R-GB").expect("catalog entry");
    let built = entry.build(2025).expect("builds");
    Pipeline::new(config)
        .run(&built.app, &entry.workload_weights())
        .expect("pipeline runs")
}

#[test]
fn fleet_text_table_matches_golden() {
    // Table 2 style: the per-app fleet summary table.
    let config = FleetConfig::default()
        .with_apps(3)
        .with_threads(2)
        .with_seed(2025)
        .with_cold_starts(25)
        .with_pipeline(
            PipelineConfig::default().with_platform(PlatformConfig::default().without_jitter()),
        );
    let (report, _) = FleetOrchestrator::new(config).run().expect("fleet runs");
    check_golden("table2_fleet.txt", &report.render_text());
}

#[test]
fn fleet_json_matches_golden() {
    let config = FleetConfig::default()
        .with_apps(4)
        .with_threads(2)
        .with_seed(2025)
        .with_cold_starts(10)
        .with_pipeline(
            PipelineConfig::default().with_platform(PlatformConfig::default().without_jitter()),
        );
    let (report, _) = FleetOrchestrator::new(config).run().expect("fleet runs");
    check_golden("fleet_report.json", &report.to_json());
}

/// Runs 4 apps × 10 cold starts at seed 2025 on the default (jittered)
/// platform under `config`'s node pools. The three cells below pin one
/// snapshot restore shape each, so every restore path is byte-pinned, not
/// only the full-stream replay the unpooled goldens exercise.
fn node_pool_report(config: FleetConfig) -> FleetReport {
    let config = config
        .with_apps(4)
        .with_threads(2)
        .with_seed(2025)
        .with_cold_starts(10);
    FleetOrchestrator::new(config).run().expect("fleet runs").0
}

#[test]
fn zygote_full_restore_fleet_json_matches_golden() {
    // A zygote pool alone keeps the default full-stream snapshot store:
    // cold starts fork, and hits restore the whole capture under the
    // zygote's fork-cost substitution.
    let report = node_pool_report(FleetConfig::default().with_zygote_pool(NodeZygotePool::new(
        2,
        4,
        DEFAULT_FORK_COST,
    )));
    let zygotes = report.zygotes.expect("zygote summary");
    assert!(zygotes.forks > 0 && zygotes.forked_loads > 0, "{zygotes:?}");
    check_golden("fleet_zygote_full_restore.json", &report.to_json());
}

#[test]
fn lazy_restore_fleet_json_matches_golden() {
    // A lazy snapshot pool alone: hits replay the recorded working set
    // and the omitted modules fault in at first use.
    let report = node_pool_report(
        FleetConfig::default().with_snapshot_pool(NodeSnapshotPool::new(None, 4, true)),
    );
    let snapshots = report.snapshots.expect("snapshot summary");
    assert!(
        snapshots.hits > 0 && snapshots.faulted_loads > 0,
        "{snapshots:?}"
    );
    check_golden("fleet_lazy_restore.json", &report.to_json());
}

#[test]
fn forked_lazy_restore_fleet_json_matches_golden() {
    // Both pools, with a fork cost high enough to keep cheap modules out
    // of the zygote: hits replay the working set plus the zygote-resident
    // modules, and the rest still fault.
    let report = node_pool_report(
        FleetConfig::default()
            .with_snapshot_pool(NodeSnapshotPool::new(None, 4, true))
            .with_zygote_pool(NodeZygotePool::new(2, 4, SimDuration::from_millis(5))),
    );
    let snapshots = report.snapshots.expect("snapshot summary");
    assert!(
        snapshots.hits > 0 && snapshots.faulted_loads > 0,
        "{snapshots:?}"
    );
    let zygotes = report.zygotes.expect("zygote summary");
    assert!(zygotes.forks > 0 && zygotes.forked_loads > 0, "{zygotes:?}");
    check_golden("fleet_forked_lazy_restore.json", &report.to_json());
}

#[test]
fn pipeline_outcome_json_matches_golden() {
    let outcome = run_rgb(pinned_pipeline_config(2025));
    check_golden("pipeline_rgb.json", &outcome_to_json(&outcome));
}

#[test]
fn tied_findings_pipeline_json_matches_golden() {
    // FWB-CML's detector findings `pkg_resources.xmlio` and
    // `pkg_resources.plugins` tie on init time, so the order the detector
    // visits sibling packages decides their order in the report.
    let entry = by_code("FWB-CML").expect("catalog entry");
    let built = entry.build(2025).expect("builds");
    let outcome = Pipeline::new(pinned_pipeline_config(2025))
        .run(&built.app, &entry.workload_weights())
        .expect("pipeline runs");
    check_golden("pipeline_fwb_cml.json", &outcome_to_json(&outcome));
}

#[test]
fn lint_json_matches_golden() {
    // What `slimstart lint R-GB --json --cold-starts 60` prints: one
    // profiling deployment, then all eleven passes under the python
    // runtime. The anti-pattern lints print package costs summed in f64,
    // so the order they add a package's members in is pinned here too.
    let entry = by_code("R-GB").expect("catalog entry");
    let built = entry.build(2025).expect("builds");
    let config = PipelineConfig::default()
        .with_cold_starts(60)
        .with_seed(2025);
    let observed = Pipeline::new(config)
        .profile_usage(&built.app, &entry.workload_weights())
        .expect("profiling runs")
        .to_observed();
    let lints = AntipatternConfig::default().with_runtime(RuntimeProfile::python());
    let report = Analyzer::with_antipattern_passes(lints).analyze(&built.app, Some(&observed));
    check_golden("lint_rgb.json", &format!("{}\n", report.render_json()));
}

#[test]
fn faaslight_comparison_outcome_matches_golden() {
    // Table 3 style: the same pipeline with FaaSLight's static strip pass
    // swapped in as the optimize stage.
    let entry = by_code("R-GB").expect("catalog entry");
    let built = entry.build(2025).expect("builds");
    let config = pinned_pipeline_config(2025);
    let engine = StageEngine::canonical(&config).replace("optimize", StripStage);
    let outcome = Pipeline::new(config)
        .run_with_engine(&engine, &built.app, &entry.workload_weights())
        .expect("strip pipeline runs");
    check_golden("table3_faaslight.json", &outcome_to_json(&outcome));
}

#[test]
fn disabled_chaos_is_byte_identical_to_no_chaos() {
    // The passthrough contract, proven at the serialization layer: a
    // pipeline built with an explicit all-zero chaos config produces the
    // same bytes as one that never heard of chaos — which is itself the
    // golden above.
    let plain = outcome_to_json(&run_rgb(pinned_pipeline_config(2025)));
    let zeroed = outcome_to_json(&run_rgb(
        pinned_pipeline_config(2025).with_chaos(ChaosConfig::DISABLED),
    ));
    let uniform_zero = outcome_to_json(&run_rgb(
        pinned_pipeline_config(2025).with_chaos(ChaosConfig::uniform(0.0)),
    ));
    assert_eq!(plain, zeroed);
    assert_eq!(plain, uniform_zero);
    assert!(!plain.contains("resilience"));
    check_golden("pipeline_rgb.json", &plain);
}
