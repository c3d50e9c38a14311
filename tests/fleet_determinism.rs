//! Fleet-orchestrator determinism: the serialized [`FleetReport`] must be
//! byte-identical regardless of worker-pool size, because per-app RNG
//! streams are split from the experiment seed sequentially before any
//! worker starts (workers claiming chunks decide *when* an app runs,
//! never *with which randomness*), and every fold and merge of the
//! aggregation is order-free.
//!
//! Covers the small-catalog contract, a 2k-app scale-out cell swept over
//! 1/2/4/8 threads (chaos on and off), a seeded property sweep proving
//! that random worker counts, chunk sizes, and artificial per-app delays
//! can never change which seed an app receives, and the error contract:
//! the lowest-index failure is returned whatever the scheduling.

use std::sync::Arc;
use std::time::Duration;

use slimstart::appmodel::catalog::light_population;
use slimstart::fleet::report::seed_digest_term;
use slimstart::fleet::{FleetConfig, FleetError, FleetOrchestrator, FleetReport, StallHook};
use slimstart::platform::chaos::ChaosConfig;
use slimstart::platform::PlatformConfig;
use slimstart::simcore::SimRng;
use slimstart_core::pipeline::PipelineConfig;

fn run(threads: usize) -> FleetReport {
    let config = FleetConfig::default()
        .with_apps(6)
        .with_threads(threads)
        .with_seed(2025)
        .with_cold_starts(10)
        .with_pipeline(
            PipelineConfig::default().with_platform(PlatformConfig::default().without_jitter()),
        );
    let (report, stats) = FleetOrchestrator::new(config).run().expect("fleet runs");
    assert!(stats.threads <= threads.max(1));
    report
}

fn run_chaotic(threads: usize) -> FleetReport {
    // The `slimstart chaos --fault-rate 0.2` configuration from the CLI
    // contract, shrunk to a test-sized fleet. Five apps keeps the chaotic
    // fleet on the small catalog entries (profile-upload retries re-run
    // the profiling deployment, which is expensive on the FaaSLight apps).
    let config = FleetConfig::default()
        .with_apps(5)
        .with_threads(threads)
        .with_seed(2025)
        .with_cold_starts(10)
        .with_chaos(ChaosConfig::uniform(0.2))
        .with_pipeline(
            PipelineConfig::default().with_platform(PlatformConfig::default().without_jitter()),
        );
    let (report, _) = FleetOrchestrator::new(config).run().expect("fleet runs");
    report
}

#[test]
fn one_thread_and_eight_threads_emit_byte_identical_json() {
    let sequential = run(1);
    let parallel = run(8);
    assert_eq!(
        sequential.to_json(),
        parallel.to_json(),
        "FleetReport JSON must not depend on worker count"
    );
}

#[test]
fn chaotic_fleet_json_is_byte_identical_across_worker_counts() {
    // Fault injection draws from dedicated per-app chaos streams that are
    // split up front, exactly like the main seeds — so a 20 % fault rate
    // must not reintroduce any thread-count dependence.
    let sequential = run_chaotic(1);
    let parallel = run_chaotic(8);
    let json = sequential.to_json();
    assert_eq!(
        json,
        parallel.to_json(),
        "chaotic FleetReport JSON must not depend on worker count"
    );
    assert!(json.contains("\"chaos\""), "chaos summary must be present");
}

#[test]
fn chaos_free_reports_never_mention_chaos() {
    // The passthrough contract: with chaos disabled the serialized report
    // carries no trace of the fault-injection subsystem.
    assert!(!run(2).to_json().contains("chaos"));
}

#[test]
fn report_rows_follow_population_order() {
    let report = run(4);
    let codes: Vec<&str> = report.detail.iter().map(|a| a.code.as_str()).collect();
    let expected: Vec<&str> = slimstart::appmodel::catalog::fleet_population(6)
        .iter()
        .map(|e| e.code)
        .collect();
    assert_eq!(codes, expected);
    for (i, app) in report.detail.iter().enumerate() {
        assert_eq!(app.index, i);
    }
}

#[test]
fn different_seeds_change_per_app_streams() {
    let base = run(2);
    let config = FleetConfig::default()
        .with_apps(6)
        .with_threads(2)
        .with_seed(31)
        .with_cold_starts(10)
        .with_pipeline(
            PipelineConfig::default().with_platform(PlatformConfig::default().without_jitter()),
        );
    let (other, _) = FleetOrchestrator::new(config).run().expect("fleet runs");
    let base_seeds: Vec<u64> = base.detail.iter().map(|a| a.seed).collect();
    let other_seeds: Vec<u64> = other.detail.iter().map(|a| a.seed).collect();
    assert_ne!(base_seeds, other_seeds);
    assert_ne!(base.seed_digest, other.seed_digest);
}

#[test]
fn honors_runs_averaging_in_the_fleet_path() {
    // SLIMSTART_RUNS semantics: `runs` in the config is what the bench
    // runner wires the env var to; the report must carry it and the
    // averaged speedups must stay plausible.
    let config = FleetConfig::default()
        .with_apps(2)
        .with_threads(2)
        .with_seed(7)
        .with_cold_starts(10)
        .with_runs(3)
        .with_pipeline(
            PipelineConfig::default().with_platform(PlatformConfig::default().without_jitter()),
        );
    let (report, _) = FleetOrchestrator::new(config).run().expect("fleet runs");
    assert_eq!(report.runs, 3);
    assert!(report.to_json().contains("\"runs\":3"));
    for app in &report.detail {
        assert!(
            app.speedup.init >= 0.9,
            "{}: {}",
            app.code,
            app.speedup.init
        );
    }
}

/// A 2k-app scale-out configuration over the lightweight fixture
/// population — big enough that the detail window truncates, workers
/// claim across dozens of chunks, and the streaming aggregator carries
/// real load, while staying fast in debug builds.
fn scale_config(threads: usize) -> FleetConfig {
    FleetConfig::default()
        .with_apps(2000)
        .with_threads(threads)
        .with_seed(2025)
        .with_cold_starts(2)
        .with_pipeline(
            PipelineConfig::default().with_platform(PlatformConfig::default().without_jitter()),
        )
}

fn scale_run(config: FleetConfig) -> (FleetReport, slimstart::fleet::FleetRunStats) {
    let population = light_population(config.apps);
    FleetOrchestrator::new(config)
        .run_population(&population)
        .expect("scale fleet runs")
}

#[test]
fn two_thousand_apps_are_byte_identical_across_1_2_4_8_threads() {
    let (baseline, stats) = scale_run(scale_config(1));
    let json = baseline.to_json();
    assert_eq!(baseline.fleet_size, 2000);
    assert!(
        baseline.detail_truncated,
        "2k apps must truncate the detail window"
    );
    assert_eq!(baseline.detail.len(), 32);
    assert_eq!(stats.threads, 1);
    for threads in [2, 4, 8] {
        let (report, stats) = scale_run(scale_config(threads));
        assert_eq!(
            json,
            report.to_json(),
            "report bytes moved between 1 and {threads} threads"
        );
        assert_eq!(stats.threads, threads);
        // The streaming path is constant-memory: the aggregation state
        // (one partial of fixed histograms per worker + 32 detail rows)
        // stays far below what 2000 retained rows would cost.
        assert!(
            stats.aggregate_peak_bytes < 256 * 1024,
            "peak aggregate {} B is not constant-memory",
            stats.aggregate_peak_bytes
        );
    }
    // Repeated run at the same thread count: byte-identical again.
    let (again, _) = scale_run(scale_config(4));
    assert_eq!(json, again.to_json());
}

#[test]
fn two_thousand_app_chaos_cell_is_byte_identical_across_worker_counts() {
    let chaotic = |threads: usize| {
        let (report, _) = scale_run(scale_config(threads).with_chaos(ChaosConfig::uniform(0.2)));
        report
    };
    let sequential = chaotic(1);
    let parallel = chaotic(8);
    let json = sequential.to_json();
    assert_eq!(json, parallel.to_json());
    assert!(json.contains("\"chaos\""), "chaos summary must be present");
    assert!(sequential.chaos.expect("chaos summary").faulted > 0);
}

#[test]
fn random_worker_counts_and_delays_never_change_seed_assignment() {
    // The scheduling property: `split_seed` assignment is a pure function
    // of the population index. Whatever the scheduler does — however many
    // workers race, however lopsided the chunking, however adversarial
    // the per-app delays injected through the stall hook — every app must
    // receive exactly the seed a sequential split hands it.
    let apps = 97; // odd size: the last chunk is always partial
    let expected: Vec<u64> = {
        let mut root = SimRng::seed_from(2025);
        (0..apps).map(|_| root.split_seed()).collect()
    };
    let expected_digest = expected
        .iter()
        .enumerate()
        .fold(0u64, |d, (i, &s)| d ^ seed_digest_term(i, s));

    let population = light_population(apps);
    let mut sweep_rng = SimRng::seed_from(0x5EED_51FE);
    let mut baseline_json: Option<String> = None;
    for trial in 0..4u64 {
        let threads = 1 + sweep_rng.next_below(8);
        let chunk = 1 + sweep_rng.next_below(9);
        // Deterministically lumpy per-app delays: some apps stall, some
        // do not, shifting completion order between configurations.
        let stall: StallHook =
            Arc::new(move |i| Duration::from_micros(((i as u64 * 37 + trial * 11) % 4) * 150));
        let config = scale_config(threads)
            .with_apps(apps)
            .with_chunk(chunk)
            .with_stall_hook(stall);
        let (report, _) = FleetOrchestrator::new(config)
            .run_population(&population)
            .expect("property fleet runs");
        assert_eq!(
            report.seed_digest, expected_digest,
            "trial {trial} (threads {threads}, chunk {chunk}) perturbed seed assignment"
        );
        let detail_seeds: Vec<u64> = report.detail.iter().map(|a| a.seed).collect();
        assert_eq!(detail_seeds, expected[..report.detail.len()]);
        let json = report.to_json();
        match &baseline_json {
            None => baseline_json = Some(json),
            Some(baseline) => assert_eq!(baseline, &json, "trial {trial} moved report bytes"),
        }
    }
}

#[test]
fn the_lowest_index_failure_is_returned_at_any_thread_count_and_chunk() {
    // Two blueprints broken through their pub fields (a module budget
    // below the synthesizer's minimum), in different chunks at every chunk
    // size below. The lower one stalls before it runs, so with several
    // workers the higher failure is usually hit first; the lower index's
    // error must still be the one returned.
    let apps = 70;
    let mut population = light_population(apps);
    for (index, code) in [(5, "BROKEN-5"), (40, "BROKEN-40")] {
        population[index].n_modules = 1;
        population[index].code = code;
    }
    let stall: StallHook = Arc::new(|i| {
        if i == 5 {
            Duration::from_millis(20)
        } else {
            Duration::ZERO
        }
    });
    for threads in [1, 2, 4] {
        for chunk in [1, 3, 32] {
            let config = scale_config(threads)
                .with_apps(apps)
                .with_chunk(chunk)
                .with_stall_hook(Arc::clone(&stall));
            match FleetOrchestrator::new(config).run_population(&population) {
                Err(FleetError::Build { code, message }) => {
                    assert_eq!(code, "BROKEN-5", "threads {threads}, chunk {chunk}");
                    assert!(message.contains("module budget too small"), "{message}");
                }
                other => panic!("threads {threads}, chunk {chunk}: expected BROKEN-5's build error, got {other:?}"),
            }
        }
    }
}
