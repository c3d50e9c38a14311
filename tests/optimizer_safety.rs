//! Optimizer safety: the transformation must preserve observable behaviour.
//!
//! "Observable behaviour" in the model is: the same handler invocations,
//! with the same payload seeds, perform the same compute work and never
//! fault — only *when* modules load may change. These tests drive baseline
//! and optimized deployments with identical invocation streams and compare.

mod common;

use std::sync::Arc;

use slimstart::appmodel::catalog::{by_code, catalog};
use slimstart::core::pipeline::{Pipeline, PipelineConfig};
use slimstart::platform::platform::{Platform, PlatformConfig};
use slimstart::pyrt::RuntimeFault;
use slimstart::simcore::time::SimDuration;
use slimstart::workload::generator::generate;
use slimstart::workload::spec::WorkloadSpec;

use common::ReferencePackageTree;

fn jitterless(cold_starts: usize) -> PipelineConfig {
    PipelineConfig::default()
        .with_cold_starts(cold_starts)
        .with_platform(PlatformConfig::default().without_jitter())
}

/// Pure compute time of an invocation: execution minus deferred loading.
fn work_ms(r: &slimstart::platform::invocation::InvocationRecord) -> f64 {
    (r.exec_latency - r.deferred_load_time).as_millis_f64()
}

#[test]
fn optimized_app_performs_identical_work() {
    for code in ["R-GB", "R-SA", "CVE", "FL-SA"] {
        let entry = by_code(code).expect("exists");
        let built = entry.build(21).expect("builds");
        let out = Pipeline::new(jitterless(50))
            .run(&built.app, &entry.workload_weights())
            .expect("pipeline runs");
        assert!(out.optimized_anything(), "{code} should optimize");

        // Re-run both versions on one identical stream, including the rare
        // handlers (weights that exercise every entry point).
        let mut mix = entry.workload_weights();
        for w in &mut mix {
            if w.1 == 0.0 {
                w.1 = 0.2; // push traffic through the workload-dead handler
            }
        }
        let spec = WorkloadSpec::cold_starts_with_mix(&mix, 60);
        let invs = generate(&spec, &built.app, 77).expect("workload");

        let mut base = Platform::new(
            Arc::new(built.app.clone()),
            PlatformConfig::default().without_jitter(),
            1,
        );
        let base_records = base.run(&invs).expect("baseline never faults").to_vec();

        let mut opt = Platform::new(
            Arc::clone(&out.final_app),
            PlatformConfig::default().without_jitter(),
            1,
        );
        let opt_records = opt.run(&invs).expect("optimized must never fault").to_vec();

        assert_eq!(base_records.len(), opt_records.len());
        for (b, o) in base_records.iter().zip(&opt_records) {
            assert_eq!(b.handler, o.handler);
            let diff = (work_ms(b) - work_ms(o)).abs();
            assert!(
                diff < 1e-6,
                "{code}: work changed for an invocation: {} vs {}",
                work_ms(b),
                work_ms(o)
            );
        }
    }
}

#[test]
fn deferred_modules_load_exactly_once_per_container() {
    let entry = by_code("CVE").expect("exists");
    let built = entry.build(5).expect("builds");
    let out = Pipeline::new(jitterless(50))
        .run(&built.app, &entry.workload_weights())
        .expect("runs");

    // Warm stream against one container: the rare path fires repeatedly but
    // xmlschema loads once.
    let app = Arc::clone(&out.final_app);
    let mut process = slimstart::pyrt::process::Process::new(Arc::clone(&app), 1.0);
    let handler_mod = app.module_by_name("handler").expect("handler");
    process.cold_start(handler_mod).expect("no fault");
    let xml = app.module_by_name("xmlschema").expect("xmlschema");
    assert!(
        !process.is_loaded(xml),
        "deferred module must not load eagerly"
    );

    let handler = app.handler_by_name("handler").expect("handler");
    let mut first_load_seen = false;
    for seed in 0..3_000u64 {
        let mut rng = slimstart::simcore::rng::SimRng::seed_from(seed);
        process.invoke(handler, &mut rng).expect("no fault");
        if process.is_loaded(xml) {
            first_load_seen = true;
            break;
        }
    }
    assert!(
        first_load_seen,
        "the 0.8% branch should fire within 3000 tries"
    );
    let loads_before = process.load_events().len();
    for seed in 10_000..10_500u64 {
        let mut rng = slimstart::simcore::rng::SimRng::seed_from(seed);
        process.invoke(handler, &mut rng).expect("no fault");
    }
    assert_eq!(
        process.load_events().len(),
        loads_before,
        "module cache must prevent re-loading"
    );
}

#[test]
fn over_aggressive_stripping_faults_loudly() {
    // Contrast: if a (hypothetical, buggy) optimizer *strips* a
    // workload-dead package instead of deferring it, invoking the admin
    // handler faults — which is why FaaSLight must stay conservative and
    // why SlimStart defers instead of deleting.
    let entry = by_code("R-GB").expect("exists");
    let built = entry.build(5).expect("builds");
    let mut broken = built.app.clone();
    let tree = ReferencePackageTree::of(&broken);
    for m in tree.modules_under("igraph.drawing") {
        broken.module_mut(m).set_stripped(true);
    }
    let broken = Arc::new(broken);

    let mut process = slimstart::pyrt::process::Process::new(Arc::clone(&broken), 1.0);
    let handler_mod = broken.module_by_name("handler").expect("handler");
    process.cold_start(handler_mod).expect("cold start is fine");
    let admin = broken.handler_by_name("admin").expect("admin");
    let err = process
        .invoke(admin, &mut slimstart::simcore::rng::SimRng::seed_from(1))
        .expect_err("calling into a stripped package must fault");
    assert!(matches!(err, RuntimeFault::StrippedModuleCall { .. }));
}

#[test]
fn optimization_does_not_regress_any_gated_app() {
    // Broad sweep: optimized e2e must never be slower than baseline (mean).
    for entry in catalog().into_iter().filter(|e| e.above_gate()) {
        let built = entry.build(31).expect("builds");
        let out = Pipeline::new(jitterless(20))
            .run(&built.app, &entry.workload_weights())
            .expect("runs");
        assert!(
            out.speedup.e2e >= 0.999,
            "{}: optimization regressed e2e ({:.3}x)",
            entry.code,
            out.speedup.e2e
        );
        assert!(
            out.speedup.init >= 0.999,
            "{}: optimization regressed init ({:.3}x)",
            entry.code,
            out.speedup.init
        );
    }
}

#[test]
fn side_effectful_modules_always_load_eagerly_after_optimization() {
    for code in ["R-GB", "FL-SA", "FL-SN"] {
        let entry = by_code(code).expect("exists");
        let built = entry.build(17).expect("builds");
        let out = Pipeline::new(jitterless(40))
            .run(&built.app, &entry.workload_weights())
            .expect("runs");
        let app = Arc::clone(&out.final_app);
        let mut process = slimstart::pyrt::process::Process::new(Arc::clone(&app), 1.0);
        let handler_mod = app.module_by_name("handler").expect("handler");
        process.cold_start(handler_mod).expect("no fault");
        for (i, module) in app.modules().iter().enumerate() {
            if module.side_effectful() {
                assert!(
                    process.is_loaded(slimstart::appmodel::ModuleId::from_index(i)),
                    "{code}: side-effectful {} must load at cold start",
                    module.name()
                );
            }
        }
    }
}

#[test]
fn double_optimization_is_idempotent() {
    let entry = by_code("R-GB").expect("exists");
    let built = entry.build(23).expect("builds");
    let pipeline = Pipeline::new(jitterless(40));
    let first = pipeline
        .run(&built.app, &entry.workload_weights())
        .expect("runs");
    // Run the pipeline again on the already-optimized app: nothing new to
    // defer, so it must not change the app further (flagged packages no
    // longer appear in the eager cold path).
    let second = pipeline
        .run(&first.final_app, &entry.workload_weights())
        .expect("runs");
    let newly_deferred = second
        .optimization
        .as_ref()
        .map(|o| o.edits.len())
        .unwrap_or(0);
    assert_eq!(newly_deferred, 0, "re-optimization must be a fixpoint");
    // And performance holds steady.
    assert!((second.speedup.e2e - 1.0).abs() < 0.02);
    let _ = SimDuration::ZERO;
}
