//! Differential safety: the analyzer's deferral verifier against the
//! runtime.
//!
//! The central claim of the deferral-safety verifier is *behavioural*:
//! every deferral it accepts can be applied without changing observable
//! behaviour (no runtime fault, side-effectful modules still execute at
//! cold start), and the deferrals it rejects really would change
//! behaviour. These tests check both directions — accepted deferrals are
//! driven through the `pyrt` runtime on randomized synthetic applications,
//! and hand-seeded unsafe applications must be rejected with the right
//! lint id, by the verifier itself rather than the legacy per-finding
//! flag.

mod common;

use std::sync::Arc;

use slimstart::analyzer::{boundary_imports, verify_deferral, Analyzer, SafetyViolation, Severity};
use slimstart::appmodel::app::AppBuilder;
use slimstart::appmodel::function::{Stmt, StmtKind};
use slimstart::appmodel::synth::{
    build_app, AppBlueprint, HandlerBlueprint, LibraryBlueprint, SubpackageBlueprint, UseSpec,
};
use slimstart::appmodel::{Application, ImportMode, ModuleId};
use slimstart::core::detect::SkipReason;
use slimstart::core::optimizer::optimize;
use slimstart::pyrt::process::Process;
use slimstart::simcore::rng::SimRng;
use slimstart::simcore::time::SimDuration;

use common::ReferencePackageTree;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// A randomized two-library blueprint; each subpackage is independently
/// side-effectful, so some candidate deferrals are safe and some are not.
fn random_blueprint(seed: u64) -> AppBlueprint {
    let mut rng = SimRng::seed_from(seed ^ 0x5afe);
    let sub = |name: &str, share: f64, sfx: bool, api: usize| SubpackageBlueprint {
        name: name.to_string(),
        module_share: share,
        init_share: share,
        mem_share: share,
        side_effectful: sfx,
        api_functions: api,
        api_call_cost: ms(2),
    };
    let lib = |name: &str, modules: usize, subs: Vec<SubpackageBlueprint>| LibraryBlueprint {
        name: name.to_string(),
        modules,
        avg_depth: 2.5,
        init_total: ms(150),
        mem_total_kb: 4_000,
        subpackages: subs,
    };
    AppBlueprint {
        name: format!("safety-{seed}"),
        app_init: ms(1),
        app_mem_kb: 64,
        libraries: vec![
            lib(
                "alib",
                12 + rng.next_below(20),
                vec![
                    sub("hot", 0.5, rng.chance(0.3), 2),
                    sub("dead", 0.5, rng.chance(0.5), 1),
                ],
            ),
            lib(
                "blib",
                8 + rng.next_below(12),
                vec![
                    sub("used", 0.6, rng.chance(0.3), 1),
                    sub("rare", 0.4, rng.chance(0.5), 1),
                ],
            ),
        ],
        handlers: vec![
            HandlerBlueprint {
                name: "main".to_string(),
                local_work: ms(5),
                uses: vec![
                    UseSpec {
                        library: "alib".to_string(),
                        subpackage: "hot".to_string(),
                        api_index: 0,
                        calls: 2,
                        branch_probability: None,
                        indirect: false,
                    },
                    UseSpec {
                        library: "blib".to_string(),
                        subpackage: "used".to_string(),
                        api_index: 0,
                        calls: 1,
                        branch_probability: None,
                        indirect: false,
                    },
                ],
            },
            HandlerBlueprint {
                name: "admin".to_string(),
                local_work: ms(2),
                uses: vec![
                    UseSpec {
                        library: "alib".to_string(),
                        subpackage: "dead".to_string(),
                        api_index: 0,
                        calls: 1,
                        branch_probability: None,
                        indirect: false,
                    },
                    UseSpec {
                        library: "blib".to_string(),
                        subpackage: "rare".to_string(),
                        api_index: 0,
                        calls: 1,
                        branch_probability: Some(0.2),
                        indirect: false,
                    },
                ],
            },
        ],
    }
}

/// Applies one package deferral by flipping its boundary imports.
fn defer_package(app: &Application, package: &str) -> Application {
    let mut out = app.clone();
    for (importer, target, _line) in boundary_imports(app, package) {
        out.set_import_mode(importer, target, ImportMode::Deferred);
    }
    out
}

/// Drives cold start plus a burst of invocations on every handler.
fn drive(app: &Arc<Application>, seed: u64) -> Result<(), slimstart::pyrt::RuntimeFault> {
    let mut p = Process::new(Arc::clone(app), 1.0);
    let entry = app.module_by_name("handler").expect("handler module");
    p.cold_start(entry)?;
    // Every side-effectful module must have executed during cold start:
    // deferral may never postpone an observable side effect.
    for (i, module) in app.modules().iter().enumerate() {
        if module.side_effectful() {
            assert!(
                p.is_loaded(ModuleId::from_index(i)),
                "side-effectful {} not loaded at cold start",
                module.name()
            );
        }
    }
    let mut rng = SimRng::seed_from(seed);
    for handler in app.handlers() {
        let h = app
            .handler_by_name(handler.name())
            .expect("handler by name");
        for _ in 0..25 {
            p.invoke(h, &mut rng)?;
        }
    }
    Ok(())
}

#[test]
fn accepted_deferrals_never_fault_on_random_apps() {
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for seed in 0..60u64 {
        let built = build_app(&random_blueprint(seed), seed).expect("blueprint builds");
        let app = built.app;
        // Candidate packages: every library package node in the tree.
        let tree = ReferencePackageTree::of(&app);
        let candidates: Vec<String> = tree
            .iter()
            .map(|n| n.path.clone())
            .filter(|p| !p.starts_with("handler"))
            .collect();
        for package in candidates {
            match verify_deferral(&app, &package) {
                Ok(()) => {
                    if boundary_imports(&app, &package).is_empty() {
                        continue; // vacuously safe, nothing to flip
                    }
                    accepted += 1;
                    let deferred = Arc::new(defer_package(&app, &package));
                    drive(&deferred, seed * 31 + 7).unwrap_or_else(|fault| {
                        panic!(
                            "seed {seed}: verifier accepted `{package}` but runtime \
                             faulted: {fault}"
                        )
                    });
                }
                Err(_) => rejected += 1,
            }
        }
    }
    // The property must not hold vacuously: the random fleet has to
    // exercise both verdicts.
    assert!(accepted >= 20, "only {accepted} deferrals accepted");
    assert!(rejected >= 20, "only {rejected} deferrals rejected");
}

/// The side-effectful modules that cold starts of every handler's module
/// load, each on a fresh process.
fn side_effects_at_cold_start(app: &Arc<Application>) -> Vec<ModuleId> {
    let mut loaded = vec![false; app.modules().len()];
    for handler in app.handlers() {
        let mut p = Process::new(Arc::clone(app), 1.0);
        p.cold_start(app.function(handler.function()).module())
            .expect("cold start");
        for (i, flag) in loaded.iter_mut().enumerate() {
            *flag |= p.is_loaded(ModuleId::from_index(i));
        }
    }
    (0..app.modules().len())
        .map(ModuleId::from_index)
        .filter(|m| loaded[m.index()] && app.module(*m).side_effectful())
        .collect()
}

#[test]
fn accepted_deferrals_keep_cold_start_side_effects_on_apps_with_gaps() {
    // Random apps whose dotted names skip intermediate packages: the
    // runtime still loads every existing ancestor, so an accepted deferral
    // must not drop a side-effectful module from any cold start's load set.
    let mut accepted = 0usize;
    let mut accepted_gaps = 0usize;
    for seed in 0..200u64 {
        let app = Arc::new(common::random_app(seed));
        let before = side_effects_at_cold_start(&app);
        for node in ReferencePackageTree::of(&app).iter() {
            let package = &node.path;
            if verify_deferral(&app, package).is_err() || boundary_imports(&app, package).is_empty()
            {
                continue;
            }
            accepted += 1;
            if app.module_by_name(package).is_none() {
                accepted_gaps += 1;
            }
            let deferred = Arc::new(defer_package(&app, package));
            assert_eq!(
                side_effects_at_cold_start(&deferred),
                before,
                "seed {seed}: deferring `{package}` changed the side effects run at cold start"
            );
        }
    }
    assert!(accepted >= 200, "only {accepted} deferrals accepted");
    assert!(
        accepted_gaps >= 20,
        "only {accepted_gaps} accepted deferrals of packages without a module"
    );
}

#[test]
fn stacking_all_accepted_deferrals_is_still_safe() {
    // Deferrals compose: applying every accepted package at once (the way
    // the optimizer does) must stay fault-free too.
    for seed in 0..20u64 {
        let built = build_app(&random_blueprint(seed), seed).expect("blueprint builds");
        let mut app = built.app;
        let tree = ReferencePackageTree::of(&app);
        let candidates: Vec<String> = tree.iter().map(|n| n.path.clone()).collect();
        for package in candidates {
            // Re-verify against the partially rewritten app each time.
            if verify_deferral(&app, &package).is_ok() {
                app = defer_package(&app, &package);
            }
        }
        drive(&Arc::new(app), seed ^ 0xdead).expect("stacked deferrals must not fault");
    }
}

/// handler imports lib.sub directly; the side-effectful lib root loads only
/// implicitly as lib.sub's parent. A subtree-only side-effect check calls
/// this safe; the runtime disagrees.
fn implicit_parent_app() -> Application {
    let mut b = AppBuilder::new("t");
    let lib = b.add_library("lib");
    let h = b.add_app_module("handler", ms(1), 0);
    let _root = b.add_library_module("lib", ms(5), 0, true, lib);
    let sub = b.add_library_module("lib.sub", ms(2), 0, false, lib);
    b.add_import(h, sub, 2, ImportMode::Global).unwrap();
    let f = b.add_function("main", h, 4, vec![]);
    b.add_handler("main", f);
    b.finish().unwrap()
}

#[test]
fn parent_side_effects_rejected_by_verifier_not_legacy_flag() {
    let app = implicit_parent_app();

    // The legacy check — "any side-effectful module under the package?" —
    // accepts lib.sub, since its subtree is clean.
    let tree = ReferencePackageTree::of(&app);
    assert!(
        tree.modules_under("lib.sub")
            .into_iter()
            .all(|m| !app.module(m).side_effectful()),
        "precondition: the subtree itself must look clean to the legacy check"
    );

    // The verifier sees through it.
    let err = verify_deferral(&app, "lib.sub").unwrap_err();
    assert_eq!(err.lint_id(), "deferral-parent-side-effects");
    assert!(matches!(err, SafetyViolation::ParentSideEffects { .. }));

    // And the optimizer refuses on the verifier's verdict even when the
    // report claims the finding is deferrable.
    let report = slimstart::core::detect::InefficiencyReport {
        app_name: "t".into(),
        gate_passed: true,
        total_init: ms(8),
        e2e_mean: ms(10),
        init_share: 0.8,
        libraries: vec![],
        findings: vec![slimstart::core::detect::Finding {
            package: "lib.sub".into(),
            library: slimstart::appmodel::LibraryId::from_index(0),
            class: slimstart::core::detect::UsageClass::Unused,
            utilization: 0.0,
            init_time: ms(2),
            init_fraction: 0.2,
            deferrable: true, // the (wrong) legacy verdict
            skip_reason: None,
        }],
    };
    let out = optimize(&app, &report);
    assert!(out.edits.is_empty());
    assert_eq!(
        out.skipped,
        vec![("lib.sub".to_string(), SkipReason::ParentSideEffects)]
    );

    // Differential witness: applying the deferral anyway visibly postpones
    // the parent's side effect past cold start.
    let broken = Arc::new(defer_package(&app, "lib.sub"));
    let mut p = Process::new(Arc::clone(&broken), 1.0);
    let entry = broken.module_by_name("handler").unwrap();
    p.cold_start(entry).unwrap();
    let root = broken.module_by_name("lib").unwrap();
    assert!(
        !p.is_loaded(root),
        "the deferral the verifier rejected really does skip the \
         side-effectful parent at cold start"
    );
}

#[test]
fn sfx_subtree_rejected_and_skipping_it_keeps_runtime_equivalent() {
    let mut b = AppBuilder::new("t");
    let lib = b.add_library("lib");
    let h = b.add_app_module("handler", ms(1), 0);
    let root = b.add_library_module("lib", ms(5), 0, false, lib);
    let noisy = b.add_library_module("lib.noisy", ms(3), 0, true, lib);
    b.add_import(h, root, 2, ImportMode::Global).unwrap();
    b.add_import(root, noisy, 1, ImportMode::Global).unwrap();
    let f = b.add_function("main", h, 4, vec![]);
    b.add_handler("main", f);
    let app = b.finish().unwrap();

    let err = verify_deferral(&app, "lib.noisy").unwrap_err();
    assert_eq!(err.lint_id(), "deferral-side-effects");

    // Differential witness again: the rejected deferral postpones the side
    // effect; keeping the import eager does not.
    let broken = Arc::new(defer_package(&app, "lib.noisy"));
    let mut p = Process::new(Arc::clone(&broken), 1.0);
    p.cold_start(broken.module_by_name("handler").unwrap())
        .unwrap();
    assert!(!p.is_loaded(broken.module_by_name("lib.noisy").unwrap()));
}

#[test]
fn import_time_touch_rejected_with_lint_id() {
    let mut b = AppBuilder::new("t");
    let lib = b.add_library("lib");
    let h = b.add_app_module("handler", ms(1), 0);
    let root = b.add_library_module("lib", ms(2), 0, false, lib);
    b.add_import(h, root, 2, ImportMode::Global).unwrap();
    let f_lib = b.add_function("api", root, 3, vec![]);
    // main touches lib (attribute access) on line 5 *before* the first
    // call on line 6 — after deferral that touch would hit an unbound name.
    let f = b.add_function(
        "main",
        h,
        4,
        vec![
            Stmt {
                line: 5,
                kind: StmtKind::Touch(root),
            },
            Stmt {
                line: 6,
                kind: StmtKind::call(f_lib),
            },
        ],
    );
    b.add_handler("main", f);
    let app = b.finish().unwrap();

    let err = verify_deferral(&app, "lib").unwrap_err();
    assert_eq!(err.lint_id(), "deferral-touch-before-call");
    match err {
        SafetyViolation::ImportTimeTouch { line, .. } => assert_eq!(line, 5),
        other => panic!("wrong violation: {other:?}"),
    }
}

#[test]
fn deferred_cycle_rejected_with_lint_id() {
    let mut b = AppBuilder::new("t");
    let la = b.add_library("liba");
    let lb = b.add_library("libb");
    let h = b.add_app_module("handler", ms(1), 0);
    let a = b.add_library_module("liba", ms(2), 0, false, la);
    let bm = b.add_library_module("libb", ms(2), 0, false, lb);
    b.add_import(h, a, 2, ImportMode::Global).unwrap();
    b.add_import(h, bm, 3, ImportMode::Global).unwrap();
    b.add_import(bm, a, 1, ImportMode::Global).unwrap();
    b.add_import(a, bm, 1, ImportMode::Deferred).unwrap();
    let f = b.add_function("main", h, 4, vec![]);
    b.add_handler("main", f);
    let app = b.finish().unwrap();

    let err = verify_deferral(&app, "liba").unwrap_err();
    assert_eq!(err.lint_id(), "deferral-cycle");
    match err {
        SafetyViolation::DeferredCycle { cycle, .. } => {
            assert_eq!(cycle, vec!["libb", "liba", "libb"]);
        }
        other => panic!("wrong violation: {other:?}"),
    }
}

#[test]
fn analyzer_flags_deployed_unsafe_deferral_as_error() {
    // Ship the implicit-parent app with the unsafe deferral already
    // applied: the deferral-safety pass must produce an error-severity
    // diagnostic, which is exactly what fails `slimstart lint` and trips
    // the pipeline's pre-deployment gate.
    let broken = defer_package(&implicit_parent_app(), "lib.sub");
    let report = Analyzer::with_default_passes().analyze(&broken, None);
    assert!(report.has_errors());
    let diag = report
        .with_lint("deferral-parent-side-effects")
        .next()
        .expect("the unsafe deployed deferral is reported");
    assert_eq!(diag.severity, Severity::Error);
    assert_eq!(diag.span.file, "handler.py");
    assert!(diag.suggestion.is_some(), "an un-defer edit is suggested");
}

#[test]
fn analyzer_is_clean_on_verifier_approved_rewrites() {
    // Whatever the verifier lets the optimizer do must also satisfy the
    // analyzer's deferral-safety pass afterwards: gate and verifier agree.
    for seed in [3u64, 11, 29] {
        let built = build_app(&random_blueprint(seed), seed).expect("blueprint builds");
        let mut app = built.app;
        let tree = ReferencePackageTree::of(&app);
        let candidates: Vec<String> = tree.iter().map(|n| n.path.clone()).collect();
        for package in candidates {
            if verify_deferral(&app, &package).is_ok() {
                app = defer_package(&app, &package);
            }
        }
        let report = Analyzer::with_default_passes().analyze(&app, None);
        assert!(
            !report.has_errors(),
            "seed {seed}: analyzer rejected a verifier-approved rewrite:\n{}",
            report.render_text()
        );
    }
}
