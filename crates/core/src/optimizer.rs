//! The automated code optimizer (paper §IV-B).
//!
//! For every deferrable flagged package, the optimizer finds the *boundary*
//! global imports — declarations whose importer lies outside the package but
//! whose target lies inside — comments them out, and re-introduces the
//! import at the target's first use point. Package-internal imports are left
//! untouched: when the deferred package finally loads, its own subtree loads
//! with it, preserving Python semantics.
//!
//! Safety: before every deferral the optimizer consults the
//! [`slimstart_analyzer`] deferral-safety verifier against the live
//! application — side-effectful subtrees, side-effectful implicit parents,
//! import-time touches and deferred-import cycles are all refused — so the
//! transformation preserves observable behaviour even when the detector's
//! report is stale or wrong.

use slimstart_analyzer::ModuleIndex;
use slimstart_appmodel::source::CodeEdit;
use slimstart_appmodel::{Application, FunctionId, ImportMode, ModuleId};

use crate::detect::{InefficiencyReport, SkipReason};

/// The result of applying the optimizer to an application.
#[derive(Debug, Clone)]
pub struct OptimizationOutcome {
    /// The rewritten application (the input is left untouched).
    pub app: Application,
    /// Every line-level edit performed, for auditability.
    pub edits: Vec<CodeEdit>,
    /// Dotted paths of packages whose boundary imports were deferred.
    pub deferred_packages: Vec<String>,
    /// Flagged packages left eager, with the reason.
    pub skipped: Vec<(String, SkipReason)>,
}

/// Applies the report's deferrable findings to a copy of `app`.
///
/// # Example
///
/// Running the full pipeline produces a report and applies this function;
/// the outcome records every edit:
///
/// ```
/// use slimstart_core::pipeline::{Pipeline, PipelineConfig};
/// use slimstart_appmodel::catalog::by_code;
///
/// let entry = by_code("R-GB").expect("catalog entry");
/// let built = entry.build(7)?;
/// let mut config = PipelineConfig::default();
/// config.cold_starts = 25;
/// let outcome = Pipeline::new(config).run(&built.app, &entry.workload_weights())?;
/// let opt = outcome.optimization.as_ref().expect("R-GB optimizes");
/// assert!(opt.deferred_packages.iter().any(|p| p == "igraph.drawing"));
/// assert!(opt.edits.iter().all(|e| e.after.starts_with("# import ")));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn optimize(app: &Application, report: &InefficiencyReport) -> OptimizationOutcome {
    optimize_with_index(app, &ModuleIndex::build(app), report)
}

/// [`optimize`] against a module index already built from `app`.
pub(crate) fn optimize_with_index(
    app: &Application,
    index: &ModuleIndex,
    report: &InefficiencyReport,
) -> OptimizationOutcome {
    let mut optimized = app.clone();
    let mut edits = Vec::new();
    let mut deferred_packages = Vec::new();
    let mut skipped = Vec::new();

    for finding in &report.findings {
        if !finding.deferrable {
            skipped.push((
                finding.package.clone(),
                finding.skip_reason.unwrap_or(SkipReason::SideEffects),
            ));
            continue;
        }
        // Defence in depth: re-verify safety against the live application
        // rather than trusting the report blindly.
        let boundary = match index.deferral_boundary(app, &finding.package) {
            Ok(boundary) => boundary,
            Err(violation) => {
                skipped.push((
                    finding.package.clone(),
                    SkipReason::from_violation(&violation),
                ));
                continue;
            }
        };
        if boundary.is_empty() {
            continue;
        }
        for (importer, target, line) in boundary {
            optimized.set_import_mode(importer, target, ImportMode::Deferred);
            edits.push(make_edit(app, importer, target, line, &finding.package));
        }
        deferred_packages.push(finding.package.clone());
    }

    OptimizationOutcome {
        app: optimized,
        edits,
        deferred_packages,
        skipped,
    }
}

/// Conservative-mode optimization for runs whose profile was lost or
/// truncated (the resilience ladder's middle rung): the detector's findings
/// cannot be trusted — a rarely-used package may just have lost its samples
/// — so this ignores the profile entirely and defers only packages that are
/// *statically* never used: no handler's transitive call graph reaches
/// them, and the deferral-safety verifier accepts them. Deferral stays
/// behavior-preserving even if the static view is wrong (a deferred import
/// still loads on first use, unlike FaaSLight's stripping), so this rung
/// trades speedup for trust, never correctness.
///
/// Candidates are visited shallow-first (depth, then name) so a whole
/// never-used package defers at its root, its subtree riding along, and
/// the edit list is deterministic.
pub fn optimize_conservative(app: &Application) -> OptimizationOutcome {
    optimize_conservative_with_index(app, &ModuleIndex::build(app))
}

/// [`optimize_conservative`] against a module index already built from
/// `app`.
pub(crate) fn optimize_conservative_with_index(
    app: &Application,
    index: &ModuleIndex,
) -> OptimizationOutcome {
    fn within(package: &str, parent: &str) -> bool {
        package == parent
            || (package.len() > parent.len()
                && package.starts_with(parent)
                && package.as_bytes()[parent.len()] == b'.')
    }

    let mut optimized = app.clone();
    let mut edits = Vec::new();
    let mut deferred_packages: Vec<String> = Vec::new();

    let mut candidates: Vec<(usize, &str)> = app
        .modules()
        .iter()
        .filter(|m| m.library().is_some())
        .map(|m| (m.depth(), m.name()))
        .collect();
    candidates.sort_unstable();

    let handler_fns: Vec<FunctionId> = app.handlers().iter().map(|h| h.function()).collect();
    for (_, package) in candidates {
        if deferred_packages.iter().any(|p| within(package, p)) {
            continue;
        }
        let statically_used = handler_fns
            .iter()
            .any(|f| slimstart_appmodel::source::function_uses_package(app, *f, package));
        if statically_used {
            continue;
        }
        let Ok(boundary) = index.deferral_boundary(app, package) else {
            continue;
        };
        if boundary.is_empty() {
            continue;
        }
        for (importer, target, line) in boundary {
            optimized.set_import_mode(importer, target, ImportMode::Deferred);
            edits.push(make_edit(app, importer, target, line, package));
        }
        deferred_packages.push(package.to_string());
    }

    OptimizationOutcome {
        app: optimized,
        edits,
        deferred_packages,
        skipped: Vec::new(),
    }
}

/// Finds a function that (transitively) calls into the deferred `package`,
/// preferring handlers, to describe where the deferred import surfaces.
fn first_use_site(app: &Application, package: &str) -> Option<FunctionId> {
    let handler_fns: Vec<FunctionId> = app.handlers().iter().map(|h| h.function()).collect();
    for f in &handler_fns {
        if slimstart_appmodel::source::function_uses_package(app, *f, package) {
            return Some(*f);
        }
    }
    (0..app.functions().len())
        .map(FunctionId::from_index)
        .find(|f| {
            !app.module(app.function(*f).module()).in_package(package)
                && slimstart_appmodel::source::function_uses_package(app, *f, package)
        })
}

fn make_edit(
    app: &Application,
    importer: ModuleId,
    target: ModuleId,
    line: u32,
    package: &str,
) -> CodeEdit {
    let target_name = app.module(target).name();
    let inserted = match first_use_site(app, package) {
        Some(f) => {
            let func = app.function(f);
            let owner = app.module(func.module());
            format!(
                "import {target_name} inside {}() ({}:{})",
                func.name(),
                owner.file(),
                func.line()
            )
        }
        None => format!("import {target_name} — no live use site; removed from cold path"),
    };
    CodeEdit {
        file: app.module(importer).file().to_string(),
        line,
        before: format!("import {target_name}"),
        after: format!("# import {target_name}  # deferred by slimstart"),
        inserted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::app::AppBuilder;
    use slimstart_appmodel::function::{Stmt, StmtKind};
    use slimstart_appmodel::LibraryId;
    use slimstart_simcore::time::SimDuration;

    use crate::detect::{Finding, UsageClass};

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    fn app() -> Application {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("nltk");
        let h = b.add_app_module("handler", ms(1), 0);
        let root = b.add_library_module("nltk", ms(2), 0, false, lib);
        let sem = b.add_library_module("nltk.sem", ms(40), 0, false, lib);
        let logic = b.add_library_module("nltk.sem.logic", ms(10), 0, false, lib);
        let stem = b.add_library_module("nltk.stem", ms(20), 0, true, lib); // side-effectful
        b.add_import(h, root, 2, slimstart_appmodel::ImportMode::Global)
            .unwrap();
        b.add_import(root, sem, 147, slimstart_appmodel::ImportMode::Global)
            .unwrap();
        b.add_import(sem, logic, 2, slimstart_appmodel::ImportMode::Global)
            .unwrap();
        b.add_import(root, stem, 148, slimstart_appmodel::ImportMode::Global)
            .unwrap();
        let f_sem = b.add_function(
            "parse",
            sem,
            44,
            vec![Stmt {
                line: 45,
                kind: StmtKind::Work(ms(1)),
            }],
        );
        let f = b.add_function(
            "main",
            h,
            4,
            vec![Stmt {
                line: 5,
                kind: StmtKind::call(f_sem),
            }],
        );
        b.add_handler("main", f);
        b.finish().unwrap()
    }

    fn finding(package: &str, deferrable: bool) -> Finding {
        Finding {
            package: package.to_string(),
            library: LibraryId::from_index(0),
            class: UsageClass::Unused,
            utilization: 0.0,
            init_time: ms(40),
            init_fraction: 0.5,
            deferrable,
            skip_reason: (!deferrable).then_some(SkipReason::SideEffects),
        }
    }

    fn report(findings: Vec<Finding>) -> InefficiencyReport {
        InefficiencyReport {
            app_name: "t".into(),
            gate_passed: true,
            total_init: ms(73),
            e2e_mean: ms(80),
            init_share: 0.9,
            libraries: vec![],
            findings,
        }
    }

    #[test]
    fn defers_boundary_import_only() {
        let app = app();
        let out = optimize(&app, &report(vec![finding("nltk.sem", true)]));
        let root = out.app.module_by_name("nltk").unwrap();
        let sem = out.app.module_by_name("nltk.sem").unwrap();
        let logic = out.app.module_by_name("nltk.sem.logic").unwrap();
        // Boundary edge root→sem deferred; internal sem→logic untouched.
        let decl = out
            .app
            .imports_of(root)
            .iter()
            .find(|d| d.target == sem)
            .unwrap();
        assert!(decl.mode.is_deferred());
        let internal = out
            .app
            .imports_of(sem)
            .iter()
            .find(|d| d.target == logic)
            .unwrap();
        assert!(internal.mode.is_global());
        assert_eq!(out.deferred_packages, vec!["nltk.sem".to_string()]);
        assert_eq!(out.edits.len(), 1);
    }

    #[test]
    fn edit_records_the_rewrite() {
        let app = app();
        let out = optimize(&app, &report(vec![finding("nltk.sem", true)]));
        let edit = &out.edits[0];
        assert_eq!(edit.file, "nltk/__init__.py");
        assert_eq!(edit.line, 147);
        assert_eq!(edit.before, "import nltk.sem");
        assert!(edit.after.starts_with("# import nltk.sem"));
        // The first-use site is the handler chain into parse().
        assert!(edit.inserted.contains("main()"), "{}", edit.inserted);
    }

    #[test]
    fn side_effectful_package_is_skipped() {
        let app = app();
        let out = optimize(&app, &report(vec![finding("nltk.stem", false)]));
        assert!(out.edits.is_empty());
        assert_eq!(
            out.skipped,
            vec![("nltk.stem".to_string(), SkipReason::SideEffects)]
        );
        let root = out.app.module_by_name("nltk").unwrap();
        let stem = out.app.module_by_name("nltk.stem").unwrap();
        let decl = out
            .app
            .imports_of(root)
            .iter()
            .find(|d| d.target == stem)
            .unwrap();
        assert!(decl.mode.is_global());
    }

    #[test]
    fn safety_double_check_overrides_bad_report() {
        // A (buggy) report claims the side-effectful package is deferrable;
        // the optimizer must still refuse.
        let app = app();
        let out = optimize(&app, &report(vec![finding("nltk.stem", true)]));
        assert!(out.edits.is_empty());
        assert_eq!(out.skipped.len(), 1);
    }

    #[test]
    fn original_app_is_untouched() {
        let app = app();
        let _ = optimize(&app, &report(vec![finding("nltk.sem", true)]));
        let root = app.module_by_name("nltk").unwrap();
        assert!(app.imports_of(root).iter().all(|d| d.mode.is_global()));
    }

    #[test]
    fn whole_library_deferral_flips_handler_import() {
        let app = app();
        // nltk.stem is side-effectful, so the whole library is not
        // deferrable — use a clean sub-library check via nltk.sem.logic.
        let out = optimize(&app, &report(vec![finding("nltk.sem.logic", true)]));
        let sem = out.app.module_by_name("nltk.sem").unwrap();
        let logic = out.app.module_by_name("nltk.sem.logic").unwrap();
        let decl = out
            .app
            .imports_of(sem)
            .iter()
            .find(|d| d.target == logic)
            .unwrap();
        assert!(decl.mode.is_deferred());
    }

    #[test]
    fn missing_boundary_is_a_no_op() {
        let app = app();
        let out = optimize(&app, &report(vec![finding("totally.absent", true)]));
        assert!(out.edits.is_empty());
        assert!(out.deferred_packages.is_empty());
    }

    #[test]
    fn conservative_defers_only_statically_unused_safe_packages() {
        let app = app();
        let out = optimize_conservative(&app);
        // The handler chain reaches nltk.sem (so nltk and nltk.sem stay
        // eager); nltk.stem is side-effectful (verifier refuses); only the
        // never-called, side-effect-free nltk.sem.logic defers.
        assert_eq!(out.deferred_packages, vec!["nltk.sem.logic".to_string()]);
        let sem = out.app.module_by_name("nltk.sem").unwrap();
        let logic = out.app.module_by_name("nltk.sem.logic").unwrap();
        let decl = out
            .app
            .imports_of(sem)
            .iter()
            .find(|d| d.target == logic)
            .unwrap();
        assert!(decl.mode.is_deferred());
    }

    #[test]
    fn conservative_defers_whole_unused_library_at_its_root() {
        // A handler that never touches the library at all: the root defers
        // and the subtree rides along (no per-child edits).
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("pandas");
        let h = b.add_app_module("handler", ms(1), 0);
        let root = b.add_library_module("pandas", ms(5), 0, false, lib);
        let sub = b.add_library_module("pandas.io", ms(30), 0, false, lib);
        b.add_import(h, root, 2, slimstart_appmodel::ImportMode::Global)
            .unwrap();
        b.add_import(root, sub, 3, slimstart_appmodel::ImportMode::Global)
            .unwrap();
        let f = b.add_function(
            "main",
            h,
            4,
            vec![Stmt {
                line: 5,
                kind: StmtKind::Work(ms(1)),
            }],
        );
        b.add_handler("main", f);
        let app = b.finish().unwrap();

        let out = optimize_conservative(&app);
        assert_eq!(out.deferred_packages, vec!["pandas".to_string()]);
        assert_eq!(out.edits.len(), 1, "one boundary edit at the root");
        // The internal pandas→pandas.io edge stays global.
        let root = out.app.module_by_name("pandas").unwrap();
        let sub = out.app.module_by_name("pandas.io").unwrap();
        let internal = out
            .app
            .imports_of(root)
            .iter()
            .find(|d| d.target == sub)
            .unwrap();
        assert!(internal.mode.is_global());
    }

    #[test]
    fn conservative_is_deterministic() {
        let app = app();
        let a = optimize_conservative(&app);
        let b = optimize_conservative(&app);
        assert_eq!(a.deferred_packages, b.deferred_packages);
        assert_eq!(a.edits.len(), b.edits.len());
    }
}
