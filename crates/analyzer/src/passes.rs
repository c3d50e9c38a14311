//! The analysis passes and the [`Analyzer`] driver.
//!
//! Each pass implements [`AnalysisPass`] and appends [`Diagnostic`]s to a
//! shared sink; the driver runs every registered pass over one
//! [`AnalysisContext`] and returns the sorted [`AnalysisReport`]. The five
//! default passes:
//!
//! | pass                | lint ids                                   |
//! |---------------------|--------------------------------------------|
//! | deferral safety     | `deferral-side-effects`, `deferral-parent-side-effects`, `deferral-touch-before-call`, `deferral-cycle` |
//! | dead imports        | `dead-import`                              |
//! | duplicate imports   | `redundant-import`, `shadowed-deferral`    |
//! | import cycles       | `import-cycle`                             |
//! | over-approximation  | `over-approximation`                       |
//!
//! The [`crate::antipattern`] module contributes six further passes (one
//! per anti-pattern lint id); [`Analyzer::with_antipattern_passes`]
//! registers all eleven:
//!
//! | pass                       | lint ids                     |
//! |----------------------------|------------------------------|
//! | eager-monolithic-init      | `eager-monolithic-init`      |
//! | oversized-dependency-tree  | `oversized-dependency-tree`  |
//! | init-in-handler            | `init-in-handler`            |
//! | missing-connection-reuse   | `missing-connection-reuse`   |
//! | unused-heavy-library       | `unused-heavy-library`       |
//! | handler-hot-import         | `handler-hot-import`         |

use std::collections::HashSet;

use slimstart_appmodel::source::CodeEdit;
use slimstart_appmodel::{Application, LibraryId, ModuleId};
use slimstart_faaslight::reachability::StaticAnalysis;
use slimstart_faaslight::strip_unreachable;
use slimstart_simcore::time::SimDuration;

use crate::context::AnalysisContext;
use crate::diagnostic::{AnalysisReport, Diagnostic, Severity, Span};
use crate::usage::ObservedUsage;

/// One static-analysis pass.
pub trait AnalysisPass {
    /// Stable machine name of the pass.
    fn id(&self) -> &'static str;
    /// One-line description for `--help`-style listings.
    fn description(&self) -> &'static str;
    /// Runs the pass, appending findings to `out`.
    fn run(&self, ctx: &AnalysisContext<'_>, out: &mut Vec<Diagnostic>);
}

/// Runs a configurable sequence of passes over an application.
#[derive(Default)]
pub struct Analyzer {
    passes: Vec<Box<dyn AnalysisPass>>,
}

impl Analyzer {
    /// An analyzer with no passes registered.
    pub fn new() -> Analyzer {
        Analyzer::default()
    }

    /// The standard five-pass configuration.
    pub fn with_default_passes() -> Analyzer {
        let mut a = Analyzer::new();
        a.register(Box::new(DeferralSafetyPass));
        a.register(Box::new(DeadImportPass));
        a.register(Box::new(DuplicateImportPass));
        a.register(Box::new(ImportCyclePass));
        a.register(Box::new(OverApproximationPass));
        a
    }

    /// Adds a pass to the end of the sequence.
    pub fn register(&mut self, pass: Box<dyn AnalysisPass>) {
        self.passes.push(pass);
    }

    /// The registered passes, in execution order.
    pub fn passes(&self) -> &[Box<dyn AnalysisPass>] {
        &self.passes
    }

    /// Runs every pass over `app` and returns the sorted report. Passes
    /// that need profile data (the over-approximation auditor) are skipped
    /// silently when `usage` is `None`.
    pub fn analyze(&self, app: &Application, usage: Option<&ObservedUsage>) -> AnalysisReport {
        self.run(&AnalysisContext::new(app, usage))
    }

    /// Runs every pass over an already-built context and returns the
    /// sorted report, as [`Analyzer::analyze`] does.
    pub(crate) fn run(&self, ctx: &AnalysisContext<'_>) -> AnalysisReport {
        let mut report = AnalysisReport {
            app_name: ctx.app.name().to_string(),
            diagnostics: Vec::new(),
        };
        for pass in &self.passes {
            pass.run(ctx, &mut report.diagnostics);
        }
        report.sort();
        report
    }
}

/// Pass 1: the deferral-safety verifier (see [`crate::safety`]).
///
/// Already-deferred imports that fail verification are **errors** — the
/// application as deployed reorders or hides side effects. Candidate
/// packages whose deferral *would* be unsafe are **warnings**: the
/// optimizer will refuse them, and the diagnostic explains why.
pub struct DeferralSafetyPass;

impl AnalysisPass for DeferralSafetyPass {
    fn id(&self) -> &'static str {
        "deferral-safety"
    }

    fn description(&self) -> &'static str {
        "verify deployed and candidate import deferrals preserve behaviour"
    }

    fn run(&self, ctx: &AnalysisContext<'_>, out: &mut Vec<Diagnostic>) {
        let app = ctx.app;
        for (importer, decl) in app.all_imports() {
            if !decl.mode.is_deferred() {
                continue;
            }
            if let Err(v) = ctx.index.verify_deferred_import(app, importer, decl.target) {
                let imp = app.module(importer);
                let target = app.module(decl.target).name();
                out.push(Diagnostic {
                    lint_id: v.lint_id(),
                    severity: Severity::Error,
                    span: Span::new(imp.file(), decl.line),
                    message: format!("deployed deferred import of `{target}` is unsafe: {v}"),
                    suggestion: Some(CodeEdit {
                        file: imp.file().to_string(),
                        line: decl.line,
                        before: format!(
                            "# import {target}  # line {} (deferred by slimstart)",
                            decl.line
                        ),
                        after: format!("import {target}  # line {}", decl.line),
                        inserted: "eager import restored".to_string(),
                    }),
                });
            }
        }
        for package in ctx.index.tree().packages(app) {
            let path = package.path();
            if let Err(v) = ctx.index.package_deferral_boundary(app, &package) {
                let (file, line) = {
                    let (f, l) = v.span();
                    (f.to_string(), l)
                };
                out.push(Diagnostic {
                    lint_id: v.lint_id(),
                    severity: Severity::Warning,
                    span: Span { file, line },
                    message: format!("candidate deferral of `{path}` is unsafe: {v}"),
                    suggestion: None,
                });
            }
        }
    }
}

/// Pass 2: dead global imports — the importer's functions never reach the
/// target subtree, the import is not a package re-export, and the subtree
/// is side-effect-free (so the import cannot exist *for* its effects).
pub struct DeadImportPass;

impl AnalysisPass for DeadImportPass {
    fn id(&self) -> &'static str {
        "dead-imports"
    }

    fn description(&self) -> &'static str {
        "find global imports whose target no function of the importer reaches"
    }

    fn run(&self, ctx: &AnalysisContext<'_>, out: &mut Vec<Diagnostic>) {
        let app = ctx.app;
        let by_module = app.functions_by_module();
        for (importer, decl) in app.all_imports() {
            if !decl.mode.is_global() {
                continue;
            }
            let imp = app.module(importer);
            let target = app.module(decl.target);
            let tname = target.name();
            // Package re-exports (parent importing its own subtree) and
            // ancestor imports are structural, not use-driven.
            if target.in_package(imp.name()) || imp.in_package(tname) {
                continue;
            }
            // An import can exist solely for its side effects (plugin
            // registration); keep those.
            if app
                .modules()
                .iter()
                .any(|m| m.in_package(tname) && m.side_effectful())
            {
                continue;
            }
            let used = by_module[importer.index()]
                .iter()
                .any(|f| slimstart_appmodel::source::function_uses_package(app, *f, tname));
            if used {
                continue;
            }
            out.push(Diagnostic {
                lint_id: "dead-import",
                severity: Severity::Warning,
                span: Span::new(imp.file(), decl.line),
                message: format!(
                    "global import of `{tname}` is dead: no function in `{}` reaches it",
                    imp.name()
                ),
                suggestion: Some(CodeEdit {
                    file: imp.file().to_string(),
                    line: decl.line,
                    before: format!("import {tname}  # line {}", decl.line),
                    after: format!("# import {tname}  # removed (dead import)"),
                    inserted: "nothing — no use site exists".to_string(),
                }),
            });
        }
    }
}

/// Pass 3: duplicate and shadowed imports.
///
/// `redundant-import` (info): a global import whose target another global
/// import of the same module already loads (directly, transitively or as an
/// implicit parent). `shadowed-deferral` (warning): a deferred import whose
/// target still loads eagerly at cold start through some other path — the
/// deferral buys nothing.
pub struct DuplicateImportPass;

impl AnalysisPass for DuplicateImportPass {
    fn id(&self) -> &'static str {
        "duplicate-imports"
    }

    fn description(&self) -> &'static str {
        "find imports made redundant or shadowed by other imports"
    }

    fn run(&self, ctx: &AnalysisContext<'_>, out: &mut Vec<Diagnostic>) {
        let app = ctx.app;
        let eager = ctx.eager_closure_all_handlers();
        for m in 0..app.modules().len() {
            let mid = ModuleId::from_index(m);
            let decls = app.imports_of(mid);
            // Each declaration's target closure, computed at most once and
            // dropped with this importer: `loads(k, t)` is whether loading
            // declaration k's target brings in module t.
            let mut closures: Vec<Option<Vec<bool>>> = vec![None; decls.len()];
            let mut loads = |k: usize, t: ModuleId| {
                closures[k].get_or_insert_with(|| {
                    ctx.index
                        .closure(app, &[decls[k].target], |_, dd| dd.mode.is_global())
                })[t.index()]
            };
            for (i, d) in decls.iter().enumerate() {
                if d.mode.is_deferred() {
                    if eager[d.target.index()] {
                        let imp = app.module(mid);
                        let tname = app.module(d.target).name();
                        out.push(Diagnostic {
                            lint_id: "shadowed-deferral",
                            severity: Severity::Warning,
                            span: Span::new(imp.file(), d.line),
                            message: format!(
                                "deferred import of `{tname}` is shadowed: the module still \
                                 loads eagerly at cold start through another import path"
                            ),
                            suggestion: None,
                        });
                    }
                    continue;
                }
                for (j, d2) in decls.iter().enumerate() {
                    if i == j || !d2.mode.is_global() {
                        continue;
                    }
                    if !loads(j, d.target) {
                        continue;
                    }
                    // Mutual cover (both load each other): keep the earlier
                    // declaration, flag the later one only.
                    if loads(i, d2.target) && (d.line, i) < (d2.line, j) {
                        continue;
                    }
                    let imp = app.module(mid);
                    let tname = app.module(d.target).name();
                    let other = app.module(d2.target).name();
                    out.push(Diagnostic {
                        lint_id: "redundant-import",
                        severity: Severity::Info,
                        span: Span::new(imp.file(), d.line),
                        message: format!(
                            "global import of `{tname}` is redundant: already loaded by \
                             `import {other}` (line {})",
                            d2.line
                        ),
                        suggestion: Some(CodeEdit {
                            file: imp.file().to_string(),
                            line: d.line,
                            before: format!("import {tname}  # line {}", d.line),
                            after: format!("# import {tname}  # removed (redundant)"),
                            inserted: format!("nothing — `import {other}` already loads it"),
                        }),
                    });
                    break;
                }
            }
        }
    }
}

/// Pass 4: import-cycle reporting with the full cycle path.
///
/// `AppBuilder::finish` rejects cycles among *global* imports, so any cycle
/// found here threads at least one deferred edge — legal to build, but a
/// re-entrant lazy load at runtime and a maintenance hazard.
pub struct ImportCyclePass;

impl AnalysisPass for ImportCyclePass {
    fn id(&self) -> &'static str {
        "import-cycles"
    }

    fn description(&self) -> &'static str {
        "report cycles in the import graph with their full path"
    }

    fn run(&self, ctx: &AnalysisContext<'_>, out: &mut Vec<Diagnostic>) {
        let app = ctx.app;
        let n = app.modules().len();
        let mut color = vec![0u8; n]; // 0 = white, 1 = on stack, 2 = done
        let mut path: Vec<ModuleId> = Vec::new();
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        for m in 0..n {
            if color[m] == 0 {
                dfs_cycles(
                    app,
                    ModuleId::from_index(m),
                    &mut color,
                    &mut path,
                    &mut seen,
                    out,
                );
            }
        }
    }
}

fn dfs_cycles(
    app: &Application,
    node: ModuleId,
    color: &mut [u8],
    path: &mut Vec<ModuleId>,
    seen: &mut HashSet<Vec<usize>>,
    out: &mut Vec<Diagnostic>,
) {
    color[node.index()] = 1;
    path.push(node);
    for decl in app.imports_of(node) {
        match color[decl.target.index()] {
            1 => {
                let pos = path
                    .iter()
                    .position(|p| *p == decl.target)
                    .expect("on-stack node is in path");
                let cycle: Vec<ModuleId> = path[pos..].to_vec();
                // Canonical form: rotate so the smallest index leads, so
                // each cycle is reported once no matter where DFS entered.
                let mut key: Vec<usize> = cycle.iter().map(|m| m.index()).collect();
                let min_at = key
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, v)| **v)
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                key.rotate_left(min_at);
                if seen.insert(key) {
                    let mut names: Vec<&str> =
                        cycle.iter().map(|m| app.module(*m).name()).collect();
                    names.push(app.module(decl.target).name());
                    out.push(Diagnostic {
                        lint_id: "import-cycle",
                        severity: Severity::Warning,
                        span: Span::new(app.module(node).file(), decl.line),
                        message: format!(
                            "import cycle through deferred edges: {}",
                            names.join(" -> ")
                        ),
                        suggestion: None,
                    });
                }
            }
            0 => dfs_cycles(app, decl.target, color, path, seen, out),
            _ => {}
        }
    }
    path.pop();
    color[node.index()] = 2;
}

/// Pass 5: the over-approximation auditor (the paper's Fig. 2 gap).
///
/// Diffs what static analysis keeps (FaaSLight reachability + stripping)
/// against what the dynamic profile observed: a library subtree that
/// survives static analysis but was never used in any profiled invocation
/// is pure static over-approximation — exactly the init cost profile-guided
/// deferral can remove and reachability cannot.
pub struct OverApproximationPass;

impl AnalysisPass for OverApproximationPass {
    fn id(&self) -> &'static str {
        "over-approximation"
    }

    fn description(&self) -> &'static str {
        "diff static reachability against profile-observed usage"
    }

    fn run(&self, ctx: &AnalysisContext<'_>, out: &mut Vec<Diagnostic>) {
        let Some(usage) = ctx.usage else {
            return;
        };
        let app = ctx.app;
        let tree = ctx.index.tree();
        let stripped = strip_unreachable(app);
        let analysis = StaticAnalysis::analyze(app);
        for (li, lib) in app.libraries().iter().enumerate() {
            let pinned = analysis.is_pinned(LibraryId::from_index(li));
            let mut stack = vec![tree.package(app, lib.name())];
            while let Some(package) = stack.pop() {
                let modules = tree.members(&package);
                if modules.is_empty() {
                    continue;
                }
                let p = package.path();
                // Subtrees FaaSLight already strips are not kept at all.
                if modules.iter().all(|m| stripped.app.module(*m).stripped()) {
                    continue;
                }
                if observed_fraction(usage, p) == 0.0 {
                    let init = modules
                        .iter()
                        .map(|m| app.module(*m).init_cost())
                        .fold(SimDuration::ZERO, |a, b| a + b);
                    if init > SimDuration::ZERO {
                        // The package's own module sorts first among its
                        // members; without one, the span cites the first
                        // member in package-tree order.
                        let span = Span::new(app.module(modules[0]).file(), 1);
                        let pin_note = if pinned {
                            " (library pinned wholesale by an indirect call)"
                        } else {
                            ""
                        };
                        out.push(Diagnostic {
                            lint_id: "over-approximation",
                            severity: Severity::Info,
                            span,
                            message: format!(
                                "static analysis keeps `{p}` ({:.1} ms of init) but the \
                                 profile never observed it across {} invocations{pin_note}",
                                init.as_millis_f64(),
                                usage.total_runtime_samples
                            ),
                            suggestion: None,
                        });
                    }
                    // Report at the highest unused level only.
                    continue;
                }
                stack.extend(tree.children(app, &package));
            }
        }
    }
}

/// Observed use fraction for `path`: the maximum over recorded keys at or
/// below `path`. Keys *above* it are not evidence — a profile that saw
/// `lib` (because `lib.hot` ran) says nothing about `lib.wdead`.
pub(crate) fn observed_fraction(usage: &ObservedUsage, path: &str) -> f64 {
    usage
        .by_package
        .iter()
        .filter(|(key, _)| covers(path, key))
        .fold(0.0, |acc, (_, frac)| acc.max(*frac))
}

/// Whether dotted path `outer` equals or contains `inner`.
pub(crate) fn covers(outer: &str, inner: &str) -> bool {
    inner == outer
        || (inner.len() > outer.len()
            && inner.starts_with(outer)
            && inner.as_bytes()[outer.len()] == b'.')
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimstart_appmodel::app::AppBuilder;
    use slimstart_appmodel::function::{Stmt, StmtKind};
    use slimstart_appmodel::ImportMode;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    fn run_pass(pass: &dyn AnalysisPass, app: &Application) -> Vec<Diagnostic> {
        let ctx = AnalysisContext::new(app, None);
        let mut out = Vec::new();
        pass.run(&ctx, &mut out);
        out
    }

    #[test]
    fn default_analyzer_has_five_passes() {
        let a = Analyzer::with_default_passes();
        let ids: Vec<&str> = a.passes().iter().map(|p| p.id()).collect();
        assert_eq!(
            ids,
            vec![
                "deferral-safety",
                "dead-imports",
                "duplicate-imports",
                "import-cycles",
                "over-approximation"
            ]
        );
    }

    #[test]
    fn dead_import_is_flagged_with_removal_edit() {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let dead = b.add_library("deadlib");
        let h = b.add_app_module("handler", ms(1), 0);
        let root = b.add_library_module("lib", ms(1), 0, false, lib);
        let d = b.add_library_module("deadlib", ms(1), 0, false, dead);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        b.add_import(h, d, 3, ImportMode::Global).unwrap();
        let api = b.add_function("lib.api", root, 1, vec![]);
        let f = b.add_function(
            "main",
            h,
            4,
            vec![Stmt {
                line: 5,
                kind: StmtKind::call(api),
            }],
        );
        b.add_handler("main", f);
        let app = b.finish().unwrap();
        let out = run_pass(&DeadImportPass, &app);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint_id, "dead-import");
        assert!(out[0].message.contains("deadlib"));
        assert!(out[0].suggestion.is_some());
        // The used import is not flagged.
        assert!(!out.iter().any(|d| d.message.contains("`lib`")));
    }

    #[test]
    fn side_effectful_import_is_not_dead() {
        let mut b = AppBuilder::new("t");
        let plug = b.add_library("plugins");
        let h = b.add_app_module("handler", ms(1), 0);
        let p = b.add_library_module("plugins", ms(1), 0, true, plug);
        b.add_import(h, p, 2, ImportMode::Global).unwrap();
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        let app = b.finish().unwrap();
        assert!(run_pass(&DeadImportPass, &app).is_empty());
    }

    #[test]
    fn redundant_ancestor_import_is_flagged_on_later_line() {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let root = b.add_library_module("lib", ms(1), 0, false, lib);
        let sub = b.add_library_module("lib.sub", ms(1), 0, false, lib);
        // `import lib.sub` (line 2) already loads `lib` as its parent, so
        // `import lib` (line 3) is redundant.
        b.add_import(h, sub, 2, ImportMode::Global).unwrap();
        b.add_import(h, root, 3, ImportMode::Global).unwrap();
        let api = b.add_function("lib.api", sub, 1, vec![]);
        let f = b.add_function(
            "main",
            h,
            4,
            vec![Stmt {
                line: 5,
                kind: StmtKind::call(api),
            }],
        );
        b.add_handler("main", f);
        let app = b.finish().unwrap();
        let out = run_pass(&DuplicateImportPass, &app);
        let redundant: Vec<_> = out
            .iter()
            .filter(|d| d.lint_id == "redundant-import")
            .collect();
        assert_eq!(redundant.len(), 1);
        assert_eq!(redundant[0].span.line, 3);
        assert_eq!(redundant[0].severity, Severity::Info);
    }

    #[test]
    fn shadowed_deferral_is_flagged() {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let root = b.add_library_module("lib", ms(1), 0, false, lib);
        let sub = b.add_library_module("lib.sub", ms(1), 0, false, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        b.add_import(root, sub, 1, ImportMode::Global).unwrap();
        // Deferring h -> lib.sub is pointless: lib.sub still loads eagerly
        // through lib's own global import.
        b.add_import(h, sub, 3, ImportMode::Deferred).unwrap();
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        let app = b.finish().unwrap();
        let out = run_pass(&DuplicateImportPass, &app);
        let shadowed: Vec<_> = out
            .iter()
            .filter(|d| d.lint_id == "shadowed-deferral")
            .collect();
        assert_eq!(shadowed.len(), 1);
        assert_eq!(shadowed[0].severity, Severity::Warning);
    }

    #[test]
    fn import_cycle_reports_full_path_once() {
        let mut b = AppBuilder::new("t");
        let la = b.add_library("liba");
        let lb = b.add_library("libb");
        let h = b.add_app_module("handler", ms(1), 0);
        let a = b.add_library_module("liba", ms(1), 0, false, la);
        let bm = b.add_library_module("libb", ms(1), 0, false, lb);
        b.add_import(h, a, 2, ImportMode::Global).unwrap();
        b.add_import(a, bm, 1, ImportMode::Global).unwrap();
        b.add_import(bm, a, 1, ImportMode::Deferred).unwrap();
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        let app = b.finish().unwrap();
        let out = run_pass(&ImportCyclePass, &app);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint_id, "import-cycle");
        assert!(
            out[0].message.contains("liba -> libb -> liba")
                || out[0].message.contains("libb -> liba -> libb"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn acyclic_graph_reports_nothing() {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let root = b.add_library_module("lib", ms(1), 0, false, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        let app = b.finish().unwrap();
        assert!(run_pass(&ImportCyclePass, &app).is_empty());
    }

    #[test]
    fn deferral_safety_pass_warns_on_unsafe_candidates_and_errors_on_deployed() {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let _root = b.add_library_module("lib", ms(1), 0, true, lib);
        let sub = b.add_library_module("lib.sub", ms(1), 0, false, lib);
        // A deployed deferral whose lazy closure drags in the side-effectful
        // root that nothing loads eagerly.
        b.add_import(h, sub, 2, ImportMode::Deferred).unwrap();
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        let app = b.finish().unwrap();
        let out = run_pass(&DeferralSafetyPass, &app);
        assert!(out
            .iter()
            .any(|d| d.severity == Severity::Error && d.lint_id == "deferral-parent-side-effects"));
    }

    #[test]
    fn over_approximation_reports_unused_kept_subtrees() {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let root = b.add_library_module("lib", ms(1), 0, false, lib);
        let hot = b.add_library_module("lib.hot", ms(5), 0, false, lib);
        let wdead = b.add_library_module("lib.wdead", ms(40), 0, false, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        b.add_import(root, hot, 1, ImportMode::Global).unwrap();
        b.add_import(root, wdead, 2, ImportMode::Global).unwrap();
        let f_hot = b.add_function("hot_fn", hot, 1, vec![]);
        let f_dead = b.add_function("wdead_fn", wdead, 1, vec![]);
        let f = b.add_function(
            "main",
            h,
            4,
            vec![Stmt {
                line: 5,
                kind: StmtKind::call(f_hot),
            }],
        );
        let g = b.add_function(
            "admin",
            h,
            20,
            vec![Stmt {
                line: 21,
                kind: StmtKind::call(f_dead),
            }],
        );
        b.add_handler("main", f);
        b.add_handler("admin", g);
        let app = b.finish().unwrap();

        // Profile: lib and lib.hot observed; lib.wdead never (the admin
        // handler exists but the workload never invokes it — Fig. 2's gap).
        let mut usage = ObservedUsage {
            total_runtime_samples: 500,
            by_package: Default::default(),
        };
        usage.by_package.insert("lib".into(), 1.0);
        usage.by_package.insert("lib.hot".into(), 1.0);

        let ctx = AnalysisContext::new(&app, Some(&usage));
        let mut out = Vec::new();
        OverApproximationPass.run(&ctx, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].lint_id, "over-approximation");
        assert!(out[0].message.contains("lib.wdead"));
        assert!(out[0].message.contains("500 invocations"));
        assert_eq!(out[0].severity, Severity::Info);
    }

    #[test]
    fn over_approximation_span_cites_the_first_member_in_tree_order() {
        // `lib` has no module of its own, so its span cites a member: the
        // first in package-tree order, `lib.a`, whichever child was added
        // first.
        for names in [["lib.b", "lib.a"], ["lib.a", "lib.b"]] {
            let mut b = AppBuilder::new("t");
            let lib = b.add_library("lib");
            let h = b.add_app_module("handler", ms(1), 0);
            let mut calls = Vec::new();
            for (i, name) in names.into_iter().enumerate() {
                let m = b.add_library_module(name, ms(5), 0, false, lib);
                b.add_import(h, m, 1 + i as u32, ImportMode::Global)
                    .unwrap();
                let api = b.add_function(format!("{name}.api"), m, 1, vec![]);
                calls.push(Stmt {
                    line: 5 + i as u32,
                    kind: StmtKind::call(api),
                });
            }
            let f = b.add_function("main", h, 4, calls);
            b.add_handler("main", f);
            let app = b.finish().unwrap();

            let usage = ObservedUsage {
                total_runtime_samples: 10,
                by_package: Default::default(),
            };
            let ctx = AnalysisContext::new(&app, Some(&usage));
            let mut out = Vec::new();
            OverApproximationPass.run(&ctx, &mut out);
            assert_eq!(out.len(), 1, "{out:?}");
            assert!(out[0].message.contains("`lib`"), "{out:?}");
            assert_eq!(out[0].span.file, "lib/a.py", "children added as {names:?}");
        }
    }

    #[test]
    fn over_approximation_needs_usage() {
        let mut b = AppBuilder::new("t");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let root = b.add_library_module("lib", ms(1), 0, false, lib);
        b.add_import(h, root, 2, ImportMode::Global).unwrap();
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        let app = b.finish().unwrap();
        assert!(run_pass(&OverApproximationPass, &app).is_empty());
    }

    #[test]
    fn analyze_sorts_and_names_the_report() {
        let mut b = AppBuilder::new("demo");
        let lib = b.add_library("lib");
        let h = b.add_app_module("handler", ms(1), 0);
        let _root = b.add_library_module("lib", ms(1), 0, true, lib);
        let sub = b.add_library_module("lib.sub", ms(1), 0, false, lib);
        b.add_import(h, sub, 2, ImportMode::Deferred).unwrap();
        let f = b.add_function("main", h, 4, vec![]);
        b.add_handler("main", f);
        let app = b.finish().unwrap();
        let report = Analyzer::with_default_passes().analyze(&app, None);
        assert_eq!(report.app_name, "demo");
        assert!(report.has_errors());
        for w in report.diagnostics.windows(2) {
            assert!(w[0].severity >= w[1].severity);
        }
    }
}
